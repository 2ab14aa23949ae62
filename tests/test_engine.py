"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.simulator.engine import DeadlockError, SimulationError, Simulator


def test_events_execute_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_execute_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_call_soon_runs_at_current_instant():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.call_soon(seen.append, sim.now))
    sim.run()
    assert seen == [1.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(0.5, handle.cancel)
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_nan_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)


def test_scheduling_into_the_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_run_until_stops_the_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 2)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 2]


def test_run_until_executes_events_at_exactly_until():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 1)
    sim.run(until=5.0)
    assert fired == [1]


def test_max_events_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_deadlock_detection_reports_blocked_actors():
    sim = Simulator()
    sim.mark_blocked("actor-1", "waiting on recv from rank 3")
    sim.schedule(1.0, lambda: None)
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "rank 3" in str(exc.value)


def test_unblocked_actor_clears_deadlock():
    sim = Simulator()
    sim.mark_blocked("a", "r")
    sim.mark_unblocked("a")
    sim.run()  # no raise


def test_deadlock_check_can_be_disabled():
    sim = Simulator()
    sim.mark_blocked("a", "r")
    sim.run(check_deadlock=False)


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_trace_hook_invoked():
    traced = []
    sim = Simulator(trace=lambda t, label: traced.append(t))
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert traced == [1.0, 2.0]


def test_post_schedules_without_handle():
    sim = Simulator()
    order = []
    sim.post(2.0, order.append, "b")
    sim.post(1.0, order.append, "a")
    assert sim.post(1.5, order.append, "m") is None
    sim.run()
    assert order == ["a", "m", "b"]
    assert sim.events_executed == 3


def test_post_into_the_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post(1.0, lambda: None)


def test_schedule_bulk_matches_sequential_semantics():
    order_bulk, order_seq = [], []

    sim = Simulator()
    sim.schedule_bulk(
        [(3.0, order_bulk.append, ("c",)), (1.0, order_bulk.append, ("a",)),
         (1.0, order_bulk.append, ("b",))]
    )
    sim.run()

    sim2 = Simulator()
    for delay, label in ((3.0, "c"), (1.0, "a"), (1.0, "b")):
        sim2.schedule(delay, order_seq.append, label)
    sim2.run()

    assert order_bulk == order_seq == ["a", "b", "c"]
    assert sim.events_executed == sim2.events_executed == 3


def test_schedule_bulk_interleaves_with_existing_heap():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "x")        # small heap, bulk >= heap
    sim.schedule_bulk([(1.0, order.append, ("a",)), (3.0, order.append, ("b",))])
    sim.run()
    assert order == ["a", "x", "b"]


def test_schedule_bulk_smaller_than_heap_uses_pushes():
    sim = Simulator()
    order = []
    for k in range(5):
        sim.schedule(float(k + 10), order.append, f"h{k}")
    sim.schedule_bulk([(1.0, order.append, ("bulk",))])
    sim.run()
    assert order[0] == "bulk"
    assert len(order) == 6


def test_schedule_bulk_rejects_negative_and_nan():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_bulk([(-1.0, lambda: None, ())])
    with pytest.raises(SimulationError):
        sim.schedule_bulk([(math.nan, lambda: None, ())])


def test_run_fast_path_counts_events_when_callback_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)

    def boom():
        raise RuntimeError("boom")

    sim.schedule(2.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    # both the successful and the raising event were counted
    assert sim.events_executed == 2


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    order = []

    def outer():
        order.append("outer")
        sim.schedule(1.0, inner)

    def inner():
        order.append("inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 2.0
