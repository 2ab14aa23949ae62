"""Unit and property tests for the discrete-event engine.

The ordering contract is stated here without a reference engine: whatever
mix of scheduling calls produced them, exactly the non-cancelled entries
fire, sorted by ``(time, scheduling order)``.
"""

import math
import random

import pytest

from repro.simulator.engine import (
    DeadlockError,
    SerialDrain,
    SimulationError,
    Simulator,
)


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


def test_run_until_before_now_raises():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, 5)
    sim.schedule(9.0, fired.append, 9)
    sim.run(until=6.0)
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=2.0)
    assert sim.now == 6.0  # the clock never rewinds
    with pytest.raises(SimulationError):
        sim.post(3.0, fired.append, 3)
    sim.run()
    assert fired == [5, 9]


def test_max_events_runs_exactly_max_before_error():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=3)
    # exactly max_events events ran, and the excess stayed scheduled
    assert fired == [0, 1, 2]
    assert sim.events_executed == 3
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_max_events_exact_budget_completes():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run(max_events=3)  # exactly enough: no error
    assert sim.events_executed == 3


@pytest.mark.parametrize("run_kwargs", [{}, {"until": 10.0}], ids=["lean", "general"])
def test_raising_callback_is_consumed_and_run_resumes(run_kwargs):
    sim = Simulator()
    order = []

    def boom():
        order.append("boom")
        raise RuntimeError("boom")

    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, boom)
    sim.schedule(2.0, order.append, "b")
    sim.schedule(3.0, order.append, "c")
    with pytest.raises(RuntimeError):
        sim.run(**run_kwargs)
    assert order == ["a", "boom"]
    assert sim.now == 2.0
    sim.run(**run_kwargs)
    assert order == ["a", "boom", "b", "c"]
    assert sim.events_executed == 4


def test_serial_drain_shim_is_post():
    """``enqueue`` is ``post``: equal ready times with another event's seq
    between theirs fire in seq order, not adjacent."""
    sim = Simulator()
    order = []
    drain = SerialDrain(sim)
    drain.enqueue(5.0, order.append, "A")
    sim.post(5.0, order.append, "X")
    drain.enqueue(5.0, order.append, "B")
    sim.run()
    assert order == ["A", "X", "B"]


# --------------------------------------------------------------------- #
# the ordering contract as a property


def _random_program(sim, seed):
    """Install a self-extending random program on ``sim``.

    Returns ``(records, fired)``: ``records`` holds one ``[time, index,
    cancelled]`` per scheduling call, in call order; ``fired`` collects the
    indices as their callbacks run.  The random stream is consumed inside
    the callbacks, so one misordered event changes the rest of the program.
    """
    rng = random.Random(seed)
    records, fired, handles = [], [], []

    def submit(budget):
        op = rng.choice(["schedule", "at", "post", "call_soon", "bulk"])
        delay = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 1.5)])
        if op == "call_soon":
            delay = 0.0
        rec = [sim.now + delay, len(records), False]
        records.append(rec)

        def cb():
            assert sim.now == rec[0]
            fired.append(rec[1])
            for _ in range(rng.randint(0, 2) if budget else 0):
                submit(budget - 1)
            if handles and rng.random() < 0.25:
                handle, victim = handles.pop(rng.randrange(len(handles)))
                handle.cancel()
                if victim[1] not in fired:
                    victim[2] = True

        if op == "schedule":
            handles.append((sim.schedule(delay, cb), rec))
        elif op == "at":
            handles.append((sim.at(rec[0], cb), rec))
        elif op == "post":
            sim.post(rec[0], cb)
        elif op == "call_soon":
            handles.append((sim.call_soon(cb), rec))
        else:
            sim.schedule_bulk([(delay, cb, ())])

    for _ in range(12):
        submit(3)
    return records, fired


def _due(records, until=math.inf):
    return [r[1] for r in sorted(records) if not r[2] and r[0] <= until]


@pytest.mark.parametrize("mode", ["whole", "until", "max_events"])
@pytest.mark.parametrize("seed", range(12))
def test_random_programs_fire_by_time_then_scheduling_order(seed, mode):
    sim = Simulator()
    records, fired = _random_program(sim, seed)
    if mode == "until":
        for until in (0.5, 1.25):
            sim.run(until=until)
            assert fired == _due(records, until)
    elif mode == "max_events":
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=7)
        assert len(fired) == sim.events_executed == 7
    sim.run()
    assert fired == _due(records)
    assert sim.events_executed == len(fired) > 10
    assert any(r[2] for r in records)  # cancellations happened
