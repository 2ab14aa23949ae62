"""Property test: the macro-event engine honours the ``(time, seq)`` contract.

Random schedules of ``schedule`` / ``at`` / ``post`` / ``call_soon`` /
``schedule_bulk`` with interleaved cancellations — including callbacks that
schedule and cancel from inside the run — must produce identical
``(time, label)`` traces, ``events_executed`` counters and clocks on the
coalescing :class:`Simulator` and on the one-heap-entry-per-event oracle
(:class:`tests.oracles.HeapSimulator`), across the plain, ``until``,
``max_events`` and deadlock execution paths; random
:class:`SerialDrain` programs must match the oracle fed one ``post`` per
entry.

The random stream is consumed *inside* the callbacks, so any ordering
divergence immediately snowballs into different programs — a much stronger
check than comparing externally generated schedules.
"""

import random

import pytest

from repro.simulator.engine import (
    DeadlockError,
    SerialDrain,
    SimulationError,
    Simulator,
)
from tests.oracles import HeapSimulator

ENGINES = [Simulator, HeapSimulator]

SEEDS = range(12)


def _build_program(sim, seed, trace):
    """Install a self-extending random program on ``sim``.

    Callbacks record ``(now, label)`` and randomly schedule/cancel more
    work through every scheduling API.
    """
    rng = random.Random(seed)
    handles = []
    counter = [0]

    def make_cb(label, budget):
        def cb():
            trace.append((round(sim.now, 12), label))
            if budget > 0:
                for _ in range(rng.randint(0, 2)):
                    counter[0] += 1
                    child = make_cb(f"{label}.{counter[0]}", budget - 1)
                    delay = rng.choice(
                        [0.0, 0.0, 0.25, rng.uniform(0.0, 1.5)]
                    )
                    op = rng.random()
                    if op < 0.30:
                        handles.append(sim.schedule(delay, child))
                    elif op < 0.50:
                        sim.post(sim.now + delay, child)
                    elif op < 0.65:
                        handles.append(sim.call_soon(child))
                    elif op < 0.80:
                        sim.schedule_bulk([(delay, child, ())])
                    else:
                        handles.append(sim.at(sim.now + delay, child))
            if handles and rng.random() < 0.25:
                handles.pop(rng.randrange(len(handles))).cancel()

        return cb

    for i in range(10):
        delay = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.0, 2.0)])
        handles.append(sim.schedule(delay, make_cb(f"r{i}", 3)))
    # a bulk batch and a couple of same-time events to seed wide buckets
    sim.schedule_bulk(
        [(0.5, make_cb("b0", 2), ()), (0.5, make_cb("b1", 2), ()),
         (1.0, make_cb("b2", 2), ())]
    )


def _run_both(seed, driver, build=_build_program):
    results = []
    for engine in ENGINES:
        sim = engine()
        trace = []
        build(sim, seed, trace)
        outcome = driver(sim)
        results.append(
            {
                "trace": trace,
                "events": sim.events_executed,
                "now": sim.now,
                "outcome": outcome,
            }
        )
    coal, ref = results
    assert coal == ref, f"engines diverged for seed {seed}"
    return coal


@pytest.mark.parametrize("seed", SEEDS)
def test_full_runs_identical(seed):
    result = _run_both(seed, lambda sim: sim.run())
    assert result["events"] == len(result["trace"])
    assert result["events"] > 10


@pytest.mark.parametrize("seed", SEEDS)
def test_until_segments_identical(seed):
    def driver(sim):
        sim.run(until=0.5)
        mid = list(sim.now for _ in range(1))
        sim.run(until=1.25)
        sim.run()
        return mid

    _run_both(seed, driver)


@pytest.mark.parametrize("seed", SEEDS)
def test_max_events_path_identical(seed):
    def driver(sim):
        outcomes = []
        try:
            sim.run(max_events=7)
            outcomes.append("completed")
        except SimulationError as exc:
            outcomes.append(str(exc))
        # resume to completion: the parked remainder must survive the raise
        sim.run()
        outcomes.append("done")
        return outcomes

    _run_both(seed, driver)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_deadlock_path_identical(seed):
    def driver(sim):
        sim.mark_blocked("actor", f"actor waiting (seed {seed})")
        try:
            sim.run()
            return "no deadlock"
        except DeadlockError as exc:
            return str(exc)

    result = _run_both(seed, driver)
    assert "actor waiting" in result["outcome"]


@pytest.mark.parametrize("engine", ENGINES)
def test_max_events_runs_exactly_max_before_error(engine):
    sim = engine()
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


@pytest.mark.parametrize("engine", ENGINES)
def test_max_events_exact_budget_completes(engine):
    sim = engine()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run(max_events=3)  # exactly enough: no error
    assert sim.events_executed == 3


@pytest.mark.parametrize("engine", ENGINES)
def test_serial_drain_orders_like_individual_posts(engine):
    """SerialDrain executes entries exactly where individually posted
    events with the claimed seqs would run."""
    sim = engine()
    order = []
    enqueue = SerialDrain(sim).enqueue if engine is Simulator else sim.post

    def deliver(tag):
        order.append((sim.now, tag))

    sim.schedule(0.0, enqueue, 1.0, deliver, "a")   # queued first
    sim.schedule(0.0, sim.post, 1.0, deliver, "x")  # competes at t=1.0
    sim.schedule(0.0, enqueue, 2.0, deliver, "b")
    sim.schedule(1.5, enqueue, 2.0, deliver, "c")   # joins pending queue
    sim.run()
    assert order == [(1.0, "a"), (1.0, "x"), (2.0, "b"), (2.0, "c")]
    assert sim.events_executed >= 5


# --------------------------------------------------------------------- #
# SerialDrain against the oracle fed one post per entry

TICK = 0.25  # coarse grid: resources and plain posts collide on instants


def _build_drain_program(sim, seed, trace, shapes):
    """Self-extending random program over three serial resources.

    On :class:`Simulator` each resource is a :class:`SerialDrain`; on the
    oracle ``enqueue`` is a plain ``post``, which claims the same seq at
    the same point.  Every shape stays inside the drain's contract —
    completions are booked strictly after ``now``, and two entries of one
    drain share a ready time only when enqueued back to back, the way a
    batch completes.  Outside it the drain is *not* order-exact, and no
    resource in ``src/`` goes there (each books ``start + duration`` with
    a positive duration): an entry booked for ``now`` runs after the rest
    of the instant, and equal ready times enqueued apart run adjacent even
    when another event's seq lies between theirs.
    """
    rng = random.Random(seed)
    n = 3
    if type(sim) is Simulator:
        enqueues = [SerialDrain(sim).enqueue for _ in range(n)]
    else:
        enqueues = [sim.post] * n
    booked = [0.0] * n  # latest completion booked on each resource
    counter = [0]

    def child(parent, budget, res):
        counter[0] += 1
        origin = "p" if res is None else f"d{res}"
        return make_cb(f"{origin}:{parent}.{counter[0]}", budget - 1, res)

    def make_cb(label, budget, res):
        """``res``: the resource this callback is delivered by, if any."""

        def cb():
            now = sim.now
            trace.append((now, label))
            if budget <= 0:
                return
            for _ in range(rng.randint(0, 3)):
                op = rng.random()
                if op < 0.3:
                    # plain post on the grid, possibly for this very instant
                    when = now + TICK * rng.randint(0, 4)
                    sim.post(when, child(label, budget, None))
                    continue
                r = res if res is not None and rng.random() < 0.5 else rng.randrange(n)
                if r == res:
                    shapes.add("enqueue from inside a delivery")
                if op < 0.5 and booked[r] - now >= 2 * TICK:
                    # ready time regressed below the queue's tail: the
                    # post_at_seq arm (booked[r] is left alone)
                    slots = round((booked[r] - now) / TICK)
                    ready = now + TICK * rng.randint(1, slots - 1)
                    shapes.add("regressed ready time")
                    enqueues[r](ready, child(label, budget, r))
                    continue
                ready = booked[r] = max(now, booked[r]) + TICK * rng.randint(1, 3)
                batch = rng.choice([1, 1, 2, 3])
                if batch > 1:
                    shapes.add("equal ready times")
                for _ in range(batch):
                    enqueues[r](ready, child(label, budget, r))

        return cb

    for i in range(6):
        sim.schedule(TICK * rng.randint(0, 3), make_cb(f"p:r{i}", 4, None))


def _run_drain_pair(seed, driver):
    shapes = set()
    result = _run_both(
        seed,
        driver,
        build=lambda sim, seed, trace: _build_drain_program(sim, seed, trace, shapes),
    )
    # an instant where a drain delivery and a plain post both ran
    origins = {}
    for when, label in result["trace"]:
        origins.setdefault(when, set()).add(label[0])
    if any(o == {"d", "p"} for o in origins.values()):
        shapes.add("plain post competing for the instant")
    return result, shapes


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_drain_programs_identical(seed):
    result, shapes = _run_drain_pair(seed, lambda sim: sim.run())
    assert result["events"] == len(result["trace"]) > 40
    assert shapes == {
        "equal ready times",
        "regressed ready time",
        "enqueue from inside a delivery",
        "plain post competing for the instant",
    }


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_serial_drain_until_segments_identical(seed):
    def driver(sim):
        sim.run(until=3 * TICK)
        sim.run(until=7.5 * TICK)
        sim.run()

    _run_drain_pair(seed, driver)
