"""Deterministic discrete-event simulation engine.

The engine executes callbacks scheduled at absolute simulated times in
``(time, seq)`` order, so two events scheduled for the same instant fire in
scheduling order.  This makes every simulation in the repository
bit-reproducible, which the test suite relies on (e.g. a fault-free run and
a faulty run with recovery must produce identical application results).

:class:`Simulator` is one binary heap of ``[time, seq, fn, args]`` entries
and one loop that pops them.  ``seq`` is a global counter claimed when the
entry is scheduled; it is unique, so comparing two entries never looks past
it.  Entries are plain lists so :class:`EventHandle` cancels in place
(``fn = None``); the loop discards cancelled entries when they surface.
:meth:`Simulator.post` is :meth:`Simulator.at` without the handle, for
internal callers that never cancel (network deliveries, daemon hand-offs,
Event Logger service completions).  The contract is property-tested in
``tests/test_engine.py``.

Nothing in this module knows about processes, networks or MPI; those are
layered on top in :mod:`repro.simulator.process` and
:mod:`repro.simulator.network`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Base class for all simulation-level failures."""


class DeadlockError(SimulationError):
    """Raised when the event heap drains while registered actors still wait.

    A discrete-event simulation "hangs" by running out of events while some
    process is still blocked on a future that nothing will ever resolve.
    The engine detects this eagerly and reports the blocked actors so that
    protocol deadlocks show up as crisp test failures instead of silently
    truncated runs.
    """

    def __init__(self, blocked: list[str]) -> None:
        self.blocked = list(blocked)
        msg = "simulation deadlock; blocked actors: " + ", ".join(blocked)
        super().__init__(msg)


# entry layout: [time, seq, fn, args]; fn is None once cancelled
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class EventHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_FN] is None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        entry = self._entry
        entry[_FN] = None
        entry[_ARGS] = ()


class Simulator:
    """One event heap, popped in ``(time, seq)`` order.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, label)`` invoked for every event
        executed when tracing is enabled; useful when debugging protocol
        interleavings.
    """

    __slots__ = (
        "now", "_heap", "_seq", "_trace", "_events_executed", "_blocked_actors",
    )

    def __init__(self, trace: Optional[Callable[[float, str], None]] = None) -> None:
        self.now: float = 0.0
        self._heap: list[list[Any]] = []
        self._seq = 0
        self._trace = trace
        self._events_executed = 0
        # Actors register a "blocked reason" here so that deadlocks can be
        # diagnosed; see DeadlockError.
        self._blocked_actors: dict[Any, str] = {}

    # ------------------------------------------------------------------ #
    # scheduling

    # simlint: hot
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:  # also catches NaN
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    # simlint: hot
    def at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    # simlint: hot
    def post(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`at` without an :class:`EventHandle` (hot path).

        Internal callers that never cancel (network deliveries, daemon
        hand-offs) use this to skip one object allocation per event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, [time, seq, fn, args])

    def call_soon(self, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn`` at the current instant (after pending same-time events)."""
        return self.at(self.now, fn, *args)

    def schedule_bulk(
        self, items: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> None:
        """:meth:`schedule` every ``(delay, fn, args)`` triple, in order."""
        for delay, fn, args in items:
            self.schedule(delay, fn, *args)

    # ------------------------------------------------------------------ #
    # deadlock bookkeeping

    def mark_blocked(self, actor: Any, reason: str) -> None:
        """Record that ``actor`` is waiting for an external wake-up."""
        self._blocked_actors[actor] = reason

    def mark_unblocked(self, actor: Any) -> None:
        self._blocked_actors.pop(actor, None)

    # ------------------------------------------------------------------ #
    # execution

    @property
    def events_executed(self) -> int:
        return self._events_executed

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events at exactly
            ``until`` still execute).  Must not lie before ``now``.
        max_events:
            Safety valve for runaway protocols; exactly ``max_events``
            events execute, then SimulationError is raised if more are
            pending (the excess event stays scheduled).
        check_deadlock:
            When True (default) raise :class:`DeadlockError` if the queue
            drains while actors are still marked blocked.

        An event is consumed when it is popped, before its callback runs:
        if the callback raises, the exception propagates and a later
        ``run()`` resumes with the next entry.  Cancelled entries are
        dropped as they surface and never move the clock.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run into the past: until={until} < now={self.now}"
            )
        heap = self._heap
        pop = heappop
        if until is None and max_events is None and self._trace is None:
            executed = self._events_executed
            try:
                while heap:
                    time, _, fn, args = pop(heap)
                    if fn is not None:
                        self.now = time
                        executed += 1
                        fn(*args)
            finally:
                self._events_executed = executed
        else:
            trace = self._trace
            executed = 0
            while heap:
                time, _, fn, args = heap[0]
                if fn is None:
                    pop(heap)
                    continue
                if until is not None and time > until:
                    self.now = until
                    return
                if max_events is not None and executed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                pop(heap)
                self.now = time
                executed += 1
                self._events_executed += 1
                if trace is not None:
                    trace(time, getattr(fn, "__qualname__", repr(fn)))
                fn(*args)
        if check_deadlock and self._blocked_actors:
            raise DeadlockError(
                sorted(str(r) for r in self._blocked_actors.values())
            )


class SerialDrain:
    # Shim: the frozen benchmarks/e2e/probes.py imports this name and nothing in
    # src/ uses it; ROADMAP item 2(c) drops it with the engine.enqueue_* rows.
    __slots__ = ("enqueue",)

    def __init__(self, sim: Simulator) -> None:
        self.enqueue = sim.post
