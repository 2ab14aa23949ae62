"""Reference implementations the property tests compare ``src/`` against.

Neither is reachable from a :class:`~repro.runtime.config.ClusterConfig`:
they are test oracles, kept as small and as obviously right as possible.

* :class:`HeapSimulator` — one heap entry per event, popped in
  ``(time, seq)`` order by a single loop.  It *is* the engine's ordering
  contract; ``tests/test_engine_coalescing.py`` checks the macro-event
  :class:`~repro.simulator.engine.Simulator` and
  :class:`~repro.simulator.engine.SerialDrain` against it.
* :func:`full_scan` — a causal protocol whose piggyback build scans every
  held sequence instead of the dirty-creator worklist;
  ``tests/test_worklist_properties.py`` checks the worklist against it.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.simulator.engine import DeadlockError, EventHandle, SimulationError


class HeapSimulator:
    """The scheduling API of ``Simulator`` over one plain event heap."""

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._heap = []  # [time, seq, fn, args]: the EventHandle layout
        self._seq = 0
        self._blocked = {}

    def at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq += 1
        entry = [time, self._seq, fn, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    post = at

    def schedule(self, delay, fn, *args):
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        return self.at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.at(self.now, fn, *args)

    def schedule_bulk(self, items):
        for delay, fn, args in items:
            self.schedule(delay, fn, *args)

    def mark_blocked(self, actor, reason):
        self._blocked[actor] = reason

    def run(self, until=None, max_events=None, check_deadlock=True):
        heap = self._heap
        executed = 0
        while heap:
            time, _seq, fn, args = heap[0]
            if fn is None:  # cancelled
                heappop(heap)
                continue
            if until is not None and time > until:
                self.now = until
                return
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            heappop(heap)
            self.now = time
            executed += 1
            self.events_executed += 1
            fn(*args)
        if check_deadlock and self._blocked:
            raise DeadlockError(sorted(str(r) for r in self._blocked.values()))


def full_scan(cls):
    """``cls`` with the worklist replaced by every registered creator, in
    sequence-creation order — the scan the worklist is a restriction of."""

    class FullScan(cls):
        __slots__ = ()

        def _build_candidates(self, dst, growth):
            self.probes.pb_build_seqs_scanned += len(growth.by_index)
            return list(growth.by_index)

    return FullScan
