"""Reference implementations the property tests compare ``src/`` against.

* :func:`full_scan` is a causal protocol whose piggyback build scans every
  held sequence instead of the dirty-creator worklist;
  ``tests/test_worklist_properties.py`` checks the worklist against it.
* :class:`ListEventSequence` is the list form of one window of a
  :class:`~repro.core.events.WindowTable`: every held determinant copied
  into a private clock-sorted list, no store, no spans, no columns.
  ``tests/test_events.py`` runs random programs over several creators of
  one table, each checked against its own list form.
* :func:`snapshot_fold` folds an Event Logger ack through its full
  snapshot (:func:`ack_snapshot`), the O(nprocs) fold the journal-slice
  fold of ``VProtocol.on_el_ack`` replaces;
  ``tests/test_ack_fold_properties.py`` holds every protocol's stable view
  to it.  :func:`merged_stable` is the fixed point a shard group's views
  converge to.
* :func:`factored_bytes` / :func:`flat_bytes` size a piggyback from its
  event list; ``src/`` sizes it from the counts its build loops keep, and
  ``tests/test_piggyback.py`` checks the two forms agree.
* :func:`causal_linear_extension` orders events by the causal order the
  paper's LogOn piggybacks follow; the simulator charges that order as a
  cost and never materializes it, and
  ``tests/test_protocol_properties.py`` checks that merging in this order
  ends in the same graph as merging the runs as shipped.

None is reachable from a :class:`~repro.runtime.config.ClusterConfig`:
test oracles, kept as small and as obviously right as possible.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import groupby
from operator import attrgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.core.bounds import BoundVector
from repro.core.distributed_el import EventLoggerGroup
from repro.core.event_logger import ElAck
from repro.core.events import Determinant
from repro.core.piggyback import factored_bytes_from_counts, flat_bytes_from_count
from repro.runtime.config import ClusterConfig


def full_scan(cls):
    """``cls`` with the worklist replaced by every registered creator, in
    sequence-creation order — the scan the worklist is a restriction of."""

    class FullScan(cls):
        __slots__ = ()

        def _build_candidates(self, dst, growth):
            self.probes.pb_build_seqs_scanned += len(growth.by_index)
            return list(growth.by_index)

    return FullScan


def ack_snapshot(ack: ElAck) -> dict[int, int]:
    """The stable vector an ack stands for (nonzero entries): its
    logger's journal up to ``upto``, last entry per creator winning."""
    return dict(ack.log[: ack.upto])


def snapshot_fold(view: dict[int, int], ack: ElAck) -> None:
    """Max-merge an ack's full snapshot into the creator -> stable clock
    map ``view``."""
    for creator, clock in ack_snapshot(ack).items():
        if clock > view.get(creator, 0):
            view[creator] = clock


def merged_stable(group: EventLoggerGroup) -> list[int]:
    """Elementwise max of the alive shards' merged views, dense."""
    out = BoundVector()
    for shard in group.shards:
        if shard.alive:
            out.update_max(shard.merged_view())
    return out.as_list(group.nprocs)


def factored_bytes(events: Sequence[Determinant], config: ClusterConfig) -> int:
    """Wire size of a factored piggyback: one group header per maximal
    same-creator stretch of ``events``."""
    groups = sum(1 for _ in groupby(events, key=attrgetter("creator")))
    return factored_bytes_from_counts(len(events), groups, config)


def flat_bytes(events: Sequence[Determinant], config: ClusterConfig) -> int:
    """Wire size of a flat (LogOn) piggyback of ``events``."""
    return flat_bytes_from_count(len(events), config)


def causal_linear_extension(events: Iterable[Determinant]) -> list[Determinant]:
    """``events`` in a linear extension of the causal order among them
    (Kahn's algorithm).

    The edges are the antecedence graph's: a chain edge from a creator's
    previous clock and a cross edge from ``(sender, dep)``, each counted
    when both ends are in ``events``.  Ties go to the smallest
    ``(creator, clock)``, so the order is deterministic.
    """
    by_id = {(d.creator, d.clock): d for d in events}
    succs: dict[tuple[int, int], list[tuple[int, int]]] = {e: [] for e in by_id}
    indeg = dict.fromkeys(by_id, 0)
    for (creator, clock), d in by_id.items():
        for pred in ((creator, clock - 1), (d.sender, d.dep)):
            if pred in by_id:
                succs[pred].append((creator, clock))
                indeg[(creator, clock)] += 1
    ready = [e for e, k in indeg.items() if k == 0]
    heapify(ready)
    order = []
    while ready:
        e = heappop(ready)
        order.append(by_id[e])
        for s in succs[e]:
            indeg[s] -= 1
            if indeg[s] == 0:
                heappush(ready, s)
    if len(order) != len(by_id):
        raise ValueError("causal order has a cycle")
    return order


class ListEventSequence:
    """Ordered, prunable list of one creator's determinants (the list form
    of a table window; same public behaviour, O(held) memory per
    holder)."""

    def __init__(self, creator: int) -> None:
        self.creator = creator
        self._clocks: list[int] = []
        self._dets: list[Determinant] = []
        self._offset = 0
        self.pruned_upto = 0
        self.max_clock = 0

    def __len__(self) -> int:
        return len(self._clocks) - self._offset

    @property
    def min_clock(self) -> Optional[int]:
        return self._clocks[self._offset] if self._offset < len(self._clocks) else None

    def __iter__(self) -> Iterator[Determinant]:
        return iter(self._dets[self._offset :])

    def get(self, clock: int) -> Optional[Determinant]:
        i = bisect_right(self._clocks, clock, lo=self._offset) - 1
        if i >= self._offset and self._clocks[i] == clock:
            return self._dets[i]
        return None

    def holds(self, clock: int) -> bool:
        return self.get(clock) is not None

    def append(self, det: Determinant) -> None:
        if det.creator != self.creator:
            raise ValueError(f"creator mismatch: {det.creator} != {self.creator}")
        clocks = self._clocks
        if len(self):
            last = clocks[-1]
            if det.clock <= last:
                raise ValueError(f"non-monotonic append: clock {det.clock} <= {last}")
        clocks.append(det.clock)
        self._dets.append(det)
        self.max_clock = det.clock

    def merge(self, dets: Iterable[Determinant]) -> int:
        added = 0
        pending: list[Determinant] = []
        for det in dets:
            if det.creator != self.creator:
                raise ValueError("creator mismatch in merge")
            if det.clock <= self.pruned_upto:
                continue
            if len(self) and det.clock <= self._clocks[-1]:
                if self.get(det.clock) is None:
                    pending.append(det)
                continue
            self.append(det)
            added += 1
        if pending:
            merged = {d.clock: d for d in self._dets[self._offset :]}
            for det in pending:
                if det.clock not in merged:
                    merged[det.clock] = det
                    added += 1
            items = sorted(merged.items())
            self._clocks = [c for c, _ in items]
            self._dets = [d for _, d in items]
            self._offset = 0
            self.max_clock = items[-1][0]
        return added

    def accept_run(
        self, first: int, last: int, backing: list, stable: int = 0, floor: int = 0
    ) -> int:
        """Raise the floor to ``floor``, then merge the run's clocks that
        are above the highest held clock or above ``stable``."""
        if floor > self.pruned_upto:
            self.pruned_upto = floor
        maxc = self.max_clock
        return self.merge(
            [backing[k - 1] for k in range(first, last + 1) if k > maxc or k > stable]
        )

    def index_window(self, bound: int, upto: int) -> tuple[list, int, int]:
        lo = bisect_right(self._clocks, bound, lo=self._offset)
        hi = bisect_right(self._clocks, upto, lo=lo)
        return self._dets, lo, hi

    def prune_upto(self, clock: int) -> int:
        if clock > self.pruned_upto:
            self.pruned_upto = clock
        clocks = self._clocks
        off = self._offset
        n = len(clocks)
        if off >= n or clock < clocks[off]:
            return 0
        if clock >= clocks[-1]:
            floor = self.pruned_upto
            self.__init__(self.creator)  # type: ignore[misc]
            self.pruned_upto = floor
            return n - off
        i = bisect_right(clocks, clock, lo=off)
        self._offset = i
        return i - off

    def export_state(self) -> dict[str, Any]:
        return {"dets": list(self), "pruned_upto": self.pruned_upto}

    @classmethod
    def from_state(cls, creator: int, state: Any) -> "ListEventSequence":
        seq = cls(creator)
        if isinstance(state, dict):
            seq.pruned_upto = state["pruned_upto"]
            dets = state["dets"]
        else:
            dets = state
        for det in dets:
            seq.append(det)
        return seq
