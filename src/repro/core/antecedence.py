"""Antecedence graph shared by the Manetho and LogOn protocols.

The graph (paper Fig. 3) records the causal relationship between
non-deterministic events:

* vertices are reception determinants, identified by (creator, clock);
* each vertex has an implicit *chain* edge from (creator, clock-1); and
* a *cross* edge from (sender, dep) — the sender's last non-deterministic
  event preceding the emission of the received message.

Because each creator's events form a chain, "X knows event (c, k)" implies
"X knows every event of c with clock ≤ k" (the chain is in the causal
past), so per-peer knowledge is a vector of per-creator clock bounds, and
knowledge discovery is a traversal that walks unknown chain segments and
follows their cross edges.

The graph keeps no per-vertex side table: each creator's chain is a
window over the cluster's determinant store, and the cross edge is the
determinant's own ``(sender, dep)`` fields.  LogOn's partial-order
reordering is charged as a modelled cost (``cost_logon_reorder_s``), not
materialized here (see ``docs/PROTOCOLS.md``).

EL acknowledgements *prune* the graph: stable vertices and their incident
edges are dropped ("information avoiding the emission of unnecessary
events" is lost — pruned cross edges make knowledge discovery conservative,
never wrong, because stable events are excluded from piggybacks anyway).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.bounds import BoundVector
from repro.core.events import (
    Determinant, DeterminantStore, EventSequence, GrowthLog,
)
from repro.core.piggyback import Run


class AntecedenceGraph:
    """Prunable DAG of determinants with knowledge-traversal support."""

    def __init__(self, nprocs: int, store: Optional[DeterminantStore] = None) -> None:
        self.nprocs = nprocs
        #: every chain is a window over this store's backing lists
        self.store = store if store is not None else DeterminantStore()
        self.seqs: dict[int, EventSequence] = {}
        #: maintained vertex count (len() is on the per-message cost path)
        self._size = 0
        #: dirty-creator worklist backing: creators grown since any given
        #: channel cursor (see VProtocol._build_candidates); a creator
        #: whose tick is at or below a channel's cursor is clean for that
        #: channel and need not be scanned when building for it
        self.growth = GrowthLog()
        #: accept-path merge counters, mirrored into probes by the
        #: protocols: whole runs consumed via the O(1) classification vs
        #: determinants merged one by one through the fallback path
        self.run_merges = 0
        self.det_merges = 0

    # ------------------------------------------------------------------ #

    def _new_seq(self, creator: int) -> EventSequence:
        seq = self.seqs[creator] = EventSequence(creator, self.store)
        self.growth.register(creator)
        return seq

    def __contains__(self, event_id: tuple[int, int]) -> bool:
        seq = self.seqs.get(event_id[0])
        return seq is not None and seq.get(event_id[1]) is not None

    def __len__(self) -> int:
        return self._size

    def scan_size(self) -> int:
        """O(#creators) recount of ``len(self)`` (tests verify equality)."""
        return sum(len(s) for s in self.seqs.values())

    def get(self, creator: int, clock: int) -> Determinant | None:
        seq = self.seqs.get(creator)
        return seq.get(clock) if seq is not None else None

    # ------------------------------------------------------------------ #
    # construction

    def add(self, det: Determinant) -> bool:
        """Insert a vertex (and its implicit edges); False if already
        present or stable."""
        creator = det.creator
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self._new_seq(creator)
        if not seq.merge((det,)):
            return False
        self._size += 1
        self.growth.mark_grown(creator)
        return True

    def add_run(self, creator: int, first: int, last: int, backing: list) -> int:
        """Insert one piggyback run — clocks ``first..last`` of ``creator``
        read from ``backing`` — and return the vertices added.

        Equivalent to calling :meth:`add` per determinant in clock order,
        but the two frequent cases — every event new, every event already
        present — skip the per-event sequence probes.
        """
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self._new_seq(creator)
        count = last - first + 1
        split = seq.new_run_offset(first, last, count)
        if split is None:
            # unclassifiable run (holes / partial overlap): per-determinant
            # merge, which skips held and stable clocks
            self.det_merges += count
            n = seq.merge([backing[k - 1] for k in range(first, last + 1)])
        else:
            self.run_merges += 1
            if split == count:
                return 0  # whole run already present
            n = seq.extend_monotonic(first + split, last, backing)
        if n:
            self._size += n
            self.growth.mark_grown(creator)
        return n

    def prune(self, stable: dict[int, int]) -> int:
        """Drop vertices made stable by the EL; returns vertices dropped.

        Scans every chain on purpose: a chain's prune floor is only
        raised when its window is visited, so the per-ack full scan is
        what drops stale determinants re-admitted below already-stable
        clocks on the next ack (see ``GraphProtocol._fold_vector``).
        """
        dropped = 0
        sget = stable.get
        for creator, seq in self.seqs.items():
            bound = sget(creator, 0)
            lo = seq.min_clock
            if lo is None or bound < lo:
                continue
            dropped += seq.prune_upto(bound)
        self._size -= dropped
        return dropped

    # ------------------------------------------------------------------ #
    # knowledge traversal

    def raise_knowledge(self, start: tuple[int, int], known: BoundVector) -> int:
        """Raise per-creator ``known`` bounds to cover the causal past of
        ``start``; returns the number of graph steps visited (the cost).

        The traversal walks each creator's unknown chain segment once and
        follows cross edges.  Segments below the stable clock are pruned
        from the graph, making the traversal stop there (conservative).
        """
        kdata = known.data
        kget = kdata.get
        visits = 0
        stack = [start]
        while stack:
            creator, clock = stack.pop()
            bound = kget(creator, 0)
            if clock <= bound:
                continue
            kdata[creator] = clock
            seq = self.seqs.get(creator)
            if seq is None:
                continue
            # walk the chain segment (bound, clock] following cross edges;
            # index-based reverse walk over the backing list — no per-
            # segment tail copy on the send path
            dets, lo, hi = seq.index_window(bound, clock)
            for i in range(hi - 1, lo - 1, -1):
                det = dets[i]
                visits += 1
                if det.dep > 0 and det.dep > kget(det.sender, 0):
                    stack.append((det.sender, det.dep))
        return visits

    def select_unknown(
        self,
        known: BoundVector,
        stable: dict[int, int],
        candidates: list[int] | None = None,
    ) -> tuple[list[Run], list[list], int, int]:
        """Events not covered by ``known`` or the stable vector.

        Returns (clock-range runs grouped by creator in clock order, their
        backing lists, events covered — also the scan cost — and creator
        groups).
        ``known`` is raised in place over everything selected — every
        selected creator tail runs to the end of its sequence, so the new
        bound is that sequence's max clock.

        ``candidates`` restricts the scan to the given creators (the
        dirty-creator worklist, already in chain-creation order); ``None``
        scans every held chain.  A candidate list that is a superset of
        the creators with unknown events selects exactly what the full
        scan would.
        """
        runs: list[Run] = []
        backings: list[list] = []
        n = groups = 0
        kdata = known.data
        kget = kdata.get
        sget = stable.get
        if candidates is None:
            items = self.seqs.items()
        else:
            seqs = self.seqs
            items = [(c, seqs[c]) for c in candidates]
        for creator, seq in items:
            lo = kget(creator, 0)
            s = sget(creator, 0)
            if s > lo:
                lo = s
            if seq.max_clock <= lo:
                continue  # peer already covers this creator
            n += seq.extend_tail_runs(runs, backings, lo)
            groups += 1
            kdata[creator] = seq.max_clock
        return runs, backings, n, groups

    # ------------------------------------------------------------------ #

    def events_created_by(self, creator: int) -> list[Determinant]:
        seq = self.seqs.get(creator)
        return list(seq) if seq is not None else []

    def export_state(self) -> dict[str, Any]:
        return {"seqs": {c: s.export_state() for c, s in self.seqs.items()}}

    def restore_state(self, state: dict[str, Any]) -> None:
        # EventSequence.from_state restores each sequence's pruned_upto, so
        # a restored graph keeps refusing stale duplicates of events the EL
        # already made stable (add()/merge() would otherwise resurrect them
        # and silently re-grow the graph)
        self.seqs = {
            creator: EventSequence.from_state(creator, s, self.store)
            for creator, s in state["seqs"].items()
        }
        self._size = self.scan_size()
        # every restored chain counts as freshly grown, so the first build
        # on each channel after a restore scans them all (see
        # GrowthLog.repopulate; protocols also reset their channel cursors)
        self.growth.repopulate(self.seqs)
