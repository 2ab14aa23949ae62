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

Every vertex also carries a Lamport stamp ``L(e) = 1 + max(L(chain pred),
L(cross pred))``, the chain predecessor being the creator's nearest
*held* lower clock; sorting by it yields the partial-order piggyback
LogOn ships.  A vertex filling a hole below held clocks re-stamps those
successors, so each creator's events sort by clock even when a holder
learns them out of order (receivers store every creator run as one
clock-ascending sequence).  The order extends the causal order as the
holder knew it at each insertion: a cross predecessor learned after its
dependent does not re-stamp the dependent.

EL acknowledgements *prune* the graph: stable vertices and their incident
edges are dropped ("information avoiding the emission of unnecessary
events" is lost — pruned cross edges make knowledge discovery conservative,
never wrong, because stable events are excluded from piggybacks anyway).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.bounds import BoundVector
from repro.core.events import Determinant, EventSequence, GrowthLog, StableVector


class AntecedenceGraph:
    """Prunable DAG of determinants with knowledge-traversal support."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self.seqs: dict[int, EventSequence] = {}
        #: (creator, clock) -> Lamport stamp
        self.lamport: dict[tuple[int, int], int] = {}
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

    def _seq(self, creator: int) -> EventSequence:
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self._new_seq(creator)
        return seq

    def _new_seq(self, creator: int) -> EventSequence:
        seq = self.seqs[creator] = EventSequence(creator)
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
        """Insert a vertex (and its implicit edges); False if already present."""
        creator = det.creator
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self._new_seq(creator)
        clock = det.clock
        if clock <= seq.pruned_upto:
            return False  # stable (possibly compacted away): never re-admit
        if clock > seq.max_clock:
            seq.append(det)
            hole = False
        elif seq.holds(clock) or seq.merge([det]) == 0:
            return False
        else:
            hole = True
        lamport = self.lamport
        chain = self._stamp_below(seq, clock)
        cross = lamport.get((det.sender, det.dep), 0) if det.dep > 0 else 0
        stamp = lamport[(creator, clock)] = 1 + max(chain, cross)
        if hole:
            # rare path: held successors may carry stamps at or below
            # this one; raise them so the chain keeps sorting by clock
            dets, lo, hi = seq.index_window(clock, seq.max_clock)
            for i in range(lo, hi):
                key = (creator, dets[i].clock)
                if lamport[key] > stamp:
                    break
                stamp += 1
                lamport[key] = stamp
        self._size += 1
        self.growth.mark_grown(creator)
        return True

    def add_run(self, dets: Sequence[Determinant]) -> int:
        """Insert one creator run (clock-ascending); returns vertices added.

        Equivalent to calling :meth:`add` per determinant.  The factored
        piggyback accept path — and, since the LogOn run table, the flat
        one too — hands over whole creator runs, so the two frequent cases
        — every event new, every event already present — skip the
        per-event sequence probes.
        """
        first = dets[0]
        creator = first.creator
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self._new_seq(creator)
        count = len(dets)
        split = seq.new_run_offset(first.clock, dets[-1].clock, count)
        if split is None:
            # unclassifiable run (holes / partial overlap): per-determinant
            # fallback; add() marks growth itself
            self.det_merges += count
            added = 0
            for det in dets:
                if self.add(det):
                    added += 1
            return added
        self.run_merges += 1
        if split == count:
            return 0  # whole run already present
        new = dets[split:] if split else dets
        # the run lands above every held clock: each event's nearest held
        # chain predecessor is the previous one (the first's is below it)
        stamp = self._stamp_below(seq, new[0].clock)
        n = seq.extend_monotonic(new)
        lamport = self.lamport
        for det in new:
            cross = lamport.get((det.sender, det.dep), 0) if det.dep > 0 else 0
            stamp = lamport[(creator, det.clock)] = 1 + max(stamp, cross)
        self._size += n
        self.growth.mark_grown(creator)
        return n

    def _stamp_below(self, seq: EventSequence, clock: int) -> int:
        """Stamp of the nearest held clock of ``seq`` below ``clock``
        (0 when none is held)."""
        stamp = self.lamport.get((seq.creator, clock - 1))
        if stamp is not None:
            return stamp
        if clock - 1 <= seq.pruned_upto:
            return 0
        dets, lo, hi = seq.index_window(seq.pruned_upto, clock - 1)
        return self.lamport[(seq.creator, dets[hi - 1].clock)] if hi > lo else 0

    def prune(self, stable: StableVector) -> int:
        """Drop vertices made stable by the EL; returns vertices dropped.

        Scans every chain on purpose: a chain's prune floor is only
        raised when its window is visited, so the per-ack full scan is
        what drops stale determinants re-admitted below already-stable
        clocks on the next ack (see Manetho/LogOn ``on_el_ack``).
        """
        dropped = 0
        lamport = self.lamport
        for creator, seq in self.seqs.items():
            bound = stable[creator]
            lo = seq.min_clock
            if lo is None or bound < lo:
                continue
            for clock in seq.clocks_upto(bound):
                lamport.pop((creator, clock), None)
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
        stable: StableVector,
        candidates: list[int] | None = None,
    ) -> tuple[list[Determinant], int, list[tuple[int, int, int]]]:
        """Events not covered by ``known`` or the stable vector.

        Returns (events grouped by creator in clock order, scan cost,
        creator runs as ``(creator, start, stop)`` index triples).
        ``known`` is raised in place over everything selected — every
        selected creator tail runs to the end of its sequence, so the new
        bound is that sequence's max clock.

        ``candidates`` restricts the scan to the given creators (the
        dirty-creator worklist, already in chain-creation order); ``None``
        scans every held chain.  A candidate list that is a superset of
        the creators with unknown events selects exactly what the full
        scan would.
        """
        events: list[Determinant] = []
        visits = 0
        runs: list[tuple[int, int, int]] = []
        kdata = known.data
        kget = kdata.get
        sv = stable.view()
        if candidates is None:
            items = self.seqs.items()
        else:
            seqs = self.seqs
            items = [(c, seqs[c]) for c in candidates]
        for creator, seq in items:
            lo = kget(creator, 0)
            s = sv[creator]
            if s > lo:
                lo = s
            if seq.max_clock <= lo:
                continue  # peer already covers this creator
            start = len(events)
            n = seq.extend_tail_into(events, lo)
            if n:
                visits += n
                runs.append((creator, start, start + n))
                kdata[creator] = seq.max_clock
        return events, visits, runs

    def topological(self, events: list[Determinant]) -> list[Determinant]:
        """Order ``events`` by a linear extension of the causal order."""
        lam = self.lamport
        return sorted(
            events, key=lambda d: (lam.get((d.creator, d.clock), 0), d.creator, d.clock)
        )

    # ------------------------------------------------------------------ #

    def events_created_by(self, creator: int) -> list[Determinant]:
        seq = self.seqs.get(creator)
        return list(seq) if seq is not None else []

    def export_state(self) -> dict[str, Any]:
        return {
            "seqs": {c: s.export_state() for c, s in self.seqs.items()},
            "lamport": dict(self.lamport),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        # EventSequence.from_state restores each sequence's pruned_upto, so
        # a restored graph keeps refusing stale duplicates of events the EL
        # already made stable (add()/merge() would otherwise resurrect them
        # and silently re-grow the graph)
        self.seqs = {
            creator: EventSequence.from_state(creator, s)
            for creator, s in state["seqs"].items()
        }
        self._size = self.scan_size()
        self.lamport = dict(state["lamport"])
        # every restored chain counts as freshly grown, so the first build
        # on each channel after a restore scans them all (see
        # GrowthLog.repopulate; protocols also reset their channel cursors)
        self.growth.repopulate(self.seqs)
