"""Vcausal piggyback reduction (paper §III-B.1).

Each node keeps **one ordered sequence of events per process**.  When node
A receives causality information from B, it appends it to its sequences and
remembers the last event of each creator it saw on that channel.  When A
sends to B, it piggybacks, for every creator p, all events from that
remembered bound to the end of its sequence, then advances the bound.

There is a total order between the causal events generated by a single
node, so all events are propagated and no event is sent twice between two
nodes.  No graph is maintained: the reduction is weak (events known to B
through *third parties* are still re-sent) but the computation cost is a
plain sequence scan — this is the "light computation cost at the expense of
a weak piggyback size reduction" protocol.

With an Event Logger, sequences are pruned up to the acknowledged stable
clocks, which is where the dramatic size reduction of Fig. 7 comes from.

Each sequence is an :class:`~repro.core.events.EventSequence` window over
the cluster's interned backing list for its creator, so a "tail" is a
clock range: the build ships one ``(creator, first, last)`` run and its
backing list per held span (O(dirty creators)), the accept extends the
receiver's window span-at-a-time (O(runs)), and an ack prune is a floor
raise per moved creator.  Simulated bytes and costs are functions of the
event and group counts only, never of how the runs are split.
"""

from __future__ import annotations

from typing import Any, Optional

from math import log2

from repro.core.bounds import BoundVector
from repro.core.events import (
    Determinant, DeterminantStore, EventSequence, GrowthLog,
)
from repro.core.piggyback import Piggyback, Run, factored_bytes_from_counts
from repro.core.protocol_base import VProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class VcausalProtocol(VProtocol):
    """Sequence-based causal message logging."""

    __slots__ = (
        "seqs",
        "channel_bound",
        "_held",
        "_growth",
        "_fresh_prune",
        "_live",
        "_fresh_set",
    )

    uses_event_logger = True
    name = "vcausal"

    def __init__(
        self,
        rank: int,
        nprocs: int,
        config: ClusterConfig,
        probes: ProcessProbes,
        store: Optional[DeterminantStore] = None,
    ) -> None:
        super().__init__(rank, nprocs, config, probes, store)
        #: creator -> ordered determinant sequence (own events included)
        self.seqs: dict[int, EventSequence] = {}
        #: peer -> sparse per-creator clock bound already exchanged on that
        #: channel (only creators actually seen on the channel are stored)
        self.channel_bound: dict[int, BoundVector] = {}
        #: maintained count of determinants across all sequences; kept equal
        #: to scan_events_held() at every hook boundary (O(1) per message
        #: instead of an O(#creators) scan)
        self._held = 0
        #: dirty-creator worklist backing (shared scheme with the graph
        #: protocols; see VProtocol._build_candidates)
        self._growth = GrowthLog()
        #: creators whose sequences were created since the last EL ack:
        #: their prune floors must catch up with already-stable clocks at
        #: the next ack even when nothing moved (see on_el_ack)
        self._fresh_prune: list[int] = []
        #: creators whose sequence window is nonempty — the only
        #: sequences an ack can actually prune.  Kept in sync at every
        #: append (accept/on_local_event) and every prune.
        self._live: dict[int, EventSequence] = {}
        #: set twin of _fresh_prune, consulted by the accept-time floor
        #: freshening (a fresh floor stays at its creation value until
        #: the next ack re-floors it)
        self._fresh_set: set[int] = set()

    # ------------------------------------------------------------------ #

    def _seq(self, creator: int) -> EventSequence:
        seq = self.seqs.get(creator)
        if seq is None:
            seq = self.seqs[creator] = EventSequence(creator, self.store)
            self._growth.register(creator)
            self._fresh_prune.append(creator)
            self._fresh_set.add(creator)
        return seq

    def _bound(self, peer: int) -> BoundVector:
        b = self.channel_bound.get(peer)
        if b is None:
            b = self.channel_bound[peer] = BoundVector()
        return b

    # ------------------------------------------------------------------ #
    # fault-free hooks

    # simlint: hot
    def build_piggyback(self, dst: int) -> Piggyback:
        bound = self._bound(dst).data
        bget = bound.get
        sget = self._sv.get
        cfg = self.config
        runs: list[Run] = []
        backings: list[list] = []
        n = groups = 0
        # an empty-window creator can never contribute — its max_clock is
        # 0 — so walk the dirty list intersected with the live set.
        # Filtering preserves the dirty list's sequence-creation order, so
        # piggybacks stay byte-identical to a scan of every held sequence.
        lget = self._live.get
        for creator in self._build_candidates(dst, self._growth):
            seq = lget(creator)
            if seq is None:
                continue
            lo = bget(creator, 0)
            s = sget(creator, 0)
            if s > lo:
                lo = s
            mc = seq.max_clock
            if mc <= lo:
                continue  # nothing new on this channel for this creator
            n += seq.extend_tail_runs(runs, backings, lo)
            groups += 1
            bound[creator] = mc
        # sparse mode charges the held sequences, not nprocs.  The charge
        # is deliberately worklist-independent (len(seqs) even when the
        # worklist scanned fewer): the worklist is a host wall-clock
        # optimisation and must not change simulated results — the reduced
        # scan is surfaced through pb_build_seqs_scanned instead.
        cost = (
            cfg.cost_piggyback_fixed_s
            + self._pb_send_scan_cost(len(self.seqs))
            + n * cfg.cost_serialize_event_s
            + cfg.cost_seq_pressure_s * log2(1 + self._held)
        )
        self.probes.pb_send_ops += n
        self.probes.pb_send_time_s += cost
        nbytes = factored_bytes_from_counts(n, groups, cfg)
        return Piggyback(tuple(runs), tuple(backings), n, groups, nbytes, cost)

    def on_local_event(self, det: Determinant) -> None:
        seq = self._seq(self.rank)
        seq.append(det)
        self._held += 1
        self._live[self.rank] = seq
        self._growth.mark_grown(self.rank)
        self.probes.note_events_held(self._held)

    # simlint: hot
    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        bound = self._bound(src).data
        bget = bound.get
        sget = self._sv.get
        fresh_set = self._fresh_set
        seqs = self.seqs
        probes = self.probes
        live = self._live
        mark_grown = self._growth.mark_grown
        added = 0
        acc_runs = 0  # probe deltas accumulated locally, flushed once
        acc_fallback = 0
        # runs are clock ranges (tails of the sender's windows): an
        # all-new run is one span extension over the shared backing list
        # and an already-held run is skipped outright
        for (creator, first, last), backing in zip(pb.runs, pb.backings):
            seq = seqs.get(creator)
            if seq is None:
                seq = self._seq(creator)
            elif creator not in fresh_set:
                # journal-fold acks skip the eager floor raise on empty
                # windows; catch the floor up with the stable clock before
                # any duplicate test (fresh sequences keep their creation
                # floor until the next ack)
                f = sget(creator, 0)
                if f > seq.pruned_upto:
                    seq.pruned_upto = f
            count = last - first + 1
            # a run above everything held and stable needs no classifying
            split = (
                0
                if first > seq.max_clock and first > seq.pruned_upto
                else seq.new_run_offset(first, last, count)
            )
            if split is None:
                # holes on one side: per-determinant fallback, which admits
                # a missing clock below max_clock only when it is unstable
                acc_fallback += count
                maxc = seq.max_clock
                stable = sget(creator, 0)
                run_added = seq.merge(
                    [backing[k - 1] for k in range(first, last + 1) if k > maxc or k > stable]
                )
            else:
                acc_runs += 1
                run_added = (
                    seq.extend_monotonic(first + split, last, backing)
                    if split < count
                    else 0
                )
            if run_added:
                added += run_added
                mark_grown(creator)
                live[creator] = seq
            # src held these events: never send them back on this channel
            if last > bget(creator, 0):
                bound[creator] = last
        # src trivially knows its own events up to its clock at emission
        if dep > bget(src, 0):
            bound[src] = dep
        self._held += added
        n = pb.n_events
        # sparse mode: one bound entry touched per creator group plus src's
        cost = (
            self._pb_recv_scan_cost(pb.n_groups + 1)
            + n * self.config.cost_deserialize_event_s
        )
        probes.pb_accept_runs += acc_runs
        probes.pb_accept_fallback_dets += acc_fallback
        probes.pb_recv_ops += n
        probes.pb_recv_time_s += cost
        probes.note_events_held(self._held)
        return cost

    def _fold_raises(self, moved: dict[int, int]) -> None:
        # VProtocol.on_el_ack's fold step.  Only creators whose stable
        # clock moved can have anything new to prune, so merge with one
        # dict.update and prune only the nonempty sequences that moved;
        # the floor raise on *empty* windows is deferred (re-applied at
        # the next touch in accept_piggyback and flushed in export_state).
        # Sequences created since the last ack are re-floored even when
        # their clock did not move.
        live = self._live
        dropped = 0
        if moved:
            self._sv.update(moved)
            # walk the smaller side of the (moved ∩ live) join
            if len(live) <= len(moved):
                mget = moved.get
                hits = [(s, k) for c, s in live.items() if (k := mget(c)) is not None]
            else:
                lget = live.get
                hits = [(s, k) for c, k in moved.items() if (s := lget(c)) is not None]
            for seq, k in hits:
                dropped += seq.prune_upto(k)
                if not seq.max_clock:
                    del live[seq.creator]
        if self._fresh_prune:
            dropped += self._refloor_fresh()
        self._held -= dropped

    def _fold_vector(self, vector: dict[int, int]) -> None:
        vget = self._sv.get
        self._fold_raises({c: k for c, k in vector.items() if k > vget(c, 0)})

    def _refloor_fresh(self) -> int:
        """Prune the sequences created since the last ack to their stable
        clocks; returns the number of determinants dropped."""
        dropped = 0
        vget = self._sv.get
        seqs = self.seqs
        live = self._live
        for c in self._fresh_prune:
            seq = seqs[c]
            dropped += seq.prune_upto(vget(c, 0))
            if not seq.max_clock:
                live.pop(c, None)
        self._fresh_prune = []
        self._fresh_set.clear()
        return dropped

    # ------------------------------------------------------------------ #
    # recovery / checkpoint

    def events_created_by(self, creator: int) -> list[Determinant]:
        seq = self.seqs.get(creator)
        return list(seq) if seq is not None else []

    def events_held(self) -> int:
        return self._held

    def scan_events_held(self) -> int:
        """O(#creators) recount of :meth:`events_held` (tests verify equality)."""
        return sum(len(s) for s in self.seqs.values())

    def export_state(self) -> dict[str, Any]:
        # flush the lazily deferred floor raises (empty windows the
        # journal fold skipped) so checkpoint images carry exact floors;
        # fresh sequences keep their creation floor until the next ack
        sget = self._sv.get
        fresh_set = self._fresh_set
        for c, seq in self.seqs.items():
            if c not in fresh_set:
                f = sget(c, 0)
                if f > seq.pruned_upto:
                    seq.pruned_upto = f
        return {
            "seqs": {c: s.export_state() for c, s in self.seqs.items()},
            "channel_bound": {
                p: b.export_state() for p, b in self.channel_bound.items()
            },
            "stable": self._stable_list(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.seqs = {
            creator: EventSequence.from_state(creator, s, self.store)
            for creator, s in state["seqs"].items()
        }
        self._held = self.scan_events_held()
        self.channel_bound = {
            p: BoundVector.from_state(b) for p, b in state["channel_bound"].items()
        }
        self._restore_stable(state["stable"])
        # repopulate the worklist and drop the channel cursors: every
        # restored sequence counts as freshly grown so the first build on
        # each channel rescans them all against the restored channel
        # bounds.  An empty growth log (or a stale cursor on an in-place
        # restore) would mark everything clean and the next piggyback
        # would ship nothing — a stale, under-full piggyback that orphans
        # the receiver (regression-tested in tests/test_worklist_properties.py).
        self._growth.repopulate(self.seqs)
        self._chan_synced = {}
        # restored sequences carry restored prune floors, but the next ack
        # must still re-floor them against the restored stable vector
        self._fresh_prune = list(self.seqs)
        self._fresh_set = set(self.seqs)
        self._live = {c: s for c, s in self.seqs.items() if len(s)}
