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

The sequences are the windows of one
:class:`~repro.core.events.WindowTable` over the cluster's interned
backing lists, so a "tail" is a clock range: the build ships one
``(creator, first, last)`` run and its backing list per held span
(O(dirty creators)), the accept is interval arithmetic per run (O(runs)),
and an ack prune is a floor raise per moved creator.  Simulated bytes and
costs are functions of the event and group counts only, never of how the
runs are split.
"""

from __future__ import annotations

from typing import Any, Optional

from math import log2

from repro.core.bounds import BoundVector
from repro.core.events import Determinant, DeterminantStore, WindowTable
from repro.core.piggyback import Piggyback, Run, factored_bytes_from_counts
from repro.core.protocol_base import VProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class VcausalProtocol(VProtocol):
    """Sequence-based causal message logging."""

    __slots__ = ("windows", "channel_bound", "_fresh")

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
        #: creator -> ordered determinant window (own events included);
        #: its held count and growth log back the cost model and worklist
        self.windows = WindowTable(self.store)
        #: peer -> sparse per-creator clock bound already exchanged on that
        #: channel (only creators actually seen on the channel are stored)
        self.channel_bound: dict[int, BoundVector] = {}
        #: creators whose windows were created since the last EL ack:
        #: their floors stay at their creation value until the next ack
        #: re-floors them, even when nothing moved (see _fold_raises)
        self._fresh: set[int] = set()

    def _bound(self, peer: int) -> BoundVector:
        b = self.channel_bound.get(peer)
        if b is None:
            b = self.channel_bound[peer] = BoundVector()
        return b

    # ------------------------------------------------------------------ #
    # fault-free hooks

    # simlint: hot
    def build_piggyback(self, dst: int) -> Piggyback:
        cfg = self.config
        windows = self.windows
        runs: list[Run] = []
        backings: list[list] = []
        # the dirty list is in window-creation order, so piggybacks stay
        # byte-identical to a scan of every held window
        n, groups = windows.select_tails(
            self._build_candidates(dst, windows.growth),
            self._bound(dst).data, self._sv, runs, backings,
        )
        # sparse mode charges the windows, not nprocs.  The charge is
        # deliberately worklist-independent (every window ever created,
        # even when the worklist scanned fewer): the worklist is a host
        # wall-clock optimisation and must not change simulated results —
        # the reduced scan is surfaced through pb_build_seqs_scanned.
        cost = (
            cfg.cost_piggyback_fixed_s
            + self._pb_send_scan_cost(len(windows.floor))
            + n * cfg.cost_serialize_event_s
            + cfg.cost_seq_pressure_s * log2(1 + windows.held)
        )
        self.probes.pb_send_ops += n
        self.probes.pb_send_time_s += cost
        nbytes = factored_bytes_from_counts(n, groups, cfg)
        return Piggyback(tuple(runs), tuple(backings), n, groups, nbytes, cost)

    def on_local_event(self, det: Determinant) -> None:
        windows = self.windows
        if self.rank not in windows.floor:
            self._fresh.add(self.rank)
        windows.append(self.rank, det)
        self.probes.note_events_held(windows.held)

    # simlint: hot
    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        bound = self._bound(src).data
        bget = bound.get
        sget = self._sv.get
        fresh = self._fresh
        windows = self.windows
        wfloor = windows.floor
        accept = windows.accept_run
        probes = self.probes
        r0, d0 = windows.run_merges, windows.det_merges
        for (creator, first, last), backing in zip(pb.runs, pb.backings):
            if creator not in wfloor:
                fresh.add(creator)
            # journal-fold acks skip the floor raise on empty windows: the
            # accept catches a floor up with the stable clock before any
            # duplicate test (fresh windows keep their creation floor
            # until the next ack)
            s = sget(creator, 0)
            accept(creator, first, last, backing, s, 0 if creator in fresh else s)
            # src held these events: never send them back on this channel
            if last > bget(creator, 0):
                bound[creator] = last
        # src trivially knows its own events up to its clock at emission
        if dep > bget(src, 0):
            bound[src] = dep
        n = pb.n_events
        # sparse mode: one bound entry touched per creator group plus src's
        cost = (
            self._pb_recv_scan_cost(pb.n_groups + 1)
            + n * self.config.cost_deserialize_event_s
        )
        probes.pb_accept_runs += windows.run_merges - r0
        probes.pb_accept_fallback_dets += windows.det_merges - d0
        probes.pb_recv_ops += n
        probes.pb_recv_time_s += cost
        probes.note_events_held(windows.held)
        return cost

    def _fold_raises(self, moved: dict[int, int]) -> None:
        # VProtocol.on_el_ack's fold step.  Only creators whose stable
        # clock moved can have anything new to prune, so merge with one
        # dict.update and prune only the nonempty windows that moved; the
        # floor raise on *empty* windows is deferred (re-applied at the
        # next accept and flushed in export_state).  Windows created since
        # the last ack are re-floored even when their clock did not move
        # (order-independent: each prunes its own window).
        windows = self.windows
        if moved:
            self._sv.update(moved)
            windows.prune(moved)
        if self._fresh:
            sget = self._sv.get
            for c in self._fresh:
                windows.prune_upto(c, sget(c, 0))
            self._fresh.clear()

    def _fold_vector(self, vector: dict[int, int]) -> None:
        vget = self._sv.get
        self._fold_raises({c: k for c, k in vector.items() if k > vget(c, 0)})

    # ------------------------------------------------------------------ #
    # recovery / checkpoint

    def events_created_by(self, creator: int) -> list[Determinant]:
        return self.windows.dets(creator)

    def events_held(self) -> int:
        return self.windows.held

    def scan_events_held(self) -> int:
        """O(#creators) recount of :meth:`events_held` (tests verify equality)."""
        return self.windows.scan_held()

    def export_state(self) -> dict[str, Any]:
        # flush the deferred floor raises (empty windows the journal fold
        # skipped) so checkpoint images carry exact floors; fresh windows
        # keep their creation floor until the next ack
        self.windows.raise_floors(self._sv, self._fresh)
        return {
            "windows": self.windows.export_state(),
            "channel_bound": {
                p: b.export_state() for p, b in self.channel_bound.items()
            },
            "stable": self._stable_list(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        # every restored window counts as freshly grown (WindowTable.load)
        # and the channel cursors restart, so the first build on each
        # channel rescans them all against the restored channel bounds.
        # A stale cursor would mark everything clean and the next
        # piggyback would ship nothing — a stale, under-full piggyback
        # that orphans the receiver (regression-tested in
        # tests/test_worklist_properties.py).
        windows = WindowTable(self.store)
        windows.load(state["windows"])
        self.windows = windows
        self.channel_bound = {
            p: BoundVector.from_state(b) for p, b in state["channel_bound"].items()
        }
        self._restore_stable(state["stable"])
        self._chan_synced = {}
        # restored windows carry restored floors, but the next ack must
        # still re-floor them against the restored stable vector
        self._fresh = set(windows.floor)
