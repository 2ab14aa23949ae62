"""What Manetho and LogOn share: an antecedence graph and its piggyback path.

Both protocols keep an :class:`~repro.core.antecedence.AntecedenceGraph`,
per-peer knowledge bounds and the peers' observed reception clocks, prune
on every Event Logger ack, and checkpoint the same state.  They build and
accept piggybacks the same way too: discover the receiver's knowledge on
the send path, ship the unknown events as clock-ascending per-creator
runs, merge them run-at-a-time on receipt.  What the paper says differs
(§III-B.2, §III-C) is declared by the subclasses as overrides of three
steps:

* :meth:`_reorder_cost` — LogOn's partial-order reordering on send,
  charged as a modelled cost (the order itself is never materialized);
* :meth:`_relink_events` — Manetho's second pass over the merged events
  on receive;
* :meth:`_wire_bytes` — factored (Manetho) or flat (LogOn) wire format.
"""

from __future__ import annotations

from math import log2
from typing import Any, Optional

from repro.core.antecedence import AntecedenceGraph
from repro.core.bounds import BoundVector
from repro.core.events import Determinant, DeterminantStore
from repro.core.piggyback import Piggyback, Run
from repro.core.protocol_base import VProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class GraphProtocol(VProtocol):
    """Antecedence-graph causal logging, minus the paper's three
    per-protocol differences."""

    __slots__ = ("graph", "known", "peer_clock_seen")

    uses_event_logger = True

    def __init__(
        self,
        rank: int,
        nprocs: int,
        config: ClusterConfig,
        probes: ProcessProbes,
        store: Optional[DeterminantStore] = None,
    ) -> None:
        super().__init__(rank, nprocs, config, probes, store)
        self.graph = AntecedenceGraph(self.store)
        #: peer -> sparse per-creator clock bounds the peer is known to hold
        self.known: dict[int, BoundVector] = {}
        #: peer -> highest reception clock of that peer observed (via dep
        #: fields); the graph itself may know an even later event of the peer
        self.peer_clock_seen: dict[int, int] = {}

    def _known(self, peer: int) -> BoundVector:
        k = self.known.get(peer)
        if k is None:
            k = self.known[peer] = BoundVector()
        return k

    # ------------------------------------------------------------------ #
    # the per-protocol steps

    def _reorder_cost(self, n: int) -> float:
        """Simulated cost of ordering ``n`` piggybacked events on send."""
        return 0.0

    def _relink_events(self, pb: Piggyback) -> int:
        """Events re-crossed after the merge to generate the new edges."""
        return 0

    def _wire_bytes(self, n_events: int, n_groups: int) -> int:
        """Wire size of a piggyback of ``n_events`` in ``n_groups``
        creator groups."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #

    def build_piggyback(self, dst: int) -> Piggyback:
        cfg = self.config
        graph = self.graph
        known = self._known(dst)
        # knowledge discovery is paid on the send path: cross the graph
        # from the receiver's latest event we hold, which may be known
        # through a third party (paper Fig. 3: P3 infers what P2 knows
        # without ever having communicated with it)
        start = max(self.peer_clock_seen.get(dst, 0), graph.max_clock.get(dst, 0))
        visits = graph.raise_knowledge((dst, start), known) if start > known[dst] else 0
        # select_tails raises known in place: everything piggybacked is
        # now known by dst.  The dirty-creator worklist restricts the scan
        # to chains grown since the last build for dst; clean chains are
        # already covered by the knowledge bound and contribute nothing.
        runs: list[Run] = []
        backings: list[list] = []
        n, groups = graph.select_tails(
            self._build_candidates(dst, graph.growth), known.data, self._sv,
            runs, backings,
        )
        # sparse mode charges the held chains, not nprocs; the charge is
        # worklist-independent (simulated results must not change)
        cost = (
            cfg.cost_piggyback_fixed_s
            + self._pb_send_scan_cost(len(graph.floor))
            + (visits + n) * cfg.cost_graph_visit_s
            + self._reorder_cost(n)
            + n * cfg.cost_serialize_event_s
            + cfg.cost_graph_pressure_s * log2(1 + len(graph))
        )
        self.probes.pb_send_ops += visits + 2 * n
        self.probes.pb_send_time_s += cost
        nbytes = self._wire_bytes(n, groups)
        return Piggyback(tuple(runs), tuple(backings), n, groups, nbytes, cost)

    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        cfg = self.config
        graph = self.graph
        known = self._known(src).data
        kget = known.get
        # merge run-at-a-time (see WindowTable.accept_run).  Within a run
        # the creator's clocks ascend, and across runs of the same creator
        # later runs carry later clocks (chain order is causal order), so
        # per-run knowledge updates land on the same bounds a
        # per-determinant walk would.
        new = 0
        r0, d0 = graph.run_merges, graph.det_merges
        for (creator, first, last), backing in zip(pb.runs, pb.backings):
            new += graph.accept_run(creator, first, last, backing)
            if last > kget(creator, 0):
                known[creator] = last
        self.probes.pb_accept_runs += graph.run_merges - r0
        self.probes.pb_accept_fallback_dets += graph.det_merges - d0
        if dep > kget(src, 0):
            known[src] = dep
        # knowledge closure of (src, dep) is discovered lazily at next send
        if dep > self.peer_clock_seen.get(src, 0):
            self.peer_clock_seen[src] = dep
        relink = self._relink_events(pb)
        # sparse mode: one knowledge entry touched per creator group plus
        # src's own
        cost = (
            self._pb_recv_scan_cost(pb.n_groups + 1)
            + new * cfg.cost_graph_insert_s
            + relink * cfg.cost_graph_insert_s
            + pb.n_events * cfg.cost_deserialize_event_s
        )
        self.probes.pb_recv_ops += new + relink
        self.probes.pb_recv_time_s += cost
        self.probes.note_events_held(len(graph))
        return cost

    def on_local_event(self, det: Determinant) -> None:
        self.graph.add(det)
        self.probes.note_events_held(len(self.graph))

    def _fold_vector(self, vector: dict[int, int]) -> None:
        # unconditional full prune, exactly the pre-worklist behavior: a
        # chain's prune floor is only raised when its window is visited
        # with stable coverage, so stale determinants re-admitted below an
        # already-stable clock must be dropped by the *next* ack even when
        # no stable entry moved — a moved-creators worklist cannot
        # reproduce that transient (vcausal can, because its fused loop
        # keeps every floor glued to the stable vector)
        super()._fold_vector(vector)
        self.graph.prune(self._sv)

    # ------------------------------------------------------------------ #

    def events_created_by(self, creator: int) -> list[Determinant]:
        return self.graph.dets(creator)

    def events_held(self) -> int:
        return len(self.graph)

    def scan_events_held(self) -> int:
        return self.graph.scan_held()

    def export_state(self) -> dict[str, Any]:
        return {
            "graph": self.graph.export_state(),
            "known": {p: v.export_state() for p, v in self.known.items()},
            "peer_clock_seen": dict(self.peer_clock_seen),
            "stable": self._stable_list(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.graph = AntecedenceGraph(self.store)
        self.graph.load(state["graph"])
        self.known = {
            p: BoundVector.from_state(v) for p, v in state["known"].items()
        }
        self.peer_clock_seen = dict(state["peer_clock_seen"])
        self._restore_stable(state["stable"])
        # the fresh graph re-marked every restored chain dirty; the channel
        # cursors must restart with it, or an in-place restore would leave
        # stale cursors above the new growth ticks and mark everything
        # clean — the under-full-piggyback bug the worklist must not have
        self._chan_synced = {}
