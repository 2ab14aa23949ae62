"""What Manetho and LogOn share: an antecedence graph and its bookkeeping.

Both protocols keep an :class:`~repro.core.antecedence.AntecedenceGraph`,
per-peer knowledge bounds and the peers' observed reception clocks, prune
on every Event Logger ack, and checkpoint the same state.  They also
discover a receiver's knowledge and merge a piggyback's creator runs the
same way; they differ in how a piggyback is ordered and what each step
costs (paper §III-B.2), so ``build_piggyback`` / ``accept_piggyback``
live in the subclasses around the shared steps here.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.antecedence import AntecedenceGraph
from repro.core.bounds import BoundVector
from repro.core.events import Determinant, DeterminantStore, StableState
from repro.core.piggyback import Piggyback
from repro.core.protocol_base import VProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class GraphProtocol(VProtocol):
    """Antecedence-graph causal logging, minus the traversal strategy."""

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
        self.graph = AntecedenceGraph(nprocs, self.store)
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

    def _discover_knowledge(self, dst: int, known: BoundVector) -> int:
        """Raise ``known`` over the causal past of ``dst``'s latest event
        we hold; returns the graph steps visited.  That event may be known
        through a third party (paper Fig. 3: P3 infers what P2 knows
        without ever having communicated with it)."""
        dst_seq = self.graph.seqs.get(dst)
        start = max(
            self.peer_clock_seen.get(dst, 0),
            dst_seq.max_clock if dst_seq is not None else 0,
        )
        if start > known[dst]:
            return self.graph.raise_knowledge((dst, start), known)
        return 0

    def _merge_runs(self, src: int, pb: Piggyback, dep: int) -> int:
        """Merge ``pb`` into the graph run-at-a-time and raise what
        ``src`` is known to hold; returns the new events.

        Within a run the creator's clocks ascend, and across runs of the
        same creator later runs carry later clocks (chain order is causal
        order), so per-run knowledge updates land on the same bounds a
        per-determinant walk would.
        """
        known = self._known(src).data
        kget = known.get
        graph = self.graph
        new = 0
        r0, d0 = graph.run_merges, graph.det_merges
        for (creator, first, last), backing in zip(pb.runs, pb.backings):
            new += graph.add_run(creator, first, last, backing)
            if last > kget(creator, 0):
                known[creator] = last
        self.probes.pb_accept_runs += graph.run_merges - r0
        self.probes.pb_accept_fallback_dets += graph.det_merges - d0
        if dep > kget(src, 0):
            known[src] = dep
        # knowledge closure of (src, dep) is discovered lazily at next send
        if dep > self.peer_clock_seen.get(src, 0):
            self.peer_clock_seen[src] = dep
        return new

    def on_local_event(self, det: Determinant) -> None:
        self.graph.add(det)
        self.probes.note_events_held(len(self.graph))

    def on_el_ack(self, stable_vector: StableState) -> None:
        # unconditional full prune, exactly the pre-worklist behavior: a
        # chain's prune floor is only raised when its window is visited
        # with stable coverage, so stale determinants re-admitted below an
        # already-stable clock must be dropped by the *next* ack even when
        # no stable entry moved — a moved-creators worklist cannot
        # reproduce that transient (vcausal can, because its fused loop
        # keeps every floor glued to the stable vector)
        super().on_el_ack(stable_vector)
        self.graph.prune(self.stable)

    # ------------------------------------------------------------------ #

    def events_created_by(self, creator: int) -> list[Determinant]:
        return self.graph.events_created_by(creator)

    def events_held(self) -> int:
        return len(self.graph)

    def scan_events_held(self) -> int:
        return self.graph.scan_size()

    def export_state(self) -> dict[str, Any]:
        return {
            "graph": self.graph.export_state(),
            "known": {p: v.export_state() for p, v in self.known.items()},
            "peer_clock_seen": dict(self.peer_clock_seen),
            "stable": self.stable.as_list(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self.graph = AntecedenceGraph(self.nprocs, self.store)
        self.graph.restore_state(state["graph"])
        self.known = {
            p: BoundVector.from_state(v) for p, v in state["known"].items()
        }
        self.peer_clock_seen = dict(state["peer_clock_seen"])
        self.stable.update(state["stable"])
        # the fresh graph re-marked every restored chain dirty; the channel
        # cursors must restart with it, or an in-place restore would leave
        # stale cursors above the new growth ticks and mark everything
        # clean — the under-full-piggyback bug the worklist must not have
        self._chan_synced = {}
