"""What Manetho and LogOn share: an antecedence graph and its bookkeeping.

Both protocols keep an :class:`~repro.core.antecedence.AntecedenceGraph`,
per-peer knowledge bounds and the peers' observed reception clocks, prune
on every Event Logger ack, and checkpoint the same state.  They differ
only in how a piggyback is built and accepted (paper §III-B.2), so
``build_piggyback`` / ``accept_piggyback`` live in the subclasses and
everything off the per-message path lives here.
"""

from __future__ import annotations

from typing import Any

from repro.core.antecedence import AntecedenceGraph
from repro.core.bounds import BoundVector
from repro.core.events import Determinant, StableState
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
    ) -> None:
        super().__init__(rank, nprocs, config, probes)
        self.graph = AntecedenceGraph(nprocs)
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
        self.graph = AntecedenceGraph(self.nprocs)
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
