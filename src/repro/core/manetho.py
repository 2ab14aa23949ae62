"""Manetho piggyback reduction (Elnozahy & Zwaenepoel, 1992; paper §III-B.2).

Each process maintains an antecedence graph.  When a process sends a
message to a peer Pr, Manetho **first searches for the last events Pr
knows**: the graph is crossed from the last known reception of Pr, and
every event that happened after this bound has to be sent.  The traversal
is therefore paid on the *send* path.

On *reception*, the new piggybacked events must first be added to the
graph **before generating the new edges** — a second pass over the merged
events — which is why Manetho spends more time during receive than LogOn
(paper §V-D.2).

Events are factored by creator rank on the wire (cheap format, paper
§III-C).
"""

from __future__ import annotations

from math import log2

from repro.core.graph_protocol import GraphProtocol
from repro.core.piggyback import Piggyback, factored_bytes_from_counts


class ManethoProtocol(GraphProtocol):
    """Antecedence-graph causal logging, Manetho traversal strategy."""

    __slots__ = ()

    name = "manetho"

    def build_piggyback(self, dst: int) -> Piggyback:
        known = self._known(dst)
        cfg = self.config
        # Manetho pays the knowledge discovery on the send path: cross the
        # graph from the last known reception of the receiver
        visits = self._discover_knowledge(dst, known)
        # select_unknown raises known in place: everything piggybacked is
        # now known by dst.  The dirty-creator worklist restricts the scan
        # to chains grown since the last build for dst; clean chains are
        # already covered by the knowledge bound and contribute nothing.
        graph = self.graph
        candidates = self._build_candidates(dst, graph.growth)
        runs, backings, n, groups = graph.select_unknown(known, self.stable, candidates)
        visits += n
        # sparse mode charges the held chains, not nprocs; the charge is
        # worklist-independent (simulated results must not change)
        cost = (
            cfg.cost_piggyback_fixed_s
            + self._pb_send_scan_cost(len(self.graph.seqs))
            + visits * cfg.cost_graph_visit_s
            + n * cfg.cost_serialize_event_s
            + cfg.cost_graph_pressure_s * log2(1 + len(self.graph))
        )
        self.probes.pb_send_ops += visits + n
        self.probes.pb_send_time_s += cost
        nbytes = factored_bytes_from_counts(n, groups, cfg)
        return Piggyback(tuple(runs), tuple(backings), n, groups, nbytes, cost)

    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        cfg = self.config
        # the factored wire format groups events into clock-ascending
        # creator runs; merge run-at-a-time (see AntecedenceGraph.add_run)
        new = self._merge_runs(src, pb, dep)
        # Manetho must re-cross the merged region to generate the new edges
        # (second pass over every piggybacked event, new or duplicate)
        relink = pb.n_events
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
        self.probes.note_events_held(len(self.graph))
        return cost
