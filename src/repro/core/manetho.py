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
from repro.core.piggyback import (
    Piggyback,
    creator_runs,
    factored_bytes_from_counts,
)


class ManethoProtocol(GraphProtocol):
    """Antecedence-graph causal logging, Manetho traversal strategy."""

    __slots__ = ()

    name = "manetho"

    def build_piggyback(self, dst: int) -> Piggyback:
        known = self._known(dst)
        cfg = self.config
        visits = 0
        # Manetho pays the knowledge discovery on the send path: cross the
        # graph from the last known reception of the receiver.  The
        # receiver's latest event may be known through a third party
        # (paper Fig. 3: P3 infers what P2 knows without ever having
        # communicated with it).
        dst_seq = self.graph.seqs.get(dst)
        start = max(
            self.peer_clock_seen.get(dst, 0),
            dst_seq.max_clock if dst_seq is not None else 0,
        )
        if start > known[dst]:
            visits += self.graph.raise_knowledge((dst, start), known, self.stable)
        # select_unknown raises known in place: everything piggybacked is
        # now known by dst.  The dirty-creator worklist restricts the scan
        # to chains grown since the last build for dst; clean chains are
        # already covered by the knowledge bound and contribute nothing.
        graph = self.graph
        candidates = self._build_candidates(dst, graph.growth)
        events, scan, runs = graph.select_unknown(known, self.stable, candidates)
        visits += scan
        n = len(events)
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
        return Piggyback(
            events=tuple(events),
            nbytes=factored_bytes_from_counts(n, len(runs), cfg),
            build_cost_s=cost,
            runs=tuple(runs),
        )

    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        cfg = self.config
        known = self._known(src).data
        kget = known.get
        graph = self.graph
        events = pb.events
        total = len(events)
        new = 0
        runs = pb.runs or creator_runs(events)
        # the factored wire format groups events into clock-ascending
        # creator runs; merge run-at-a-time (see AntecedenceGraph.add_run)
        r0, d0 = graph.run_merges, graph.det_merges
        for creator, i, j in runs:
            new += graph.add_run(events[i:j])
            last = events[j - 1].clock
            if last > kget(creator, 0):
                known[creator] = last
        self.probes.pb_accept_runs += graph.run_merges - r0
        self.probes.pb_accept_fallback_dets += graph.det_merges - d0
        dup = total - new
        if dep > kget(src, 0):
            known[src] = dep
        # knowledge closure of (src, dep) is discovered lazily at next send
        if dep > self.peer_clock_seen.get(src, 0):
            self.peer_clock_seen[src] = dep
        # Manetho must re-cross the merged region to generate the new edges
        # (second pass over every piggybacked event)
        relink = new + dup
        # sparse mode: one knowledge entry touched per run plus src's own
        cost = (
            self._pb_recv_scan_cost(len(runs) + 1)
            + new * cfg.cost_graph_insert_s
            + relink * cfg.cost_graph_insert_s
            + len(pb.events) * cfg.cost_deserialize_event_s
        )
        self.probes.pb_recv_ops += new + relink
        self.probes.pb_recv_time_s += cost
        self.probes.note_events_held(len(self.graph))
        return cost
