"""Manetho piggyback reduction (Elnozahy & Zwaenepoel, 1992; paper §III-B.2).

Each process maintains an antecedence graph.  When a process sends a
message to a peer Pr, Manetho **first searches for the last events Pr
knows**: the graph is crossed from the last known reception of Pr, and
every event that happened after this bound has to be sent.  The traversal
is therefore paid on the *send* path (shared with LogOn in
:class:`~repro.core.graph_protocol.GraphProtocol`).

On *reception*, the new piggybacked events must first be added to the
graph **before generating the new edges** — a second pass over the merged
events — which is why Manetho spends more time during receive than LogOn
(paper §V-D.2).

Events are factored by creator rank on the wire (cheap format, paper
§III-C).
"""

from __future__ import annotations

from repro.core.graph_protocol import GraphProtocol
from repro.core.piggyback import Piggyback, factored_bytes_from_counts


class ManethoProtocol(GraphProtocol):
    """Antecedence-graph causal logging, Manetho traversal strategy."""

    __slots__ = ()

    name = "manetho"

    def _relink_events(self, pb: Piggyback) -> int:
        # re-cross the merged region to generate the new edges: a second
        # pass over every piggybacked event, new or duplicate
        return pb.n_events

    def _wire_bytes(self, n_events: int, n_groups: int) -> int:
        return factored_bytes_from_counts(n_events, n_groups, self.config)
