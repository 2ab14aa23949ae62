"""LogOn piggyback reduction (Lee, Park, Yeom, Cho, SRDS 1998; paper §III-B.2).

Like Manetho, LogOn maintains an antecedence graph, but it additionally
**partially reorders events** according to a log-inheritance relationship:

* On *send*, the graph is explored in reverse order, starting from the last
  reception event of the sender, until events of the receiver are reached;
  the resulting set is then reordered into a linear extension of the causal
  order before serialization.  The reordering costs O(n log n) and is why
  LogOn spends more time on the send path than Manetho.
* On *reception*, because the piggyback ``m1 … mk`` guarantees that for all
  i < j, ``mj`` cannot be in the causal past of ``mi``, merging is a single
  forward pass: every event's predecessors are already in the graph when it
  is inserted, so no re-linking pass is needed (cheaper than Manetho).
* The partial order makes factoring by creator impossible, so each wire
  event carries its creator rank (16 bytes vs 12, paper §III-C).

The order is modelled, not materialized: the simulator charges the
reorder as ``n·max(1, log2 n)·cost_logon_reorder_s`` and the flat bytes,
both functions of the event count only, and ships the same clock-ascending
per-creator runs as Manetho.  Which linear extension a receiver merges
reaches no simulated value: it ends with the same graph either way
(``tests/test_protocol_properties.py`` checks this against the causal
order of ``tests/oracles.py`` ``causal_linear_extension``).  See
``docs/PROTOCOLS.md`` for the wire-format and accept-path contract.
"""

from __future__ import annotations

from math import log2

from repro.core.graph_protocol import GraphProtocol
from repro.core.piggyback import flat_bytes_from_count


class LogOnProtocol(GraphProtocol):
    """Antecedence-graph causal logging, partial-order piggybacks."""

    __slots__ = ()

    name = "logon"

    def _reorder_cost(self, n: int) -> float:
        # the defining LogOn step: a linear extension of the causal order,
        # n log n
        return n * max(1.0, log2(n)) * self.config.cost_logon_reorder_s if n else 0.0

    def _wire_bytes(self, n_events: int, n_groups: int) -> int:
        return flat_bytes_from_count(n_events, self.config)
