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

Runs: maximal same-creator, clock-contiguous stretches of the linear
extension are chain segments, so ``build_piggyback`` ships the extension
as ``(creator, first, last)`` clock-range runs (``Piggyback.runs``) and
``accept_piggyback`` merges them run-at-a-time through
:meth:`~repro.core.antecedence.AntecedenceGraph.add_run`.  Boundaries
are free on the wire (every flat event already carries its creator rank,
so the 16-byte accounting above is unchanged).  See ``docs/PROTOCOLS.md``
for the full wire-format and accept-path contract.
"""

from __future__ import annotations

from math import log2

from repro.core.graph_protocol import GraphProtocol
from repro.core.events import Determinant
from repro.core.piggyback import Piggyback, Run, flat_bytes, run_events


class LogOnProtocol(GraphProtocol):
    """Antecedence-graph causal logging, partial-order piggybacks."""

    __slots__ = ()

    name = "logon"

    def build_piggyback(self, dst: int) -> Piggyback:
        cfg = self.config
        known = self._known(dst)
        # reverse exploration from our last reception until events of the
        # receiver are reached: equivalently, raise the knowledge bounds
        # from the receiver's latest event we hold, then ship the rest.
        visits = self._discover_knowledge(dst, known)
        # select_unknown raises known in place over everything selected;
        # the dirty-creator worklist restricts the scan to chains grown
        # since the last build for dst (clean chains contribute nothing)
        graph = self.graph
        candidates = self._build_candidates(dst, graph.growth)
        runs, backings, scan, _ = graph.select_unknown(known, self.stable, candidates)
        # reorder into a linear extension of the causal order (the defining
        # LogOn step; n log n)
        ordered = self.graph.topological(run_events(runs, backings))
        n = len(ordered)
        reorder = n * max(1.0, log2(n)) * cfg.cost_logon_reorder_s if n else 0.0
        # sparse mode charges the held chains, not nprocs; the charge is
        # worklist-independent (simulated results must not change)
        cost = (
            cfg.cost_piggyback_fixed_s
            + self._pb_send_scan_cost(len(self.graph.seqs))
            + (visits + scan) * cfg.cost_graph_visit_s
            + reorder
            + n * cfg.cost_serialize_event_s
            + cfg.cost_graph_pressure_s * log2(1 + len(self.graph))
        )
        self.probes.pb_send_ops += visits + scan + n
        self.probes.pb_send_time_s += cost
        # Runs over the linear extension, so the receiver can merge them
        # run-at-a-time.  They cost nothing on the wire — boundaries are
        # implicit in the flat format because every event already carries
        # its creator rank (the 16-byte §III-C accounting is unchanged).
        backing_of = {run[0]: b for run, b in zip(runs, backings)}
        linear, groups = _linear_runs(ordered)
        linear_backings = tuple(backing_of[run[0]] for run in linear)
        nbytes = flat_bytes(ordered, cfg)
        return Piggyback(linear, linear_backings, n, groups, nbytes, cost)

    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        cfg = self.config
        # the run table segments the linear extension into clock-ascending
        # chain runs; consume run-at-a-time (batch append, O(1) duplicate
        # skip) exactly like the factored formats, instead of one graph
        # probe per determinant
        new = self._merge_runs(src, pb, dep)
        # sparse mode: the touched knowledge entries are the distinct
        # creators plus src's own (the set is only materialized when the
        # sparse model will charge for it)
        touched = (
            0
            if self._recv_scan_dense is not None
            else len({r[0] for r in pb.runs}) + 1
        )
        # single forward pass: the partial order guarantees predecessors
        # are already present, so no re-linking pass is needed
        cost = (
            self._pb_recv_scan_cost(touched)
            + new * cfg.cost_graph_insert_s
            + pb.n_events * cfg.cost_deserialize_event_s
        )
        self.probes.pb_recv_ops += new
        self.probes.pb_recv_time_s += cost
        self.probes.note_events_held(len(self.graph))
        return cost


def _linear_runs(ordered: list[Determinant]) -> tuple[tuple[Run, ...], int]:
    """``ordered`` as clock-range runs, plus its number of maximal
    same-creator stretches."""
    runs: list[Run] = []
    groups = 0
    prev = -1
    for d in ordered:
        creator = d.creator
        if creator != prev:
            groups += 1
            prev = creator
        elif runs[-1][2] == d.clock - 1:
            runs[-1] = (creator, runs[-1][1], d.clock)
            continue
        runs.append((creator, d.clock, d.clock))
    return tuple(runs), groups
