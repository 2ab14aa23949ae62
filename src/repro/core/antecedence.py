"""Antecedence graph shared by the Manetho and LogOn protocols.

The graph (paper Fig. 3) records the causal relationship between
non-deterministic events:

* vertices are reception determinants, identified by (creator, clock);
* each vertex has an implicit *chain* edge from (creator, clock-1); and
* a *cross* edge from (sender, dep) — the sender's last non-deterministic
  event preceding the emission of the received message.

Because each creator's events form a chain, "X knows event (c, k)" implies
"X knows every event of c with clock ≤ k" (the chain is in the causal
past), so per-peer knowledge is a vector of per-creator clock bounds, and
knowledge discovery is a traversal that walks unknown chain segments and
follows their cross edges.

The graph keeps no per-vertex side table: it *is* a
:class:`~repro.core.events.WindowTable` — each creator's chain is a
window over the cluster's determinant store, kept as int columns — and
the cross edge is the determinant's own ``(sender, dep)`` fields.
LogOn's partial-order reordering is charged as a modelled cost
(``cost_logon_reorder_s``), not materialized here (see
``docs/PROTOCOLS.md``).

EL acknowledgements *prune* the graph: stable vertices and their incident
edges are dropped ("information avoiding the emission of unnecessary
events" is lost — pruned cross edges make knowledge discovery conservative,
never wrong, because stable events are excluded from piggybacks anyway).
"""

from __future__ import annotations

from repro.core.bounds import BoundVector
from repro.core.events import Determinant, WindowTable


class AntecedenceGraph(WindowTable):
    """Prunable DAG of determinants with knowledge-traversal support.

    The chains are the table's windows, so ``len(graph)`` is the vertex
    count (:attr:`held`); :meth:`~WindowTable.accept_run` merges one
    piggyback run and :meth:`~WindowTable.prune` drops what the EL made
    stable.
    """

    __slots__ = ()

    def __contains__(self, event_id: tuple[int, int]) -> bool:
        return self.holds(*event_id)

    def __len__(self) -> int:
        return self.held

    def add(self, det: Determinant) -> bool:
        """Insert a vertex (and its implicit edges); False if already
        present or stable."""
        return bool(self.merge(det.creator, (det,)))

    # ------------------------------------------------------------------ #
    # knowledge traversal

    def raise_knowledge(self, start: tuple[int, int], known: BoundVector) -> int:
        """Raise per-creator ``known`` bounds to cover the causal past of
        ``start``; returns the number of graph steps visited (the cost).

        The traversal walks each creator's unknown chain segment once and
        follows cross edges.  Segments below the stable clock are pruned
        from the graph, making the traversal stop there (conservative).
        """
        kdata = known.data
        kget = kdata.get
        index_window = self.index_window
        visits = 0
        stack = [start]
        while stack:
            creator, clock = stack.pop()
            bound = kget(creator, 0)
            if clock <= bound:
                continue
            kdata[creator] = clock
            # walk the chain segment (bound, clock] following cross edges;
            # index-based reverse walk over the backing list — no per-
            # segment tail copy on the send path
            dets, lo, hi = index_window(creator, bound, clock)
            for i in range(hi - 1, lo - 1, -1):
                det = dets[i]
                visits += 1
                if det.dep > 0 and det.dep > kget(det.sender, 0):
                    stack.append((det.sender, det.dep))
        return visits
