"""Unit tests for the antecedence graph."""

from repro.core.antecedence import AntecedenceGraph
from repro.core.bounds import BoundVector
from repro.core.events import Determinant
from repro.core.piggyback import run_events


def select_unknown(g, known, stable):
    """Every window's events not covered by ``known`` or ``stable``:
    (runs, backings, events, groups); ``known`` is raised in place."""
    runs, backings = [], []
    n, groups = g.select_tails(None, known.data, stable, runs, backings)
    return runs, backings, n, groups


def build_chain_world():
    """Fig. 3-like world: 3 creators, cross edges threading through."""
    g = AntecedenceGraph()
    # P0 receives from P1, P1 from P2, ...
    g.add(Determinant(0, 1, 1, 1, 0))        # a: P0 recv (no dep)
    g.add(Determinant(1, 1, 0, 1, 1))        # b: P1 recv of m sent after a
    g.add(Determinant(2, 1, 1, 1, 1))        # c: P2 recv of m sent after b
    g.add(Determinant(0, 2, 2, 1, 1))        # d: P0 recv of m sent after c
    return g


def test_add_and_contains():
    g = build_chain_world()
    assert (0, 1) in g
    assert (2, 1) in g
    assert (2, 2) not in g
    assert len(g) == 4


def test_add_duplicate_returns_false():
    g = build_chain_world()
    assert g.add(Determinant(0, 1, 1, 1, 0)) is False
    assert len(g) == 4


def test_add_run_fills_holes_and_skips_held_and_stable():
    """A run over another backing list than a holey window's merges per
    determinant: it adds exactly the missing unstable clocks and marks the
    chain grown once."""
    backing = [Determinant(0, k, 1, k, 0) for k in range(1, 9)]
    g = AntecedenceGraph()
    for k in (1, 3, 6):
        g.add(backing[k - 1])
    assert g.prune({0: 1}) == 1
    tick = g.growth.counter
    assert g.accept_run(0, 1, 8, backing) == 5  # 2, 4, 5, 7, 8; not stable 1
    assert (g.det_merges, g.run_merges) == (8, 0)
    assert [d.clock for d in g.dets(0)] == list(range(2, 9))
    assert len(g) == g.scan_held() == 7
    assert g.growth.counter == tick + 1
    assert g.accept_run(0, 2, 8, backing) == 0


def test_raise_knowledge_covers_causal_past():
    g = build_chain_world()
    known = BoundVector()
    # knowing P0's event d implies knowing the whole chain
    g.raise_knowledge((0, 2), known)
    assert known.as_list(3) == [2, 1, 1]


def test_raise_knowledge_partial():
    g = build_chain_world()
    known = BoundVector()
    g.raise_knowledge((1, 1), known)
    assert known.as_list(3) == [1, 1, 0]  # covers a and b, not c or d


def test_raise_knowledge_counts_visits():
    g = build_chain_world()
    known = BoundVector()
    visits = g.raise_knowledge((0, 2), known)
    assert visits == 4
    # a second call discovers nothing new
    assert g.raise_knowledge((0, 2), known) == 0


def test_select_unknown_respects_bounds():
    g = build_chain_world()
    known = BoundVector([1, 0, 0])
    runs, backings, n, groups = select_unknown(g, known, {})
    events = run_events(runs, backings)
    assert {(d.creator, d.clock) for d in events} == {(0, 2), (1, 1), (2, 1)}
    # one (creator, first, last) run per contributing creator
    assert runs == [(0, 2, 2), (1, 1, 1), (2, 1, 1)]
    assert (n, groups) == (3, 3)
    # known was raised in place over everything selected
    assert known.as_list(3) == [2, 1, 1]


def test_select_unknown_respects_stable():
    g = build_chain_world()
    runs, backings, _, _ = select_unknown(g, BoundVector(), {0: 2, 1: 1})
    events = run_events(runs, backings)
    assert {(d.creator, d.clock) for d in events} == {(2, 1)}


def test_prune_drops_vertices():
    g = build_chain_world()
    dropped = g.prune({0: 1})
    assert dropped == 1
    assert (0, 1) not in g
    assert (0, 2) in g


def test_prune_makes_knowledge_conservative_not_wrong():
    g = build_chain_world()
    stable = {0: 1}
    g.prune(stable)
    known = BoundVector()
    g.raise_knowledge((0, 2), known)
    # the traversal can no longer reach a (pruned), but a is stable so it
    # is excluded from piggybacks anyway
    runs, backings, _, _ = select_unknown(g, known, stable)
    events = run_events(runs, backings)
    assert (0, 1) not in {(d.creator, d.clock) for d in events}


def test_export_restore_roundtrip():
    g = build_chain_world()
    state = g.export_state()
    g2 = AntecedenceGraph()
    g2.load(state)
    assert len(g2) == len(g)
    known1, known2 = BoundVector(), BoundVector()
    g.raise_knowledge((0, 2), known1)
    g2.raise_knowledge((0, 2), known2)
    assert known1 == known2

