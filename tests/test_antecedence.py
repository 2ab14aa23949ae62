"""Unit + property tests for the antecedence graph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.antecedence import AntecedenceGraph
from repro.core.bounds import BoundVector
from repro.core.events import Determinant, StableVector


def build_chain_world():
    """Fig. 3-like world: 3 creators, cross edges threading through."""
    g = AntecedenceGraph(3)
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


def test_lamport_stamps_respect_causality():
    g = build_chain_world()
    # the chain a -> b -> c -> d must have strictly increasing stamps
    la = g.lamport[(0, 1)]
    lb = g.lamport[(1, 1)]
    lc = g.lamport[(2, 1)]
    ld = g.lamport[(0, 2)]
    assert la < lb < lc < ld


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
    stable = StableVector(3)
    known = BoundVector([1, 0, 0])
    events, _, runs = g.select_unknown(known, stable)
    assert {(d.creator, d.clock) for d in events} == {(0, 2), (1, 1), (2, 1)}
    # one (creator, start, stop) run per contributing creator
    assert runs == [(0, 0, 1), (1, 1, 2), (2, 2, 3)]
    # known was raised in place over everything selected
    assert known.as_list(3) == [2, 1, 1]


def test_select_unknown_respects_stable():
    g = build_chain_world()
    stable = StableVector(3)
    stable.advance(0, 2)
    stable.advance(1, 1)
    events, _, _ = g.select_unknown(BoundVector(), stable)
    assert {(d.creator, d.clock) for d in events} == {(2, 1)}


def test_prune_drops_vertices_and_lamport():
    g = build_chain_world()
    stable = StableVector(3)
    stable.advance(0, 1)
    dropped = g.prune(stable)
    assert dropped == 1
    assert (0, 1) not in g
    assert (0, 1) not in g.lamport
    assert (0, 2) in g


def test_prune_makes_knowledge_conservative_not_wrong():
    g = build_chain_world()
    stable = StableVector(3)
    stable.advance(0, 1)
    g.prune(stable)
    known = BoundVector()
    g.raise_knowledge((0, 2), known)
    # the traversal can no longer reach a (pruned), but a is stable so it
    # is excluded from piggybacks anyway
    events, _, _ = g.select_unknown(known, stable)
    assert (0, 1) not in {(d.creator, d.clock) for d in events}


def test_topological_is_linear_extension():
    g = build_chain_world()
    events = [g.get(0, 2), g.get(2, 1), g.get(0, 1), g.get(1, 1)]
    ordered = g.topological(events)
    ids = [(d.creator, d.clock) for d in ordered]
    assert ids.index((0, 1)) < ids.index((1, 1)) < ids.index((2, 1)) < ids.index((0, 2))


def test_export_restore_roundtrip():
    g = build_chain_world()
    state = g.export_state()
    g2 = AntecedenceGraph(3)
    g2.restore_state(state)
    assert len(g2) == len(g)
    assert g2.lamport == g.lamport
    known1, known2 = BoundVector(), BoundVector()
    g.raise_knowledge((0, 2), known1)
    g2.raise_knowledge((0, 2), known2)
    assert known1 == known2


# --------------------------------------------------------------------- #
# property: random DAG construction keeps Lamport a valid linear extension

@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lamport_always_exceeds_predecessors(data):
    n = data.draw(st.integers(2, 4))
    g = AntecedenceGraph(n)
    clocks = [0] * n
    steps = data.draw(st.integers(1, 40))
    for _ in range(steps):
        sender = data.draw(st.integers(0, n - 1))
        receiver = data.draw(st.integers(0, n - 1).filter(lambda r: r != sender))
        dep = clocks[sender]
        clocks[receiver] += 1
        det = Determinant(receiver, clocks[receiver], sender, 1, dep)
        g.add(det)
        lam = g.lamport[(receiver, clocks[receiver])]
        if clocks[receiver] > 1:
            assert lam > g.lamport.get((receiver, clocks[receiver] - 1), 0)
        if dep > 0:
            assert lam > g.lamport.get((sender, dep), 0)
