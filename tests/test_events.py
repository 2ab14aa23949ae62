"""Unit + property tests for determinants, the determinant store and
sequence windows (against the list-form oracle)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Determinant, DeterminantStore, EventSequence
from repro.core.piggyback import run_events
from tests.oracles import ListEventSequence


def det(creator=0, clock=1, sender=1, ssn=1, dep=0):
    return Determinant(creator, clock, sender, ssn, dep)


def tail_after(seq, bound):
    """Held determinants with ``clock > bound`` (the piggyback selection)."""
    dets, lo, hi = seq.index_window(bound, seq.max_clock)
    return dets[lo:hi]


# --------------------------------------------------------------------- #
# Determinant

def test_determinant_event_id():
    d = det(creator=3, clock=7)
    assert d.event_id == (3, 7)


def test_determinant_is_hashable_and_comparable():
    assert det() == det()
    assert len({det(), det()}) == 1


# --------------------------------------------------------------------- #
# EventSequence

def test_append_and_iterate():
    seq = EventSequence(0)
    for k in range(1, 6):
        seq.append(det(clock=k))
    assert [d.clock for d in seq] == [1, 2, 3, 4, 5]
    assert len(seq) == 5
    assert seq.max_clock == 5
    assert seq.min_clock == 1


def test_append_wrong_creator_raises():
    seq = EventSequence(0)
    with pytest.raises(ValueError):
        seq.append(det(creator=1))


def test_append_non_monotonic_raises():
    seq = EventSequence(0)
    seq.append(det(clock=5))
    with pytest.raises(ValueError):
        seq.append(det(clock=5))


def test_get_finds_existing_and_missing():
    seq = EventSequence(0)
    seq.append(det(clock=2))
    seq.append(det(clock=4))
    assert seq.get(2).clock == 2
    assert seq.get(3) is None
    assert seq.get(5) is None


def test_tail_after():
    seq = EventSequence(0)
    for k in range(1, 11):
        seq.append(det(clock=k))
    assert [d.clock for d in tail_after(seq, 7)] == [8, 9, 10]
    assert [d.clock for d in tail_after(seq, 0)] == list(range(1, 11))
    assert tail_after(seq, 10) == []


def test_prune_upto():
    seq = EventSequence(0)
    for k in range(1, 11):
        seq.append(det(clock=k))
    assert seq.prune_upto(4) == 4
    assert len(seq) == 6
    assert seq.min_clock == 5
    assert seq.get(3) is None
    assert seq.get(5).clock == 5
    # pruning again is a no-op
    assert seq.prune_upto(4) == 0


def test_prune_then_tail_after_consistent():
    seq = EventSequence(0)
    for k in range(1, 101):
        seq.append(det(clock=k))
    seq.prune_upto(50)
    assert [d.clock for d in tail_after(seq, 60)] == list(range(61, 101))
    assert [d.clock for d in tail_after(seq, 10)] == list(range(51, 101))


def test_compaction_preserves_content():
    seq = EventSequence(0)
    for k in range(1, 1001):
        seq.append(det(clock=k))
    for bound in (100, 300, 600, 900):
        seq.prune_upto(bound)
        assert len(seq) == 1000 - bound
        assert seq.min_clock == bound + 1
    assert [d.clock for d in seq] == list(range(901, 1001))


def test_merge_appends_new_events():
    seq = EventSequence(0)
    added = seq.merge([det(clock=1), det(clock=2), det(clock=2)])
    assert added == 2
    assert [d.clock for d in seq] == [1, 2]


def test_merge_fills_holes():
    seq = EventSequence(0)
    seq.merge([det(clock=1), det(clock=3)])
    assert seq.merge([det(clock=2)]) == 1
    assert [d.clock for d in seq] == [1, 2, 3]


# --------------------------------------------------------------------- #
# merge rebuild path (out-of-order hole filling) and its interaction
# with prune_upto / pruned_upto

def test_merge_out_of_order_rebuild_keeps_membership_queries_correct():
    seq = EventSequence(0)
    seq.merge([det(clock=2), det(clock=5), det(clock=9)])
    # holes at 1, 3-4, 6-8
    assert not seq.holds(3)
    assert seq.merge([det(clock=4), det(clock=1), det(clock=3)]) == 3
    assert [d.clock for d in seq] == [1, 2, 3, 4, 5, 9]
    for k in (1, 2, 3, 4, 5, 9):
        assert seq.holds(k)
        assert seq.get(k).clock == k
    for k in (6, 7, 8, 10):
        assert not seq.holds(k)
        assert seq.get(k) is None
    assert seq.max_clock == 9
    # filling the last hole restores the O(1) run classification
    assert seq.new_run_offset(1, 9, 9) is None
    seq.merge([det(clock=k) for k in (6, 7, 8)])
    assert seq.new_run_offset(1, 9, 9) == 9


def test_merge_never_resurrects_pruned_events():
    seq = EventSequence(0)
    for k in range(1, 11):
        seq.append(det(clock=k))
    seq.prune_upto(6)
    # a late duplicate below the stable bound must stay gone...
    assert seq.merge([det(clock=3)]) == 0
    assert seq.get(3) is None
    assert len(seq) == 4
    # ...even when merged together with a genuine hole-filler above it
    seq2 = EventSequence(0)
    seq2.merge([det(clock=1), det(clock=2), det(clock=5)])
    seq2.prune_upto(2)
    assert seq2.merge([det(clock=1), det(clock=4), det(clock=3)]) == 2
    assert [d.clock for d in seq2] == [3, 4, 5]
    assert seq2.pruned_upto == 2


def test_export_restore_preserves_prune_floor():
    """pruned_upto is part of the checkpoint round-trip: without it a
    restored sequence re-admits duplicates of stable events."""
    seq = EventSequence(0)
    for k in range(1, 9):
        seq.append(det(clock=k))
    seq.prune_upto(5)
    restored = EventSequence.from_state(0, seq.export_state())
    assert restored.pruned_upto == 5
    assert [d.clock for d in restored] == [6, 7, 8]
    assert restored.max_clock == 8
    assert restored.merge([det(clock=3)]) == 0
    assert restored.get(3) is None


def test_restore_of_fully_pruned_sequence_refuses_stale_runs():
    """The run-classification fast path must treat events at or below the
    prune floor as duplicates even when max_clock reads 0 (fully pruned
    and compacted, or freshly restored)."""
    seq = EventSequence(0)
    for k in range(1, 5):
        seq.append(det(clock=k))
    seq.prune_upto(4)
    restored = EventSequence.from_state(0, seq.export_state())
    assert len(restored) == 0 and restored.max_clock == 0
    # a whole-stale run classifies as fully duplicate
    assert restored.new_run_offset(1, 4, 4) == 4
    # a run straddling the floor splits at the floor
    assert restored.new_run_offset(3, 6, 4) == 2
    # a run with holes below the floor falls back to per-event merging
    assert restored.new_run_offset(2, 6, 3) is None
    # and merge itself keeps refusing the stale part
    assert restored.merge([det(clock=2), det(clock=5)]) == 1
    assert [d.clock for d in restored] == [5]


def test_from_state_accepts_legacy_bare_lists():
    dets = [det(clock=k) for k in range(1, 4)]
    restored = EventSequence.from_state(0, dets)
    assert [d.clock for d in restored] == [1, 2, 3]
    assert restored.pruned_upto == 0


def test_merge_rebuild_then_prune_then_tail_after():
    seq = EventSequence(0)
    seq.merge([det(clock=k) for k in range(1, 30, 2)])   # odds
    seq.merge([det(clock=k) for k in range(2, 30, 2)])   # evens (rebuild)
    seq.prune_upto(11)
    assert [d.clock for d in tail_after(seq, 20)] == list(range(21, 30))
    assert [d.clock for d in tail_after(seq, 0)] == list(range(12, 30))
    assert seq.min_clock == 12
    assert len(seq) == 18


def test_prune_after_rebuild_keeps_pruned_upto_monotone():
    seq = EventSequence(0)
    seq.merge([det(clock=5)])
    seq.prune_upto(3)
    assert seq.pruned_upto == 3
    seq.merge([det(clock=4)])            # hole-fill above pruned bound
    assert [d.clock for d in seq] == [4, 5]
    seq.prune_upto(2)                    # lower bound: no-op
    assert seq.pruned_upto == 3
    assert len(seq) == 2


@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
        min_size=1,
        max_size=12,
    ),
    prunes=st.lists(st.integers(min_value=0, max_value=45), max_size=6),
)
def test_merge_batches_match_reference_model(batches, prunes):
    """Random out-of-order batches interleaved with prunes behave like a
    sorted dict, and every membership query agrees with the model."""
    from itertools import zip_longest

    seq = EventSequence(0)
    model: dict[int, Determinant] = {}
    pruned = 0
    # deterministic interleave: alternate batch, prune, batch, ...
    merged_ops: list = []
    for b, p in zip_longest(batches, prunes):
        if b is not None:
            merged_ops.append(("merge", b))
        if p is not None:
            merged_ops.append(("prune", p))
    for op, arg in merged_ops:
        if op == "merge":
            dets = [det(clock=c) for c in arg]
            added = seq.merge(dets)
            before = len(model)
            for c in arg:
                if c > pruned:
                    model.setdefault(c, det(clock=c))
            assert added == len(model) - before
        else:
            seq.prune_upto(arg)
            pruned = max(pruned, arg)
            for c in [c for c in model if c <= pruned]:
                del model[c]
        assert sorted(d.clock for d in seq) == sorted(model)
        assert len(seq) == len(model)
        for probe in range(1, 46):
            assert seq.holds(probe) == (probe in model)
            got = seq.get(probe)
            assert (got.clock if got else None) == (probe if probe in model else None)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["merge", "prune", "tail"]),
            st.integers(min_value=1, max_value=60),
        ),
        max_size=50,
    )
)
def test_sequence_matches_reference_model(ops):
    """EventSequence behaves like a sorted dict of clock -> det."""
    seq = EventSequence(0)
    model: dict[int, Determinant] = {}
    pruned = 0
    for op, arg in ops:
        if op == "merge":
            d = det(clock=arg)
            if arg > pruned:
                seq.merge([d])
                model.setdefault(arg, d)
        elif op == "prune":
            seq.prune_upto(arg)
            pruned = max(pruned, arg)
            for c in [c for c in model if c <= pruned]:
                del model[c]
        else:
            got = [d.clock for d in tail_after(seq, arg)]
            want = sorted(c for c in model if c > arg)
            assert got == want
    assert sorted(d.clock for d in seq) == sorted(model)
    assert len(seq) == len(model)


# --------------------------------------------------------------------- #
# the determinant store and the window form against the list-form oracle


def test_store_record_counts_and_forks_on_conflicting_recreation():
    store = DeterminantStore()
    for k in range(1, 6):
        store.record(det(clock=k))
    old = store.backing(0)
    window = EventSequence(0, store)
    for d in old[:5]:
        window.append(d)
    # replay re-creates an equal determinant: no fork
    store.record(det(clock=3))
    assert store.backing(0) is old
    assert (store.recreated_equal, store.recreated_forked) == (1, 0)
    # a conflicting re-creation forks; the old list and its reader stay put
    store.record(det(clock=4, sender=9))
    new = store.backing(0)
    assert new is not old and new[:3] == old[:3] and new[3].sender == 9
    assert old[3].sender == 1 and len(old) == 5
    assert [d.sender for d in window] == [1, 1, 1, 1, 1]
    # a later clock the forked list never saw is still compared against
    # the first determinant created for it
    store.record(det(clock=5, sender=9))
    assert (store.recreated_equal, store.recreated_forked) == (1, 2)


def test_window_adopts_and_shares_backing():
    store = DeterminantStore()
    for k in range(1, 9):
        store.record(det(clock=k))
    b = store.backing(0)
    a, c = EventSequence(0, store), EventSequence(0, DeterminantStore())
    assert a.extend_monotonic(1, 4, b) == 4
    assert c.extend_monotonic(3, 8, b) == 6  # empty window adopts b
    runs, backings = [], []
    assert c.extend_tail_runs(runs, backings, 4) == 4
    assert runs == [(0, 5, 8)] and backings[0] is b
    dets, lo, hi = a.index_window(1, 3)
    assert dets is b and [d.clock for d in dets[lo:hi]] == [2, 3]


def test_conflict_inside_a_foreign_run_keeps_every_clock_of_the_run():
    """A run copied in from another holder's list meets a conflicting slot
    part-way: the window must move to a list that agrees with the clocks
    it already took from that run too, not only with what it held."""
    store = DeterminantStore()
    for k in (1, 2, 5):
        store.record(det(clock=k))
    window = EventSequence(0, store)
    window.extend_monotonic(1, 2, store.backing(0))  # holds 1-2 over it
    store.record(det(clock=5, sender=7))  # fork: clocks 3-4 unseen there
    run = [None, None, det(clock=3, sender=9), det(clock=4, sender=9)]
    run.append(det(clock=5, sender=7))
    assert window.extend_monotonic(3, 5, run) == 3
    assert list(window) == store.backing(0)[:2] + run[2:]


CLOCKS = 24


def _ops():
    clock = st.integers(1, CLOCKS)
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), clock, st.integers(0, 1)),
            st.tuples(
                st.just("extend"), clock, st.integers(0, 4), st.integers(0, 15),
                st.booleans(),
            ),
            st.tuples(
                st.just("merge"),
                st.lists(st.tuples(clock, st.integers(0, 1)), max_size=6),
            ),
            st.tuples(st.just("prune"), st.integers(0, CLOCKS)),
            st.tuples(st.just("offset"), clock, st.integers(0, 4), st.integers(0, 2)),
            st.tuples(st.just("window"), st.integers(0, CLOCKS), st.integers(0, CLOCKS)),
            st.tuples(st.just("tail"), st.integers(0, CLOCKS)),
            st.tuples(st.just("roundtrip")),
            st.tuples(st.just("fork"), clock, st.integers(0, 3), st.integers(0, 15)),
        ),
        max_size=40,
    )


def _outcome(fn):
    try:
        return ("ok", fn())
    except ValueError:
        return ("ValueError", None)


@settings(max_examples=300, deadline=None)
@given(ops=_ops())
def test_window_form_matches_list_oracle(ops):
    """Random programs of append / extend_monotonic / merge (opening and
    filling holes) / prune_upto / new_run_offset / index_window /
    extend_tail_runs / an
    export-restore round-trip / a conflicting re-creation that forks the
    store, run on the window form and on the list form: same held clocks,
    determinants, return values, max_clock and pruned_upto — and no set
    entry of any backing list ever changes."""

    def make(clock, version):
        return det(clock=clock, sender=version, ssn=clock)

    def mixed(clock, bits):  # one of two versions per clock, by pattern
        return make(clock, (bits >> (clock % 4)) & 1)

    store = DeterminantStore()
    win = EventSequence(0, store)
    ref = ListEventSequence(0)
    seen: dict[int, tuple[list, list]] = {}

    def watch(backing):
        seen.setdefault(id(backing), (backing, list(backing)))

    for op in ops:
        kind = op[0]
        if kind == "append":
            d = make(op[1], op[2])
            assert _outcome(lambda: win.append(d)) == _outcome(lambda: ref.append(d))
        elif kind == "extend":
            _, first, extra, bits, shared = op
            last = first + extra
            if shared:  # a run over the store's own list
                for k in range(first, last + 1):
                    store.record(mixed(k, bits))
                backing = store.backing(0)
            else:  # a run over some other holder's list
                backing = [None] * (first - 1) + [
                    mixed(k, bits) for k in range(first, last + 1)
                ]
            watch(backing)
            got = _outcome(lambda: win.extend_monotonic(first, last, backing))
            assert got == _outcome(lambda: ref.extend_monotonic(first, last, backing))
        elif kind == "merge":
            dets = [make(c, v) for c, v in op[1]]
            assert win.merge(dets) == ref.merge(dets)
        elif kind == "prune":
            assert win.prune_upto(op[1]) == ref.prune_upto(op[1])
        elif kind == "offset":
            first = op[1]
            last = first + op[2]
            count = max(1, last - first + 1 - op[3])
            assert win.new_run_offset(first, last, count) == ref.new_run_offset(
                first, last, count
            )
        elif kind == "window":
            wd, wlo, whi = win.index_window(op[1], op[2])
            rd, rlo, rhi = ref.index_window(op[1], op[2])
            assert wd[wlo:whi] == rd[rlo:rhi]
        elif kind == "tail":
            runs, backings = [], []
            n = win.extend_tail_runs(runs, backings, op[1])
            assert run_events(runs, backings) == tail_after(ref, op[1])
            assert n == len(tail_after(ref, op[1]))
            for backing in backings:
                watch(backing)
        elif kind == "roundtrip":
            win = EventSequence.from_state(0, copy.deepcopy(win.export_state()), store)
            ref = ListEventSequence.from_state(0, copy.deepcopy(ref.export_state()))
        else:  # the creator re-creates some clocks, possibly differently
            for k in range(op[1], op[1] + op[2] + 1):
                store.record(mixed(k, op[3]))
        assert list(win) == list(ref)
        assert len(win) == len(ref)
        assert (win.max_clock, win.pruned_upto, win.min_clock) == (
            ref.max_clock,
            ref.pruned_upto,
            ref.min_clock,
        )
        for k in range(1, CLOCKS + 6):
            assert win.holds(k) == ref.holds(k)
            assert win.get(k) == ref.get(k)
        watch(store.backing(0))
        for key, (backing, before) in seen.items():
            assert all(
                old is None or backing[i] is old for i, old in enumerate(before)
            )
            seen[key] = (backing, list(backing))
