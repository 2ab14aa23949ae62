"""Unit + property tests for determinants, the determinant store and
window tables (each window against the list-form oracle)."""

import copy
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Determinant, DeterminantStore, WindowTable
from repro.core.piggyback import run_events
from tests.oracles import ListEventSequence


def det(creator=0, clock=1, sender=1, ssn=1, dep=0):
    return Determinant(creator, clock, sender, ssn, dep)


def tail_after(table, c, bound):
    """Held determinants of ``c`` with ``clock > bound`` (the piggyback
    selection)."""
    dets, lo, hi = table.index_window(c, bound, table.max_clock.get(c, 0))
    return list(dets[lo:hi])


def clocks(table, c=0):
    return [d.clock for d in table.dets(c)]


def filled(upto, c=0):
    """A table holding clocks 1..upto of creator ``c``."""
    t = WindowTable()
    for k in range(1, upto + 1):
        t.append(c, det(creator=c, clock=k))
    return t


# --------------------------------------------------------------------- #
# Determinant

def test_determinant_event_id():
    d = det(creator=3, clock=7)
    assert d.event_id == (3, 7)


def test_determinant_is_hashable_and_comparable():
    assert det() == det()
    assert len({det(), det()}) == 1


# --------------------------------------------------------------------- #
# WindowTable, one window

def test_append_and_iterate():
    t = filled(5)
    assert clocks(t) == [1, 2, 3, 4, 5]
    assert t.count(0) == t.held == 5
    assert t.max_clock[0] == 5
    assert t.min_clock[0] == 1


def test_append_wrong_creator_raises():
    t = WindowTable()
    with pytest.raises(ValueError):
        t.append(0, det(creator=1))


def test_append_non_monotonic_raises():
    t = WindowTable()
    t.append(0, det(clock=5))
    with pytest.raises(ValueError):
        t.append(0, det(clock=5))


def test_get_finds_existing_and_missing():
    t = WindowTable()
    t.append(0, det(clock=2))
    t.append(0, det(clock=4))
    assert t.get(0, 2).clock == 2
    assert t.get(0, 3) is None
    assert t.get(0, 5) is None
    assert t.get(1, 2) is None  # no window for creator 1


def test_tail_after():
    t = filled(10)
    assert [d.clock for d in tail_after(t, 0, 7)] == [8, 9, 10]
    assert [d.clock for d in tail_after(t, 0, 0)] == list(range(1, 11))
    assert tail_after(t, 0, 10) == []


def test_prune_upto():
    t = filled(10)
    assert t.prune_upto(0, 4) == 4
    assert t.count(0) == t.held == 6
    assert t.min_clock[0] == 5
    assert t.get(0, 3) is None
    assert t.get(0, 5).clock == 5
    # pruning again is a no-op
    assert t.prune_upto(0, 4) == 0


def test_prune_then_tail_after_consistent():
    t = filled(100)
    t.prune_upto(0, 50)
    assert [d.clock for d in tail_after(t, 0, 60)] == list(range(61, 101))
    assert [d.clock for d in tail_after(t, 0, 10)] == list(range(51, 101))


def test_compaction_preserves_content():
    t = filled(1000)
    for bound in (100, 300, 600, 900):
        t.prune_upto(0, bound)
        assert t.count(0) == 1000 - bound
        assert t.min_clock[0] == bound + 1
    assert clocks(t) == list(range(901, 1001))


def test_merge_appends_new_events():
    t = WindowTable()
    added = t.merge(0, [det(clock=1), det(clock=2), det(clock=2)])
    assert added == 2
    assert clocks(t) == [1, 2]


def test_merge_fills_holes():
    t = WindowTable()
    t.merge(0, [det(clock=1), det(clock=3)])
    assert t.merge(0, [det(clock=2)]) == 1
    assert clocks(t) == [1, 2, 3]


# --------------------------------------------------------------------- #
# holes (out-of-order merges) and their interaction with prune_upto and
# the floor

def test_merge_out_of_order_rebuild_keeps_membership_queries_correct():
    t = WindowTable()
    t.merge(0, [det(clock=2), det(clock=5), det(clock=9)])
    # holes at 1, 3-4, 6-8
    assert not t.holds(0, 3)
    assert t.merge(0, [det(clock=4), det(clock=1), det(clock=3)]) == 3
    assert clocks(t) == [1, 2, 3, 4, 5, 9]
    for k in (1, 2, 3, 4, 5, 9):
        assert t.holds(0, k)
        assert t.get(0, k).clock == k
    for k in (6, 7, 8, 10):
        assert not t.holds(0, k)
        assert t.get(0, k) is None
    assert t.max_clock[0] == 9
    # across the hole a window gathers a copy; filling the last hole makes
    # it one span again, read straight off the backing list
    assert t.index_window(0, 0, 9)[0] is not t.index_window(0, 0, 9)[0]
    t.merge(0, [det(clock=k) for k in (6, 7, 8)])
    dets, lo, hi = t.index_window(0, 0, 9)
    assert dets is t.index_window(0, 0, 9)[0] and (lo, hi) == (0, 9)


def test_merge_never_resurrects_pruned_events():
    t = filled(10)
    t.prune_upto(0, 6)
    # a late duplicate below the stable bound must stay gone...
    assert t.merge(0, [det(clock=3)]) == 0
    assert t.get(0, 3) is None
    assert t.count(0) == 4
    # ...even when merged together with a genuine hole-filler above it
    t2 = WindowTable()
    t2.merge(0, [det(clock=1), det(clock=2), det(clock=5)])
    t2.prune_upto(0, 2)
    assert t2.merge(0, [det(clock=1), det(clock=4), det(clock=3)]) == 2
    assert clocks(t2) == [3, 4, 5]
    assert t2.floor[0] == 2


def restored(table, store=None):
    """``table`` through a deep-copied checkpoint image."""
    t = WindowTable(store)
    t.load(copy.deepcopy(table.export_state()))
    return t


def test_export_restore_preserves_prune_floor():
    """The floor is part of the checkpoint round-trip: without it a
    restored window re-admits duplicates of stable events."""
    t = filled(8)
    t.prune_upto(0, 5)
    r = restored(t)
    assert r.floor[0] == 5
    assert clocks(r) == [6, 7, 8]
    assert r.max_clock[0] == 8
    assert r.merge(0, [det(clock=3)]) == 0
    assert r.get(0, 3) is None


def test_restore_of_fully_pruned_sequence_refuses_stale_runs():
    """A run accept must treat clocks at or below the floor as duplicates
    even when the window is empty (fully pruned, or freshly restored)."""
    t = filled(4)
    t.prune_upto(0, 4)
    r = restored(t)
    assert r.count(0) == 0 and 0 not in r.max_clock and r.floor[0] == 4
    backing = [det(clock=k) for k in range(1, 7)]
    # a whole-stale run adds nothing
    assert r.accept_run(0, 1, 4, backing) == 0
    # a run straddling the floor adds only what is above it
    assert r.accept_run(0, 3, 6, backing) == 2
    assert clocks(r) == [5, 6]
    # and merge itself keeps refusing the stale part
    assert r.merge(0, [det(clock=2)]) == 0


def test_from_state_accepts_legacy_bare_lists():
    t = WindowTable()
    t.load({0: [det(clock=k) for k in range(1, 4)]})
    assert clocks(t) == [1, 2, 3]
    assert t.floor[0] == 0


def test_merge_rebuild_then_prune_then_tail_after():
    t = WindowTable()
    t.merge(0, [det(clock=k) for k in range(1, 30, 2)])   # odds
    t.merge(0, [det(clock=k) for k in range(2, 30, 2)])   # evens (fill)
    t.prune_upto(0, 11)
    assert [d.clock for d in tail_after(t, 0, 20)] == list(range(21, 30))
    assert [d.clock for d in tail_after(t, 0, 0)] == list(range(12, 30))
    assert t.min_clock[0] == 12
    assert t.count(0) == 18


def test_prune_after_rebuild_keeps_pruned_upto_monotone():
    t = WindowTable()
    t.merge(0, [det(clock=5)])
    t.prune_upto(0, 3)
    assert t.floor[0] == 3
    t.merge(0, [det(clock=4)])            # hole-fill above the floor
    assert clocks(t) == [4, 5]
    t.prune_upto(0, 2)                    # lower bound: no-op
    assert t.floor[0] == 3
    assert t.count(0) == 2


def test_accept_run_over_a_holey_window_is_span_arithmetic():
    """A run over the window's own backing list that overlaps its holes
    admits exactly the missing clocks above the floor and above max_clock
    or the stable clock — by interval subtraction, no per-determinant
    merge."""
    store = DeterminantStore()
    for k in range(1, 13):
        store.record(det(clock=k))
    b = store.backing(0)
    t = WindowTable(store)
    t.merge(0, [b[k - 1] for k in (3, 6, 7, 10)])
    t.prune_upto(0, 1)
    # stable 4: hole 2 is stable below max_clock (refused), 4 is too;
    # 5, 8, 9 are unstable holes, 11-12 lie above max_clock
    assert t.accept_run(0, 1, 12, b, stable=4) == 5
    assert clocks(t) == [3, 5, 6, 7, 8, 9, 10, 11, 12]
    assert (t.run_merges, t.det_merges) == (1, 0)
    assert t.held == t.scan_held() == 9
    assert t.index_window(0, 2, 12)[0] is not b  # still one hole (at 4)
    assert t.accept_run(0, 4, 4, b) == 1  # unstable now: fills the hole
    assert t.index_window(0, 2, 12)[0] is b


def test_select_tails_ships_one_run_per_span_and_raises_bounds():
    store = DeterminantStore()
    for c in (0, 1, 2):
        for k in range(1, 7):
            store.record(det(creator=c, clock=k))
    t = WindowTable(store)
    t.merge(0, [det(clock=k) for k in (1, 2, 5, 6)])
    t.accept_run(1, 1, 4, store.backing(1))
    t.open(2)  # an empty window contributes nothing
    bound = {1: 3}
    runs, backings = [], []
    assert t.select_tails(None, bound, {0: 1}, runs, backings) == (4, 2)
    assert runs == [(0, 2, 2), (0, 5, 6), (1, 4, 4)]
    assert all(b is store.backing(c) for (c, _, _), b in zip(runs, backings))
    assert bound == {0: 6, 1: 4}
    # a candidate list restricts and orders the scan
    runs = []
    assert t.select_tails([1], {}, {}, runs, []) == (4, 1)
    assert runs == [(1, 1, 4)]


def test_prune_walks_only_windows_whose_stable_clock_reaches_a_held_clock():
    t = WindowTable()
    for c in (0, 1, 2):
        for k in range(3, 6):
            t.append(c, det(creator=c, clock=k))
    t.open(3)
    assert t.prune({0: 4, 1: 2, 3: 9}) == 2
    # the floor moves only where something was pruned
    assert t.floor == {0: 4, 1: 0, 2: 0, 3: 0}
    assert t.held == t.scan_held() == 7


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

    t = WindowTable()
    t.open(0)
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
            added = t.merge(0, dets)
            before = len(model)
            for c in arg:
                if c > pruned:
                    model.setdefault(c, det(clock=c))
            assert added == len(model) - before
        else:
            t.prune_upto(0, arg)
            pruned = max(pruned, arg)
            for c in [c for c in model if c <= pruned]:
                del model[c]
        assert clocks(t) == sorted(model)
        assert t.count(0) == t.held == len(model)
        for probe in range(1, 46):
            assert t.holds(0, probe) == (probe in model)
            got = t.get(0, probe)
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
    """A window behaves like a sorted dict of clock -> det."""
    t = WindowTable()
    t.open(0)
    model: dict[int, Determinant] = {}
    pruned = 0
    for op, arg in ops:
        if op == "merge":
            d = det(clock=arg)
            if arg > pruned:
                t.merge(0, [d])
                model.setdefault(arg, d)
        elif op == "prune":
            t.prune_upto(0, arg)
            pruned = max(pruned, arg)
            for c in [c for c in model if c <= pruned]:
                del model[c]
        else:
            got = [d.clock for d in tail_after(t, 0, arg)]
            want = sorted(c for c in model if c > arg)
            assert got == want
    assert clocks(t) == sorted(model)
    assert t.count(0) == len(model)


# --------------------------------------------------------------------- #
# the determinant store, forks and private backing lists


def test_store_record_counts_and_forks_on_conflicting_recreation():
    store = DeterminantStore()
    for k in range(1, 6):
        store.record(det(clock=k))
    old = store.backing(0)
    t = WindowTable(store)
    for d in old[:5]:
        t.append(0, d)
    # replay re-creates an equal determinant: no fork
    store.record(det(clock=3))
    assert store.backing(0) is old
    assert (store.recreated_equal, store.recreated_forked) == (1, 0)
    # a conflicting re-creation forks; the old list and its reader stay put
    store.record(det(clock=4, sender=9))
    new = store.backing(0)
    assert new is not old and new[:3] == old[:3] and new[3].sender == 9
    assert old[3].sender == 1 and len(old) == 5
    assert [d.sender for d in t.dets(0)] == [1, 1, 1, 1, 1]
    # a window opened after the fork reads the new list (a private one:
    # not the creator's original list)
    t2 = WindowTable(store)
    t2.accept_run(0, 1, 4, old)  # adopts the run's list: the original
    t3 = WindowTable(store)
    t3.append(0, new[3])
    assert [d.sender for d in t2.dets(0)] == [1, 1, 1, 1]
    assert [d.sender for d in t3.dets(0)] == [9]
    assert t3.index_window(0, 0, 4)[0] is new
    # a later clock the forked list never saw is still compared against
    # the first determinant created for it
    store.record(det(clock=5, sender=9))
    assert (store.recreated_equal, store.recreated_forked) == (1, 2)


def test_window_adopts_and_shares_backing():
    store = DeterminantStore()
    for k in range(1, 9):
        store.record(det(clock=k))
    b = store.backing(0)
    a, c = WindowTable(store), WindowTable(DeterminantStore())
    assert a.accept_run(0, 1, 4, b) == 4
    assert c.accept_run(0, 3, 8, b) == 6  # empty window adopts b
    runs, backings = [], []
    assert c.select_tails(None, {0: 4}, {}, runs, backings) == (4, 1)
    assert runs == [(0, 5, 8)] and backings[0] is b
    dets, lo, hi = a.index_window(0, 1, 3)
    assert dets is b and [d.clock for d in dets[lo:hi]] == [2, 3]


def test_conflict_inside_a_foreign_run_keeps_every_clock_of_the_run():
    """A run copied in from another holder's list meets a conflicting slot
    part-way: the window must move to a list that agrees with the clocks
    it already took from that run too, not only with what it held."""
    store = DeterminantStore()
    for k in (1, 2, 5):
        store.record(det(clock=k))
    t = WindowTable(store)
    t.accept_run(0, 1, 2, store.backing(0))  # holds 1-2 over it
    store.record(det(clock=5, sender=7))  # fork: clocks 3-4 unseen there
    run = [None, None, det(clock=3, sender=9), det(clock=4, sender=9)]
    run.append(det(clock=5, sender=7))
    assert t.accept_run(0, 3, 5, run) == 3
    assert t.dets(0) == store.backing(0)[:2] + run[2:]
    assert (t.run_merges, t.det_merges) == (1, 3)


# --------------------------------------------------------------------- #
# random programs over several creators of one table, each creator
# against its own list-form oracle

CLOCKS = 24


def _ops(ncreators):
    clock = st.integers(1, CLOCKS)
    creator = st.integers(0, ncreators - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), creator, clock, st.integers(0, 1)),
            st.tuples(
                st.just("accept"), creator, clock, st.integers(0, 6),
                st.integers(0, 15), st.booleans(), st.integers(0, CLOCKS),
                st.integers(0, CLOCKS),
            ),
            st.tuples(
                st.just("merge"), creator,
                st.lists(st.tuples(clock, st.integers(0, 1)), max_size=6),
            ),
            st.tuples(st.just("prune"), creator, st.integers(0, CLOCKS)),
            st.tuples(
                st.just("prune_all"),
                st.lists(st.integers(0, CLOCKS), min_size=ncreators, max_size=ncreators),
            ),
            st.tuples(
                st.just("window"), creator, st.integers(0, CLOCKS),
                st.integers(0, CLOCKS),
            ),
            st.tuples(
                st.just("tail"),
                st.lists(creator, unique=True, max_size=ncreators),
                st.lists(st.integers(0, CLOCKS), min_size=ncreators, max_size=ncreators),
                st.lists(st.integers(0, CLOCKS), min_size=ncreators, max_size=ncreators),
            ),
            st.tuples(st.just("roundtrip")),
            st.tuples(
                st.just("fork"), creator, clock, st.integers(0, 3),
                st.integers(0, 15),
            ),
        ),
        max_size=40,
    )


def _outcome(fn):
    try:
        return ("ok", fn())
    except ValueError:
        return ("ValueError", None)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_window_form_matches_list_oracle(data):
    """Random programs interleaving 3-4 creators in one table — append /
    accept_run (extending, skipping, filling holes, over the store's list
    or another holder's) / merge (opening and filling holes) /
    prune_upto / prune / index_window / select_tails / an export-restore
    round-trip / a conflicting re-creation that forks the store (moving
    windows to the store's current list or to private copies) — run on
    the table and on one list form per creator: same held clocks,
    determinants, return values, max_clock, min_clock and floor, a held
    count equal to the recount — and no set entry of any backing list
    ever changes."""
    ncreators = data.draw(st.integers(3, 4), label="creators")
    ops = data.draw(_ops(ncreators), label="ops")

    def make(c, clock, version):
        return det(creator=c, clock=clock, sender=version, ssn=clock)

    def mixed(c, clock, bits):  # one of two versions per clock, by pattern
        return make(c, clock, (bits >> (clock % 4)) & 1)

    store = DeterminantStore()
    table = WindowTable(store)
    for c in range(ncreators):
        table.open(c)
    refs = {c: ListEventSequence(c) for c in range(ncreators)}
    seen: dict[int, tuple[list, list]] = {}

    def watch(backing):
        seen.setdefault(id(backing), (backing, list(backing)))

    def run_backing(c, first, last, bits, shared):
        if shared:  # a run over the store's own list
            for k in range(first, last + 1):
                store.record(mixed(c, k, bits))
            backing = store.backing(c)
        else:  # a run over some other holder's list
            backing = [None] * (first - 1) + [
                mixed(c, k, bits) for k in range(first, last + 1)
            ]
        watch(backing)
        return backing

    for op in ops:
        kind = op[0]
        if kind == "append":
            _, c, clock, version = op
            d = make(c, clock, version)
            got = _outcome(lambda: table.append(c, d))
            assert got == _outcome(lambda: refs[c].append(d))
        elif kind == "accept":
            _, c, first, extra, bits, shared, stable, floor = op
            last = first + extra
            backing = run_backing(c, first, last, bits, shared)
            got = table.accept_run(c, first, last, backing, stable, floor)
            assert got == refs[c].accept_run(first, last, backing, stable, floor)
        elif kind == "merge":
            _, c, clocks_ = op
            dets = [make(c, k, v) for k, v in clocks_]
            assert table.merge(c, dets) == refs[c].merge(dets)
        elif kind == "prune":
            _, c, k = op
            assert table.prune_upto(c, k) == refs[c].prune_upto(k)
        elif kind == "prune_all":
            stable = dict(enumerate(op[1]))
            want = sum(
                ref.prune_upto(stable[c])
                for c, ref in refs.items()
                if ref.min_clock is not None and stable[c] >= ref.min_clock
            )
            assert table.prune(stable) == want
        elif kind == "window":
            _, c, bound, upto = op
            wd, wlo, whi = table.index_window(c, bound, upto)
            rd, rlo, rhi = refs[c].index_window(bound, upto)
            assert list(wd[wlo:whi]) == rd[rlo:rhi]
        elif kind == "tail":
            _, cands, bounds, stables = op
            bound = dict(enumerate(bounds))
            stable = dict(enumerate(stables))
            runs, backings = [], []
            n, groups = table.select_tails(cands, bound, stable, runs, backings)
            want = {
                c: tail_after_ref
                for c in cands
                if (tail_after_ref := [
                    d for d in refs[c] if d.clock > max(bounds[c], stables[c])
                ])
            }
            assert [r[0] for r in runs] == sorted(
                (r[0] for r in runs), key=cands.index
            )
            got = {c: [] for c in want}
            for d in run_events(runs, backings):
                got[d.creator].append(d)
            assert got == want
            assert (n, groups) == (sum(map(len, want.values())), len(want))
            for c in range(ncreators):
                mc = refs[c].max_clock
                raised = c in want
                assert bound[c] == (mc if raised else bounds[c])
            for backing in backings:
                watch(backing)
        elif kind == "roundtrip":
            table = restored(table, store)
            refs = {
                c: ListEventSequence.from_state(c, copy.deepcopy(ref.export_state()))
                for c, ref in refs.items()
            }
        else:  # the creator re-creates some clocks, possibly differently
            _, c, first, extra, bits = op
            for k in range(first, first + extra + 1):
                store.record(mixed(c, k, bits))
        for c, ref in refs.items():
            assert table.dets(c) == list(ref)
            assert table.count(c) == len(ref)
            assert (
                table.max_clock.get(c, 0), table.floor[c], table.min_clock.get(c)
            ) == (ref.max_clock, ref.pruned_upto, ref.min_clock)
            for k in range(1, CLOCKS + 8):
                assert table.holds(c, k) == ref.holds(k)
                assert table.get(c, k) == ref.get(k)
            held = [d.clock for d in ref]
            if held and held[-1] - held[0] + 1 == len(held):
                # hole-free clocks are one span: read off the list, no copy
                dets = table.index_window(c, 0, CLOCKS + 8)[0]
                assert dets is table.index_window(c, 0, CLOCKS + 8)[0]
            watch(store.backing(c))
        assert table.held == table.scan_held() == sum(map(len, refs.values()))
        assert list(table.floor) == list(range(ncreators))
        for key, (backing, before) in seen.items():
            assert all(
                old is None or backing[i] is old for i, old in enumerate(before)
            )
            seen[key] = (backing, list(backing))


# --------------------------------------------------------------------- #
# the GC footprint of a table


def _tracked_referents(table):
    return [o for o in gc.get_referents(table) if gc.is_tracked(o)]


def test_table_tracked_referents_do_not_grow_with_creators():
    """A table refers to the same tracked objects whether it has 4 or 400
    windows: the columns are int dicts the GC does not track."""
    counts = []
    for ncreators in (4, 400):
        store = DeterminantStore()
        table = WindowTable(store)
        for c in range(ncreators):
            for k in range(1, 4):
                store.record(det(creator=c, clock=k))
            table.accept_run(c, 1, 3, store.backing(c))
            table.prune_upto(c, c % 4)  # every fourth window ends empty
        assert table.held == table.scan_held() == 6 * ncreators // 4
        assert len(table.floor) == ncreators
        assert len(table.max_clock) == len(table.min_clock) == 3 * ncreators // 4
        for column in (table.floor, table.min_clock, table.max_clock):
            assert gc.is_tracked(column) is False
        counts.append(len(_tracked_referents(table)))
    assert counts[0] == counts[1]


def test_cg_run_leaves_table_columns_untracked():
    """After a smoke-sized CG-32 vcausal + EL run every protocol's window
    table keeps its int columns untracked by the GC."""
    from repro.experiments.common import run_nas
    from repro.runtime.config import ClusterConfig

    config = ClusterConfig().with_overrides(pb_cost_model="sparse")
    result, _ = run_nas("cg", "A", 32, "vcausal", iterations=2, config=config)
    tables = [d.protocol.windows for d in result.cluster.daemons.values()]
    assert len(tables) == 32
    assert sum(len(t.floor) for t in tables) > 32
    assert any(f for t in tables for f in t.floor.values())  # EL acks pruned
    for t in tables:
        for column in (t.floor, t.min_clock, t.max_clock):
            assert gc.is_tracked(column) is False
