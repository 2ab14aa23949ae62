"""Unit tests for piggyback wire formats and byte accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Determinant
from repro.core.piggyback import (
    Piggyback,
    factored_bytes_from_counts,
    flat_bytes_from_count,
    run_events,
)
from repro.runtime.config import ClusterConfig
from tests.oracles import factored_bytes, flat_bytes

CFG = ClusterConfig()


def det(creator, clock):
    return Determinant(creator, clock, 0, clock, 0)


def test_empty_piggyback_costs_only_length_header():
    assert factored_bytes([], CFG) == CFG.pb_length_header_bytes
    assert flat_bytes([], CFG) == CFG.pb_length_header_bytes


def test_factored_single_group():
    events = [det(2, k) for k in range(1, 6)]
    assert factored_bytes(events, CFG) == (
        CFG.pb_length_header_bytes
        + CFG.pb_group_header_bytes
        + 5 * CFG.pb_event_factored_bytes
    )


def test_factored_pays_header_per_creator_run():
    events = [det(0, 1), det(0, 2), det(1, 1), det(1, 2), det(1, 3)]
    assert factored_bytes(events, CFG) == (
        CFG.pb_length_header_bytes
        + 2 * CFG.pb_group_header_bytes
        + 5 * CFG.pb_event_factored_bytes
    )


def test_flat_pays_per_event_rank():
    events = [det(0, 1), det(1, 1), det(2, 1)]
    assert flat_bytes(events, CFG) == (
        CFG.pb_length_header_bytes + 3 * CFG.pb_event_flat_bytes
    )


def test_flat_is_larger_for_same_events_when_grouped():
    """Paper §III-C: same number of events costs more bytes under LogOn."""
    events = [det(0, k) for k in range(1, 20)]
    assert flat_bytes(events, CFG) > factored_bytes(events, CFG)


def test_piggyback_dataclass_defaults():
    pb = Piggyback()
    assert pb.n_events == 0
    assert pb.nbytes == 0
    assert pb.build_cost_s == 0.0
    assert pb.runs == () and pb.backings == ()
    assert pb.n_groups == 0
    assert pb.events == ()


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 50)), max_size=40, unique=True
    )
)
def test_run_counting_shared_across_helpers(pairs):
    """A piggyback's clock-range runs, its derived event list and the
    byte accounting agree: the runs cover exactly the events, and the
    factored size from the kept counts equals a re-scan of the events."""
    events = [det(c, k) for c, k in pairs]
    backing = {}
    for d in events:
        b = backing.setdefault(d.creator, [None] * 50)
        b[d.clock - 1] = d
    runs = []
    groups = 0
    for i, d in enumerate(events):
        prev = events[i - 1] if i else None
        if prev is None or prev.creator != d.creator:
            groups += 1
        elif prev.clock + 1 == d.clock:
            runs[-1] = (d.creator, runs[-1][1], d.clock)
            continue
        runs.append((d.creator, d.clock, d.clock))
    backings = tuple(backing[c] for c, _first, _last in runs)
    pb = Piggyback(tuple(runs), backings, len(events), groups)
    assert pb.events == tuple(events) and run_events(runs, backings) == events
    assert factored_bytes(events, CFG) == factored_bytes_from_counts(
        pb.n_events, pb.n_groups, CFG
    )
    assert flat_bytes(events, CFG) == flat_bytes_from_count(pb.n_events, CFG)


@settings(max_examples=100, deadline=None)
@given(
    clocks=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 100)),
        max_size=60,
        unique=True,
    )
)
def test_factored_never_exceeds_flat_plus_headers(clocks):
    """Factoring saves bytes whenever creators repeat, and never costs
    more than one group header per event."""
    events = [det(c, k) for c, k in clocks]
    f = factored_bytes(events, CFG)
    fl = flat_bytes(events, CFG)
    # worst case: every event its own group => 8 + 12 = 20 > 16 per event
    assert f <= CFG.pb_length_header_bytes + len(events) * (
        CFG.pb_group_header_bytes + CFG.pb_event_factored_bytes
    )
    # grouped by creator, factoring wins once any creator has >= 2 events
    # (one 8-byte header amortized over 4-byte savings per event... the
    # break-even is 2 events per group on average)
    merged = sorted(events, key=lambda d: (d.creator, d.clock))
    groups = {d.creator for d in events}
    if events and len(events) >= 2 * len(groups):
        assert factored_bytes(merged, CFG) <= fl
