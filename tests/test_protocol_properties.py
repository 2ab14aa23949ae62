"""Property tests on the three causal protocols, driven directly.

A :class:`MiniWorld` drives protocol instances through random message
schedules without the simulator, tracking ground truth:

* **Causal completeness** — on every delivery, the receiver's holdings
  plus the stable prefix cover the causal past of the message (the
  no-orphan safety property of causal logging).
* **No duplicate piggyback** per channel (paper §III-B).
* **Protocol equivalence** — Vcausal, Manetho and LogOn deliver identical
  causal knowledge above the stable bound; they differ only in bytes and
  computation.
* **LogOn order blindness** — LogOn's partial order is a modelled cost:
  merging a piggyback as shipped (clock-ascending per-creator runs) or
  event by event in a causal linear extension ends in the same state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Determinant
from repro.core.logon import LogOnProtocol
from repro.core.manetho import ManethoProtocol
from repro.core.piggyback import Piggyback
from repro.core.vcausal import VcausalProtocol
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig
from tests.conftest import VectorLogger
from tests.oracles import causal_linear_extension, factored_bytes

CFG = ClusterConfig()
PROTOCOLS = [VcausalProtocol, ManethoProtocol, LogOnProtocol]


class MiniWorld:
    """Synchronous protocol driver with ground-truth tracking."""

    def __init__(self, cls, n: int):
        self.n = n
        self.protocols = [
            cls(r, n, CFG, ProcessProbes(rank=r)) for r in range(n)
        ]
        self.clocks = [0] * n
        self.ssn: dict[tuple[int, int], int] = {}
        #: ground truth: causal closure bound per rank per creator
        self.closure = [[0] * n for _ in range(n)]
        #: events piggybacked per directed channel (for the no-dup check)
        self.channel_history: dict[tuple[int, int], set] = {}
        #: global stable vector (the EL's truth) and the logger acking it
        self.stable = [0] * n
        self.logger = VectorLogger(n)

    def send(self, src: int, dst: int):
        """One message src → dst with full piggyback processing."""
        proto_src = self.protocols[src]
        pb = proto_src.build_piggyback(dst)

        # -- no duplicate piggyback per channel -------------------------
        hist = self.channel_history.setdefault((src, dst), set())
        ids = [(d.creator, d.clock) for d in pb.events]
        assert len(ids) == len(set(ids)), "duplicate inside one piggyback"
        dup = hist.intersection(ids)
        assert not dup, f"events {dup} piggybacked twice on {src}->{dst}"
        hist.update(ids)

        sender_stable = list(self.stable)
        sender_closure = list(self.closure[src])

        ssn = self.ssn.get((src, dst), 0) + 1
        self.ssn[(src, dst)] = ssn
        dep = self.clocks[src]

        # delivery
        proto_dst = self.protocols[dst]
        proto_dst.accept_piggyback(src, pb, dep)
        self.clocks[dst] += 1
        det = Determinant(dst, self.clocks[dst], src, ssn, dep)
        proto_dst.on_local_event(det)

        # ground truth update: receiver's closure absorbs sender's
        for c in range(self.n):
            if sender_closure[c] > self.closure[dst][c]:
                self.closure[dst][c] = sender_closure[c]
        self.closure[dst][dst] = self.clocks[dst]

        # -- causal completeness ----------------------------------------
        # receiver must hold (or be able to recover from the EL) every
        # event in the causal past of the delivered message
        for c in range(self.n):
            needed = sender_closure[c]
            if needed == 0:
                continue
            held = proto_dst.events_created_by(c)
            held_max = max((d.clock for d in held), default=0)
            covered = max(held_max, sender_stable[c])
            assert covered >= needed, (
                f"rank {dst} misses causal past of creator {c}: "
                f"needs {needed}, holds {held_max}, stable {sender_stable[c]}"
            )
            # holdings above stable must be gap-free (prefix property)
            above = sorted(d.clock for d in held if d.clock > sender_stable[c])
            if above:
                lo = max(sender_stable[c] + 1, above[0])
                expect = list(range(lo, above[-1] + 1))
                assert above == expect, f"hole in holdings of {c} at rank {dst}"
        return pb

    def ack(self, advance_to: dict[int, int], recipients: list[int]):
        """The EL advances its stable clocks and acks some processes;
        returns the ack."""
        for c, k in advance_to.items():
            self.stable[c] = max(self.stable[c], min(k, self.clocks[c]))
        ack = self.logger.ack(self.stable)
        for r in recipients:
            self.protocols[r].on_el_ack(ack)
        return ack

    def holdings_above_stable(self, rank: int) -> dict[int, frozenset]:
        out = {}
        for c in range(self.n):
            held = self.protocols[rank].events_created_by(c)
            out[c] = frozenset(d.clock for d in held if d.clock > self.stable[c])
        return out


def schedule_strategy(max_procs=4, max_steps=40):
    return st.data()


@pytest.mark.parametrize("cls", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invariants_under_random_schedules(cls, data):
    n = data.draw(st.integers(2, 4), label="nprocs")
    world = MiniWorld(cls, n)
    steps = data.draw(st.integers(1, 40), label="steps")
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["send", "send", "send", "ack"]))
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            world.send(src, dst)
        else:
            advance = {
                c: data.draw(st.integers(0, max(world.clocks[c], 0)))
                for c in range(n)
            }
            recips = data.draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            world.ack(advance, recips)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_three_protocols_build_identical_knowledge(data):
    """Same schedule → identical holdings above the stable bound."""
    n = data.draw(st.integers(2, 4), label="nprocs")
    worlds = [MiniWorld(cls, n) for cls in PROTOCOLS]
    steps = data.draw(st.integers(1, 30), label="steps")
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["send", "send", "send", "ack"]))
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            for w in worlds:
                w.send(src, dst)
        else:
            advance = {
                c: data.draw(st.integers(0, max(worlds[0].clocks[c], 0)))
                for c in range(n)
            }
            recips = data.draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            for w in worlds:
                w.ack(advance, recips)
    for rank in range(n):
        views = [w.holdings_above_stable(rank) for w in worlds]
        assert views[0] == views[1] == views[2], f"knowledge differs at rank {rank}"


def _graph_state(proto):
    """Everything a LogOn accept leaves behind that a later hook reads."""
    return (
        {c: proto.events_created_by(c) for c in range(proto.nprocs)},
        {p: v.export_state() for p, v in proto.known.items()},
        dict(proto.peer_clock_seen),
        proto.events_held(),
        proto.probes.pb_recv_time_s,
    )


def _in_causal_order(pb):
    """``pb`` re-split into single-clock runs in the oracle's causal
    linear extension."""
    backing_of = {run[0]: b for run, b in zip(pb.runs, pb.backings)}
    ordered = causal_linear_extension(pb.events)
    return Piggyback(
        tuple((d.creator, d.clock, d.clock) for d in ordered),
        tuple(backing_of[d.creator] for d in ordered),
        pb.n_events,
        pb.n_groups,
        pb.nbytes,
        pb.build_cost_s,
    )


def test_causal_linear_extension_follows_chain_and_cross_edges():
    """The oracle orders Fig. 3's chain a -> b -> c -> d however the
    events are given."""
    a, b, c, d = (
        Determinant(0, 1, 1, 1, 0),
        Determinant(1, 1, 0, 1, 1),
        Determinant(2, 1, 1, 1, 1),
        Determinant(0, 2, 2, 1, 1),
    )
    assert causal_linear_extension([d, c, a, b]) == [a, b, c, d]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_logon_accept_is_blind_to_the_linear_extension(data):
    """A receiver that merges each LogOn piggyback as shipped and a twin
    that merges it event by event in a causal linear extension hold the
    same graph, knowledge, observed peer clocks and held count, and are
    charged the same dense-model accept cost: the order LogOn's reorder
    cost pays for reaches no simulated value."""
    n = data.draw(st.integers(2, 4), label="nprocs")
    world = MiniWorld(LogOnProtocol, n)
    twins = [LogOnProtocol(r, n, CFG, ProcessProbes(rank=r)) for r in range(n)]
    steps = data.draw(st.integers(1, 30), label="steps")
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["send", "send", "send", "ack"]))
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            dep = world.clocks[src]
            twins[src].build_piggyback(dst)  # keeps the twin's knowledge in step
            pb = world.send(src, dst)
            twins[dst].accept_piggyback(src, _in_causal_order(pb), dep)
            twins[dst].on_local_event(
                Determinant(dst, world.clocks[dst], src, world.ssn[(src, dst)], dep)
            )
        else:
            advance = {
                c: data.draw(st.integers(0, max(world.clocks[c], 0)))
                for c in range(n)
            }
            recips = data.draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            ack = world.ack(advance, recips)
            for r in recips:
                twins[r].on_el_ack(ack)
        for r in range(n):
            assert _graph_state(twins[r]) == _graph_state(world.protocols[r])


@pytest.mark.parametrize("cls", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_held_counter_matches_scan(cls, data):
    """events_held() is maintained incrementally; it must equal the full
    O(#creators) recount after every hook invocation."""
    n = data.draw(st.integers(2, 4), label="nprocs")
    world = MiniWorld(cls, n)
    steps = data.draw(st.integers(1, 40), label="steps")
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["send", "send", "send", "ack"]))
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            world.send(src, dst)
        else:
            advance = {
                c: data.draw(st.integers(0, max(world.clocks[c], 0)))
                for c in range(n)
            }
            recips = data.draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            world.ack(advance, recips)
        for r in range(n):
            proto = world.protocols[r]
            assert proto.events_held() == proto.scan_events_held()


@pytest.mark.parametrize("cls", [VcausalProtocol, ManethoProtocol])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_piggyback_run_table_consistent(cls, data):
    """The clock-range runs of factored piggybacks cover clock-contiguous
    stretches of one creator each, their counts agree with the derived
    event list, and the byte accounting with a re-scan of it."""
    from itertools import groupby

    n = data.draw(st.integers(2, 4), label="nprocs")
    world = MiniWorld(cls, n)
    steps = data.draw(st.integers(1, 30), label="steps")
    for _ in range(steps):
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
        pb = world.send(src, dst)
        events = pb.events
        assert len(pb.backings) == len(pb.runs)
        for (creator, first, last), backing in zip(pb.runs, pb.backings):
            assert [(d.creator, d.clock) for d in backing[first - 1 : last]] == [
                (creator, k) for k in range(first, last + 1)
            ]
        assert pb.n_events == len(events)
        assert pb.n_groups == sum(1 for _ in groupby(d.creator for d in events))
        assert pb.nbytes == factored_bytes(events, CFG)


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_graph_methods_infer_third_party_knowledge_fig3(cls):
    """Paper Fig. 3: P3 has never exchanged with P2, yet the graph
    protocols can compute which events P2 already knows (its own) and
    skip them, while Vcausal re-sends them on the fresh channel."""
    n = 4
    world = MiniWorld(cls, n)
    world.send(1, 2)   # creates (2,1) at P2
    world.send(2, 1)   # creates (1,1); P1 now holds (2,1)
    world.send(1, 3)   # creates (3,1); P3 now holds (1,1) and (2,1)
    pb = world.send(3, 2)   # P3 -> P2: a never-used channel
    ids = {(d.creator, d.clock) for d in pb.events}
    assert (1, 1) in ids and (3, 1) in ids
    if cls is VcausalProtocol:
        # Vcausal has no channel history with P2: it re-sends P2's own event
        assert (2, 1) in ids
    else:
        # the antecedence graph proves P2 knows its own event
        assert (2, 1) not in ids


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_el_ack_prunes_memory(cls):
    n = 3
    world = MiniWorld(cls, n)
    for _ in range(5):
        world.send(0, 1)
        world.send(1, 2)
        world.send(2, 0)
    held_before = sum(world.protocols[r].events_held() for r in range(n))
    world.ack({c: world.clocks[c] for c in range(n)}, recipients=[0, 1, 2])
    held_after = sum(world.protocols[r].events_held() for r in range(n))
    assert held_before > 0
    assert held_after == 0


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_stable_events_never_piggybacked_again(cls):
    n = 3
    world = MiniWorld(cls, n)
    world.send(0, 1)
    world.send(1, 2)
    world.ack({c: world.clocks[c] for c in range(n)}, recipients=[0, 1, 2])
    pb = world.send(2, 0)
    stable_ids = {
        (c, k) for c in range(n) for k in range(1, world.stable[c] + 1)
    }
    sent_ids = {(d.creator, d.clock) for d in pb.events}
    assert not sent_ids & stable_ids


@pytest.mark.parametrize("cls", PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_export_restore_accept_cycle_keeps_counters_in_sync(cls, data):
    """PR-1's maintained counters (events_held, graph size, max_clock /
    contiguity) must survive an export → restore → accept cycle: a restore
    that rebuilds the sequences without the prune floors would re-admit
    stale duplicates on the next accept and silently desync events_held().
    """
    n = data.draw(st.integers(2, 4), label="nprocs")
    world = MiniWorld(cls, n)
    steps = data.draw(st.integers(1, 30), label="steps")
    for _ in range(steps):
        kind = data.draw(st.sampled_from(["send", "send", "send", "ack"]))
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            world.send(src, dst)
        else:
            advance = {
                c: data.draw(st.integers(0, max(world.clocks[c], 0)))
                for c in range(n)
            }
            world.ack(advance, recipients=list(range(n)))
    # checkpoint/restore one rank in place, then keep running the schedule
    # through it: counters must stay equal to the full recount at every
    # hook boundary, and nothing pruned may come back
    victim = data.draw(st.integers(0, n - 1), label="victim")
    proto = world.protocols[victim]
    import copy

    state = copy.deepcopy(proto.export_state())
    fresh = cls(victim, n, CFG, ProcessProbes(rank=victim))
    fresh.restore_state(state)
    world.protocols[victim] = fresh
    assert fresh.events_held() == proto.events_held()
    assert fresh.events_held() == fresh.scan_events_held()
    for _ in range(data.draw(st.integers(1, 10), label="post_steps")):
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
        world.send(src, dst)
        for r in range(n):
            p = world.protocols[r]
            assert p.events_held() == p.scan_events_held()
        # restored holdings must never fall below the global stable bound
        for c in range(n):
            held = world.protocols[victim].events_created_by(c)
            assert all(d.clock > 0 for d in held)


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_restore_does_not_resurrect_pruned_events(cls):
    """Events pruned as stable must stay gone across export/restore: the
    per-sequence prune floor is part of the checkpoint image."""
    n = 3
    world = MiniWorld(cls, n)
    for _ in range(4):
        world.send(0, 1)
        world.send(1, 2)
        world.send(2, 0)
    # every event becomes stable and is pruned everywhere
    world.ack({c: world.clocks[c] for c in range(n)}, recipients=[0, 1, 2])
    proto = world.protocols[1]
    assert proto.events_held() == 0
    import copy

    state = copy.deepcopy(proto.export_state())
    fresh = cls(1, n, CFG, ProcessProbes(rank=1))
    fresh.restore_state(state)
    # a stale piggyback replaying pre-stable events must be refused
    stale = [
        Determinant(0, 1, 2, 1, 0),
        Determinant(0, 2, 1, 1, 0),
    ]

    pb = Piggyback(
        runs=((0, 1, 2),),
        backings=(stale,),
        n_events=2,
        n_groups=1,
        nbytes=factored_bytes(stale, CFG),
    )
    fresh.accept_piggyback(0, pb, 0)
    assert fresh.events_held() == fresh.scan_events_held()
    assert [d.clock for d in fresh.events_created_by(0)] == []


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_export_restore_roundtrip_preserves_behaviour(cls):
    n = 3
    world = MiniWorld(cls, n)
    for _ in range(4):
        world.send(0, 1)
        world.send(1, 2)
    proto = world.protocols[1]
    state = proto.export_state()
    fresh = cls(1, n, CFG, ProcessProbes(rank=1))
    import copy

    fresh.restore_state(copy.deepcopy(state))
    assert fresh.events_held() == proto.events_held()
    for c in range(n):
        assert [d.clock for d in fresh.events_created_by(c)] == [
            d.clock for d in proto.events_created_by(c)
        ]
    # both build the same piggyback for a new destination
    pb_a = proto.build_piggyback(2)
    pb_b = fresh.build_piggyback(2)
    assert {(d.creator, d.clock) for d in pb_a.events} == {
        (d.creator, d.clock) for d in pb_b.events
    }
