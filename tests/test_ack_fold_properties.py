"""Acks as journal handles: the slice fold against the snapshot fold.

A one-shard Event Logger acks with an :class:`ElAck` handle on its
stable-advance journal, and ``VProtocol.on_el_ack`` folds only the
journal slice past the position a process has consumed.  Random
interleavings of determinant logging (in order and with holes), ack
delivery, plain-vector pushes, checkpoints and restores must leave every
EL protocol's stable view equal to the oracle that folds each ack's full
snapshot (``tests/oracles.py`` :func:`snapshot_fold`), and its held
determinants equal to a twin that is only ever fed plain snapshots.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig
from repro.core.bounds import BoundVector
from repro.core.event_logger import EL_HOST, ElAck, EventLogger
from repro.core.events import Determinant
from repro.core.protocol_base import make_protocol
from repro.experiments.common import run_nas
from repro.metrics.probes import ClusterProbes, ProcessProbes
from repro.runtime.daemon import Vdaemon
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

from tests.oracles import snapshot_fold

EL_PROTOCOLS = ["vcausal", "manetho", "logon", "pessimistic"]
CFG = ClusterConfig().with_overrides(pb_cost_model="sparse")


def held(proto, n: int) -> list[tuple[int, int]]:
    return sorted(
        (d.creator, d.clock) for c in range(n) for d in proto.events_created_by(c)
    )


class AckWorld:
    """``n`` processes of one protocol, a standalone logger, and a twin
    of every process that folds each ack as a plain snapshot."""

    def __init__(self, name: str, n: int) -> None:
        self.name = name
        self.n = n
        self.sim = Simulator()
        self.net = Network(self.sim)
        self.net.attach(EL_HOST)
        for r in range(n):
            self.net.attach(f"n{r}")
        self.el = EventLogger(self.sim, self.net, CFG, ClusterProbes(), n)
        self.procs = [self._make(r) for r in range(n)]
        self.twins = [self._make(r) for r in range(n)]
        self.views: list[dict[int, int]] = [{} for _ in range(n)]
        self.clocks = [0] * n
        self.ssn: dict[tuple[int, int], int] = {}
        #: determinants created but not yet logged, per creator
        self.unlogged: list[list[Determinant]] = [[] for _ in range(n)]
        #: acks delivered by the network, not yet handed to the process
        self.inbox: list[list] = [[] for _ in range(n)]
        self.saved: list = [None] * n

    def _make(self, rank: int):
        return make_protocol(self.name, rank, self.n, CFG, ProcessProbes(rank=rank))

    def send(self, src: int, dst: int) -> None:
        dep = self.clocks[src]
        for side in (self.procs, self.twins):
            side[dst].accept_piggyback(src, side[src].build_piggyback(dst), dep)
        ssn = self.ssn[(src, dst)] = self.ssn.get((src, dst), 0) + 1
        self.clocks[dst] += 1
        det = Determinant(dst, self.clocks[dst], src, ssn, dep)
        self.procs[dst].on_local_event(det)
        self.twins[dst].on_local_event(det)
        self.unlogged[dst].append(det)

    def log(self, rank: int, hole: bool) -> None:
        """Log ``rank``'s unlogged determinants; with ``hole`` the newest
        goes first, alone, so it lands above a hole the rest then fill."""
        dets, self.unlogged[rank] = self.unlogged[rank], []
        batches = [dets[-1:], dets[:-1]] if hole and len(dets) > 1 else [dets]
        for batch in batches:
            self.el.receive_log(rank, tuple(batch), self.inbox[rank].append, f"n{rank}")

    def check(self, rank: int) -> None:
        proc, twin = self.procs[rank], self.twins[rank]
        assert proc._stable_entries() == self.views[rank]
        assert twin._stable_entries() == self.views[rank]
        assert held(proc, self.n) == held(twin, self.n)
        assert proc.events_held() == proc.scan_events_held()

    def deliver(self, rank: int) -> None:
        ack = self.inbox[rank].pop(0)
        self.procs[rank].on_el_ack(ack)
        self.twins[rank].on_el_ack(ack.snapshot() if type(ack) is ElAck else ack)
        snapshot_fold(self.views[rank], ack)
        self.check(rank)

    def push(self, rank: int, lower: int) -> None:
        """A plain vector, as a sharded group's push would be: the
        logger's stable clocks, each lowered by up to ``lower``."""
        vector = BoundVector(
            {c: k - lower for c, k in self.el.stable_clock.items()}
        )
        self.procs[rank].on_el_ack(vector)
        self.twins[rank].on_el_ack(vector)
        snapshot_fold(self.views[rank], vector)
        self.check(rank)

    def checkpoint(self, rank: int) -> None:
        self.saved[rank] = copy.deepcopy((
            self.procs[rank].export_state(),
            self.twins[rank].export_state(),
            self.views[rank],
        ))

    def restore(self, rank: int) -> None:
        """A crashed process comes back from its checkpoint: a fresh
        protocol object, so the restored stable view may be lower."""
        if self.saved[rank] is None:
            return
        proc_state, twin_state, view = copy.deepcopy(self.saved[rank])
        self.procs[rank] = self._make(rank)
        self.procs[rank].restore_state(proc_state)
        self.twins[rank] = self._make(rank)
        self.twins[rank].restore_state(twin_state)
        self.views[rank] = view
        self.check(rank)


@pytest.mark.parametrize("name", EL_PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_slice_fold_matches_snapshot_fold(name, data):
    n = data.draw(st.integers(2, 5), label="nprocs")
    world = AckWorld(name, n)
    rank = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        op = data.draw(st.sampled_from(
            ["send", "send", "send", "log", "log", "run", "deliver", "deliver",
             "push", "checkpoint", "restore"]
        ))
        if op == "send":
            src = data.draw(rank)
            dst = data.draw(rank.filter(lambda r: r != src))
            world.send(src, dst)
        elif op == "log":
            world.log(data.draw(rank), data.draw(st.booleans()))
        elif op == "run":
            world.sim.run(until=world.sim.now + data.draw(st.floats(0, 2e-4)))
        elif op == "deliver":
            r = data.draw(rank)
            if world.inbox[r]:
                world.deliver(r)
        elif op == "push":
            world.push(data.draw(rank), data.draw(st.integers(0, 2)))
        elif op == "checkpoint":
            world.checkpoint(data.draw(rank))
        else:
            world.restore(data.draw(rank))
    # drain: every remaining ack reaches its process
    for r in range(n):
        world.log(r, hole=False)
    world.sim.run()
    for r in range(n):
        while world.inbox[r]:
            world.deliver(r)


def _acks_reaching_daemons(monkeypatch, **overrides) -> list:
    seen = []
    el_ack = Vdaemon._el_ack

    def recording(self, ack):
        seen.append(ack)
        el_ack(self, ack)

    monkeypatch.setattr(Vdaemon, "_el_ack", recording)
    result, _ = run_nas(
        "cg", "A", 64, "vcausal", iterations=1,
        config=CFG.with_overrides(**overrides), app_kwargs={"inner": 3},
    )
    assert result.finished
    assert seen
    return seen


def test_single_logger_acks_are_journal_handles(monkeypatch):
    """No ack copies the stable vector: each is a three-slot handle."""
    acks = _acks_reaching_daemons(monkeypatch)
    assert {type(a) for a in acks} == {ElAck}
    assert ElAck.__slots__ == ("src", "log", "upto")
    assert not isinstance(acks[0], BoundVector)
    # one journal, shared by every ack
    assert len({id(a.log) for a in acks}) == 1


def test_sharded_group_acks_stay_plain_snapshots(monkeypatch):
    acks = _acks_reaching_daemons(monkeypatch, el_count=2)
    assert {type(a) for a in acks} == {BoundVector}


def test_push_ahead_of_in_flight_acks_defers_adoption():
    """A plain push raises the view past the acks still in flight: none
    of them may be adopted until one's snapshot catches up, or the slice
    fold of the next would lower the view to that ack's clocks."""
    world = AckWorld("vcausal", 2)
    for _ in range(3):
        world.send(1, 0)
        world.log(0, hole=False)
    world.sim.run()
    assert len(world.inbox[0]) == 3
    world.push(0, lower=0)
    while world.inbox[0]:
        world.deliver(0)
    proc = world.procs[0]
    assert proc._ack_src is world.el and proc._ack_pos == len(world.el._ack_log)
