"""Acks as journal handles: the slice fold against the snapshot fold.

Every Event Logger acks, and under the ``broadcast`` strategy pushes,
with an :class:`ElAck` handle on its journal of merged-view raises, and
``VProtocol.on_el_ack`` folds only the journal slice past the position a
process has consumed from that logger.  Random interleavings of
determinant logging (in order and with holes), ack delivery, pushes,
checkpoints and restores, on a standalone logger and on a real sharded
group with shard kills and failover, must leave every EL protocol's
stable view equal to the oracle that folds each ack's full snapshot
(``tests/oracles.py`` :func:`snapshot_fold`), and its held determinants
equal to a twin fed only full snapshots through ``_fold_vector``.
"""

from __future__ import annotations

import copy
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig
from repro.core.bounds import BoundVector
from repro.core.distributed_el import EventLoggerGroup, shard_host
from repro.core.event_logger import EL_HOST, ElAck, EventLogger
from repro.core.events import Determinant
from repro.core.protocol_base import make_protocol
from repro.experiments.common import run_nas
from repro.metrics.probes import ClusterProbes, ProcessProbes
from repro.runtime.daemon import Vdaemon
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

from tests.oracles import ack_snapshot, snapshot_fold

EL_PROTOCOLS = ["vcausal", "manetho", "logon", "pessimistic"]
CFG = ClusterConfig().with_overrides(pb_cost_model="sparse")
SHARD_CFG = CFG.with_overrides(el_failover=True, fault_detection_delay_s=1e-4)


def held(proto, n: int) -> list[tuple[int, int]]:
    return sorted(
        (d.creator, d.clock) for c in range(n) for d in proto.events_created_by(c)
    )


class AckWorld:
    """``n`` processes of one protocol, the loggers they log to, and a
    twin of every process that folds each ack's full snapshot."""

    def __init__(self, name: str, n: int, config: ClusterConfig, hosts: list[str]) -> None:
        self.name = name
        self.n = n
        self.config = config
        self.sim = Simulator()
        self.net = Network(self.sim)
        for host in hosts + [f"n{r}" for r in range(n)]:
            self.net.attach(host)
        self.procs = [self._make(r) for r in range(n)]
        self.twins = [self._make(r) for r in range(n)]
        self.views: list[dict[int, int]] = [{} for _ in range(n)]
        self.clocks = [0] * n
        self.ssn: dict[tuple[int, int], int] = {}
        #: every determinant created, and those not yet logged, per creator
        self.created: list[list[Determinant]] = [[] for _ in range(n)]
        self.unlogged: list[list[Determinant]] = [[] for _ in range(n)]
        #: acks delivered by the network, not yet handed to the process
        self.inbox: list[list[ElAck]] = [[] for _ in range(n)]
        self.saved: list = [None] * n

    def _make(self, rank: int):
        return make_protocol(self.name, rank, self.n, self.config, ProcessProbes(rank=rank))

    def logger_for(self, rank: int) -> EventLogger:
        raise NotImplementedError

    def send(self, src: int, dst: int) -> None:
        dep = self.clocks[src]
        for side in (self.procs, self.twins):
            side[dst].accept_piggyback(src, side[src].build_piggyback(dst), dep)
        ssn = self.ssn[(src, dst)] = self.ssn.get((src, dst), 0) + 1
        self.clocks[dst] += 1
        det = Determinant(dst, self.clocks[dst], src, ssn, dep)
        self.procs[dst].on_local_event(det)
        self.twins[dst].on_local_event(det)
        self.created[dst].append(det)
        self.unlogged[dst].append(det)

    def post(self, rank: int, dets: list[Determinant]) -> None:
        self.logger_for(rank).receive_log(
            rank, tuple(dets), self.inbox[rank].append, f"n{rank}"
        )

    def log(self, rank: int, hole: bool) -> None:
        """Log ``rank``'s unlogged determinants; with ``hole`` the newest
        goes first, alone, so it lands above a hole the rest then fill."""
        dets, self.unlogged[rank] = self.unlogged[rank], []
        batches = [dets[-1:], dets[:-1]] if hole and len(dets) > 1 else [dets]
        for batch in batches:
            self.post(rank, batch)

    def check(self, rank: int) -> None:
        proc, twin = self.procs[rank], self.twins[rank]
        assert proc._sv == self.views[rank]
        assert twin._sv == self.views[rank]
        assert held(proc, self.n) == held(twin, self.n)
        assert proc.events_held() == proc.scan_events_held()

    def fold(self, rank: int, ack: ElAck) -> None:
        self.procs[rank].on_el_ack(ack)
        self.twins[rank]._fold_vector(ack_snapshot(ack))
        snapshot_fold(self.views[rank], ack)
        self.check(rank)

    def deliver(self, rank: int) -> None:
        self.fold(rank, self.inbox[rank].pop(0))

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

    def drain(self) -> None:
        """Every remaining determinant is logged and every ack folded."""
        for r in range(self.n):
            self.log(r, hole=False)
        self.sim.run()
        for r in range(self.n):
            while self.inbox[r]:
                self.deliver(r)


class LoggerWorld(AckWorld):
    """One standalone logger, plus a second one that pushes."""

    def __init__(self, name: str, n: int) -> None:
        super().__init__(name, n, CFG, [EL_HOST, "peer"])
        self.el = EventLogger(self.sim, self.net, CFG, ClusterProbes(), n)
        self.peer = EventLogger(self.sim, self.net, CFG, ClusterProbes(), n, 1, "peer")

    def logger_for(self, rank: int) -> EventLogger:
        return self.el

    def push(self, rank: int, lower: int) -> None:
        """A handle from the second logger, which absorbed the first's
        stable clocks, each lowered by up to ``lower``."""
        self.peer.absorb_peer_vector(BoundVector(
            {c: k - lower for c, k in self.el.stable_clock.items()}
        ))
        self.fold(rank, self.peer.ack())


class ShardedWorld(AckWorld):
    """A real shard group with failover: acks come from each rank's
    current owner, pushes (``broadcast``) from every shard, and a killed
    shard's range moves to a survivor that asks for re-logs."""

    def __init__(self, name: str, n: int, count: int, strategy: str) -> None:
        super().__init__(
            name, n, SHARD_CFG, [shard_host(k) for k in range(count)]
        )
        self.group = EventLoggerGroup(
            self.sim, self.net, SHARD_CFG, ClusterProbes(), n,
            count=count, sync_strategy=strategy, sync_interval_s=1e-4,
            node_hosts=[f"n{r}" for r in range(n)],
        )
        self.draining = False
        self.group.active_check = lambda: not self.draining
        for r in range(n):
            if strategy == "broadcast":
                self.group.register_node_sink(f"n{r}", self.inbox[r].append)
            self.group.register_relog_sink(f"n{r}", partial(self.relog, r))

    def logger_for(self, rank: int) -> EventLogger:
        return self.group.shard_for(rank)

    def relog(self, rank: int, clock_after: int) -> None:
        dets = [d for d in self.created[rank] if d.clock > clock_after]
        if dets:
            self.post(rank, dets)

    def alive(self) -> list[EventLogger]:
        return [s for s in self.group.shards if s.alive]

    def push(self, rank: int, shard: int) -> None:
        """A handle from a live shard, folded ahead of that shard's acks
        still in flight (which then arrive stale)."""
        alive = self.alive()
        self.fold(rank, alive[shard % len(alive)].ack())

    def kill(self, shard: int) -> None:
        alive = self.alive()
        if len(alive) > 1:
            self.group.kill_shard(alive[shard % len(alive)].index)

    def drain(self) -> None:
        self.draining = True
        super().drain()


def _run(world: AckWorld, data, ops: list[str]) -> None:
    n = world.n
    rank = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        op = data.draw(st.sampled_from(ops))
        if op == "send":
            src = data.draw(rank)
            dst = data.draw(rank.filter(lambda r: r != src))
            world.send(src, dst)
        elif op == "log":
            world.log(data.draw(rank), data.draw(st.booleans()))
        elif op == "run":
            world.sim.run(until=world.sim.now + data.draw(st.floats(0, 3e-4)))
        elif op == "deliver":
            r = data.draw(rank)
            if world.inbox[r]:
                world.deliver(r)
        elif op == "push":
            world.push(data.draw(rank), data.draw(st.integers(0, 2)))
        elif op == "kill":
            world.kill(data.draw(st.integers(0, 2)))
        elif op == "checkpoint":
            world.checkpoint(data.draw(rank))
        else:
            world.restore(data.draw(rank))
    world.drain()


OPS = ["send", "send", "send", "log", "log", "run", "deliver", "deliver",
       "push", "checkpoint", "restore"]


@pytest.mark.parametrize("name", EL_PROTOCOLS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_slice_fold_matches_snapshot_fold(name, data):
    n = data.draw(st.integers(2, 5), label="nprocs")
    _run(LoggerWorld(name, n), data, OPS)


@pytest.mark.parametrize("strategy", ["tree", "broadcast"])
@pytest.mark.parametrize("name", EL_PROTOCOLS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_sharded_slice_fold_matches_snapshot_fold(name, strategy, data):
    n = data.draw(st.integers(2, 5), label="nprocs")
    count = data.draw(st.integers(2, 3), label="shards")
    _run(ShardedWorld(name, n, count, strategy), data, OPS + ["run", "kill"])


def _acks_reaching_daemons(monkeypatch, nprocs=64, **overrides) -> tuple[list, list]:
    """The acks and the pushes the daemons of one CG run receive."""
    seen, pushes = [], []
    el_ack = Vdaemon._el_ack
    el_vector_push = Vdaemon.el_vector_push

    def recording(self, ack):
        seen.append(ack)
        el_ack(self, ack)

    def recording_push(self, push):
        pushes.append(push)
        el_vector_push(self, push)

    monkeypatch.setattr(Vdaemon, "_el_ack", recording)
    monkeypatch.setattr(Vdaemon, "el_vector_push", recording_push)
    result, _ = run_nas(
        "cg", "A", nprocs, "vcausal", iterations=1,
        config=CFG.with_overrides(**overrides), app_kwargs={"inner": 3},
    )
    assert result.finished
    assert seen
    return seen, pushes


def test_single_logger_acks_are_journal_handles(monkeypatch):
    """No ack copies the stable vector: each is a three-slot handle."""
    acks, _ = _acks_reaching_daemons(monkeypatch)
    assert {type(a) for a in acks} == {ElAck}
    assert ElAck.__slots__ == ("src", "log", "upto")
    assert not isinstance(acks[0], BoundVector)
    # one journal, shared by every ack
    assert len({id(a.log) for a in acks}) == 1


def test_sharded_group_acks_and_pushes_are_journal_handles(monkeypatch):
    acks, pushes = _acks_reaching_daemons(
        monkeypatch, nprocs=16, el_count=2, el_sync_strategy="broadcast"
    )
    assert pushes
    assert {type(a) for a in acks + pushes} == {ElAck}
    # one journal per shard, shared by its acks and its pushes
    assert len({id(a.log) for a in acks}) == 2
    assert {id(a.log) for a in pushes} == {id(a.log) for a in acks}


def test_push_ahead_of_in_flight_acks_drops_adoption():
    """A push from a second logger raises the view past the acks still in
    flight: the first logger is no longer adopted (the pusher is, its
    journal fold being the whole view), and the acks that follow
    max-merge their slices, so the view never falls back to their
    clocks."""
    world = LoggerWorld("vcausal", 2)
    for _ in range(3):
        world.send(1, 0)
        world.log(0, hole=False)
    world.sim.run()
    assert len(world.inbox[0]) == 3
    world.deliver(0)
    proc = world.procs[0]
    assert proc._ack_src is world.el
    world.push(0, lower=0)
    assert proc._ack_src is world.peer
    pushed = dict(proc._sv)
    while world.inbox[0]:
        world.deliver(0)
        assert all(proc._sv[c] >= k for c, k in pushed.items())
    assert proc._ack_pos[world.el] == len(world.el._ack_log)
