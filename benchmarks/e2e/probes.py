"""Direct layer probes: each times calls into one layer's public functions.

Tracing off, GC disabled inside the timed stretch, fixed inputs, best of
three.  A probe is the number to quote when a change claims to speed up
one layer; whether the end-to-end wall moves is a separate question the
workloads answer.  Probes of layers that a later change may delete
(``hostexec``, ``partition``) report ``absent`` instead of failing.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable

from repro.core.distributed_el import EventLoggerGroup, shard_host
from repro.core.event_logger import EL_HOST, EventLogger
from repro.core.events import Determinant
from repro.core.protocol_base import make_protocol
from repro.metrics.probes import ClusterProbes, ProcessProbes
from repro.runtime.cluster import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.daemon import WireMessage
from repro.simulator.engine import SerialDrain, Simulator
from repro.simulator.network import Network
from repro.workloads.nas import make_app

PASSES = 3
ABSENT = "absent"


def _timed(fn: Callable[[], object]) -> float:
    """Wall of ``fn()`` with the collector off (a collection landing in
    one stretch and not another swamps a per-item signal of microseconds)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _best(make: Callable[[], Callable[[], object]]) -> float:
    """Best of ``PASSES`` walls; ``make()`` builds fresh state, untimed,
    and returns the stretch to time."""
    return min(_timed(make()) for _ in range(PASSES))


def _idle(_ctx):
    return iter(())


# --------------------------------------------------------------------- #
# engine


def engine_chain(scale: int) -> dict:
    chains, length = 8, 25_000 // scale

    def make():
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule(1e-3, chain, remaining - 1)

        for j in range(chains):
            sim.schedule(j * 1e-6, chain, length - 1)
        return sim.run

    return {"engine.chain_ns_per_event": (_best(make) / (chains * length) * 1e9, "ns")}


def engine_samestamp(scale: int) -> dict:
    rounds, width, fan = 80 // scale, 800, 8

    def make():
        sim = Simulator()

        def leaf():
            pass

        def burst():
            call_soon = sim.call_soon
            for _ in range(fan):
                call_soon(leaf)

        sim.schedule_bulk(
            ((r + 1) * 1e-3, burst, ()) for r in range(rounds) for _ in range(width)
        )
        return sim.run

    events = rounds * width * (1 + fan)
    return {"engine.samestamp_ns_per_event": (_best(make) / events * 1e9, "ns")}


def engine_drain(scale: int) -> dict:
    """``SerialDrain`` with 256 entries standing: the saturated-EL shape."""
    depth, items = 256, 100_000 // scale

    def make():
        sim = Simulator()
        drain = SerialDrain(sim)
        state = [depth, items - depth]  # next ready slot, entries still to add

        def served():
            if state[1]:
                state[1] -= 1
                state[0] += 1
                drain.enqueue(state[0] * 1e-6, served)

        for k in range(1, depth + 1):
            drain.enqueue(k * 1e-6, served)
        return sim.run

    return {"engine.drain_ns_per_item": (_best(make) / items * 1e9, "ns")}


# --------------------------------------------------------------------- #
# network, daemon


def network_transfer(scale: int) -> dict:
    n = 50_000 // scale

    def make():
        sim = Simulator()
        net = Network(sim)
        net.attach("a")
        net.attach("b")

        def delivered():
            pass

        def stretch():
            transfer = net.transfer
            for _ in range(n):
                transfer("a", "b", 64, delivered)
            sim.run()

        return stretch

    return {"network.transfer_ns_per_msg": (_best(make) / n * 1e9, "ns")}


def daemon_deliver(scale: int) -> dict:
    """App messages handed straight to rank 1's wire sink (vdummy, so the
    protocol hooks are no-ops and the dispatch frames are what is timed)."""
    n = 50_000 // scale

    def make():
        cluster = Cluster(nprocs=2, app_factory=_idle, stack="vdummy")
        sink = cluster.daemons[1].wire_sink
        msgs = [
            WireMessage(kind="app", src=0, dst=1, ssn=i + 1, nbytes=64)
            for i in range(n + 256)
        ]
        for m in msgs[:256]:
            sink(m)

        def stretch():
            for m in msgs[256:]:
                sink(m)

        return stretch

    return {"daemon.deliver_ns_per_msg": (_best(make) / n * 1e9, "ns")}


# --------------------------------------------------------------------- #
# protocol


class _Host:
    """The whole ``DaemonHost`` contract a protocol may rely on."""

    alive = True

    def __init__(self, rank: int):
        self.rank = rank
        self.clock = 0


def _sends(nprocs: int, steps: int) -> list[tuple[int, int]]:
    rng = random.Random(20050404)
    out = []
    for _ in range(steps):
        src = rng.randrange(nprocs)
        out.append((src, (src + rng.randrange(1, nprocs)) % nprocs))
    return out


def _protocol_world(name: str, nprocs: int, config: ClusterConfig):
    protos = [
        make_protocol(name, r, nprocs, config, ProcessProbes(rank=r))
        for r in range(nprocs)
    ]
    hosts = [_Host(r) for r in range(nprocs)]
    for proto, host in zip(protos, hosts):
        proto.bind(host)
    return protos, hosts


def protocol_build_accept(scale: int) -> dict:
    """Build/accept per call on a fixed 64-creator determinant stream with
    no Event Logger, so held causality only grows (the no-EL regime; cost
    per call grows with the stream, hence the short one)."""
    nprocs, steps = 64, max(1_000 // scale, 200)
    sends = _sends(nprocs, steps)
    config = ClusterConfig().with_overrides(pb_cost_model="sparse")
    out = {}
    for name in ("vcausal", "manetho", "logon"):
        best = [float("inf"), float("inf")]
        for _ in range(PASSES):
            protos, hosts = _protocol_world(name, nprocs, config)
            ssn: dict[tuple[int, int], int] = {}
            build = accept = 0
            clock = time.perf_counter_ns
            gc.collect()
            gc.disable()
            try:
                for src, dst in sends:
                    t0 = clock()
                    pb = protos[src].build_piggyback(dst)
                    t1 = clock()
                    dep = hosts[src].clock
                    t2 = clock()
                    protos[dst].accept_piggyback(src, pb, dep)
                    t3 = clock()
                    build += t1 - t0
                    accept += t3 - t2
                    n = ssn[(src, dst)] = ssn.get((src, dst), 0) + 1
                    hosts[dst].clock += 1
                    protos[dst].on_local_event(
                        Determinant(dst, hosts[dst].clock, src, n, dep)
                    )
            finally:
                gc.enable()
            best = [min(best[0], build), min(best[1], accept)]
        out[f"protocol.{name}_build_ns"] = (best[0] / steps, "ns")
        out[f"protocol.{name}_accept_ns"] = (best[1] / steps, "ns")
    return out


def protocol_ack(scale: int) -> dict:
    """``on_el_ack`` per call, fed by a real standalone Event Logger so the
    acks are whatever the logger ships (journal handle or snapshot)."""
    nprocs, steps = 64, 6_000 // scale
    sends = _sends(nprocs, steps)
    config = ClusterConfig().with_overrides(pb_cost_model="sparse")
    best = float("inf")
    calls = 1
    for _ in range(PASSES):
        protos, hosts = _protocol_world("vcausal", nprocs, config)
        sim = Simulator()
        net = Network(sim)
        net.attach(EL_HOST)
        for r in range(nprocs):
            net.attach(f"n{r}")
        logger = EventLogger(sim, net, config, ClusterProbes(), nprocs)
        spent = [0, 0]
        clock = time.perf_counter_ns

        def make_ack(proto):
            on_el_ack = proto.on_el_ack

            def ack(vector):
                t0 = clock()
                on_el_ack(vector)
                spent[0] += clock() - t0
                spent[1] += 1

            return ack

        acks = [make_ack(p) for p in protos]
        ssn: dict[tuple[int, int], int] = {}
        gc.collect()
        gc.disable()
        try:
            for src, dst in sends:
                pb = protos[src].build_piggyback(dst)
                dep = hosts[src].clock
                protos[dst].accept_piggyback(src, pb, dep)
                n = ssn[(src, dst)] = ssn.get((src, dst), 0) + 1
                hosts[dst].clock += 1
                det = Determinant(dst, hosts[dst].clock, src, n, dep)
                protos[dst].on_local_event(det)
                logger.receive_log(dst, (det,), acks[dst], f"n{dst}")
                sim.run(until=sim.now + 50e-6)
            sim.run()
        finally:
            gc.enable()
        best, calls = min(best, spent[0]), spent[1]
    return {"protocol.vcausal_ack_ns": (best / calls, "ns")}


# --------------------------------------------------------------------- #
# event logger


def _standalone_logger(nprocs: int):
    sim = Simulator()
    net = Network(sim)
    net.attach(EL_HOST)
    net.attach("client")
    config = ClusterConfig().with_overrides(pb_cost_model="sparse")
    return sim, EventLogger(sim, net, config, ClusterProbes(), nprocs)


def el_store_fetch(scale: int) -> dict:
    """Log 50 k determinants one per message, then bulk-fetch them back."""
    nprocs, n = 64, 50_000 // scale
    dets = [Determinant(i % nprocs, i // nprocs + 1, (i + 1) % nprocs, i, 0) for i in range(n)]

    def acked(_vector):
        pass

    def fetched(_dets):
        pass

    store = fetch = float("inf")
    for _ in range(PASSES):
        sim, logger = _standalone_logger(nprocs)

        def log_all():
            receive_log = logger.receive_log
            for det in dets:
                receive_log(det.creator, (det,), acked, "client")
            sim.run()

        def fetch_all():
            for creator in range(nprocs):
                logger.fetch_events(creator, 0, fetched, "client")
            sim.run()

        store = min(store, _timed(log_all))
        fetch = min(fetch, _timed(fetch_all))
    return {
        "el.receive_log_ns_per_det": (store / n * 1e9, "ns"),
        "el.fetch_ns_per_event": (fetch / n * 1e9, "ns"),
    }


def el_sync(scale: int) -> dict:
    """One tree sync round across 16 shards holding 256 creators' clocks."""
    shards, nprocs, rounds = 16, 256, 500 // scale
    done = [1]

    def make():
        sim = Simulator()
        net = Network(sim)
        for k in range(shards):
            net.attach(shard_host(k))
        config = ClusterConfig().with_overrides(pb_cost_model="sparse")
        group = EventLoggerGroup(
            sim, net, config, ClusterProbes(), nprocs,
            count=shards, sync_strategy="tree", sync_interval_s=10e-3,
        )
        rng = random.Random(7)
        for rank in range(nprocs):
            group.shard_for(rank).stable_clock[rank] = rng.randrange(1, 1000)
        deadline = group.sync_interval_s * (rounds + 0.5)
        group.active_check = lambda: sim.now < deadline

        def stretch():
            sim.run()
            done[0] = group.sync_rounds

        return stretch

    wall = _best(make)
    return {"el.sync_round_us": (wall / done[0] * 1e6, "us")}


# --------------------------------------------------------------------- #
# mpi, cluster


def mpi_allreduce(scale: int) -> dict:
    nprocs, reps = 64, 60 // min(scale, 10)

    def app(ctx):
        total = 0
        for _ in range(reps):
            total = yield from ctx.allreduce(8, ctx.rank)
        return total

    def make():
        return Cluster(nprocs=nprocs, app_factory=app, stack="vdummy").run

    return {"mpi.allreduce_us_p64": (_best(make) / reps * 1e6, "us")}


def cluster_wire(scale: int) -> dict:
    nprocs = 2048 // scale

    def make():
        return lambda: Cluster(nprocs=nprocs, app_factory=_idle, stack="vcausal")

    return {"cluster.wire_us_per_rank": (_best(make) / nprocs * 1e6, "us")}


# --------------------------------------------------------------------- #
# optional layers


def hostexec_codec(scale: int) -> dict:
    name = "hostexec.codec_roundtrip_ns"
    try:
        from repro.hostexec.codec import HostCodec
    except ImportError:
        return {name: ABSENT}
    n = 20_000 // scale

    def make():
        cluster = Cluster(nprocs=2, app_factory=_idle, stack="vcausal")
        codec = HostCodec.for_cluster(cluster)
        sink = cluster.daemons[1].wire_sink
        args = (WireMessage(kind="app", src=0, dst=1, ssn=1, nbytes=64),)

        def stretch():
            for _ in range(n):
                codec.decode(codec.encode(1, sink, args))

        return stretch

    return {name: (_best(make) / n * 1e9, "ns")}


def partition_overhead(scale: int) -> dict:
    """Conservative-window engine against the single engine, same run.
    The only place the benchmark passes an implementation-selecting knob:
    the pair *is* the probe, and it vanishes with the knob."""
    names = ("partition.window_us", "partition.overhead_ratio")
    try:
        config = ClusterConfig().with_overrides(
            pb_cost_model="sparse", partition_ranks=4
        )
    except TypeError:
        return dict.fromkeys(names, ABSENT)
    nprocs = 512 // min(scale, 8)

    def wall(cfg):
        app, _info = make_app("cg", "A", nprocs, iterations=1, inner=1)
        cluster = Cluster(nprocs=nprocs, app_factory=app, stack="vcausal", config=cfg)
        return _timed(cluster.run), cluster

    single, _ = wall(config.with_overrides(partition_ranks=0))
    split, cluster = wall(config)
    windows = getattr(cluster.sim, "windows", 0)
    return {
        names[0]: (split / windows * 1e6, "us") if windows else ABSENT,
        names[1]: (split / single, "ratio"),
    }


PROBES = (
    engine_chain, engine_samestamp, engine_drain, network_transfer,
    daemon_deliver, protocol_build_accept, protocol_ack, el_store_fetch,
    el_sync, mpi_allreduce, cluster_wire,
)
OPTIONAL = (hostexec_codec, partition_overhead)


def run(smoke: bool = False, optional: bool = False) -> dict:
    """``{metric: (value, unit) | "absent"}`` of every direct probe."""
    scale = 20 if smoke else 1
    out: dict = {}
    for probe in PROBES + (OPTIONAL if optional else ()):
        out.update(probe(scale))
    return out
