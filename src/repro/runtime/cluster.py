"""Deployment assembly: the whole MPICH-V runtime in one object (Fig. 5).

A :class:`Cluster` wires together the simulator, the network, one NIC per
compute node plus the stable hosts (Event Logger, checkpoint server), the
per-rank daemons and MPI contexts, the dispatcher, the checkpoint
scheduler and the fault plan — then runs the application to completion.

Typical use::

    from repro.runtime.cluster import Cluster

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1024, payload="hi")
        else:
            msg = yield from ctx.recv(0)
        return ctx.rank

    result = Cluster(nprocs=2, app_factory=app, stack="vcausal").run()
    print(result.sim_time, result.probes.piggyback_fraction)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.distributed_el import EventLoggerGroup, shard_host
from repro.core.events import DeterminantStore
from repro.metrics.probes import ClusterProbes
from repro.mpi.api import MpiContext
from repro.runtime.checkpoint_server import CKPT_HOST, CheckpointServer
from repro.runtime.checkpoint_scheduler import CheckpointScheduler
from repro.runtime.config import STACKS, ClusterConfig, StackSpec
from repro.runtime.daemon import Vdaemon
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.failure import FaultPlan
from repro.runtime.fastpath import install_delivery
from repro.runtime.retry import RetryChannel, RetryPolicy, RetryStats
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.simulator.process import SimProcess
from repro.simulator.rng import SeedSequenceStream

AppFactory = Callable[[MpiContext], Any]


@dataclass
class RunResult:
    """Outcome of one cluster run."""

    stack: str
    nprocs: int
    finished: bool
    sim_time: float                    # completion time of the last rank
    probes: ClusterProbes
    results: dict[int, Any] = field(default_factory=dict)
    events_executed: int = 0
    cluster: Optional["Cluster"] = None

    @property
    def total_flops(self) -> float:
        return self.probes.total("flops")

    @property
    def mflops(self) -> float:
        """Aggregate application Megaflop/s (the Fig. 9 metric)."""
        if self.sim_time <= 0:
            return 0.0
        return self.total_flops / self.sim_time / 1e6


class Cluster:
    """One deployment: compute nodes + stable servers + runtime."""

    def __init__(
        self,
        nprocs: int,
        app_factory: AppFactory,
        stack: str | StackSpec = "vcausal",
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        checkpoint_policy: str = "none",
        checkpoint_interval_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.app_factory = app_factory
        self.spec: StackSpec = STACKS[stack] if isinstance(stack, str) else stack
        self.config = config if config is not None else ClusterConfig()
        self.seeds = SeedSequenceStream(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            bandwidth_bps=self.config.bandwidth_bps,
            latency_s=self.config.network_latency_s,
            per_message_overhead_bytes=self.config.per_message_overhead_bytes,
            goodput_factor=self.config.goodput_factor,
        )
        for r in range(nprocs):
            self.network.attach(self.host_of(r), full_duplex=self.spec.full_duplex)
        if self.spec.event_logger:
            for k in range(self.config.el_count):
                self.network.attach(shard_host(k))
        # the checkpoint service models the paper's (possibly multiple)
        # stable storage nodes: its link is provisioned above a single
        # Fast-Ethernet NIC so that sender-based log shipping stays feasible
        self.network.attach(
            CKPT_HOST, bandwidth_bps=self.config.checkpoint_server_bandwidth_bps
        )

        self.probes = ClusterProbes()
        #: every determinant created in this run, interned once: the
        #: protocols' windows and piggyback runs read from it
        self.determinants = DeterminantStore()
        self.event_logger: Optional[EventLoggerGroup] = (
            EventLoggerGroup(
                self.sim,
                self.network,
                self.config,
                self.probes,
                nprocs,
                count=self.config.el_count,
                sync_strategy=self.config.el_sync_strategy,
                sync_interval_s=self.config.el_sync_interval_s,
                node_hosts=[self.host_of(r) for r in range(nprocs)],
            )
            if self.spec.event_logger
            else None
        )
        self.checkpoint_server = CheckpointServer(
            self.sim, self.network, self.config, self.probes, nprocs=nprocs
        )
        self.epoch = 0
        self.retry_policy = RetryPolicy.from_config(self.config)
        self._rpc_channels: dict[str, RetryChannel] = {}
        self._restart_listeners: list[Callable[[int], None]] = []
        #: lifecycle recorder (time_s, kind, rank) for faults and restarts;
        #: set by metrics.trace.Timeline.attach — None means tracing is off
        self.trace_sink: Optional[Callable[[float, str, int], None]] = None

        self.daemons: dict[int, Vdaemon] = {}
        self.contexts: dict[int, MpiContext] = {}
        for r in range(nprocs):
            daemon = Vdaemon(self, r, self.spec, self.config, self.probes.rank(r))
            self.daemons[r] = daemon
            self.contexts[r] = MpiContext(self, r, daemon)
        # compile the per-rank send / reception / hand-to-app / EL-post
        # closures now that both ends of every seam exist
        install_delivery(self)

        if self.event_logger is not None:
            self.event_logger.active_check = lambda: not self.finished
        if self.event_logger is not None and self.config.el_sync_strategy == "broadcast":
            for r in range(nprocs):
                self.event_logger.register_node_sink(
                    self.host_of(r), self.daemons[r].el_vector_push
                )
        if self.event_logger is not None:
            for r in range(nprocs):
                self.event_logger.register_relog_sink(
                    self.host_of(r), self.daemons[r].on_el_relog_request
                )
        self.dispatcher = Dispatcher(self.sim, self)
        if self.spec.protocol == "coordinated" and checkpoint_policy not in (
            "none",
            "coordinated",
        ):
            raise ValueError("coordinated protocol requires coordinated checkpoints")
        self.scheduler = CheckpointScheduler(
            self.sim,
            self,
            policy=checkpoint_policy,
            interval_s=checkpoint_interval_s,
            rng=self.seeds.generator("checkpoint-scheduler"),
        )
        self.fault_plan = fault_plan

        self.app_procs: dict[int, SimProcess] = {}
        self.finished_ranks: set[int] = set()
        self.results: dict[int, Any] = {}
        self.completion_time: Optional[float] = None
        self._started = False

    # ------------------------------------------------------------------ #
    # topology helpers

    def host_of(self, rank: int) -> str:
        return f"n{rank}"

    @property
    def finished(self) -> bool:
        return len(self.finished_ranks) == self.nprocs

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        for r in range(self.nprocs):
            self._make_app_proc(r, None, None).start()
        self.scheduler.start()
        if self.fault_plan is not None:
            self.fault_plan.install(self.sim, self)

    def _make_app_proc(self, rank: int, state, pending) -> SimProcess:
        ctx = self.contexts[rank]
        ctx.restore(state, pending)

        def on_exit(proc: SimProcess, result: Any) -> None:
            self._on_app_exit(rank, result)

        proc = SimProcess(
            self.sim,
            f"app-{rank}",
            lambda: self.app_factory(ctx),
            on_exit=on_exit,
        )
        self.app_procs[rank] = proc
        return proc

    def restart_app(self, rank: int, state, pending) -> None:
        """Relaunch the MPI process of ``rank`` (recovery phase 3)."""
        if self.trace_sink is not None:
            self.trace_sink(self.sim.now, "restart", rank)
        self.finished_ranks.discard(rank)
        old = self.app_procs.get(rank)
        if old is not None and old.alive:
            old.kill()
        self._make_app_proc(rank, state, pending).start()

    def _on_app_exit(self, rank: int, result: Any) -> None:
        self.results[rank] = result
        self.finished_ranks.add(rank)
        if self.finished and self.completion_time is None:
            self.completion_time = self.sim.now

    # ------------------------------------------------------------------ #
    # faults

    def inject_fault(self, rank: int) -> None:
        """Kill the MPI process and daemon of ``rank`` right now."""
        if self.finished or rank in self.finished_ranks:
            return  # the paper kills processes during execution only
        if not self.daemons[rank].alive:
            return  # already down
        if self.trace_sink is not None:
            self.trace_sink(self.sim.now, "fault", rank)
        self.kill_rank(rank)
        self.dispatcher.notice_fault(rank, self.sim.now)

    def kill_rank(self, rank: int) -> None:
        proc = self.app_procs.get(rank)
        if proc is not None:
            proc.kill()
        self.daemons[rank].kill()
        for r, daemon in self.daemons.items():
            if r != rank and daemon.alive:
                daemon.peer_died(rank)

    def notify_restarted(self, rank: int) -> None:
        """Recovery phase done on ``rank``: peers re-issue lost requests."""
        for r, daemon in self.daemons.items():
            if r != rank and daemon.alive:
                daemon.on_peer_restarted(rank)
        self.fire_restart_listeners(rank)

    def add_restart_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with each rank that restarts (used
        by the cascading fault plans to model still-faulty hardware)."""
        self._restart_listeners.append(listener)

    def fire_restart_listeners(self, rank: int) -> None:
        for listener in self._restart_listeners:
            listener(rank)

    def kill_el_shard(self, index: int) -> None:
        """Crash one Event Logger shard (failover is the group's job)."""
        if self.event_logger is None:
            raise ValueError("no Event Logger to kill on this stack")
        self.event_logger.kill_shard(index)

    # ------------------------------------------------------------------ #
    # retry layer

    def rpc_channel(self, name: str) -> RetryChannel:
        """Named retry channel (``"el_log"``, ``"ckpt_store"``, ...);
        per-channel stats land in ``probes.rpc_channels``."""
        channel = self._rpc_channels.get(name)
        if channel is None:
            stats = RetryStats()
            self.probes.rpc_channels[name] = stats
            channel = RetryChannel(
                self.sim,
                self.retry_policy,
                stats=stats,
                active=lambda: not self.finished,
            )
            self._rpc_channels[name] = channel
        return channel

    # ------------------------------------------------------------------ #

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> RunResult:
        """Start (if needed) and run to completion (or ``until``)."""
        if not self._started:
            self.start()
        self.sim.run(until=until, max_events=max_events)
        sim_time = (
            self.completion_time if self.completion_time is not None else self.sim.now
        )
        return RunResult(
            stack=self.spec.name,
            nprocs=self.nprocs,
            finished=self.finished,
            sim_time=sim_time,
            probes=self.probes,
            results=dict(self.results),
            events_executed=self.sim.events_executed,
            cluster=self,
        )
