"""Dispatcher: launch, failure detection, restart (paper §IV-B.1).

The dispatcher "monitors the execution, detecting any fault (node
disconnection) and relaunching crashed MPI process instances".  Recovery
strategy depends on the protocol:

* message-logging protocols (causal, pessimistic) restart **only the
  crashed rank**, which then collects determinants and replays;
* the coordinated-checkpoint protocol restarts **every rank** from the
  last *complete* coordinated wave (or from scratch);
* non-fault-tolerant stacks (P4, Vdummy) treat a fault as fatal.

Overlapping episodes (failure storms): each fault opens a new per-rank
*episode*; stale callbacks from a superseded episode (a rank that died
again before its image arrived, or was resurrected by a newer restart)
are discarded instead of starting duplicate recoveries.  Coordinated
restarts coalesce: a fault detected while a global restart is already
relaunching everyone is absorbed by it, unless the victim had already
been relaunched by the in-flight wave — then one follow-up global
restart is queued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.metrics.probes import RecoveryRecord
from repro.runtime.checkpoint_server import CheckpointImage
from repro.simulator.engine import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster


class FatalFaultError(SimulationError):
    """A fault hit a stack with no fault-tolerance protocol."""


class Dispatcher:
    """Failure detection and restart orchestration."""

    def __init__(self, sim: Simulator, cluster: "Cluster"):
        self.sim = sim
        self.cluster = cluster
        self.faults_seen = 0
        self.global_restarts = 0
        self.single_restarts = 0
        #: detections absorbed by an already in-flight global restart
        self.coalesced_detections = 0
        #: rank -> id of its newest fault episode; callbacks carry the id
        #: they were scheduled under and no-op once superseded
        self._episode: dict[int, int] = {}
        self._global_inflight = False
        #: ranks already relaunched by the in-flight global restart wave
        self._global_relaunched: set[int] = set()
        #: a follow-up global restart queued behind the in-flight one
        self._global_rerun: Optional[RecoveryRecord] = None

    # ------------------------------------------------------------------ #

    def notice_fault(self, rank: int, fault_time: float) -> None:
        """Called right after a fault is injected; detection is delayed."""
        self.faults_seen += 1
        episode = self._episode.get(rank, 0) + 1
        self._episode[rank] = episode
        cfg = self.cluster.config
        self.sim.schedule(
            cfg.fault_detection_delay_s, self._detected, rank, fault_time, episode
        )

    def _stale(self, rank: int, episode: int) -> bool:
        """True when a callback belongs to a superseded episode: the run
        finished, a newer fault opened a fresh episode, or the rank is
        already back up (resurrected by an overlapping restart)."""
        return (
            self.cluster.finished
            or self._episode.get(rank) != episode
            or self.cluster.daemons[rank].alive
        )

    def _detected(self, rank: int, fault_time: float, episode: int) -> None:
        cluster = self.cluster
        if self._stale(rank, episode):
            return
        spec = cluster.spec
        if spec.protocol == "coordinated" and self._global_inflight:
            record = RecoveryRecord(
                rank=rank, fault_time=fault_time, detect_time=self.sim.now
            )
            if rank in self._global_relaunched and self._global_rerun is None:
                # the in-flight wave already relaunched this rank and it
                # died again: one follow-up global restart is owed
                cluster.probes.recoveries.append(record)
                self._global_rerun = record
            else:
                # the in-flight wave will relaunch this rank anyway
                self.coalesced_detections += 1
            return
        record = RecoveryRecord(
            rank=rank, fault_time=fault_time, detect_time=self.sim.now
        )
        cluster.probes.recoveries.append(record)
        if spec.protocol == "none":
            raise FatalFaultError(
                f"rank {rank} died under non-fault-tolerant stack {spec.name!r}"
            )
        if spec.protocol == "coordinated":
            self.global_restarts += 1
            self._global_restart(record)
        else:
            self.single_restarts += 1
            self._single_restart(rank, record, episode)

    # ------------------------------------------------------------------ #
    # single-rank restart (message logging)

    def _single_restart(self, rank: int, record: RecoveryRecord, episode: int) -> None:
        cfg = self.cluster.config

        def _relaunched() -> None:
            if self._stale(rank, episode):
                return
            self._retrieve_image(rank, record, episode)

        self.sim.schedule(cfg.restart_overhead_s, _relaunched)

    def _retrieve_image(self, rank: int, record: RecoveryRecord, episode: int) -> None:
        cluster = self.cluster
        server = cluster.checkpoint_server
        host = cluster.host_of(rank)

        def _image_delivered(image: Optional[CheckpointImage]) -> None:
            if self._stale(rank, episode):
                return
            snapshot = image.snapshot if image is not None else None
            cluster.daemons[rank].begin_recovery(snapshot, record)

        policy = cluster.retry_policy
        if not (policy.enabled and cluster.config.ckpt_server_failover):
            server.retrieve(rank, host, _image_delivered)
            return

        channel = cluster.rpc_channel("ckpt_retrieve")

        def _attempt(call) -> None:
            if self._stale(rank, episode):
                call.complete()
                return

            def _delivered(image: Optional[CheckpointImage], call=call) -> None:
                call.complete()
                _image_delivered(image)

            if not server.retrieve(rank, host, _delivered):
                call.fail()  # server down: connection refused, back off

        channel.call(_attempt, arm_timeout=False)

    # ------------------------------------------------------------------ #
    # global restart (coordinated checkpointing)

    def _global_restart(self, record: RecoveryRecord) -> None:
        cluster = self.cluster
        cfg = cluster.config
        cluster.epoch += 1
        self._global_inflight = True
        self._global_relaunched = set()
        # stop everything that is still running
        for r in range(cluster.nprocs):
            cluster.kill_rank(r)
        # fresh episodes: detections already in flight for ranks we just
        # killed belong to the pre-restart world
        for r in range(cluster.nprocs):
            self._episode[r] = self._episode.get(r, 0) + 1
        wave = cluster.checkpoint_server.latest_complete_wave(cluster.nprocs)

        restarted = {"count": 0}

        def _restart_rank(r: int, image: Optional[CheckpointImage]) -> None:
            daemon = cluster.daemons[r]
            snapshot = image.snapshot if image is not None else None
            daemon.hard_reset(snapshot)
            state = None
            pending = None
            if snapshot is not None:
                import copy as _copy

                state = _copy.deepcopy(snapshot["app_state"])
                pending = _copy.deepcopy(snapshot["endpoint"])
            daemon.probes.restarts += 1
            cluster.restart_app(r, state, pending)
            cluster.fire_restart_listeners(r)
            self._global_relaunched.add(r)
            restarted["count"] += 1
            if restarted["count"] == cluster.nprocs:
                record.replay_end_time = self.sim.now
                self._global_inflight = False
                self._global_relaunched = set()
                rerun, self._global_rerun = self._global_rerun, None
                if rerun is not None:
                    self.global_restarts += 1
                    self._global_restart(rerun)

        def _fetch_image(r: int) -> None:
            server = cluster.checkpoint_server
            host = cluster.host_of(r)
            deliver = lambda img, rr=r: _restart_rank(rr, img)
            policy = cluster.retry_policy
            if not (policy.enabled and cfg.ckpt_server_failover):
                server.retrieve_wave(r, wave, host, deliver)
                return
            channel = cluster.rpc_channel("ckpt_retrieve")

            def _attempt(call) -> None:
                def _delivered(image, call=call):
                    call.complete()
                    deliver(image)

                if not server.retrieve_wave(r, wave, host, _delivered):
                    call.fail()

            channel.call(_attempt, arm_timeout=False)

        def _relaunch_all() -> None:
            for r in range(cluster.nprocs):
                if wave is None:
                    _restart_rank(r, None)
                else:
                    _fetch_image(r)

        self.sim.schedule(cfg.restart_overhead_s, _relaunch_all)
