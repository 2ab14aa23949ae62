"""The Vdaemon: generic communication daemon of MPICH-V (paper §IV-A).

One daemon runs per MPI process.  It "handles the effective communications,
namely sending, receiving, reordering messages, establishing connections
with all components of the system and detecting failures", and calls the
fault-tolerance protocol hooks (:class:`repro.core.protocol_base.VProtocol`)
in the relevant routines.

Model notes
-----------

* The daemon is a **single thread** (select loop) in MPICH-V; we model that
  with a serial processing resource on the receive path — deliveries from
  many peers queue behind each other, preserving per-channel FIFO and
  creating the daemon's natural backpressure.
* The separation between the MPI process and the daemon (a pair of system
  pipes) costs a fixed per-message overhead plus a copy at the pipe
  bandwidth; this is the measured ~35 µs latency gap between MPICH-P4 and
  MPICH-Vdummy (Fig. 6(a)).
* Reception order at the daemon is *the* non-deterministic event: the
  daemon assigns the reception sequence number (rsn), creates the
  determinant, posts it to the Event Logger, and only then hands the
  message to the MPI matching layer.

Recovery (§III-A): a restarted daemon restores the checkpoint image,
collects determinants (from the EL, or from every peer when there is
none), asks peers to re-send logged payloads, and replays deliveries in
determinant order until it reaches the pre-crash state; the MPI process
re-executes on top, re-generating identical sends which receivers
de-duplicate by (sender, ssn).

The per-message path itself — send, fresh reception, hand-to-app and the
Event Logger post — is compiled into per-rank closures at cluster wiring
time (:mod:`repro.runtime.fastpath`) and installed on this object's
``wire_sink`` / ``hand_to_app`` / ``el_log_send`` slots.  What lives here
is the state those closures act on and everything off the per-message
path: control messages, checkpoints, failure handling, recovery and the
replay engine.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.event_logger import ElAck
from repro.core.events import Determinant
from repro.core.piggyback import Piggyback
from repro.core.protocol_base import VProtocol, make_protocol
from repro.core.sender_log import SenderLog
from repro.metrics.probes import ProcessProbes, RecoveryRecord
from repro.runtime.channel import PlanSelector
from repro.runtime.config import ClusterConfig, StackSpec
from repro.simulator.engine import SimulationError
from repro.simulator.process import Future, SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster


@dataclass(slots=True)
class WireMessage:
    """Envelope of one daemon-to-daemon message."""

    kind: str                # app | replay | ctl_*
    src: int
    dst: int
    ssn: int = 0
    tag: int = 0
    nbytes: int = 0
    payload: Any = None
    pb: Piggyback = field(default_factory=Piggyback)
    dep: int = 0
    epoch: int = 0
    # only control messages carry metadata (and always pass it
    # explicitly); None on the app path saves a dict per message
    meta: Optional[dict] = None


class Vdaemon:
    """Per-rank communication daemon + protocol host."""

    __slots__ = (
        "cluster", "sim", "network", "rank", "spec", "config", "probes",
        "host", "wire_sink", "hand_to_app", "el_log_send", "protocol",
        "sender_log", "alive", "clock", "ssn_next",
        "last_ssn", "_proc_busy_until", "_plan_send",
        "_recv_delay_cache", "trace_sink", "in_replay",
        "recovering", "_replay_dets", "_replay_idx", "_replay_buffer",
        "_resend_floor", "_stability_waiters",
        "_ckpt_pending", "last_ckpt_clock", "_pending_event_replies",
        "_recovery_proc", "current_recovery",
    )

    def __init__(
        self,
        cluster: "Cluster",
        rank: int,
        spec: StackSpec,
        config: ClusterConfig,
        probes: ProcessProbes,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.rank = rank
        self.spec = spec
        self.config = config
        self.probes = probes
        self.host = cluster.host_of(rank)

        self.protocol: VProtocol = make_protocol(
            spec.protocol, rank, cluster.nprocs, config, probes, cluster.determinants
        )
        self.protocol.bind(self)
        self.sender_log = SenderLog(rank)

        self.alive = True
        self.clock = 0                      # rsn counter
        self.ssn_next: dict[int, int] = {}
        self.last_ssn: dict[int, int] = {}
        # The single-threaded daemon processes receptions serially: each
        # hand-to-app is posted at the completion time booked here.
        self._proc_busy_until = 0.0
        self._plan_send = PlanSelector(config)
        # The compiled delivery closures, installed by cluster wiring
        # (runtime/fastpath.py) once the MPI contexts exist:
        #: wire-delivery entry point peers address (reception)
        self.wire_sink: Callable[[WireMessage], None]
        #: continuation after the daemon's service delay (MPI matching)
        self.hand_to_app: Callable[[WireMessage], None]
        #: ship a tuple of determinants to this rank's EL shard; None
        #: when the stack has no Event Logger
        self.el_log_send: Optional[Callable[[tuple], None]]
        #: nbytes -> receive-side base delay (pure in nbytes given config)
        self._recv_delay_cache: dict[int, float] = {}

        #: lifecycle recorder (time_s, kind, rank, detail); set by
        #: metrics.trace.Timeline.attach — None means tracing is off
        self.trace_sink: Optional[Callable[[float, str, int, str], None]] = None

        # replay machinery
        self.in_replay = False
        #: True between restart and replay start: incoming messages buffer
        self.recovering = False
        self._replay_dets: list[Determinant] = []
        self._replay_idx = 0
        self._replay_buffer: dict[tuple[int, int], WireMessage] = {}
        self._resend_floor: dict[int, int] = {}

        # pessimistic stability gating
        self._stability_waiters: list[Future] = []

        # checkpointing
        self._ckpt_pending: Optional[int] = None   # wave id or -1 (solo)
        self.last_ckpt_clock = 0

        # recovery bookkeeping
        self._pending_event_replies: dict[int, Future] = {}
        self._recovery_proc: Optional[SimProcess] = None
        self.current_recovery: Optional[RecoveryRecord] = None

    # ------------------------------------------------------------------ #
    # helpers

    @property
    def is_logging(self) -> bool:
        """True for protocols that create determinants (message logging)."""
        return self.spec.protocol in (
            "vcausal", "manetho", "logon", "pessimistic",
        )

    def _wire_to(self, dst_rank: int, nbytes: int, msg: WireMessage) -> None:
        dst_daemon = self.cluster.daemons[dst_rank]
        self.network.transfer(
            self.host,
            self.cluster.host_of(dst_rank),
            nbytes,
            dst_daemon.wire_sink,
            args=(msg,),
        )

    # ------------------------------------------------------------------ #
    # receive path: what the compiled reception closure calls out to

    def on_ctl(self, msg: WireMessage) -> None:
        """Dispatch one control message (epoch and liveness already
        checked by the reception closure)."""
        if msg.kind == "ctl_event_request":
            self._on_event_request(msg)
        elif msg.kind == "ctl_event_reply":
            self._on_event_reply(msg)
        elif msg.kind == "ctl_resend_request":
            self._on_resend_request(msg)
        elif msg.kind == "ctl_ckpt_notify":
            self._on_ckpt_notify(msg)
        else:
            raise SimulationError(f"unknown wire kind {msg.kind!r}")

    def buffer_for_replay(self, msg: WireMessage) -> None:
        """An application message arrived while recovering or replaying:
        hold it until the replay engine asks for its (sender, ssn)."""
        key = (msg.src, msg.ssn)
        if key not in self._replay_buffer:
            self._replay_buffer[key] = msg
            if self.in_replay:
                self._pump_replay()

    def _recv_base_delay(self, nbytes: int) -> float:
        delay = self._recv_delay_cache.get(nbytes)
        if delay is None:
            cfg = self.config
            delay = cfg.mpi_software_latency_s / 2.0
            if self.spec.daemon:
                delay += cfg.daemon_overhead_s / 2.0
                delay += nbytes * 8.0 / cfg.daemon_copy_bandwidth_bps
            if self.is_logging:
                delay += cfg.logging_fixed_latency_s / 2.0
            if self._plan_send(nbytes).receiver_copy:
                delay += nbytes * 8.0 / cfg.daemon_copy_bandwidth_bps
            self._recv_delay_cache[nbytes] = delay
        return delay

    # ------------------------------------------------------------------ #
    # Event Logger client

    def on_el_relog_request(self, clock_after: int) -> None:
        """Failover re-log: the shard that absorbed our key range asks for
        every determinant above its disk's stable clock.  Unacked
        determinants are by definition still held (unpruned) here, so the
        suffix is rebuilt from the protocol's own causal structures and
        re-posted as one ordinary log message (duplicates are discarded
        by the EL store).  A dead creator cannot answer: the group marks
        it, and its recovery merges what its peers hold into the EL reply."""
        if self.el_log_send is None:
            return
        if not self.alive:
            self.cluster.event_logger.relog_missed.add(self.rank)
            return
        dets = tuple(
            d
            for d in self.protocol.events_created_by(self.rank)
            if d.clock > clock_after
        )
        if not dets:
            return
        self.cluster.probes.el_relogged_determinants += len(dets)
        self.el_log_send(dets)

    def el_vector_push(self, push: ElAck) -> None:
        """Broadcast-strategy push from an EL shard: a handle on its
        merged view, folded like an ack."""
        if not self.alive:
            return
        self.protocol.on_el_ack(push)

    def _el_ack(self, ack: ElAck) -> None:
        if not self.alive:
            return
        self.probes.el_acks_received += 1
        self.protocol.on_el_ack(ack)
        if self.protocol.blocking_on_stability and self._stability_waiters:
            if getattr(self.protocol, "stability_gap")() == 0:
                waiters, self._stability_waiters = self._stability_waiters, []
                for fut in waiters:
                    fut.resolve(None)

    # ------------------------------------------------------------------ #
    # checkpointing

    def request_checkpoint(self, wave: Optional[int] = None) -> None:
        self._ckpt_pending = wave if wave is not None else -1

    @property
    def checkpoint_pending(self) -> bool:
        return self._ckpt_pending is not None

    def take_checkpoint(self):
        """Generator (runs in the app process at a safe poll point)."""
        if self.trace_sink is not None:
            self.trace_sink(self.sim.now, "checkpoint", self.rank, "")
        wave = self._ckpt_pending
        self._ckpt_pending = None
        cfg = self.config
        ctx = self.cluster.contexts[self.rank]
        snapshot = {
            "clock": self.clock,
            "ssn_next": dict(self.ssn_next),
            "last_ssn": dict(self.last_ssn),
            "protocol": self.protocol.export_state(),
            "sender_log": self.sender_log.export_state(),
            "app_state": copy.deepcopy(ctx.state),
            "endpoint": ctx.export_pending(),
        }
        image_bytes = (
            ctx.state_nbytes
            + self.sender_log.bytes_held
            + self.protocol.volatile_bytes()
            + 256 * 1024  # process text/stack baseline
        )
        self.last_ckpt_clock = self.clock
        # blocking part of the checkpoint (fork + image setup)
        yield cfg.checkpoint_fixed_overhead_s
        wave_id = wave if wave is not None and wave >= 0 else None
        server = self.cluster.checkpoint_server
        policy = self.cluster.retry_policy
        if not (policy.enabled and cfg.ckpt_server_failover):
            server.store(
                self.rank,
                image_bytes,
                snapshot,
                self.host,
                on_commit=lambda img: self._ckpt_committed(snapshot),
                wave=wave_id,
            )
            return
        # retried store: no deadline timer (a multi-megabyte image can
        # legitimately stream for a long time) — failure is signalled
        # explicitly, by a refused connection or an aborted transaction
        channel = self.cluster.rpc_channel("ckpt_store")

        def _attempt(call) -> None:
            if not self.alive:
                call.complete()  # crashed mid-retry: the image is moot
                return

            def _committed(img, call=call) -> None:
                call.complete()
                self._ckpt_committed(snapshot)

            accepted = server.store(
                self.rank,
                image_bytes,
                snapshot,
                self.host,
                on_commit=_committed,
                on_abort=call.fail,
                wave=wave_id,
            )
            if not accepted:
                call.fail()  # server down: back off, retry

        channel.call(_attempt, arm_timeout=False)

    def _ckpt_committed(self, snapshot: dict) -> None:
        """Notify peers so they can GC sender-based payloads (§IV-B.3)."""
        if not self.spec.sender_based_logging:
            return
        for peer in range(self.cluster.nprocs):
            if peer == self.rank:
                continue
            msg = WireMessage(
                kind="ctl_ckpt_notify",
                src=self.rank,
                dst=peer,
                epoch=self.cluster.epoch,
                meta={"last_ssn": dict(snapshot["last_ssn"])},
            )
            self._wire_to(peer, 16 + 8 * self.cluster.nprocs, msg)

    def _on_ckpt_notify(self, msg: WireMessage) -> None:
        ssn_upto = msg.meta["last_ssn"].get(self.rank, 0)
        self.sender_log.gc_destination(msg.src, ssn_upto)
        self.probes.sender_log_bytes = self.sender_log.bytes_held
        self.probes.sender_log_messages = self.sender_log.messages_held

    # ------------------------------------------------------------------ #
    # failure handling

    def kill(self) -> None:
        """Crash: lose volatile state (it is rebuilt by recovery)."""
        self.alive = False
        self.in_replay = False
        self.recovering = False
        self._replay_buffer.clear()
        self._replay_dets = []
        self._replay_idx = 0
        for fut in self._stability_waiters:
            fut.cancel()
        self._stability_waiters.clear()
        for fut in self._pending_event_replies.values():
            fut.cancel()
        self._pending_event_replies.clear()
        if self._recovery_proc is not None:
            self._recovery_proc.kill()
            self._recovery_proc = None

    def peer_died(self, peer: int) -> None:
        """A peer crashed: give up waiting for its event reply (if any)."""
        fut = self._pending_event_replies.pop(peer, None)
        if fut is not None and not fut.resolved:
            fut.resolve([])

    def hard_reset(self, snapshot: Optional[dict]) -> None:
        """Reset daemon state to a checkpoint snapshot (or initial state)."""
        self.alive = True
        self.in_replay = False
        self._replay_buffer.clear()
        self._replay_dets = []
        self._replay_idx = 0
        self._proc_busy_until = self.sim.now
        self._stability_waiters.clear()
        self._pending_event_replies.clear()
        self._ckpt_pending = None
        self.protocol = make_protocol(
            self.spec.protocol,
            self.rank,
            self.cluster.nprocs,
            self.config,
            self.probes,
            self.cluster.determinants,
        )
        self.protocol.bind(self)
        self.sender_log = SenderLog(self.rank)
        # the ssn tables are mutated in place: the delivery closures
        # (runtime/fastpath.py) bind these dicts at wiring time, so their
        # identity must survive a reset
        self.ssn_next.clear()
        self.last_ssn.clear()
        if snapshot is None:
            self.clock = 0
            self.last_ckpt_clock = 0
        else:
            self.clock = snapshot["clock"]
            self.ssn_next.update(snapshot["ssn_next"])
            self.last_ssn.update(snapshot["last_ssn"])
            self.last_ckpt_clock = snapshot["clock"]
            self.protocol.restore_state(copy.deepcopy(snapshot["protocol"]))
            self.sender_log.restore_state(copy.deepcopy(snapshot["sender_log"]))

    # ------------------------------------------------------------------ #
    # recovery orchestration (single-rank restart of logging protocols)

    def begin_recovery(self, snapshot: Optional[dict], record: RecoveryRecord) -> None:
        """Start the recovery control process for this rank."""
        self.hard_reset(snapshot)
        self.recovering = True
        self.current_recovery = record
        proc = SimProcess(
            self.sim,
            f"recovery-{self.rank}",
            lambda: self._recovery_gen(snapshot, record),
        )
        self._recovery_proc = proc
        proc.start()

    def _recovery_gen(self, snapshot: Optional[dict], record: RecoveryRecord):
        cfg = self.config
        cluster = self.cluster
        record.restart_time = self.sim.now

        # ---- phase 1: collect the determinants to replay ---------------
        t0 = self.sim.now
        dets: list[Determinant] = []
        group = cluster.event_logger
        if self.spec.event_logger and group is not None:
            fut = Future(self.sim, f"el-fetch@{self.rank}")
            if cluster.retry_policy.enabled:
                self._el_fetch_with_retry(fut)
            else:
                group.shard_for(self.rank).fetch_events(
                    self.rank, self.last_ckpt_clock, fut.resolve, self.host
                )
            dets = list((yield fut))
            # unpack/merge the recovered determinants
            merge = len(dets) * cfg.cost_deserialize_event_s
            if merge > 0:
                yield merge
            record.event_sources = 1
            record.collection_bytes = len(dets) * cfg.event_record_bytes
            if self.rank in group.relog_missed:
                # a failover re-log found this rank dead: the suffix the
                # dead shard never acked survives only at peers
                dets += yield from self._collect_from_peers(record)
        elif self.is_logging:
            dets = yield from self._collect_from_peers(record)
        # a clock both the EL and the peers returned keeps the EL's copy
        by_clock: dict[int, Determinant] = {}
        for det in dets:
            by_clock.setdefault(det.clock, det)
        record.event_collection_s = self.sim.now - t0
        record.events_collected = len(by_clock)

        # keep only a contiguous replayable prefix above the checkpoint
        replay: list[Determinant] = []
        expected = self.last_ckpt_clock + 1
        for det in sorted(by_clock.values(), key=lambda d: d.clock):
            if det.clock == expected:
                replay.append(det)
                expected += 1
            elif det.clock > expected:
                break

        # ---- phase 2: ask peers to re-send logged payloads -------------
        self._replay_dets = replay
        self._replay_idx = 0
        self.in_replay = bool(replay)
        self.recovering = False
        self.request_resends()

        # ---- phase 3: restart the application ---------------------------
        app_state = copy.deepcopy(snapshot["app_state"]) if snapshot else None
        endpoint = copy.deepcopy(snapshot["endpoint"]) if snapshot else None
        self.probes.restarts += 1
        cluster.restart_app(self.rank, app_state, endpoint)
        self._recovery_proc = None
        cluster.notify_restarted(self.rank)
        if replay:
            self._pump_replay()  # payloads may have arrived while collecting
        else:
            self._finish_replay()

    def _collect_from_peers(self, record: RecoveryRecord):
        """Generator: every alive peer's held determinants of this rank
        above the checkpoint, merged by clock (the no-EL collection)."""
        cfg = self.config
        cluster = self.cluster
        futures: dict[int, Future] = {}
        for peer in range(cluster.nprocs):
            if peer == self.rank or not cluster.daemons[peer].alive:
                continue
            fut = Future(self.sim, f"event-reply@{self.rank}<-{peer}")
            futures[peer] = fut
            self._pending_event_replies[peer] = fut
            msg = WireMessage(
                kind="ctl_event_request",
                src=self.rank,
                dst=peer,
                epoch=cluster.epoch,
                meta={"clock_after": self.last_ckpt_clock},
            )
            self._wire_to(peer, cfg.recovery_request_bytes, msg)
        merged: dict[int, Determinant] = {}
        for peer, fut in futures.items():
            reply = yield fut
            self._pending_event_replies.pop(peer, None)
            # every peer returns its whole view of our history, so the
            # recovering node merges (n-1)× duplicated volume — the
            # paper's "reclaiming all events from all other nodes"
            merge = len(reply) * cfg.cost_deserialize_event_s
            if merge > 0:
                yield merge
            for det in reply:
                merged[det.clock] = det
            record.collection_bytes += len(reply) * cfg.event_record_bytes
        record.event_sources += len(futures)
        return [merged[c] for c in sorted(merged)]

    def _el_fetch_with_retry(self, fut: Future) -> None:
        """Determinant fetch with timeout/retry: a fetch sent into a dead
        or mid-failover shard is silently dropped, and without a retry the
        recovery generator would wait on ``fut`` forever.  The shard is
        re-resolved per attempt; duplicate replies (a slow first answer
        racing a retry's) resolve the future only once."""
        cluster = self.cluster
        channel = cluster.rpc_channel("el_fetch")

        def _attempt(call) -> None:
            if fut.cancelled or fut.resolved or not self.recovering:
                call.complete()  # recovery superseded (e.g. killed again)
                return
            shard = cluster.event_logger.shard_for(self.rank)

            def _reply(dets, call=call) -> None:
                call.complete()
                if not fut.cancelled and not fut.resolved:
                    fut.resolve(dets)

            shard.fetch_events(self.rank, self.last_ckpt_clock, _reply, self.host)

        channel.call(_attempt)

    def request_resends(self) -> None:
        """Ask every peer to re-send logged payloads we have not delivered."""
        cluster = self.cluster
        for peer in range(cluster.nprocs):
            if peer == self.rank:
                continue
            floor = self.last_ssn.get(peer, 0)
            self._resend_floor[peer] = floor
            if not cluster.daemons[peer].alive:
                continue  # it will re-execute (and re-send) when it recovers
            msg = WireMessage(
                kind="ctl_resend_request",
                src=self.rank,
                dst=peer,
                epoch=cluster.epoch,
                meta={"ssn_after": floor},
            )
            self._wire_to(peer, self.config.recovery_request_bytes, msg)

    def on_peer_restarted(self, peer: int) -> None:
        """Re-issue the resend request lost while ``peer`` was down."""
        if self.in_replay and peer != self.rank:
            msg = WireMessage(
                kind="ctl_resend_request",
                src=self.rank,
                dst=peer,
                epoch=self.cluster.epoch,
                meta={"ssn_after": self._resend_floor.get(peer, 0)},
            )
            self._wire_to(peer, self.config.recovery_request_bytes, msg)

    # -- peer-side recovery services ------------------------------------ #

    def _on_event_request(self, msg: WireMessage) -> None:
        cfg = self.config
        clock_after = msg.meta["clock_after"]
        dets = [
            d
            for d in self.protocol.events_created_by(msg.src)
            if d.clock > clock_after
        ]
        # searching the volatile structures and serializing the reply
        search_cost = cfg.cost_piggyback_fixed_s + len(dets) * cfg.cost_serialize_event_s
        reply = WireMessage(
            kind="ctl_event_reply",
            src=self.rank,
            dst=msg.src,
            epoch=self.cluster.epoch,
            meta={"events": dets},
        )
        nbytes = cfg.el_ack_wire_bytes + len(dets) * cfg.event_record_bytes

        def _send():
            self._wire_to(msg.src, nbytes, reply)

        self.sim.schedule(search_cost, _send)

    def _on_event_reply(self, msg: WireMessage) -> None:
        fut = self._pending_event_replies.get(msg.src)
        if fut is not None and not fut.resolved:
            fut.resolve(msg.meta["events"])

    def _on_resend_request(self, msg: WireMessage) -> None:
        requester = msg.src
        ssn_after = msg.meta["ssn_after"]
        for entry in self.sender_log.sends_to(requester, ssn_after):
            replay = WireMessage(
                kind="replay",
                src=self.rank,
                dst=requester,
                ssn=entry.ssn,
                tag=entry.tag,
                nbytes=entry.nbytes,
                payload=entry.payload,
                pb=Piggyback(),
                dep=self.clock,
                epoch=self.cluster.epoch,
            )
            self._wire_to(requester, entry.nbytes + 32, replay)

    # -- replay engine ---------------------------------------------------- #

    def _pump_replay(self) -> None:
        """Deliver buffered payloads in determinant order."""
        while self._replay_idx < len(self._replay_dets):
            det = self._replay_dets[self._replay_idx]
            key = (det.sender, det.ssn)
            msg = self._replay_buffer.pop(key, None)
            if msg is None:
                return  # wait for the payload to arrive
            self._replay_idx += 1
            self._deliver_replayed(msg, det)
        if self._replay_idx >= len(self._replay_dets):
            self._finish_replay()

    def _deliver_replayed(self, msg: WireMessage, det: Determinant) -> None:
        start = max(self.sim.now, self._proc_busy_until)
        pb_cost = self.protocol.accept_piggyback(msg.src, msg.pb, msg.dep)
        self.last_ssn[msg.src] = max(self.last_ssn.get(msg.src, 0), msg.ssn)
        self.clock = det.clock
        self.probes.receptions = self.clock
        self.probes.replayed_receptions += 1
        self.cluster.determinants.record(det)
        self.protocol.on_local_event(det)
        if self.el_log_send is not None:
            # duplicate posts are discarded by the EL
            self.probes.el_events_logged += 1
            self.el_log_send((det,))
        duration = self._recv_base_delay(msg.nbytes) + pb_cost
        ready = start + duration
        self._proc_busy_until = ready
        self.sim.post(ready, self.hand_to_app, msg)

    def _finish_replay(self) -> None:
        if not self.in_replay and not self._replay_buffer:
            return
        self.in_replay = False
        if self.cluster.event_logger is not None:
            # the replay re-logged the suffix peers had to supply
            self.cluster.event_logger.relog_missed.discard(self.rank)
        if self.current_recovery is not None:
            self.current_recovery.replay_end_time = self.sim.now
        # messages that were not part of the replayed history become fresh
        # receptions, in deterministic (src, ssn) order
        leftovers = sorted(self._replay_buffer.items())
        self._replay_buffer.clear()
        for _key, msg in leftovers:
            self.wire_sink(msg)
