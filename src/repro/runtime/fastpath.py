"""The per-message delivery path, compiled at cluster wiring time.

:func:`install_delivery` builds, for every rank, one flat closure per
stage of the message path and installs it at the seam peers and
applications address:

* **send** — ``ctx.send`` / ``ctx.isend`` (identical semantics: sends
  complete at local injection; ``sendrecv`` and the collectives resolve
  ``self.send``).  Runs inside the application process: sequence number,
  the MPI-stack + pipe-crossing latency, piggyback build, the wire.
* **reception** — ``daemon.wire_sink``, what peers' NIC transfers call on
  delivery.  Drops stale-epoch and dead-rank traffic, routes control
  messages to :meth:`Vdaemon.on_ctl` and replay-time arrivals to
  :meth:`Vdaemon.buffer_for_replay`, and for a fresh application message
  de-duplicates, accepts the piggyback, assigns the reception sequence
  number, creates and logs the determinant, and books the single-threaded
  daemon's service delay.
* **hand to app** — ``daemon.hand_to_app``, the continuation after that
  delay: MPI matching against the context's pending receives.
* **EL post** — ``daemon.el_log_send``, one log message to the rank's
  Event Logger shard (fire-and-forget, or timed out and retried when the
  retry layer is on).

These closures are the only implementation of their stage; the daemon's
replay engine re-enters them (``_deliver_replayed`` books ``hand_to_app``
and calls ``el_log_send``, ``_finish_replay`` re-submits leftovers
through ``wire_sink``).  Each binds its reset-stable state once — probes,
config constants, the ssn tables (mutated in place by ``hard_reset``) —
and reads everything a restart replaces (protocol object, clocks,
liveness, epoch, replay flags, trace sink) dynamically, so a
``hard_reset`` mid-run needs no recompilation.

Recorded checksums depend on the float-addition order of each delay
(``a+b+c`` and ``a+(b+c)`` differ in IEEE-754): the send-side latency is
accumulated term by term in the order written below, and a reception
completes at ``start + (base_delay + pb_cost)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.events import Determinant
from repro.mpi.api import ANY_SOURCE, ANY_TAG, ReceivedMessage
from repro.runtime.daemon import WireMessage
from repro.simulator.process import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.api import MpiContext
    from repro.runtime.cluster import Cluster
    from repro.runtime.daemon import Vdaemon


def install_delivery(cluster: "Cluster") -> None:
    """Compile and install the delivery closures on every endpoint.

    Called once from ``Cluster.__init__`` after daemons and MPI contexts
    are wired, before any traffic flows.
    """
    for rank, daemon in cluster.daemons.items():
        ctx = cluster.contexts[rank]
        daemon.el_log_send = _compile_el_log_send(cluster, daemon)
        daemon.hand_to_app = _compile_hand_to_app(daemon, ctx)
        # reception binds the two closures installed just above
        daemon.wire_sink = _compile_reception(cluster, daemon)
        ctx.send = ctx.isend = _compile_send(cluster, daemon)


def _compile_reception(
    cluster: "Cluster", d: "Vdaemon"
) -> Callable[[WireMessage], None]:
    sim = d.sim
    probes = d.probes
    rank = d.rank
    is_logging = d.is_logging
    delay_cache = d._recv_delay_cache
    hand = d.hand_to_app
    el_log_send = d.el_log_send
    last_ssn = d.last_ssn
    last_ssn_get = last_ssn.get
    post = sim.post
    record = cluster.determinants.record

    # simlint: hot
    def on_wire(msg: WireMessage) -> None:
        if msg.epoch != cluster.epoch:
            return  # stale message from before a global restart
        if not d.alive:
            return  # dropped; covered by the sender-based log
        kind = msg.kind
        if kind != "app" and kind != "replay":
            d.on_ctl(msg)
            return
        if d.in_replay or d.recovering:
            d.buffer_for_replay(msg)
            return
        src = msg.src
        ssn = msg.ssn
        if ssn <= last_ssn_get(src, 0):
            return  # duplicate of an already-delivered message
        # the single-threaded daemon processes receptions serially
        start = d._proc_busy_until
        now = sim.now
        if now > start:
            start = now
        # protocol mutations happen in arrival order (== delivery order)
        protocol = d.protocol
        pb_cost = protocol.accept_piggyback(src, msg.pb, msg.dep)
        last_ssn[src] = ssn
        if is_logging:
            clock = d.clock + 1
            d.clock = clock
            probes.receptions = clock
            det = Determinant(
                creator=rank, clock=clock, sender=src, ssn=ssn, dep=msg.dep
            )
            record(det)
            protocol.on_local_event(det)
            if el_log_send is not None:
                probes.el_events_logged += 1
                el_log_send((det,))
        delay = delay_cache.get(msg.nbytes)
        if delay is None:
            delay = d._recv_base_delay(msg.nbytes)
        ready = start + (delay + pb_cost)
        d._proc_busy_until = ready
        post(ready, hand, msg)

    return on_wire


def _compile_hand_to_app(
    d: "Vdaemon", ctx: "MpiContext"
) -> Callable[[WireMessage], None]:
    sim = d.sim
    rank = d.rank

    # simlint: hot
    def hand_to_app(msg: WireMessage) -> None:
        trace = d.trace_sink
        if trace is not None:
            # recorded even for a dead rank: the timeline shows the
            # arrival the crash swallowed
            trace(sim.now, "deliver", rank, f"<- {msg.src} ssn={msg.ssn}")
        if not d.alive:
            return
        m = ReceivedMessage(
            src=msg.src,
            tag=msg.tag,
            nbytes=msg.nbytes,
            payload=msg.payload,
            ssn=msg.ssn,
        )
        pending = ctx._pending
        if pending:
            src = m.src
            tag = m.tag
            for i, p in enumerate(pending):
                ps = p.source
                pt = p.tag
                if (ps == ANY_SOURCE or ps == src) and (
                    pt == ANY_TAG or pt == tag
                ):
                    del pending[i]
                    p.future.resolve(m)
                    return
        ctx._queue.append(m)

    return hand_to_app


def _compile_el_log_send(
    cluster: "Cluster", d: "Vdaemon"
) -> Optional[Callable[[tuple[Determinant, ...]], None]]:
    """Ship one log message to this rank's shard (None without an EL).

    With the retry layer disabled (the default) this is the paper's
    fire-and-forget post.  With it enabled, the ack doubles as the
    completion signal: a post swallowed by a dead shard times out and is
    re-sent.  Either way the shard is resolved per attempt, so a post
    lands on the failover owner once the key range has moved.  Only the
    retry wrapper passes ``ack`` (its per-call completion hook).
    """
    group = cluster.event_logger
    if group is None:
        return None
    transfer = d.network.transfer
    host = d.host
    rank = d.rank
    wire_bytes = d.config.el_event_wire_bytes
    shard_for = group.shard_for

    # simlint: hot
    def el_log_send(dets: tuple[Determinant, ...], ack=d._el_ack) -> None:
        shard = shard_for(rank)
        transfer(
            host,
            shard.host,
            wire_bytes * len(dets),
            shard.receive_log,
            args=(rank, dets, ack, host),
        )

    if not cluster.retry_policy.enabled:
        return el_log_send

    def el_log_send_retried(dets: tuple[Determinant, ...]) -> None:
        def _attempt(call) -> None:
            if not d.alive:
                call.complete()  # crashed client: drop, recovery re-logs
                return

            def _ack(ack, call=call) -> None:
                call.complete()
                d._el_ack(ack)

            el_log_send(dets, _ack)

        cluster.rpc_channel("el_log").call(_attempt)

    return el_log_send_retried


def _compile_send(cluster: "Cluster", d: "Vdaemon"):
    cfg = d.config
    spec = d.spec
    sim = d.sim
    network = d.network
    probes = d.probes
    rank = d.rank
    host = d.host
    daemons = cluster.daemons
    host_of = cluster.host_of
    plan_select = d._plan_send
    slog = spec.sender_based_logging
    is_logging = d.is_logging
    blocking = d.protocol.blocking_on_stability  # class attr: reset-stable
    ssn_next = d.ssn_next
    ssn_next_get = ssn_next.get
    #: nbytes -> stage-1 latency (pure in nbytes given config and spec)
    pre_cache: dict[int, float] = {}
    #: dst -> (dst host, dst wire sink): daemons are never replaced, and
    #: the sinks are installed before any traffic flows
    dst_cache: dict[int, tuple] = {}

    # simlint: hot
    def send(dst: int, nbytes: int, tag: int = 0, payload=None):
        """Generator: full send path; returns the assigned ssn."""
        trace = d.trace_sink
        if trace is not None:
            trace(sim.now, "send", rank, f"-> {dst} ({nbytes} B)")
        if blocking:
            # pessimistic logging: wait until all own events are stable
            while getattr(d.protocol, "stability_gap")() > 0:
                fut = Future(sim, f"stability@{rank}")
                d._stability_waiters.append(fut)
                yield fut

        ssn = ssn_next_get(dst, 0) + 1
        ssn_next[dst] = ssn

        # -- stage 1: the MPI stack + the app→daemon pipe crossing ------
        pre = pre_cache.get(nbytes)
        if pre is None:
            pre = cfg.mpi_software_latency_s / 2.0
            if spec.daemon:
                pre += cfg.daemon_overhead_s / 2.0
                pre += nbytes * 8.0 / cfg.daemon_copy_bandwidth_bps
            if slog:
                pre += nbytes * 8.0 / cfg.sender_log_bandwidth_bps
            if is_logging:
                pre += cfg.logging_fixed_latency_s / 2.0
            pre_cache[nbytes] = pre
        if slog:
            sender_log = d.sender_log
            sender_log.record(dst, ssn, tag, nbytes, payload)
            probes.sender_log_bytes = sender_log.bytes_held
            probes.sender_log_messages = sender_log.messages_held
        yield pre

        # -- stage 2: the daemon builds the piggyback (after the pipes,
        #    so EL acks race the software stack, not just the wire) -----
        pb = d.protocol.build_piggyback(dst)
        plan = plan_select(nbytes)

        probes.app_messages_sent += 1
        probes.app_payload_bytes_sent += nbytes
        probes.piggyback_bytes_sent += pb.nbytes
        probes.piggyback_events_sent += pb.n_events
        probes.header_bytes_sent += plan.header_bytes
        if pb.n_events:
            probes.messages_with_piggyback += 1

        post = pb.build_cost_s + plan.handshake_latency_s
        if post > 0:
            yield post

        msg = WireMessage(
            kind="app",
            src=rank,
            dst=dst,
            ssn=ssn,
            tag=tag,
            nbytes=nbytes,
            payload=payload,
            pb=pb,
            dep=d.clock,
            epoch=cluster.epoch,
        )
        target = dst_cache.get(dst)
        if target is None:
            target = dst_cache[dst] = (host_of(dst), daemons[dst].wire_sink)
        network.transfer(
            host, target[0], nbytes + pb.nbytes + plan.header_bytes, target[1],
            args=(msg,),
        )
        return ssn

    return send
