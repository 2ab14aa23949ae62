"""MPI point-to-point layer: matching, blocking/non-blocking receive.

The :class:`MpiContext` is one rank's view of the world: it owns the
application state dict (the restartable-style durable state, DESIGN.md
§5.1), the unexpected-message queue, and the pending-receive list.  The
daemon delivers messages in rsn order (the logged non-deterministic order);
matching below is then deterministic given that order, which is what makes
replay reproduce the original execution.

Blocking semantics mirror MPICH: ``send`` returns once the message is
handed to the daemon (buffered/eager, plus the rendezvous handshake for
large payloads); ``recv`` blocks until a matching message is delivered.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.simulator.process import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster
    from repro.runtime.daemon import Vdaemon

#: wildcard source / tag (MPI_ANY_SOURCE / MPI_ANY_TAG)
ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(frozen=True)
class ReceivedMessage:
    """What ``recv`` returns to the application."""

    src: int
    tag: int
    nbytes: int
    payload: Any
    ssn: int


@dataclass
class _PendingRecv:
    source: int
    tag: int
    future: Future


class RecvRequest:
    """Handle returned by :meth:`MpiContext.irecv`."""

    def __init__(self, ctx: "MpiContext", pending: _PendingRecv):
        self._ctx = ctx
        self._pending = pending

    def wait(self):
        """Generator: block until the receive completes."""
        msg = yield self._pending.future
        return msg


class MpiContext:
    """One rank's MPI world (mpi4py-flavoured, generator-based).

    ``send(dst, nbytes, tag=0, payload=None)`` — generator, blocking
    (buffered) send returning the assigned ssn — and ``isend`` (same cost
    model, since sends complete at local injection) are instance
    attributes: the compiled send path cluster wiring installs, which is
    also what delivers into ``_queue`` / ``_pending`` on the receive side
    (:mod:`repro.runtime.fastpath`).
    """

    send: Callable[..., Any]
    isend: Callable[..., Any]

    def __init__(self, cluster: "Cluster", rank: int, daemon: "Vdaemon"):
        self.cluster = cluster
        self.rank = rank
        self.size = cluster.nprocs
        self.daemon = daemon
        self.sim = cluster.sim
        self.config = cluster.config
        self.probes = daemon.probes

        #: durable application state ("restartable style")
        self.state: dict = {}
        #: declared resident size of the application state (checkpoint size)
        self.state_nbytes: int = 1024

        self._queue: list[ReceivedMessage] = []
        self._pending: list[_PendingRecv] = []
        self._coll_seq = 0

    # ------------------------------------------------------------------ #
    # matching

    @staticmethod
    def _matches(source: int, tag: int, msg: ReceivedMessage) -> bool:
        return (source == ANY_SOURCE or source == msg.src) and (
            tag == ANY_TAG or tag == msg.tag
        )

    # ------------------------------------------------------------------ #
    # point to point

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: blocking receive; returns a ReceivedMessage."""
        for i, msg in enumerate(self._queue):
            if self._matches(source, tag, msg):
                del self._queue[i]
                return msg
        fut = Future(self.sim, f"recv@{self.rank}(src={source},tag={tag})")
        self._pending.append(_PendingRecv(source, tag, fut))
        msg = yield fut
        return msg

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        """Post a non-blocking receive (no yield); wait on the request."""
        for i, msg in enumerate(self._queue):
            if self._matches(source, tag, msg):
                del self._queue[i]
                fut = Future(self.sim, f"irecv@{self.rank}")
                fut.resolve(msg)
                return RecvRequest(self, _PendingRecv(source, tag, fut))
        pending = _PendingRecv(source, tag, Future(self.sim, f"irecv@{self.rank}"))
        self._pending.append(pending)
        return RecvRequest(self, pending)

    def sendrecv(
        self,
        dst: int,
        nbytes: int,
        src: int,
        tag: int = 0,
        payload: Any = None,
        recv_tag: Optional[int] = None,
    ):
        """Generator: post the receive, send, then wait (deadlock-free)."""
        req = self.irecv(src, tag if recv_tag is None else recv_tag)
        yield from self.send(dst, nbytes, tag=tag, payload=payload)
        msg = yield from req.wait()
        return msg

    # ------------------------------------------------------------------ #
    # computation and checkpoints

    def compute_seconds(self, seconds: float):
        """Generator: occupy the CPU for ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError("negative compute time")
        self.probes.compute_time_s += seconds
        if seconds > 0:
            yield seconds

    def compute_flops(self, flops: float):
        """Generator: charge ``flops`` of useful work at the node rate."""
        self.probes.flops += flops
        yield from self.compute_seconds(flops / self.config.node_flops)

    def checkpoint_poll(self):
        """Generator: safe point — take a checkpoint if one was requested.

        Applications call this once per outer iteration; the checkpoint
        scheduler's requests are honored here so that the snapshot is taken
        at a state where the daemon counters and the application state
        dict are mutually consistent.
        """
        if self.daemon.checkpoint_pending:
            self.note_collective_seq()
            yield from self.daemon.take_checkpoint()

    # ------------------------------------------------------------------ #
    # collectives sugar (delegates to repro.mpi.collectives)

    def next_collective_tag(self) -> int:
        """Unique per-call tag base; identical across ranks because all
        ranks execute the same collective sequence."""
        self._coll_seq += 1
        return (1 << 20) + self._coll_seq * 64

    def barrier(self):
        from repro.mpi import collectives

        yield from collectives.barrier(self)

    def bcast(self, root: int, nbytes: int, payload: Any = None):
        from repro.mpi import collectives

        result = yield from collectives.bcast(self, root, nbytes, payload)
        return result

    def reduce(self, root: int, nbytes: int, value: Any, op=None):
        from repro.mpi import collectives

        result = yield from collectives.reduce(self, root, nbytes, value, op)
        return result

    def allreduce(self, nbytes: int, value: Any, op=None):
        from repro.mpi import collectives

        result = yield from collectives.allreduce(self, nbytes, value, op)
        return result

    def alltoall(self, nbytes_per_pair: int):
        from repro.mpi import collectives

        yield from collectives.alltoall(self, nbytes_per_pair)

    def allgather(self, nbytes: int, value: Any):
        from repro.mpi import collectives

        result = yield from collectives.allgather(self, nbytes, value)
        return result

    # ------------------------------------------------------------------ #
    # checkpoint support

    def export_pending(self) -> list[ReceivedMessage]:
        """Unconsumed delivered messages (part of the checkpoint image)."""
        return list(self._queue)

    def restore(self, state: Optional[dict], pending: Optional[list]) -> None:
        """Reset for a restart: swap in checkpointed state and queue."""
        self.state = state if state is not None else {}
        self._queue = list(pending) if pending is not None else []
        self._pending = []
        self._coll_seq = self.state.get("_coll_seq", 0)

    def note_collective_seq(self) -> None:
        """Persist the collective tag counter into the durable state so a
        restarted rank keeps issuing matching tags."""
        self.state["_coll_seq"] = self._coll_seq
