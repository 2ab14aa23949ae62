"""Shared fixtures and helper applications for the test suite."""

from __future__ import annotations

import os
import random
import zlib

import pytest

from repro import Cluster
from repro.core.bounds import BoundVector
from repro.core.event_logger import ElAck, EventLogger
from repro.metrics.probes import ClusterProbes
from repro.runtime.config import ClusterConfig
from repro.simulator.engine import Simulator
from repro.simulator.network import Network


def pytest_configure(config):
    """Deterministic-reseed guard for parallel runs (pytest-xdist).

    The tier-1 suite may run sharded across processes (``-n auto``; see
    pytest.ini — xdist is optional, serial runs are unaffected).  The
    simulation itself never touches global RNG state (the ``raw-random``
    simlint rule), but test helpers could; seed each worker's global RNGs
    from its stable worker id so any such use is reproducible run to run
    instead of inheriting whatever entropy the worker started with.
    """
    worker = os.environ.get("PYTEST_XDIST_WORKER")
    if worker is not None:
        seed = zlib.crc32(worker.encode())
        random.seed(seed)
        try:
            import numpy as np

            np.random.seed(seed)
        except ImportError:  # pragma: no cover - numpy is a core dep
            pass


@pytest.fixture
def config() -> ClusterConfig:
    return ClusterConfig()


class VectorLogger:
    """A standalone Event Logger for protocol-level tests that keep a
    dense stable vector: :meth:`ack` absorbs it as a peer view and hands
    back the logger's real :class:`ElAck` handle."""

    def __init__(self, nprocs: int) -> None:
        sim = Simulator()
        self.el = EventLogger(sim, Network(sim), ClusterConfig(), ClusterProbes(), nprocs)

    def ack(self, stable: list[int]) -> ElAck:
        self.el.absorb_peer_vector(BoundVector(stable))
        return self.el.ack()


def ring_app(iterations: int = 10, nbytes: int = 512, flops: float = 5e6):
    """Ring sendrecv + allreduce application with a verification value.

    Written in restartable style: all durable state lives in ``ctx.state``
    and a checkpoint poll happens once per iteration.
    """

    def app(ctx):
        s = ctx.state
        s.setdefault("it", 0)
        s.setdefault("acc", 0)
        while s["it"] < iterations:
            yield from ctx.checkpoint_poll()
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            msg = yield from ctx.sendrecv(
                right, nbytes, left, tag=5, payload=(ctx.rank, s["it"])
            )
            assert msg.payload == (left, s["it"])
            s["acc"] = (s["acc"] * 31 + msg.payload[0] * (s["it"] + 1)) % 1000003
            total = yield from ctx.allreduce(8, s["acc"])
            s["last"] = total
            yield from ctx.compute_flops(flops)
            s["it"] += 1
        return s["last"]

    return app


def run_ring(
    stack: str,
    nprocs: int = 4,
    iterations: int = 10,
    nbytes: int = 512,
    **cluster_kw,
):
    """Run the ring app on a fresh cluster; returns the RunResult."""
    cluster = Cluster(
        nprocs=nprocs,
        app_factory=ring_app(iterations=iterations, nbytes=nbytes),
        stack=stack,
        **cluster_kw,
    )
    return cluster.run(max_events=20_000_000)


LOGGING_STACKS = (
    "vcausal",
    "manetho",
    "logon",
    "vcausal-noel",
    "manetho-noel",
    "logon-noel",
    "pessimistic",
)

CAUSAL_STACKS = (
    "vcausal",
    "manetho",
    "logon",
    "vcausal-noel",
    "manetho-noel",
    "logon-noel",
)

ALL_STACKS = ("p4", "vdummy") + LOGGING_STACKS + ("coordinated",)
