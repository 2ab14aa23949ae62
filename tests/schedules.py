"""The one op-schedule harness shared by the image-level suites.

``schedule_app`` turns a list of ops (ring sendrecv, allreduce, bcast,
compute) into an SPMD application in restartable style; ``run_schedule``
runs it on a fresh cluster and ``run_image`` reduces the result to the
run's complete observable image as plain data.
``tests/test_pinned_images.py`` pins such runs against recorded values,
``tests/test_determinism_repro.py`` runs each configuration twice and
compares the images field for field.
"""

from __future__ import annotations

import dataclasses

from repro import Cluster
from repro.runtime.config import ClusterConfig
from repro.runtime.failure import OneShotFaults

#: the five fault-tolerance protocols (stack spelling)
PROTOCOL_STACKS = ("vcausal", "manetho", "logon", "pessimistic", "coordinated")
#: message-logging subset (replay-based recovery; cheap mid-run faults)
LOGGING_STACKS = ("vcausal", "manetho", "logon", "pessimistic")


def schedule_app(ops, iterations):
    """SPMD application executing one op schedule per iteration.

    Durable state only (restartable style) so checkpoint/recovery
    schedules replay it exactly; the returned value folds every payload
    the rank consumed, making delivery-order divergence visible in
    ``results``.
    """

    def app(ctx):
        s = ctx.state
        s.setdefault("it", 0)
        s.setdefault("acc", ctx.rank + 1)
        right = (ctx.rank + 1) % ctx.size
        left = (ctx.rank - 1) % ctx.size
        while s["it"] < iterations:
            yield from ctx.checkpoint_poll()
            for op in ops:
                kind = op[0]
                if kind == "ring":
                    msg = yield from ctx.sendrecv(
                        right, op[1], left, tag=3, payload=(ctx.rank, s["acc"])
                    )
                    s["acc"] = (s["acc"] * 31 + msg.payload[1] + 7) % 1_000_003
                elif kind == "allreduce":
                    total = yield from ctx.allreduce(op[1], s["acc"] % 9973)
                    s["acc"] = (s["acc"] * 17 + total) % 1_000_003
                elif kind == "bcast":
                    root = op[1] % ctx.size
                    v = yield from ctx.bcast(root, op[2], payload=s["acc"] % 131)
                    if v is not None:
                        s["acc"] = (s["acc"] * 13 + v) % 1_000_003
                elif kind == "compute":
                    yield from ctx.compute_seconds(op[1])
            s["it"] += 1
        return s["acc"]

    return app


def image_of(result) -> dict:
    """A ``RunResult`` as plain comparable data."""
    return {
        "finished": result.finished,
        "results": result.results,
        "sim_time": result.sim_time,
        "events_executed": result.events_executed,
        "probes": dataclasses.asdict(result.probes),
    }


def run_schedule(stack, ops, iterations, nprocs=4, *, seed=0, fault_at=None,
                 checkpoint_policy="none", checkpoint_interval_s=None,
                 attach=None, **config_kw):
    """Build a fresh cluster, run the schedule, return the ``RunResult``.

    ``attach(cluster)`` runs after wiring and before the first event (a
    tracer hooks in here); ``config_kw`` are ``ClusterConfig`` fields."""
    cluster = Cluster(
        nprocs=nprocs,
        app_factory=schedule_app(ops, iterations),
        stack=stack,
        config=ClusterConfig(**config_kw),
        seed=seed,
        checkpoint_policy=checkpoint_policy,
        checkpoint_interval_s=checkpoint_interval_s,
        fault_plan=OneShotFaults(fault_at) if fault_at is not None else None,
    )
    if attach is not None:
        attach(cluster)
    return cluster.run(max_events=30_000_000)


def run_image(*args, **kw) -> dict:
    """:func:`run_schedule`, reduced to its plain-data image."""
    return image_of(run_schedule(*args, **kw))


def image_diff(a: dict, b: dict) -> dict:
    """Fields on which two images differ (probes broken out per field)."""
    diffs = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    if "probes" in diffs:
        diffs["probes"] = {
            f: (a["probes"][f], b["probes"][f])
            for f in a["probes"]
            if a["probes"][f] != b["probes"][f]
        }
    return diffs
