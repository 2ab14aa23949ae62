"""The six workloads: what each one runs, and the checksum of a run.

A workload is its *inputs* — ranks, stack, cost model, Event Logger
topology, failover/retry settings, fault plan.  No workload sets a knob
that selects between bit-identical implementations (engine, delivery
path, build strategy, partitioning): whichever implementation is the
default is what gets measured, so deleting a fast/reference pair cannot
break the benchmark and an engine that wins shows by becoming the default.

Only ``repro``'s public API is imported here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.experiments.common import FAST_ITERATIONS
from repro.experiments.fig6_pingpong import PAPER_LATENCY_US
from repro.experiments.fig7_piggyback_size import PAPER_PB_PERCENT, PROC_COUNTS
from repro.experiments.fig7_piggyback_size import STACKS as FIG7_STACKS
from repro.runtime.cluster import Cluster
from repro.runtime.config import FIGURE_STACKS, ClusterConfig
from repro.runtime.failure import StormFaults
from repro.workloads.nas import make_app
from repro.workloads.netpipe import pingpong_app


@dataclass(frozen=True)
class Op:
    """One cluster run: the unit that is attempted, and can fail."""

    label: str
    nprocs: int
    stack: str
    #: ("nas", bench, iterations, builder kwargs) or ("pingpong", reps)
    app: tuple
    overrides: dict = field(default_factory=dict)
    #: ``StormFaults`` arguments (the seed is the run's), or None
    storm: Optional[dict] = None
    #: (figure, paper value) this run's model output is compared with
    paper: Optional[tuple[str, float]] = None


SPARSE = {"pb_cost_model": "sparse"}

#: four EL shards behind a tree sync, shard and checkpoint-server failover
#: and the retry layer armed: the configuration in which the Event Logger
#: is *read* (fetches, disk rebuilds) as well as written
STORM = {
    **SPARSE,
    "el_count": 4,
    "el_sync_strategy": "tree",
    "el_sync_interval_s": 10e-3,
    "el_failover": True,
    "ckpt_server_failover": True,
    "fault_domains": 32,
    "rpc_timeout_s": 25e-3,
}


def _nas(label, bench, nprocs, stack, iterations, overrides=None, storm=None, **kw):
    return Op(label, nprocs, stack, ("nas", bench, iterations, kw), overrides or {}, storm)


def _paper_ops(reps: int, cells) -> list[Op]:
    ops = [
        Op(f"fig6:{stack}", 2, stack, ("pingpong", reps),
           paper=("fig6", PAPER_LATENCY_US[stack]))
        for stack in FIGURE_STACKS
    ]
    for bench, nprocs in cells:
        for stack in FIG7_STACKS:
            ops.append(Op(
                f"fig7:{bench}{nprocs}:{stack}", nprocs, stack,
                ("nas", bench, FAST_ITERATIONS[bench], {}),
                paper=("fig7", PAPER_PB_PERCENT[(bench, nprocs)][stack]),
            ))
    return ops


def ops_of(name: str, smoke: bool = False) -> list[Op]:
    """The cluster runs of workload ``name`` (``smoke``: seconds-sized)."""
    if name == "cg512_el":
        n = 32 if smoke else 512
        return [_nas(name, "cg", n, "vcausal", 1, SPARSE, inner=3)]
    if name == "lu256_noel":
        n = 16 if smoke else 256
        return [_nas(name, "lu", n, "vcausal-noel", 1, SPARSE)]
    if name == "lu16_el_saturated":
        return [_nas(name, "lu", 16, "vcausal", 1 if smoke else 36)]
    if name == "lu256_vdummy":
        n, its = (32, 1) if smoke else (256, 6)
        return [_nas(name, "lu", n, "vdummy", its, SPARSE)]
    if name == "paper_fig7":
        if smoke:
            return _paper_ops(20, [("bt", 4), ("cg", 2)])
        grid = [(b, p) for b, counts in PROC_COUNTS.items() for p in counts]
        return _paper_ops(120, grid)
    if name == "cg256_el4_storm":
        if smoke:  # CG-64 is over in 35 simulated ms: strike inside it
            storm = dict(start_s=0.01, window_s=0.005, kills=2,
                         cascade_p=0.5, cascade_delay_s=0.005)
            return [_nas(name, "cg", 64, "vcausal", 1, STORM, storm, inner=3)]
        storm = dict(start_s=0.3, window_s=0.1, kills=2,
                     cascade_p=0.5, cascade_delay_s=0.05)
        return [_nas(name, "cg", 256, "vcausal", 1, STORM, storm, inner=3)]
    raise KeyError(name)


def fault_free(ops: list[Op]) -> list[Op]:
    """The same runs without their fault plan (the fold reference)."""
    return [replace(op, storm=None) for op in ops]


def result_fold(results: dict) -> int:
    """Order-sensitive fold of the per-rank application results."""
    fold = 0
    for rank, value in sorted(results.items()):
        fold = (fold * 33 + rank * 7919 + int(value)) % 1_000_003
    return fold


def build(op: Op, seed: int, stamps: Optional[list] = None) -> Cluster:
    """``make_app`` + ``Cluster(...)``: everything before ``run()``."""
    t0 = time.perf_counter()
    if op.app[0] == "pingpong":
        app = pingpong_app(1, op.app[1])
    else:
        _, bench, iterations, kwargs = op.app
        app, _info = make_app(bench, "A", op.nprocs, iterations=iterations, **kwargs)
    t1 = time.perf_counter()
    plan = StormFaults(seed=seed, **op.storm) if op.storm else None
    cluster = Cluster(
        nprocs=op.nprocs,
        app_factory=app,
        stack=op.stack,
        config=ClusterConfig().with_overrides(**op.overrides),
        seed=seed,
        fault_plan=plan,
    )
    if stamps is not None:
        stamps += [("make_app", t0, t1), ("Cluster.__init__", t1, time.perf_counter())]
    return cluster


def checksum_of(op: Op, result: Any) -> dict:
    """Every simulated quantity the pins hold, for one finished run."""
    probes = result.probes
    group = result.cluster.event_logger
    out = {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
        "seqs_scanned": probes.total("pb_build_seqs_scanned"),
        "el_stored": probes.el_determinants_stored,
        "el_peak_queue": probes.el_peak_queue,
        "recoveries": len(probes.recoveries),
        "replayed": probes.total("replayed_receptions"),
        "rpc_retries": probes.rpc_total("retries"),
        "rpc_timeouts": probes.rpc_total("timeouts"),
        "sync_messages": group.sync_messages if group is not None else 0,
    }
    if op.app[0] == "nas":
        out["result_fold"] = result_fold(result.results)
    return out


@dataclass
class Pass:
    """One execution of a whole workload (all of its cluster runs)."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checksum: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def _accuracy(models: dict[str, list[tuple[float, float]]]) -> dict:
    """Model-vs-paper error of the Fig. 6(a) and Fig. 7 cells that ran."""
    out = {}
    if models.get("fig6"):
        out["fig6_latency_err_pct"] = round(
            max(100.0 * abs(m - p) / p for m, p in models["fig6"]), 9
        )
    if models.get("fig7"):
        ratios = [max(m / p, p / m) for m, p in models["fig7"]]
        out["fig7_pb_geo_err"] = round(
            math.exp(sum(map(math.log, ratios)) / len(ratios)), 9
        )
    return out


def run_pass(ops: list[Op], seed: int, spans: bool = False) -> Pass:
    """Build and run every cluster of a workload once, timing set-up and
    ``Cluster.run()`` separately; the checksum sums the per-run counters
    (``el_peak_queue`` takes the maximum)."""
    out = Pass()
    models: dict[str, list[tuple[float, float]]] = {}
    for op in ops:
        out.attempted += 1
        stamps: list = []
        try:
            cluster = build(op, seed, stamps)
            t0 = time.perf_counter()
            result = cluster.run()
            t1 = time.perf_counter()
            chk = checksum_of(op, result)
            t2 = time.perf_counter()
        except Exception as exc:  # one failed run must not hide the others
            out.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        stamps += [("Cluster.run", t0, t1), ("checksum", t1, t2)]
        out.setup_s += stamps[1][2] - stamps[0][1]
        out.wall_s += t1 - t0
        if spans:
            out.spans.append((op.label, stamps))
        if not result.finished:
            out.failures.append(f"{op.label}: did not finish")
        for key, value in chk.items():
            if key == "el_peak_queue":
                out.checksum[key] = max(out.checksum.get(key, 0), value)
            elif key == "result_fold":
                out.checksum[key] = (out.checksum.get(key, 0) * 31 + value) % 1_000_003
            else:
                out.checksum[key] = out.checksum.get(key, 0) + value
        if op.paper is not None:
            figure, paper = op.paper
            model = (
                result.results[0] * 1e6 if figure == "fig6"
                else result.probes.piggyback_fraction
            )
            models.setdefault(figure, []).append((model, paper))
    out.checksum["sim_time"] = round(out.checksum.get("sim_time", 0.0), 9)
    out.checksum.update(_accuracy(models))
    return out
