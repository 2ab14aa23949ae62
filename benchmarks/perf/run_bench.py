"""Performance benchmark driver: engine microbenches + paper scenarios.

Produces the repo-root ``BENCH_<n>.json`` trajectory files.  Each scenario
is run ``--repeats`` times (default 3) with fixed seeds; the minimum wall
time is reported (least-noise estimator) together with a determinism
checksum (simulated event counts, simulated completion time, piggyback
totals).  A run is only comparable to a recorded baseline when the
checksums match exactly — a speedup on different simulation results is
meaningless.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.run_bench                 # full run
    PYTHONPATH=src python -m benchmarks.perf.run_bench --jobs 4        # pooled run
    PYTHONPATH=src python -m benchmarks.perf.run_bench --quick         # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.run_bench --record-baseline
    PYTHONPATH=src python -m benchmarks.perf.run_bench --check-docs    # docs audit

The ``--record-baseline`` mode writes ``benchmarks/perf/baseline_seed.json``
(the reference this repo's speedups are measured against); the default mode
reads it and writes the next unused ``BENCH_<n>.json`` at the repo root
with per-scenario speedups (the index is derived from the BENCH files
already present, so each PR's run lands in a fresh file).  ``--quick``
shrinks every scenario so the whole driver finishes in seconds; it never
overwrites the baseline and skips the BENCH file unless ``--output`` is
given explicitly.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_seed.json"

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def next_output_path(root: Path = REPO_ROOT) -> Path:
    """First unused ``BENCH_<n>.json`` path (n = highest existing + 1)."""
    taken = [
        int(m.group(1))
        for p in root.glob("BENCH_*.json")
        if (m := _BENCH_RE.match(p.name))
    ]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def check_docs(root: Path = REPO_ROOT) -> list[str]:
    """``BENCH_<n>.json`` files at the repo root that ``docs/BENCHMARKING.md``
    does not reference by name; the trajectory convention requires every
    recorded point to be documented (``--check-docs`` fails on any)."""
    doc = root / "docs" / "BENCHMARKING.md"
    text = doc.read_text() if doc.exists() else ""
    return [
        p.name
        for p in sorted(root.glob("BENCH_*.json"))
        # word-boundary match: a documented BENCH_10 must not cover BENCH_1
        if _BENCH_RE.match(p.name)
        and not re.search(rf"\b{re.escape(p.stem)}\b", text)
    ]


def check_multiprocessing_imports(root: Path = REPO_ROOT) -> list[str]:
    """Modules under ``src/`` importing :mod:`multiprocessing`.

    Simulations are single-threaded and deterministic; host parallelism
    lives strictly between simulations (``benchmarks/perf/pool.py``).
    The simlint ``host-thread`` rule covers ``src/repro``; this companion
    check covers everything else under ``src/``.
    """
    import ast

    src = root / "src"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:  # pragma: no cover - simlint reports these
            continue
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(n.split(".")[0] == "multiprocessing" for n in names):
                offenders.append(str(path.relative_to(root)))
                break
    return offenders


def git_commit() -> str | None:
    """Current commit hash, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# --------------------------------------------------------------------- #
# scenarios — each returns (sim_events, checksum_dict)

def engine_chain(n_chains: int, length: int):
    """Pure engine overhead: self-rescheduling callback chains."""
    from repro.simulator.engine import Simulator

    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1e-3, chain, remaining - 1)

    for j in range(n_chains):
        sim.schedule(j * 1e-6, chain, length - 1)
    sim.run()
    return sim.events_executed, {
        "events": sim.events_executed,
        "now": round(sim.now, 9),
    }


def engine_fanout(n_events: int):
    """Bulk scheduling + drain: many pre-scheduled independent events."""
    from repro.simulator.engine import Simulator

    sim = Simulator()
    fired = [0]

    def cb():
        fired[0] += 1

    items = [((i % 997) * 1e-6, cb, ()) for i in range(n_events)]
    bulk = getattr(sim, "schedule_bulk", None)
    if bulk is not None:
        bulk(items)
    else:  # pre-bulk-API engine: push one at a time
        for delay, fn, args in items:
            sim.schedule(delay, fn, *args)
    sim.run()
    return sim.events_executed, {
        "events": sim.events_executed,
        "fired": fired[0],
        "now": round(sim.now, 9),
    }


def engine_samestamp(rounds: int, width: int, fan: int = 4):
    """Same-timestamp stress: wide bursts + zero-delay fan-out.

    Every round schedules ``width`` bursts at one shared timestamp and
    each burst ``call_soon``-spawns ``fan`` leaves at that instant, so the
    heap breaks every tie on ``seq``."""
    from repro.simulator.engine import Simulator

    sim = Simulator()
    fired = [0]

    def leaf():
        fired[0] += 1

    def burst():
        fired[0] += 1
        call_soon = sim.call_soon
        for _ in range(fan):
            call_soon(leaf)

    sim.schedule_bulk(
        ((r + 1) * 1e-3, burst, ()) for r in range(rounds) for _ in range(width)
    )
    sim.run()
    return sim.events_executed, {
        "events": sim.events_executed,
        "fired": fired[0],
        "now": round(sim.now, 9),
    }


def pingpong(stack: str, reps: int):
    """Fig. 6 ping-pong: daemon + protocol per-message path, 2 ranks."""
    from repro.workloads.netpipe import measure_latency

    latency, result = measure_latency(stack, nbytes=1, reps=reps)
    return result.events_executed, {
        "events": result.events_executed,
        "latency_us": round(latency * 1e6, 6),
        "sim_time": round(result.sim_time, 9),
    }


def nas(bench: str, nprocs: int, stack: str, iterations: int):
    """Fig. 8/9 NAS scenario: the piggyback-heavy protocol hot path."""
    from repro.experiments.common import run_nas

    result, _info = run_nas(bench, "A", nprocs, stack, iterations=iterations)
    probes = result.probes
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
    }


def nas_sparse(bench: str, nprocs: int, stack: str, iterations: int, inner=None):
    """Scale scenario: sparse bound vectors + per-entry cost model.

    The 256/512-rank regime the dense ``× nprocs`` formulas could not
    credibly reach; ``inner`` truncates CG's inner loop in quick mode.
    """
    from repro.experiments.common import run_nas
    from repro.runtime.config import ClusterConfig

    cfg = ClusterConfig().with_overrides(pb_cost_model="sparse")
    result, _info = run_nas(
        bench, "A", nprocs, stack, iterations=iterations, config=cfg,
        app_kwargs={"inner": inner} if inner is not None else None,
    )
    probes = result.probes
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
    }


def nas_noel_scan(bench: str, nprocs: int, stack: str, iterations: int):
    """No-EL at scale: the regime the dirty-creator worklist exists for.

    A scan of every held creator sequence on every send is O(P) host work
    per message.  LU's pipelined wavefronts send many small messages per
    channel per iteration, so most held sequences are quiet between
    consecutive sends on a channel — exactly what the worklist skips.
    ``seqs_scanned`` (host-side scan work, surfaced via
    ``ProcessProbes.pb_build_seqs_scanned``) records how few it touches.
    """
    from repro.experiments.common import run_nas
    from repro.runtime.config import ClusterConfig

    cfg = ClusterConfig().with_overrides(pb_cost_model="sparse")
    result, _info = run_nas(bench, "A", nprocs, stack, iterations=iterations, config=cfg)
    probes = result.probes
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
        "seqs_scanned": probes.total("pb_build_seqs_scanned"),
    }


def nas_el_saturation(bench: str, nprocs: int, stack: str, iterations: int):
    """Fig. 7 regime: a single Event Logger saturated by LU-16's
    determinant stream (acks lag, pruning stalls, piggybacks regrow)."""
    from repro.experiments.common import run_nas

    result, _info = run_nas(bench, "A", nprocs, stack, iterations=iterations)
    probes = result.probes
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
        "el_stored": probes.el_determinants_stored,
        "el_peak_queue": probes.el_peak_queue,
    }


def nas_sharded_el(
    bench: str,
    nprocs: int,
    stack: str,
    iterations: int,
    el_count: int,
    strategy: str,
    inner=None,
):
    """§VI sharded-EL scale scenario: 256 ranks over ``el_count`` shards.

    Run once per sync topology; the checksum records the shard-sync
    message/byte counts so the BENCH file documents the O(shards²)
    multicast vs O(shards) tree asymmetry at identical simulation results.

    The sync interval is pinned at 10 ms: at the default 2 ms, 16-shard
    multicast (15 peer vectors of ~2 KiB per shard per round) oversubscribes
    each shard's Fast-Ethernet NIC and the sync queues grow without bound —
    the very pathology that motivates the tree topology, but one that has
    to be dialled back for the multicast column to terminate at all.
    """
    from repro.experiments.common import run_nas
    from repro.runtime.config import ClusterConfig

    cfg = ClusterConfig().with_overrides(
        pb_cost_model="sparse", el_count=el_count, el_sync_strategy=strategy,
        el_sync_interval_s=10e-3,
    )
    result, _info = run_nas(
        bench, "A", nprocs, stack, iterations=iterations, config=cfg,
        app_kwargs={"inner": inner} if inner is not None else None,
    )
    probes = result.probes
    group = result.cluster.event_logger
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
        "sync_rounds": group.sync_rounds,
        "sync_messages": group.sync_messages,
        "sync_bytes": group.sync_bytes,
    }


def nas_fault(bench: str, nprocs: int, stack: str, iterations: int, kill_s: float):
    """Fig. 10 regime: kill rank 0 mid-run, recover from the EL, replay."""
    from repro.experiments.common import run_nas
    from repro.runtime.failure import OneShotFaults

    result, _info = run_nas(
        bench, "A", nprocs, stack, iterations=iterations,
        fault_plan=OneShotFaults([(kill_s, 0)]),
    )
    probes = result.probes
    recoveries = probes.recoveries
    return result.events_executed, {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "recoveries": len(recoveries),
        "events_collected": sum(r.events_collected for r in recoveries),
        "replayed": probes.total("replayed_receptions"),
        "result_fold": result_fold(result.results),
    }


def _el4_failover_config():
    """Shared config of the CG-256 infrastructure-fault scenarios: four EL
    shards (tree sync), failure domains, shard failover and the retry layer
    armed.  The fault-free reference runs the *same* config so the faulty
    runs can be checked for identical application results."""
    from repro.runtime.config import ClusterConfig

    return ClusterConfig().with_overrides(
        pb_cost_model="sparse",
        el_count=4,
        el_sync_strategy="tree",
        el_sync_interval_s=10e-3,
        el_failover=True,
        ckpt_server_failover=True,
        fault_domains=32,
        rpc_timeout_s=25e-3,
    )


def _infra_checksum(result) -> dict:
    """Checksum fields shared by the infrastructure-fault scenarios."""
    probes = result.probes
    return {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "messages": probes.total("app_messages_sent"),
        "recoveries": len(probes.recoveries),
        "replayed": probes.total("replayed_receptions"),
        "rpc_retries": probes.rpc_total("retries"),
        "rpc_timeouts": probes.rpc_total("timeouts"),
        "result_fold": result_fold(result.results),
    }


def nas_infra_fault(fault: str):
    """Robustness scenarios: CG-256 under infrastructure faults.

    One config (:func:`_el4_failover_config`), three fault regimes:

    * ``"storm"`` — a burst of two failure-domain kills (16 ranks) inside
      a 100 ms window, with restart-triggered cascade re-kills;
    * ``"shardloss"`` — EL shard 1 dies mid-run; survivors absorb its key
      range off disk and re-request unsynced determinants from creators;
    * ``"none"`` — the fault-free reference.

    Rank kills and shard kills stay in separate regimes on purpose: the
    simultaneous loss of a creator and its EL shard is out of scope (see
    docs/ARCHITECTURE.md).  Every faulty run must fold to the reference's
    ``result_fold`` — recovery that changes application results is a bug,
    not a slowdown.
    """
    from repro.experiments.common import run_nas
    from repro.runtime.failure import InfraFaults, StormFaults

    plan = {
        "storm": lambda: StormFaults(
            start_s=0.3, window_s=0.1, kills=2,
            cascade_p=0.5, cascade_delay_s=0.05, seed=1,
        ),
        "shardloss": lambda: InfraFaults(el_shard_kills=[(0.35, 1)]),
        "none": lambda: None,
    }[fault]()
    result, _info = run_nas(
        "cg", "A", 256, "vcausal", iterations=1,
        config=_el4_failover_config(), fault_plan=plan,
        app_kwargs={"inner": 3},
    )
    probes = result.probes
    checksum = _infra_checksum(result)
    checksum.update(
        el_failovers=probes.el_failovers,
        el_disk_recovered=probes.el_disk_records_recovered,
        el_relogged=probes.el_relogged_determinants,
    )
    return result.events_executed, checksum


def nas_ckpt_outage(fault: bool):
    """First checkpoint-server scenario: MG-16 (previously unbenchmarked)
    under coordinated checkpointing with a mid-run server outage.

    The server dies at 0.41 s with a full wave of image transfers in
    flight — every one of them aborts at delivery (transactional
    contract), the daemons back off and re-store after the 0.65 s
    restore, the scheduler skips ticks during the outage, and a rank
    killed after the restore recovers with results identical to the
    fault-free reference (``fault=False``).
    """
    from repro.experiments.common import run_nas
    from repro.runtime.config import ClusterConfig
    from repro.runtime.failure import CompositeFaults, InfraFaults, OneShotFaults

    cfg = ClusterConfig().with_overrides(
        ckpt_server_failover=True, rpc_timeout_s=25e-3
    )
    plan = None
    if fault:
        plan = CompositeFaults(plans=[
            InfraFaults(ckpt_outages=[(0.41, 0.65)]),
            OneShotFaults([(0.75, 3)]),
        ])
    result, _info = run_nas(
        "mg", "A", 16, "vcausal", iterations=3, config=cfg,
        checkpoint_policy="coordinated", checkpoint_interval_s=0.2,
        fault_plan=plan,
    )
    probes = result.probes
    checksum = _infra_checksum(result)
    checksum.update(
        ckpt_outages=probes.ckpt_outages,
        ckpt_stores_aborted=probes.ckpt_stores_aborted,
        ckpt_ticks_skipped=result.cluster.scheduler.ticks_skipped,
    )
    return result.events_executed, checksum


def result_fold(results: dict) -> int:
    """Deterministic checksum of the per-rank application results."""
    fold = 0
    for rank, value in sorted(results.items()):
        fold = (fold * 33 + rank * 7919 + int(value)) % 1_000_003
    return fold


def scenarios(quick: bool) -> dict:
    """Scenario name -> zero-arg callable.  Fixed sizes, fixed seeds."""
    if quick:
        return {
            "engine_chain": lambda: engine_chain(2, 2_000),
            "engine_fanout": lambda: engine_fanout(10_000),
            "engine_samestamp": lambda: engine_samestamp(40, 600, 8),
            "pingpong_vcausal_noel": lambda: pingpong("vcausal-noel", 100),
            "nas_cg8_vcausal_noel": lambda: nas("cg", 8, "vcausal-noel", 2),
            "nas_cg256_vcausal_sparse": lambda: nas_sparse(
                "cg", 256, "vcausal", 1, inner=3
            ),
            "nas_cg512_vcausal_sparse": lambda: nas_sparse(
                "cg", 512, "vcausal", 1, inner=1
            ),
            "nas_bt16_vcausal_sparse": lambda: nas_sparse("bt", 16, "vcausal", 1),
            "nas_sp16_vcausal_sparse": lambda: nas_sparse("sp", 16, "vcausal", 1),
            "nas_ft16_vcausal_sparse": lambda: nas_sparse("ft", 16, "vcausal", 1),
            "nas_cg8_vcausal_fault": lambda: nas_fault("cg", 8, "vcausal", 2, 0.25),
            "nas_lu16_el_saturation": lambda: nas_el_saturation(
                "lu", 16, "vcausal", 1
            ),
            "nas_cg256_el16_multicast": lambda: nas_sharded_el(
                "cg", 256, "vcausal", 1, 16, "multicast", inner=3
            ),
            "nas_cg256_el16_tree": lambda: nas_sharded_el(
                "cg", 256, "vcausal", 1, 16, "tree", inner=3
            ),
            # the quick variant drops to 64 ranks (LU has no inner-loop
            # truncation knob; 256-rank LU takes ~10 s)
            "nas_lu256_noel_worklist": lambda: nas_noel_scan(
                "lu", 64, "vcausal-noel", 1
            ),
            # the infrastructure-fault scenarios run at full size in quick
            # mode too: their checksums must exact-match the recorded BENCH
            # values, so the smoke test can pin them between full runs
            "nas_cg256_el4_storm": lambda: nas_infra_fault("storm"),
            "nas_cg256_el4_shardloss": lambda: nas_infra_fault("shardloss"),
            "nas_cg256_el4_reference": lambda: nas_infra_fault("none"),
            "nas_mg16_ckpt_outage": lambda: nas_ckpt_outage(fault=True),
            "nas_mg16_ckpt_reference": lambda: nas_ckpt_outage(fault=False),
        }
    return {
        "engine_chain": lambda: engine_chain(8, 25_000),
        "engine_fanout": lambda: engine_fanout(150_000),
        "engine_samestamp": lambda: engine_samestamp(80, 800, 8),
        "pingpong_vcausal_noel": lambda: pingpong("vcausal-noel", 2_000),
        "nas_cg16_vcausal_noel": lambda: nas("cg", 16, "vcausal-noel", 10),
        "nas_lu16_manetho_noel": lambda: nas("lu", 16, "manetho-noel", 6),
        "nas_cg256_vcausal_sparse": lambda: nas_sparse("cg", 256, "vcausal", 1),
        "nas_cg512_vcausal_sparse": lambda: nas_sparse(
            "cg", 512, "vcausal", 1, inner=3
        ),
        "nas_cg1024_vcausal_sparse": lambda: nas_sparse(
            "cg", 1024, "vcausal", 1, inner=1
        ),
        "nas_cg2048_vcausal_sparse": lambda: nas_sparse(
            "cg", 2048, "vcausal", 1, inner=1
        ),
        "nas_bt64_vcausal_sparse": lambda: nas_sparse("bt", 64, "vcausal", 1),
        "nas_sp64_vcausal_sparse": lambda: nas_sparse("sp", 64, "vcausal", 1),
        "nas_ft64_vcausal_sparse": lambda: nas_sparse("ft", 64, "vcausal", 1),
        "nas_cg8_vcausal_fault": lambda: nas_fault("cg", 8, "vcausal", 6, 0.75),
        "nas_lu16_el_saturation": lambda: nas_el_saturation("lu", 16, "vcausal", 6),
        "nas_cg256_el16_multicast": lambda: nas_sharded_el(
            "cg", 256, "vcausal", 1, 16, "multicast"
        ),
        "nas_cg256_el16_tree": lambda: nas_sharded_el(
            "cg", 256, "vcausal", 1, 16, "tree"
        ),
        "nas_lu256_noel_worklist": lambda: nas_noel_scan(
            "lu", 256, "vcausal-noel", 1
        ),
        "nas_cg256_el4_storm": lambda: nas_infra_fault("storm"),
        "nas_cg256_el4_shardloss": lambda: nas_infra_fault("shardloss"),
        "nas_cg256_el4_reference": lambda: nas_infra_fault("none"),
        "nas_mg16_ckpt_outage": lambda: nas_ckpt_outage(fault=True),
        "nas_mg16_ckpt_reference": lambda: nas_ckpt_outage(fault=False),
    }


# --------------------------------------------------------------------- #
# profiling

def profile_scenario(name: str, quick: bool, top: int = 20) -> int:
    """cProfile one scenario and print the ``top`` cumulative functions.

    The profile output is the before/after evidence future perf PRs
    should quote instead of guessing at hot paths.  Returns an exit code
    (2 on an unknown scenario name).
    """
    import cProfile
    import pstats

    scens = scenarios(quick)
    fn = scens.get(name)
    if fn is None:
        print(
            f"unknown scenario {name!r}; choose from: " + ", ".join(sorted(scens)),
            file=sys.stderr,
        )
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    events, _checksum = fn()
    profiler.disable()
    print(f"{name}: {events:,} simulated events ({'quick' if quick else 'full'} size)")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


# --------------------------------------------------------------------- #
# measurement

def measure(fn, repeats: int) -> dict:
    walls = []
    sim_events = None
    checksum = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        events, chk = fn()
        walls.append(time.perf_counter() - t0)
        if checksum is None:
            sim_events, checksum = events, chk
        elif chk != checksum:
            raise RuntimeError(f"nondeterministic scenario: {chk} != {checksum}")
    wall = min(walls)
    return {
        "wall_s": round(wall, 6),
        "wall_all_s": [round(w, 6) for w in walls],
        "sim_events": sim_events,
        "events_per_s": round(sim_events / wall, 1) if wall > 0 else None,
        "checksum": checksum,
    }


def run_all(quick: bool, repeats: int, verbose: bool = True, jobs: int = 1) -> dict:
    if jobs > 1:
        # one whole scenario per worker process: interleaved baseline
        # pairs stay in-process, collation is registry-ordered (see
        # benchmarks/perf/pool.py and docs/BENCHMARKING.md on when
        # parallel walls are comparable)
        from benchmarks.perf.pool import run_parallel

        return run_parallel(quick, repeats, jobs, verbose=verbose)
    out = {}
    for name, fn in scenarios(quick).items():
        out[name] = measure(fn, repeats)
        if verbose:
            r = out[name]
            print(
                f"{name:28s} {r['wall_s']:9.4f} s   "
                f"{r['events_per_s']:>12,.0f} ev/s   ({r['sim_events']:,} events)"
            )
    return out


def compare(results: dict, baseline: dict) -> dict:
    """Attach per-scenario speedups vs a recorded baseline run.

    Records measured under ``--jobs N>1`` are marked ``contended`` by
    the pool: their walls shared cores with other scenarios, so a
    vs-baseline speedup computed from them is core-sharing noise, not a
    code-change signal (BENCH_8 recorded engine_chain at 0.376x purely
    from contention).  Checksum comparison is wall-free and stays.
    """
    base_scen = baseline.get("scenarios", {})
    for name, r in results.items():
        b = base_scen.get(name)
        if b is None:
            r["baseline_wall_s"] = None
            r["speedup"] = None
            r["results_match_baseline"] = None
            continue
        r["baseline_wall_s"] = b["wall_s"]
        if r.get("contended"):
            r["speedup"] = None
        else:
            r["speedup"] = round(b["wall_s"] / r["wall_s"], 3) if r["wall_s"] else None
        r["results_match_baseline"] = r["checksum"] == b["checksum"]
    return results


def report_doc(
    results: dict,
    repeats: int,
    quick: bool,
    baseline_meta: dict | None,
    jobs: int = 1,
    sweep_wall_s: float | None = None,
) -> dict:
    return {
        "schema": "repro-bench-v1",
        "generated": datetime.datetime.now().isoformat(timespec="seconds"),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repeats": repeats,
        "quick": quick,
        # host-pool shape of this sweep: worker count and the whole
        # sweep's wall clock (the --jobs headline number; per-scenario
        # walls under jobs > 1 carry co-scheduling noise)
        "jobs": jobs,
        "sweep_wall_s": round(sweep_wall_s, 3) if sweep_wall_s is not None else None,
        "baseline": baseline_meta,
        "scenarios": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="tiny sizes, CI smoke mode")
    ap.add_argument("--repeats", type=int, default=None, help="repeats per scenario")
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; each runs whole scenarios (interleaved "
        "baseline pairs stay per-process), results are collated in "
        "registry order (see docs/BENCHMARKING.md)",
    )
    ap.add_argument(
        "--record-baseline",
        action="store_true",
        help=f"write the reference baseline to {BASELINE_PATH}",
    )
    ap.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    ap.add_argument(
        "--output",
        type=Path,
        default=None,
        help="BENCH json path (default: next unused BENCH_<n>.json at the "
        "repo root; quick mode writes none)",
    )
    ap.add_argument(
        "--check-docs",
        action="store_true",
        help="run no scenarios; fail if any BENCH_<n>.json at the repo root "
        "is not referenced in docs/BENCHMARKING.md",
    )
    ap.add_argument(
        "--check-static",
        action="store_true",
        help="run no scenarios; run the simlint determinism/hot-path gate "
        "(python -m tools.simlint src tools) and exit with its status",
    )
    ap.add_argument(
        "--profile",
        metavar="SCENARIO",
        default=None,
        help="cProfile one scenario (full size unless --quick) and print "
        "the top-20 cumulative functions instead of benchmarking",
    )
    args = ap.parse_args(argv)
    if args.check_static:
        # the determinism/hot-path lint gate (docs/ANALYSIS.md); run from
        # the repo root so pyproject's [tool.simlint] overlay is picked up
        proc = subprocess.run(
            [sys.executable, "-m", "tools.simlint", "src", "tools"],
            cwd=REPO_ROOT,
        )
        # ... plus: nothing under src/ may import multiprocessing at all
        offenders = check_multiprocessing_imports()
        if offenders:
            print(
                "multiprocessing imported under src/: " + ", ".join(offenders),
                file=sys.stderr,
            )
            return 1
        print("multiprocessing quarantine: nothing under src/ imports it")
        return proc.returncode
    if args.profile is not None:
        return profile_scenario(args.profile, args.quick)
    if args.check_docs:
        missing = check_docs()
        if missing:
            print(
                "BENCH files not referenced in docs/BENCHMARKING.md: "
                + ", ".join(missing),
                file=sys.stderr,
            )
            return 1
        print("all BENCH_<n>.json files are referenced in docs/BENCHMARKING.md")
        return 0
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    repeats = max(1, repeats)
    jobs = max(1, args.jobs)

    sweep_t0 = time.perf_counter()
    results = run_all(args.quick, repeats, jobs=jobs)
    sweep_wall_s = time.perf_counter() - sweep_t0

    if args.record_baseline:
        if args.quick:
            print("refusing to record a baseline from a --quick run", file=sys.stderr)
            return 2
        doc = report_doc(
            results, repeats, args.quick, baseline_meta=None,
            jobs=jobs, sweep_wall_s=sweep_wall_s,
        )
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline recorded -> {args.baseline}")
        return 0

    baseline_meta = None
    # quick mode shrinks every scenario, so checksums/walls are not
    # comparable to the full-size recorded baseline
    if not args.quick and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        compare(results, baseline)
        baseline_meta = {
            "path": str(args.baseline.relative_to(REPO_ROOT)),
            "generated": baseline.get("generated"),
        }
        for name, r in results.items():
            if r.get("speedup") is not None:
                match = "ok" if r["results_match_baseline"] else "MISMATCH"
                print(f"{name:28s} speedup {r['speedup']:5.2f}x   results {match}")

    output = args.output
    if output is None and not args.quick:
        output = next_output_path()
    if output is not None:
        doc = report_doc(
            results, repeats, args.quick, baseline_meta,
            jobs=jobs, sweep_wall_s=sweep_wall_s,
        )
        output.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"report -> {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
