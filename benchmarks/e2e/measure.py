"""Measuring one workload in this process: end-to-end, and traced.

Load model: a batch simulator, so a closed loop with one client — one
workload pass at a time, single-threaded, in a process pinned to one CPU.
``gc.collect()`` runs before every pass.  A seconds-sized warm-up pass of
the same workload runs first and is not timed, then full-size passes run
until ``seconds`` of measuring have elapsed.  Timings are medians with
min/max and the sample count; there are too few samples in a run for a
tail percentile, and the output says so by giving ``n``.  The median is
the *low* median — with an even count the lower of the two middle
samples — so every reported time is one that was measured, and with the
two passes a 7 s workload gets it is the quieter one: slowdowns from
other tenants of the host are one-sided.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import time
from pathlib import Path
from typing import Optional

from benchmarks.e2e import layers, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
PINS_PATH = HERE / "pins.json"

#: set-up (``make_app`` + ``Cluster(...)``) is milliseconds, so it is
#: repeated on its own this many times and reported as a median
SETUP_REPEATS = 30

#: checksum key -> ``model.*`` metric; all exact and inside the pins
MODEL = {
    "sim_time": ("model.sim_time_s", "s"),
    "events": ("model.events", "count"),
    "pb_bytes": ("model.pb_bytes", "B"),
    "pb_events": ("model.pb_events", "count"),
    "seqs_scanned": ("model.seqs_scanned", "count"),
    "el_stored": ("model.el_stored", "count"),
    "el_peak_queue": ("model.el_peak_queue", "count"),
    "recoveries": ("model.recoveries", "count"),
    "replayed": ("model.replayed", "count"),
    "rpc_retries": ("model.rpc_retries", "count"),
    "sync_messages": ("model.sync_messages", "count"),
}


def spec() -> dict:
    """``BENCHMARK.json``: names, units and bounds live there only."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def pin_cpu() -> Optional[int]:
    """Pin this process (and its children) to one CPU; the last one the
    process may use, because CPU 0 also serves the host's interrupts."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def pin_for(pins: dict, size: str, name: str, seed: int) -> Optional[dict]:
    """The pinned checksum of (size, workload, seed); ``"*"`` holds a
    workload whose recorded seeds all gave the same checksum."""
    seeds = pins.get(size, {}).get(name, {}).get("seeds", {})
    return seeds.get(str(seed), seeds.get("*"))


class Verifier:
    """Counts attempted and failed cluster runs of one workload.

    A run fails on an exception or an unfinished cluster (reported by the
    pass), on a checksum that differs from its pin or from the previous
    pass of the same inputs, and — under faults — on application results
    that do not fold to the fault-free run's.
    """

    def __init__(self, pins: dict, size: str, name: str, seed: int):
        self.pin = pin_for(pins, size, name, seed)
        self.fold = pins.get(size, {}).get(name, {}).get("fault_free_fold")
        self.first: Optional[dict] = None
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def pinned(self) -> bool:
        return self.pin is not None

    def check(self, done: workloads.Pass) -> None:
        self.attempted += done.attempted
        self.failures += done.failures
        chk = done.checksum
        if self.pin is not None and chk != self.pin:
            diff = {k: (chk.get(k), self.pin.get(k))
                    for k in sorted(set(chk) | set(self.pin)) if chk.get(k) != self.pin.get(k)}
            self.failures.append(f"checksum != pin: {diff}")
        if self.first is None:
            self.first = chk
        elif chk != self.first:
            self.failures.append("checksum diverged between repeats")
        if self.fold is not None and chk.get("result_fold") != self.fold:
            self.failures.append(
                f"result_fold {chk.get('result_fold')} != fault-free {self.fold}"
            )


def summary(samples: list[float], better: str = "lower") -> dict:
    middle = statistics.median_low if better == "lower" else statistics.median_high
    return {
        "median": middle(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "values": samples,
    }


class _Session:
    """What both kinds of measurement share: the pins, the verified
    smoke-sized warm-up, the workload's runs and their verifier."""

    def __init__(self, name: str, seed: int, smoke: bool):
        pins = load_pins()
        self.name, self.seed = name, seed
        self.size = "smoke" if smoke else "full"
        self.ops = workloads.ops_of(name, smoke)
        self.warm = Verifier(pins, "smoke", name, seed)
        if not smoke:  # a smoke-sized measurement is its own warm-up
            self.one_pass(workloads.ops_of(name, smoke=True), self.warm)
        self.verifier = Verifier(pins, self.size, name, seed)

    def one_pass(self, ops=None, verifier=None, spans=False) -> workloads.Pass:
        gc.collect()
        done = workloads.run_pass(ops or self.ops, self.seed, spans=spans)
        (verifier or self.verifier).check(done)
        return done

    def result(self, **fields) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "size": self.size,
            "pinned": self.verifier.pinned,
            "attempted": self.verifier.attempted + self.warm.attempted,
            "failures": self.verifier.failures + self.warm.failures,
            "checksum": self.verifier.first or {},
            **fields,
        }


def measure(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    run = _Session(name, seed, smoke)
    walls: list[float] = []
    setups: list[float] = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            gc.collect()
            t0 = time.perf_counter()
            built = [workloads.build(op, seed) for op in run.ops]
            setups.append(time.perf_counter() - t0)
            del built

    # half of the set-up repeats before the passes and half after, so the
    # median spans the whole run and not one burst of host noise
    time_setups(SETUP_REPEATS // 2)
    started = time.perf_counter()
    # an unpinned seed is verified by running its inputs twice
    while (
        not walls
        or time.perf_counter() - started < seconds
        or (not run.verifier.pinned and len(walls) < 2)
    ):
        done = run.one_pass()
        walls.append(done.wall_s)
        setups.append(done.setup_s)
    time_setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    messages = (run.verifier.first or {}).get("messages", 0)
    rss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    return run.result(samples={
        "wall_s": summary(walls),
        "msgs_per_s": summary([messages / w for w in walls], better="higher"),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([rss]),
    })


def trace(name: str, seed: int, import_span: tuple[float, float], smoke: bool = False) -> dict:
    """Per-layer metrics of one workload: one untraced pass for the
    overhead ratio, then one pass under ``cProfile`` with explicit spans
    around the calls the benchmark makes into ``repro``."""
    run = _Session(name, seed, smoke)
    plain = run.one_pass()
    profiler = cProfile.Profile()
    gc.collect()
    profiler.enable()
    traced = workloads.run_pass(run.ops, seed, spans=True)
    profiler.disable()
    run.verifier.check(traced)
    fold = layers.fold_profile(pstats.Stats(profiler))
    chk = run.verifier.first or {}
    metrics: dict[str, tuple[float, str]] = {}
    total = fold["total_s"] or 1.0
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (fold["self_s"][layer], "s")
        metrics[f"{layer}.share"] = (fold["self_s"][layer] / total, "ratio")
        metrics[f"{layer}.calls"] = (fold["calls"][layer], "count")
    for stem, (cum_s, ncalls) in fold["hooks"].items():
        metrics[f"{stem}_s"] = (cum_s, "s")
        metrics[f"{stem}_calls"] = (ncalls, "count")
    metrics["engine.run_s"] = (fold["engine_run_s"], "s")
    metrics["engine.events_per_s"] = (chk.get("events", 0) / plain.wall_s, "1/s")
    metrics["trace.unattributed_share"] = (fold["unattributed_s"] / total, "ratio")
    metrics["trace_overhead_ratio"] = (traced.wall_s / plain.wall_s, "ratio")
    metrics["cluster.import_s"] = (import_span[1] - import_span[0], "s")
    for key, (metric, unit) in MODEL.items():
        metrics[metric] = (chk.get(key, 0), unit)
    return run.result(
        untraced_wall_s=plain.wall_s,
        traced_wall_s=traced.wall_s,
        metrics=metrics,
        spans=_spans(traced, import_span, run_id=f"{name}:{seed}"),
    )


def _spans(done: workloads.Pass, import_span, run_id: str) -> list[dict]:
    """``{name, start, end, parent, run_id}`` records, parents first: the
    import of ``repro``, then one ``op`` span per cluster run with its four
    calls beneath it (``parent`` is an index into this list)."""
    out: list[dict] = [{"name": "import", "start": import_span[0],
                        "end": import_span[1], "parent": None, "run_id": run_id}]
    for label, stamps in done.spans:
        parent = len(out)
        out.append({"name": f"op:{label}", "start": stamps[0][1],
                    "end": stamps[-1][2], "parent": None, "run_id": run_id})
        out += [
            {"name": call, "start": start, "end": end, "parent": parent, "run_id": run_id}
            for call, start, end in stamps
        ]
    return out


def write_json(name: str, doc: dict) -> Path:
    """Reports and traces stay inside the benchmark's own directory."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
