"""The sweep over all workloads, its report, and ``--compare``.

A sweep runs one workload at a time, each in a fresh subprocess of this
same command (``--workload``), so every workload starts from the same
cold state and ``peak_rss_mb`` is its own.  There is no process pool and
no ``--jobs``: a wall measured beside another busy process is not a
measurement (the lesson of the pooled ``BENCH_8``/``BENCH_9`` recordings).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import layers, measure, workloads

ROOT = measure.ROOT

#: printed by every sweep beside the host-time numbers, compared exactly:
#: they are either right or the model moved.  They are not in
#: ``BENCHMARK.json`` because they are 0 (or defined for one workload
#: only); a moved value fails the workload's pin instead.
EXACT = {
    "failed_share": "ratio",
    "fig6_latency_err_pct": "%",
    "fig7_pb_geo_err": "x",
}

#: a set-up of a few milliseconds may move by this much before the
#: relative bound applies
SETUP_FLOOR_S = 0.02


def _load1() -> float:
    return os.getloadavg()[0]


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child(name: str, args, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; returns (printed result,
    detail file)."""
    cmd = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace), "--layers", "0",
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: exit {done.returncode}")
    printed = json.loads(done.stdout.strip().splitlines()[-1])
    kind = "trace" if trace else "e2e"
    detail = json.loads((measure.OUT_DIR / f"{kind}-{name}.json").read_text())
    return printed, detail


def _measure_all(args, spec: dict) -> dict:
    """Every workload, ``--rounds`` times round-robin, samples pooled.

    Round-robin so that a workload's samples lie minutes apart and span
    the host's slow and quiet spells; the traced run rides on round one.
    """
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows: dict = {}
    for round_no in range(args.rounds):
        for entry in spec["workloads"]:
            name = entry["name"]
            print(f"round {round_no + 1}/{args.rounds}: {name}", file=sys.stderr, flush=True)
            printed, detail = _child(name, args, trace=0)
            row = rows.setdefault(name, {
                "attempted": 0, "failed": 0, "failures": [], "pinned": detail["pinned"],
                "checksum": detail["checksum"], "values": {},
            })
            if args.trace and round_no == 0:
                traced, tdetail = _child(name, args, trace=1)
                printed = {k: printed[k] + traced[k] for k in ("attempted", "failed")}
                detail["failures"] += tdetail["failures"]
                row["per_layer"] = {k: v[0] for k, v in tdetail["metrics"].items()}
            row["attempted"] += printed["attempted"]
            row["failed"] += printed["failed"]
            row["failures"] += detail["failures"]
            if detail["checksum"] != row["checksum"]:
                row["failed"] += 1
                row["failures"].append(f"checksum changed in round {round_no + 1}")
            for metric, sample in detail["samples"].items():
                row["values"].setdefault(metric, []).extend(sample["values"])
    for row in rows.values():
        row["end_to_end"] = {
            metric: measure.summary(values, better[metric])
            for metric, values in row.pop("values").items()
        }
        exact = {"failed_share": row["failed"] / row["attempted"]}
        exact |= {k: v for k, v in (row["checksum"] or {}).items() if k in EXACT}
        for key, value in exact.items():
            row["end_to_end"][key] = measure.summary([value])
    return rows


def sweep(args) -> int:
    spec = measure.spec()
    cores = os.cpu_count() or 1
    cpu = measure.pin_cpu()
    doc = {
        "schema": "repro-e2e-v1",
        "host_cores": cores,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "pinned_cpu": cpu,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "rounds": args.rounds,
        "load1_before": _load1(),
    }
    doc["workloads"] = _measure_all(args, spec)
    for name, row in doc["workloads"].items():
        _print_workload(name, row, spec)
    if args.layers:
        from benchmarks.e2e import probes

        doc["layer_probes"] = {
            k: v if v == probes.ABSENT else v[0]
            for k, v in probes.run(smoke=args.smoke, optional=True).items()
        }
        print("\ndirect layer probes (best of 3, GC off):")
        for key, value in _fmt_probes(doc["layer_probes"]):
            print(f"  {key:34s} {value}")
    doc["load1_after"] = _load1()
    # the sweep itself keeps one CPU busy, which the 1-min load counts
    doc["contended"] = (
        doc["load1_before"] > cores / 2 or doc["load1_after"] - 1.0 > cores / 2
    )
    out = args.output or measure.OUT_DIR / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(
        f"\nhost: {cores} cores, pinned to CPU {cpu}, load {doc['load1_before']:.2f} -> "
        f"{doc['load1_after']:.2f}, contended: {str(doc['contended']).lower()}"
    )
    print(f"report: {out}")
    failed = sum(row["failed"] for row in doc["workloads"].values())
    if failed:
        print(f"{failed} failed operations", file=sys.stderr)
        return 1
    if doc["contended"] and not args.force:
        print("host was contended: timings are not measurements (--force to accept)",
              file=sys.stderr)
        return 3
    return 0


def _print_workload(name: str, row: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXACT
    print(f"\n{name}  ({row['attempted']} runs attempted, {row['failed']} failed, "
          f"{'pinned' if row['pinned'] else 'unpinned seed: verified by run-twice + fold'})")
    for metric in units:
        s = row["end_to_end"].get(metric)
        if s is None:
            continue
        print(f"  {metric:22s} {s['median']:14.6g} {units[metric]:5s} "
              f"[min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}]")
    per_layer = row.get("per_layer")
    if per_layer:
        print(f"  {'layer':12s} {'self_s':>9s} {'share':>7s} {'calls':>10s}")
        for layer in layers.LAYERS:
            print(f"  {layer:12s} {per_layer[f'{layer}.self_s']:9.3f} "
                  f"{per_layer[f'{layer}.share']:7.1%} {per_layer[f'{layer}.calls']:10d}")
        layer_rows = {f"{layer}.{col}" for layer in layers.LAYERS
                      for col in ("self_s", "share", "calls")}
        for key in sorted(set(per_layer) - layer_rows):
            print(f"  {key:30s} {per_layer[key]:.6g}")


def _fmt_probes(values: dict):
    for key in sorted(values):
        v = values[key]
        yield key, v if isinstance(v, str) else f"{v:.6g}"


# --------------------------------------------------------------------- #
# pins


def record_pins(seeds: list[int], smoke_only: bool = False) -> int:
    """Record ``pins.json``: per size, workload and seed the checksum of
    one pass; seeds that all agree collapse to ``"*"``.  ``smoke_only``
    re-records the seconds-sized pins and keeps the full-size ones."""
    spec = measure.spec()
    pins: dict = {"full": measure.load_pins().get("full", {})} if smoke_only else {}
    for size in ("smoke",) if smoke_only else ("smoke", "full"):
        for entry in spec["workloads"]:
            name = entry["name"]
            ops = workloads.ops_of(name, smoke=size == "smoke")
            recorded = {}
            for seed in seeds:
                done = workloads.run_pass(ops, seed)
                if done.failures:
                    print(f"{size} {name} seed {seed}: {done.failures}", file=sys.stderr)
                    return 1
                recorded[str(seed)] = done.checksum
                print(f"{size} {name} seed {seed}: {done.checksum}")
            first = next(iter(recorded.values()))
            if all(chk == first for chk in recorded.values()):
                recorded = {"*": first}
            pin = {"seeds": recorded}
            if any(op.storm for op in ops):
                ref = workloads.run_pass(workloads.fault_free(ops), seeds[0])
                pin["fault_free_fold"] = ref.checksum["result_fold"]
            pins.setdefault(size, {})[name] = pin
    measure.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {measure.PINS_PATH}")
    return 0


# --------------------------------------------------------------------- #
# compare


def _verdict(a: dict, b: dict, better: str, bound: float, floor: float = 0.0) -> tuple[str, float]:
    """``ok`` / ``regressed`` / ``unresolved`` for one (metric, workload).

    ``worse`` is how far B's median is on the wrong side of A's, as a
    share of A's.  When either report's own min-max range is wider than
    the bound the medians cannot resolve a difference of that size: the
    row is ``unresolved`` unless every B sample beats every A sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse = sign * (b["median"] - a["median"]) / base
    allowed = max(bound, floor / base)
    spread = max((s["max"] - s["min"]) / (abs(s["median"]) or 1.0) for s in (a, b))
    if spread > allowed and bound > 0:
        b_wins = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
        return ("ok" if b_wins else "unresolved"), worse
    return ("regressed" if worse > allowed else "ok"), worse


def compare(path_a: Path, path_b: Path) -> int:
    """Apply the bounds of ``BENCHMARK.json`` per (metric, workload) to
    two sweep reports; non-zero on a regression, a higher
    ``failed_share``, or a model counter or traced call count that moved."""
    spec = measure.spec()
    a_doc, b_doc = (json.loads(p.read_text()) for p in (path_a, path_b))
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules |= {name: ("lower", 0.0) for name in EXACT}
    bad = 0
    print(f"{'workload':20s} {'metric':22s} {'A':>12s} {'B':>12s} {'worse':>8s} {'bound':>6s}  verdict")
    for name, a_row in a_doc["workloads"].items():
        b_row = b_doc["workloads"].get(name)
        if b_row is None:
            print(f"{name:20s} missing from {path_b}")
            bad += 1
            continue
        for metric, (better, bound) in rules.items():
            a, b = a_row["end_to_end"].get(metric), b_row["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            floor = SETUP_FLOOR_S if metric == "setup_s" else 0.0
            verdict, worse = _verdict(a, b, better, bound, floor)
            bad += verdict == "regressed"
            print(f"{name:20s} {metric:22s} {a['median']:12.6g} {b['median']:12.6g} "
                  f"{worse:+8.1%} {bound:6.0%}  {verdict}")
        moved = [
            key for key, value in (a_row.get("per_layer") or {}).items()
            if (key.startswith("model.") or key.endswith("calls"))
            and (b_row.get("per_layer") or {}).get(key, value) != value
        ]
        if a_row["checksum"] != b_row["checksum"]:
            moved.append("checksum")
        if moved:
            bad += 1
            print(f"{name:20s} exact counters moved: {moved}")
    print("regressions: " + str(bad))
    return 1 if bad else 0
