"""``python3 -m benchmarks.e2e`` — the repo benchmark's one command.

With ``--workload`` it measures that workload in this process and prints
one JSON object as its last line (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics).  Without it, it sweeps all six
workloads, each in a fresh pinned subprocess, and prints and writes a
report; ``--trace`` adds a traced run per workload, ``--layers`` the
direct layer probes.  ``--compare A.json B.json`` applies the regression
bounds to two reports; ``--record-pins`` rewrites ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _flag(value: str) -> int:
    if value not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return int(value)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e", description=__doc__)
    ap.add_argument("--workload", help="measure this one workload in-process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="measuring time per workload")
    ap.add_argument("--trace", type=_flag, nargs="?", const=1, default=0)
    ap.add_argument("--layers", type=_flag, nargs="?", const=1, default=None,
                    help="direct layer probes (default: on with --workload --trace 1)")
    ap.add_argument("--smoke", action="store_true", help="seconds-sized inputs")
    ap.add_argument("--rounds", type=int, default=1,
                    help="sweep: measure every workload this many times, round-robin")
    ap.add_argument("--force", action="store_true",
                    help="exit 0 from a sweep even when the host was contended")
    ap.add_argument("--output", type=Path, help="where a sweep writes its report")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    ap.add_argument("--record-pins", action="store_true")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-7"),
                    help="seed range --record-pins records, e.g. 0-7")
    return ap.parse_args(argv)


def one_workload(args, measure, import_span: tuple[float, float]) -> int:
    """Contract mode: measure, write the detail file, print the result."""
    cpu = measure.pin_cpu()
    spec = measure.spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.trace:
        doc = measure.trace(args.workload, args.seed, import_span, smoke=args.smoke)
        if args.layers is None or args.layers:
            from benchmarks.e2e import probes

            doc["metrics"].update(probes.run(smoke=args.smoke))
        metrics = doc["metrics"]
        wanted = [m["name"] for m in spec["per_layer"]]
        kind = "trace"
    else:
        doc = measure.measure(args.workload, args.seed, seconds, smoke=args.smoke)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {k: (v["median"], units[k]) for k, v in doc["samples"].items()}
        wanted = list(units)
        kind = "e2e"
    doc["pinned_cpu"] = cpu
    path = measure.write_json(f"{kind}-{args.workload}.json", doc)
    for failure in doc["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    print(f"{args.workload}: {kind} detail in {path.relative_to(ROOT)}")
    missing = [name for name in wanted if name not in metrics]
    if missing and args.layers != 0:  # --layers 0 leaves the probes out on purpose
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not doc["failures"],
        "attempted": doc["attempted"],
        "failed": len(doc["failures"]),
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted if name in metrics
        },
    }))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.compare:
        from benchmarks.e2e import report

        return report.compare(*args.compare)
    t0 = time.perf_counter()
    from benchmarks.e2e import measure  # pulls in repro's public API
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"repro comes from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload:
        return one_workload(args, measure, (t0, time.perf_counter()))
    from benchmarks.e2e import report

    if args.record_pins:
        return report.record_pins(args.seeds, smoke_only=args.smoke)
    return report.sweep(args)


if __name__ == "__main__":
    sys.exit(main())
