"""Fig. 10 — time to recover the events to replay at restart.

"During the run of the benchmark, process of rank zero is killed at the
middle of its correct execution time and then restarted."  The reported
quantity is the *event collection* phase of recovery: with an Event Logger
one bulk request to one stable server; without, a request to every other
computing node and the union of their volatile causal information.

Shapes: EL collection is 10-20 % of the no-EL time and nearly flat in the
process count; no-EL grows steeply (more sources, more duplicated volume,
RX contention at the restarting node).
"""

from __future__ import annotations

from repro.experiments.common import Cells, run_nas
from repro.metrics.reporting import format_table
from repro.runtime.failure import OneShotFaults

#: paper Fig. 10 values (milliseconds)
PAPER_MS = {
    ("bt", "A"): {
        "procs": (4, 9, 16, 25),
        "with EL": (9.608, 16.592, 21.168, 32.364),
        "without EL": (32.475, 97.253, 183.531, 330.857),
    },
    ("cg", "B"): {
        "procs": (2, 4, 8, 16),
        "with EL": (78.681, 81.699, 93.266, 92.835),
        "without EL": (80.75, 118.579, 510.867, 832.226),
    },
    ("lu", "A"): {
        "procs": (2, 4, 8, 16),
        "with EL": (37.588, 76.813, 58.616, 42.59),
        "without EL": (42.537, 219.121, 360.208, 505.52),
    },
}

#: iteration counts used per benchmark (longer than the other figures so
#: that a realistic number of determinants has accumulated by the kill)
RECOVERY_ITERATIONS = {"bt": 80, "cg": 6, "lu": 8}
FAST_RECOVERY_ITERATIONS = {"bt": 24, "cg": 3, "lu": 4}


def _measure(bench: str, klass: str, nprocs: int, stack: str, iters: int) -> dict:
    # 1) fault-free run to find the correct execution time
    base, _ = run_nas(bench, klass, nprocs, stack, iterations=iters)
    # 2) kill rank 0 in the middle of it
    plan = OneShotFaults([(base.sim_time / 2.0, 0)])
    result, _ = run_nas(
        bench, klass, nprocs, stack, iterations=iters, fault_plan=plan
    )
    if not result.probes.recoveries:
        raise RuntimeError(
            f"{bench} {klass} P={nprocs} stack={stack}: no recovery episode recorded"
        )
    rec = result.probes.recoveries[0]
    return {
        "collection_ms": rec.event_collection_s * 1e3,
        "events": rec.events_collected,
        "sources": rec.event_sources,
        "bytes": rec.collection_bytes,
        "faulty_time_s": result.sim_time,
        "fault_free_time_s": base.sim_time,
    }


def run(fast: bool, cell: Cells) -> dict:
    iters_map = FAST_RECOVERY_ITERATIONS if fast else RECOVERY_ITERATIONS
    out: dict[tuple[str, str, int, str], dict] = {}
    for (bench, klass), spec in PAPER_MS.items():
        iters = iters_map[bench]
        for nprocs in spec["procs"]:
            if fast and nprocs > 16:
                continue
            for stack, label in (("vcausal", "with EL"), ("vcausal-noel", "without EL")):
                out[(bench, klass, nprocs, label)] = _measure(
                    bench, klass, nprocs, stack, iters
                )
    return {"recovery": out}


def table(results: dict) -> str:
    rows = []
    for (bench, klass, nprocs, label), cell in results["recovery"].items():
        spec = PAPER_MS[(bench, klass)]
        try:
            paper = spec[label][spec["procs"].index(nprocs)]
        except (ValueError, KeyError):
            paper = float("nan")
        rows.append(
            [
                f"{bench.upper()} {klass}",
                nprocs,
                label,
                f"{cell['collection_ms']:.3f}",
                f"{paper:.3f}",
                cell["events"],
                cell["sources"],
            ]
        )
    return format_table(
        ["bench", "P", "mode", "collect (ms, model)", "collect (ms, paper)",
         "events", "sources"],
        rows,
        title="Fig. 10 — time to recover the events to replay (rank 0 killed mid-run)",
    )


def shapes(results: dict) -> list[str]:
    """Every restart collects events; the EL's one-server collection beats
    the peers' from 4 processes on; the peers' grows with the process count."""
    rec = results["recovery"]
    violations = [
        f"{key}: no events collected" for key, c in rec.items() if not c["events"] > 0
    ]
    for (bench, klass, nprocs, label), cell in rec.items():
        if label != "with EL" or nprocs < 4:
            continue
        other = rec[(bench, klass, nprocs, "without EL")]
        key = f"{bench.upper()} {klass}/{nprocs}"
        if not cell["collection_ms"] < other["collection_ms"]:
            violations.append(f"{key}: EL collection not faster than the peers'")
        if not (cell["sources"] == 1 and other["sources"] == nprocs - 1):
            violations.append(f"{key}: wrong number of event sources")
    for bench, klass in PAPER_MS:
        series = [
            cell["collection_ms"]
            for (b, k, p, label), cell in sorted(rec.items())
            if b == bench and k == klass and label == "without EL"
        ]
        if series != sorted(series):
            violations.append(f"{bench.upper()} {klass}: peer collection shrank with P")
    return violations
