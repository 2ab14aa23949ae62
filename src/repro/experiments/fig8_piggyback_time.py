"""Fig. 8 — time to manage piggyback information.

(8a) cumulative per-process time to prepare causality information when
sending (dashed in the paper) and to merge received causality when
receiving (plain), for BT, CG, LU and FT class A;

(8b) the same cost as a percentage of total execution time.
"""

from __future__ import annotations

from repro.experiments.common import Cells
from repro.experiments.fig7_piggyback_size import PROC_COUNTS as FIG7_COUNTS, STACKS
from repro.metrics.reporting import format_table
from repro.runtime.cluster import RunResult

#: paper Fig. 8(b): causality computation cost in % of execution time
PAPER_PCT = {
    ("bt", 4): {"vcausal": 0.0, "manetho": 0.0, "logon": 0.0,
                "vcausal-noel": 0.2, "manetho-noel": 0.7, "logon-noel": 0.2},
    ("bt", 9): {"vcausal": 0.2, "manetho": 0.3, "logon": 0.3,
                "vcausal-noel": 1.6, "manetho-noel": 3.0, "logon-noel": 2.6},
    ("bt", 16): {"vcausal": 0.7, "manetho": 1.3, "logon": 1.2,
                 "vcausal-noel": 7.8, "manetho-noel": 11.8, "logon-noel": 12.5},
    ("cg", 2): {"vcausal": 0.0, "manetho": 0.0, "logon": 0.1,
                "vcausal-noel": 0.2, "manetho-noel": 1.7, "logon-noel": 0.3},
    ("cg", 4): {"vcausal": 0.1, "manetho": 0.3, "logon": 0.3,
                "vcausal-noel": 1.0, "manetho-noel": 5.1, "logon-noel": 1.0},
    ("cg", 8): {"vcausal": 1.0, "manetho": 2.5, "logon": 1.6,
                "vcausal-noel": 6.8, "manetho-noel": 15.0, "logon-noel": 11.2},
    ("cg", 16): {"vcausal": 2.4, "manetho": 6.6, "logon": 4.0,
                 "vcausal-noel": 18.0, "manetho-noel": 26.1, "logon-noel": 25.6},
    ("lu", 2): {"vcausal": 0.0, "manetho": 0.0, "logon": 0.0,
                "vcausal-noel": 0.5, "manetho-noel": 0.7, "logon-noel": 0.5},
    ("lu", 4): {"vcausal": 0.2, "manetho": 0.4, "logon": 0.4,
                "vcausal-noel": 2.9, "manetho-noel": 3.8, "logon-noel": 3.8},
    ("lu", 8): {"vcausal": 0.9, "manetho": 1.6, "logon": 1.4,
                "vcausal-noel": 9.9, "manetho-noel": 12.2, "logon-noel": 15.0},
    ("lu", 16): {"vcausal": 10.6, "manetho": 19.1, "logon": 13.5,
                 "vcausal-noel": 26.0, "manetho-noel": 30.2, "logon-noel": 41.5},
    ("ft", 2): {"vcausal": 0.0, "manetho": 0.0, "logon": 0.0,
                "vcausal-noel": 0.0, "manetho-noel": 0.0, "logon-noel": 0.0},
    ("ft", 4): {"vcausal": 0.0, "manetho": 0.0, "logon": 0.0,
                "vcausal-noel": 0.0, "manetho-noel": 0.0, "logon-noel": 0.0},
    ("ft", 8): {"vcausal": 0.0, "manetho": 0.1, "logon": 0.0,
                "vcausal-noel": 0.1, "manetho-noel": 0.2, "logon-noel": 0.1},
    ("ft", 16): {"vcausal": 0.3, "manetho": 0.6, "logon": 0.4,
                 "vcausal-noel": 2.2, "manetho-noel": 5.2, "logon-noel": 1.8},
}

#: Fig. 7's grid plus FT
PROC_COUNTS = {**FIG7_COUNTS, "ft": (2, 4, 8, 16)}


def pb_percent_of_exec(result: RunResult) -> float:
    """Piggyback management time in percent of execution time (per process,
    the Fig. 8(b) metric)."""
    if result.sim_time <= 0:
        return 0.0
    per_proc = result.probes.pb_total_time_s / result.nprocs
    return 100.0 * per_proc / result.sim_time


def run(fast: bool, cell: Cells) -> dict:
    times: dict[tuple[str, int], dict[str, tuple[float, float]]] = {}
    pct: dict[tuple[str, int], dict[str, float]] = {}
    for bench, counts in PROC_COUNTS.items():
        for nprocs in counts:
            t_cell = times[(bench, nprocs)] = {}
            p_cell = pct[(bench, nprocs)] = {}
            for stack in STACKS:
                result = cell(bench, "A", nprocs, stack, fast)
                probes = result.probes
                t_cell[stack] = (
                    probes.pb_send_time_s / nprocs,
                    probes.pb_recv_time_s / nprocs,
                )
                p_cell[stack] = pb_percent_of_exec(result)
    return {"times_s": times, "pct": pct}


def table(results: dict) -> str:
    rows_a = []
    for (bench, nprocs), cell in results["times_s"].items():
        for stack in STACKS:
            send_s, recv_s = cell[stack]
            rows_a.append(
                [bench.upper(), nprocs, stack, f"{send_s:.4f}", f"{recv_s:.4f}"]
            )
    table_a = format_table(
        ["bench", "P", "stack", "send time (s)", "recv time (s)"],
        rows_a,
        title="Fig. 8(a) — per-process cumulative piggyback management time",
    )
    rows_b = []
    for (bench, nprocs), cell in results["pct"].items():
        paper = PAPER_PCT.get((bench, nprocs), {})
        rows_b.append(
            [bench.upper(), nprocs]
            + [f"{cell[s]:.1f} ({paper.get(s, float('nan')):.1f})" for s in STACKS]
        )
    table_b = format_table(
        ["bench", "P"] + list(STACKS),
        rows_b,
        title="Fig. 8(b) — piggyback cost in % of execution time  [model (paper)]",
    )
    return table_a + "\n\n" + table_b


def shapes(results: dict) -> list[str]:
    """The EL never raises the cost; Vcausal's scan is the cheapest
    technique without it (LU and CG at 16 processes)."""
    pct = results["pct"]
    violations = [
        f"{key}: the EL raised {proto}'s piggyback cost"
        for key, cell in pct.items()
        for proto in ("vcausal", "manetho", "logon")
        if not cell[proto] <= cell[f"{proto}-noel"] + 1e-9
    ]
    for bench in ("lu", "cg"):
        cell = pct[(bench, 16)]
        for other in ("manetho-noel", "logon-noel"):
            if not cell["vcausal-noel"] <= cell[other]:
                violations.append(f"{bench}/16: vcausal-noel cost more than {other}")
    return violations
