"""Fig. 1 — fault resilience: slowdown vs fault frequency on NAS BT, 25 nodes.

Compares coordinated checkpointing (Chandy-Lamport), pessimistic message
logging and causal message logging under increasing fault frequency.  The
y-axis is the execution time with faults relative to the fault-free
execution time (percent).  The paper's headline: coordinated checkpointing
hits a vertical slope (no progress) at high fault frequency because every
fault rolls **all** processes back to the last coordinated line, while
message logging restarts only the crashed process.

Time compression
----------------
The paper's runs last tens of minutes so that even 1/6 fault·min⁻¹ yields
several faults.  Simulating that literally is wasteful: what determines the
curve is the *dimensionless* ratio between the fault period, the checkpoint
interval, the per-fault recovery cost and the total runtime.  We therefore
compress time 6×: the skeleton runs ≈1 minute fault-free, and the paper's
frequency axis f (per minute) is mapped to 6·f faults per simulated
minute.  Reported frequencies use the paper's labels.
"""

from __future__ import annotations

from repro.experiments.common import Cells, run_nas
from repro.metrics.reporting import format_table
from repro.runtime.failure import PeriodicFaults

#: paper x-axis labels (faults per minute) → compressed frequency used
TIME_COMPRESSION = 6.0
FREQUENCIES = (0.0, 1 / 6, 1 / 3, 1 / 2, 2 / 3)
FAST_FREQUENCIES = (0.0, 1 / 3, 2 / 3)

#: coordinated waves are synchronized 25-image bursts through the stable
#: storage link, so they cannot run nearly as often as round-robin single
#: images — the asymmetry at the heart of Fig. 1.
PROTOCOLS = {
    "coordinated": dict(
        stack="coordinated", checkpoint_policy="coordinated", interval_s=30.0
    ),
    "pessimistic": dict(
        stack="pessimistic", checkpoint_policy="round-robin", interval_s=0.6
    ),
    "causal": dict(
        stack="vcausal", checkpoint_policy="round-robin", interval_s=0.6
    ),
}

NPROCS = 25
BT_ITERATIONS = 500        # ≈ 55 s fault-free
FAST_BT_ITERATIONS = 300


def run(fast: bool, cell: Cells) -> dict:
    freqs = FAST_FREQUENCIES if fast else FREQUENCIES
    iters = FAST_BT_ITERATIONS if fast else BT_ITERATIONS
    out: dict[str, dict[float, float]] = {}
    base_times: dict[str, float] = {}
    faults_seen: dict[str, dict[float, int]] = {}
    for name, cfg in PROTOCOLS.items():
        base, _ = run_nas(
            "bt", "A", NPROCS, cfg["stack"],
            iterations=iters,
            checkpoint_policy=cfg["checkpoint_policy"],
            checkpoint_interval_s=cfg["interval_s"],
        )
        base_times[name] = base.sim_time
        series = {}
        nfaults = {}
        for freq in freqs:
            if freq == 0.0:
                series[freq] = 100.0
                nfaults[freq] = 0
                continue
            plan = PeriodicFaults(
                per_minute=freq * TIME_COMPRESSION,
                start_s=8.0,
                victim="round-robin",
            )
            result, _ = run_nas(
                "bt", "A", NPROCS, cfg["stack"],
                iterations=iters,
                checkpoint_policy=cfg["checkpoint_policy"],
                checkpoint_interval_s=cfg["interval_s"],
                fault_plan=plan,
            )
            series[freq] = 100.0 * result.sim_time / base.sim_time
            nfaults[freq] = result.cluster.dispatcher.faults_seen
        out[name] = series
        faults_seen[name] = nfaults
    return {
        "slowdown_pct": out,
        "fault_free_s": base_times,
        "frequencies": freqs,
        "faults_seen": faults_seen,
    }


def table(results: dict) -> str:
    freqs = results["frequencies"]
    rows = []
    for name, series in results["slowdown_pct"].items():
        rows.append(
            [name, f"{results['fault_free_s'][name]:.1f}s"]
            + [
                f"{series[f]:.0f}% ({results['faults_seen'][name][f]}f)"
                for f in freqs
            ]
        )
    return format_table(
        ["protocol", "fault-free"] + [f"{f:.3g}/min" for f in freqs],
        rows,
        title=(
            "Fig. 1 — execution time with faults in % of fault-free time "
            "(NAS BT A, 25 processes, 6× time compression; paper shape: "
            "coordinated ≫ pessimistic ≥ causal)"
        ),
    )


def shapes(results: dict) -> list[str]:
    """The defining orderings of Fig. 1 at the highest tested frequency."""
    top = max(results["frequencies"])
    s = {name: series[top] for name, series in results["slowdown_pct"].items()}
    violations = []
    if not s["coordinated"] > s["causal"]:
        violations.append("coordinated did not degrade more than causal")
    if not s["coordinated"] > s["pessimistic"]:
        violations.append("coordinated did not degrade more than pessimistic")
    if not s["causal"] < 300.0:
        violations.append("causal did not stay under 3x the fault-free time")
    return violations
