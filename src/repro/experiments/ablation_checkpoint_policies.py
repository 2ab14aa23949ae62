"""Ablation — checkpoint scheduler policies (paper §IV-B.3).

"The checkpoint scheduler is a specific component that is not necessary to
insure the fault tolerance, but is intended to enhance performance. ...
When a checkpoint of a process is finished, the sender-based messages
payload of all receptions preceding the checkpoint can be deleted.  Thus,
to increase the overall performance, it is important that checkpoint
scheduling maximizes this garbage collecting.  The checkpoint scheduler
implements different policies such as coordinated checkpoint, random or
round-robin."

This ablation quantifies the policies' effect on the two quantities the
paper calls out: the peak sender-based log footprint (garbage-collection
effectiveness) and the fault-free overhead of checkpointing itself.
"""

from __future__ import annotations

from repro.experiments.common import Cells, run_nas
from repro.metrics.reporting import format_table

POLICIES = ("none", "round-robin", "random", "coordinated")


def run(fast: bool, cell: Cells) -> dict:
    iterations = 20 if fast else 60
    cells = {}
    for policy in POLICIES:
        result, _ = run_nas(
            "bt", "A", 9, "vcausal",
            iterations=iterations,
            checkpoint_policy=policy,
            checkpoint_interval_s=None if policy == "none" else 0.08,
        )
        peak_log = max(
            d.sender_log.bytes_held for d in result.cluster.daemons.values()
        )
        cells[policy] = {
            "sim_time_s": result.sim_time,
            "checkpoints": result.probes.checkpoints_stored,
            "checkpoint_bytes": result.probes.checkpoint_bytes,
            "peak_sender_log_bytes": peak_log,
            "mflops": result.mflops,
        }
    return {"cells": cells, "iterations": iterations}


def table(results: dict) -> str:
    base = results["cells"]["none"]["sim_time_s"]
    rows = []
    for policy, cell in results["cells"].items():
        rows.append(
            [
                policy,
                cell["checkpoints"],
                f"{cell['checkpoint_bytes'] / 1e6:.1f} MB",
                f"{cell['peak_sender_log_bytes'] / 1024:.0f} KiB",
                f"{100 * (cell['sim_time_s'] / base - 1):+.1f}%",
                f"{cell['mflops']:.0f}",
            ]
        )
    return format_table(
        ["policy", "ckpts", "shipped", "peak sender log", "overhead", "Mflop/s"],
        rows,
        title=(
            "Ablation — checkpoint scheduling policies on NAS BT A, "
            "9 processes, Vcausal (paper §IV-B.3)"
        ),
    )


def shapes(results: dict) -> list[str]:
    """Checkpointing garbage-collects the sender logs; coordinated waves
    (every receiver checkpoints together) collect the most."""
    peak = {p: c["peak_sender_log_bytes"] for p, c in results["cells"].items()}
    violations = []
    if not peak["round-robin"] < peak["none"]:
        violations.append("round-robin did not shrink the peak sender log")
    if not peak["coordinated"] <= peak["round-robin"]:
        violations.append("coordinated left a larger sender log than round-robin")
    return violations
