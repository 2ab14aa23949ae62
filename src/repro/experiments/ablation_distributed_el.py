"""Ablation — distributed Event Logger (paper §VI, implemented).

The paper's conclusion proposes distributing the event log over several
Event Loggers and sketches the design space: static node-to-EL assignment,
with the loggers exchanging their arrays of logical clocks by multicast
(EL↔EL) or broadcast (EL→nodes).  This ablation quantifies that proposal
on the workload that saturates a single EL (NAS LU, 16 processes, Fig. 7):

* residual piggyback volume vs number of EL shards,
* application performance vs number of shards,
* sync traffic and message counts across the three shard-sync topologies
  (``multicast``/``broadcast`` — the paper's proposals — plus ``tree``,
  the scalable fix; see :mod:`repro.core.distributed_el`).
"""

from __future__ import annotations

from repro.experiments.common import Cells, run_nas
from repro.metrics.reporting import format_table
from repro.runtime.cluster import RunResult
from repro.runtime.config import ClusterConfig


def run_lu(count: int, strategy: str = "multicast", iterations: int = 2) -> RunResult:
    config = ClusterConfig().with_overrides(
        el_count=count, el_sync_strategy=strategy
    )
    result, _ = run_nas("lu", "A", 16, "vcausal", iterations=iterations, config=config)
    return result


#: strategies swept per shard count (broadcast adds the per-node pushes,
#: tree is the O(shards)-messages topology)
STRATEGIES = ("multicast", "broadcast", "tree")


def run(fast: bool, cell: Cells) -> dict:
    iterations = 2 if fast else 6
    cells = {}
    for count in (1, 2, 4, 8):
        for strategy in STRATEGIES:
            if count == 1 and strategy != "multicast":
                continue  # no peers to sync with; all strategies identical
            result = run_lu(count, strategy, iterations)
            group = result.cluster.event_logger
            cells[(count, strategy)] = {
                "pb_percent": result.probes.piggyback_fraction,
                "mflops": result.mflops,
                "sync_bytes": group.sync_bytes,
                "sync_messages": group.sync_messages,
                "node_pushes": group.node_push_messages,
                "peak_queue": result.probes.el_peak_queue,
            }
    return {"cells": cells, "iterations": iterations}


def table(results: dict) -> str:
    rows = []
    for (count, strategy), cell in sorted(results["cells"].items()):
        rows.append(
            [
                count,
                strategy,
                f"{cell['pb_percent']:.2f}",
                f"{cell['mflops']:.0f}",
                cell["sync_messages"],
                cell["node_pushes"],
                f"{cell['sync_bytes'] / 1024:.0f} KiB",
                cell["peak_queue"],
            ]
        )
    # "sync traffic" covers shard-to-shard vectors plus (broadcast only)
    # the per-node pushes counted in the "node pushes" column
    return format_table(
        [
            "EL shards",
            "sync",
            "piggyback %",
            "Mflop/s",
            "sync msgs",
            "node pushes",
            "sync traffic",
            "peak queue",
        ],
        rows,
        title=(
            "Ablation — distributed Event Logger on NAS LU A, 16 processes "
            "(paper §VI proposal + tree topology)"
        ),
    )


def shapes(results: dict) -> list[str]:
    """One EL saturates on LU/16; four multicast shards lift that."""
    cells = results["cells"]
    single, quad = cells[(1, "multicast")], cells[(4, "multicast")]
    violations = []
    if not single["peak_queue"] > 20:
        violations.append("a single EL did not build a deep service queue")
    if not quad["peak_queue"] < single["peak_queue"] / 4:
        violations.append("four shards did not remove the saturation")
    if not quad["pb_percent"] < 0.5 * single["pb_percent"]:
        violations.append("four shards did not halve the residual piggyback")
    if not quad["mflops"] > single["mflops"]:
        violations.append("four shards did not recover performance")
    return violations
