"""Fig. 6 — NetPIPE ping-pong latency (6a) and bandwidth (6b).

Reproduces the latency comparison table over Ethernet 100 Mbit/s and the
bandwidth-vs-message-size curves for RAW TCP, MPICH-P4, MPICH-Vdummy and
the three causal protocols with and without Event Logger.
"""

from __future__ import annotations

from repro.experiments.common import Cells
from repro.metrics.reporting import format_series, format_table
from repro.runtime.config import FIGURE_STACKS
from repro.workloads.netpipe import (
    DEFAULT_SIZES,
    measure_bandwidth,
    measure_latency,
    raw_tcp_bandwidth,
)

#: paper Fig. 6(a): one-way latency in µs
PAPER_LATENCY_US = {
    "p4": 99.56,
    "vdummy": 134.84,
    "vcausal": 156.92,
    "manetho": 156.80,
    "logon": 155.83,
    "vcausal-noel": 165.17,
    "manetho-noel": 173.15,
    "logon-noel": 172.80,
}

#: bandwidth sweep sizes for fast mode (subset of the full NetPIPE sweep)
FAST_SIZES = (1, 64, 1 << 10, 8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20)


def run(fast: bool, cell: Cells) -> dict:
    reps = 120 if fast else 400
    latency_us = {}
    with_pb = {}
    for stack in FIGURE_STACKS:
        lat, result = measure_latency(stack, nbytes=1, reps=reps)
        latency_us[stack] = lat * 1e6
        probes = result.probes
        sent = probes.total("app_messages_sent")
        with_pb[stack] = probes.total("messages_with_piggyback") / max(sent, 1)

    sizes = FAST_SIZES if fast else DEFAULT_SIZES
    bw_reps = 4 if fast else 8
    bandwidth = {"raw-tcp": raw_tcp_bandwidth(sizes)}
    for stack in FIGURE_STACKS:
        bandwidth[stack] = measure_bandwidth(stack, sizes=sizes, reps=bw_reps)
    return {
        "latency_us": latency_us,
        "messages_with_piggyback_frac": with_pb,
        "bandwidth_mbit": bandwidth,
        "sizes": sizes,
    }


def table(results: dict) -> str:
    rows = []
    for stack, model in results["latency_us"].items():
        paper = PAPER_LATENCY_US.get(stack)
        rows.append(
            [
                stack,
                f"{model:.2f}",
                f"{paper:.2f}" if paper else "-",
                f"{100 * results['messages_with_piggyback_frac'][stack]:.0f}%",
            ]
        )
    table_a = format_table(
        ["stack", "latency (µs, model)", "latency (µs, paper)", "msgs w/ piggyback"],
        rows,
        title="Fig. 6(a) — ping-pong latency over Ethernet 100 Mbit/s",
    )
    sizes = results["sizes"]
    series = {
        name: [f"{results['bandwidth_mbit'][name][s]:.1f}" for s in sizes]
        for name in results["bandwidth_mbit"]
    }
    table_b = format_series(
        "bytes",
        list(sizes),
        series,
        title="Fig. 6(b) — ping-pong bandwidth (Mbit/s) vs message size",
    )
    return table_a + "\n\n" + table_b


def shapes(results: dict) -> list[str]:
    """Latency within 10 % of the paper and ordered by stack; bandwidth
    ordering at the largest size."""
    lat = results["latency_us"]
    violations = [
        f"{stack}: latency {lat[stack]:.2f} µs not within 10% of the paper's {paper}"
        for stack, paper in PAPER_LATENCY_US.items()
        if not abs(lat[stack] - paper) <= 0.10 * paper
    ]
    if not lat["p4"] < lat["vdummy"] < lat["vcausal"]:
        violations.append("latency not ordered p4 < vdummy < vcausal")
    for proto in ("vcausal", "manetho", "logon"):
        if not lat[f"{proto}-noel"] > lat[proto]:
            violations.append(f"the EL did not lower {proto} latency")
    bw = results["bandwidth_mbit"]
    top = max(results["sizes"])
    if not bw["raw-tcp"][top] > bw["p4"][top]:
        violations.append("p4 bandwidth reached raw TCP")
    if not bw["vdummy"][top] > bw["vcausal"][top]:
        violations.append("vcausal bandwidth reached vdummy")
    return violations
