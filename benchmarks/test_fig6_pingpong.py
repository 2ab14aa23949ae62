"""Fig. 6 — NetPIPE latency table and bandwidth curves.

Regenerates the Fig. 6(a) latency rows (printed) and checks the
ping-pong latency of every stack against the paper's measurement.
"""

import pytest

from repro.experiments import fig6_pingpong
from repro.workloads.netpipe import measure_latency


@pytest.mark.parametrize(
    "stack",
    ["p4", "vdummy", "vcausal", "manetho", "logon",
     "vcausal-noel", "manetho-noel", "logon-noel"],
)
def test_pingpong_latency_benchmark(stack):
    latency, _ = measure_latency(stack, nbytes=1, reps=60)
    paper = fig6_pingpong.PAPER_LATENCY_US[stack]
    # latency within 10% of the paper's measurement
    assert latency * 1e6 == pytest.approx(paper, rel=0.10)


def test_regenerate_fig6_table(fast_mode, capsys):
    results = fig6_pingpong.run(fast=fast_mode)
    report = fig6_pingpong.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    # shape assertions on the regenerated artifact
    lat = results["latency_us"]
    assert lat["p4"] < lat["vdummy"] < lat["vcausal"]
    for proto in ("vcausal", "manetho", "logon"):
        assert lat[f"{proto}-noel"] > lat[proto]
    bw = results["bandwidth_mbit"]
    top = max(results["sizes"])
    assert bw["raw-tcp"][top] > bw["p4"][top]
    assert bw["vdummy"][top] > bw["vcausal"][top]
