"""Fig. 6 — NetPIPE latency table and bandwidth curves.

Regenerates Fig. 6 through the registry and checks the ping-pong latency
of every stack against the paper's measurement.
"""

import pytest

from repro.experiments import FIGURES, fig6_pingpong
from repro.experiments.runner import regenerate
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


def test_regenerate_fig6_table(capsys):
    with capsys.disabled():
        assert regenerate([FIGURES["fig6"]]) == 0
