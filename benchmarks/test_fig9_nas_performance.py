"""Fig. 9 — NAS benchmark Megaflop/s across the eight stacks."""

import pytest

from repro import Cluster
from repro.experiments import fig9_nas_performance
from repro.workloads.nas import make_app


def run_panel_cell(bench, klass, nprocs, stack, iterations):
    app, _ = make_app(bench, klass, nprocs, iterations=iterations)
    return Cluster(nprocs=nprocs, app_factory=app, stack=stack).run()


@pytest.mark.parametrize("bench,iters", [("cg", 2), ("bt", 4), ("lu", 2), ("ft", 4)])
def test_nas_simulation_throughput(bench, iters):
    """One 16-rank NAS cell under vcausal runs to completion."""
    result = run_panel_cell(bench, "A", 16, "vcausal", iters)
    assert result.finished


def test_regenerate_fig9_table(fast_mode, capsys):
    results = fig9_nas_performance.run(fast=fast_mode)
    report = fig9_nas_performance.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    violations = fig9_nas_performance.shape_checks(results)
    assert not violations, violations
