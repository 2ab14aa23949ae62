"""Fig. 1 — fault resilience of the three protocol families."""

import pytest

from repro import Cluster, PeriodicFaults
from repro.experiments import fig1_fault_resilience
from repro.workloads.nas import make_app


def run_faulty_bt(stack, policy, interval_s, per_minute):
    app, _ = make_app("bt", "A", 25, iterations=120)
    cluster = Cluster(
        nprocs=25,
        app_factory=app,
        stack=stack,
        checkpoint_policy=policy,
        checkpoint_interval_s=interval_s,
        fault_plan=PeriodicFaults(per_minute=per_minute, start_s=5.0),
    )
    return cluster.run(max_events=100_000_000)


@pytest.mark.parametrize(
    "name,stack,policy,interval",
    [
        ("causal", "vcausal", "round-robin", 0.6),
        ("coordinated", "coordinated", "coordinated", 30.0),
    ],
)
def test_faulty_run_benchmark(name, stack, policy, interval):
    result = run_faulty_bt(stack, policy, interval, 4.0)
    assert result.finished


def test_regenerate_fig1_curve(fast_mode, capsys):
    results = fig1_fault_resilience.run(fast=fast_mode)
    report = fig1_fault_resilience.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    assert not fig1_fault_resilience.shape_checks(results)
    # causal degrades gracefully: stays under 3x at the top frequency
    top = max(results["frequencies"])
    assert results["slowdown_pct"]["causal"][top] < 300.0
