"""Smoke tests for the figure registry (tiny parameterizations).

The fast-mode figures and their shape claims run in
benchmarks/test_figures.py; here the registry's machinery is exercised
with minimal work.
"""

import pytest

from repro.experiments import (
    FIGURES,
    ablation_distributed_el,
    fig6_pingpong,
    fig10_recovery,
)
from repro.experiments.common import FAST_ITERATIONS, Cells, Figure, run_nas
from repro.experiments.fig8_piggyback_time import pb_percent_of_exec
from repro.experiments.runner import main


def test_run_nas_helper_round_trip():
    result, info = run_nas("cg", "A", 4, "vcausal", iterations=1)
    assert result.finished
    assert info.bench == "cg"
    assert pb_percent_of_exec(result) >= 0


def test_run_nas_rejects_unknown_benchmark():
    with pytest.raises(ValueError):
        run_nas("nosuch", "A", 4, "vcausal")


def test_cells_simulate_each_cell_once_without_its_cluster():
    cell = Cells()
    first = cell("cg", "A", 2, "vcausal")
    assert first.cluster is None
    # fast mode resolves the iteration count before keying the cell
    assert cell("cg", "A", 2, "vcausal", iterations=FAST_ITERATIONS["cg"]) is first
    assert cell("cg", "A", 2, "vcausal-noel") is not first


def test_fig6_report_formats():
    results = {
        "latency_us": {"p4": 99.5, "vdummy": 134.5},
        "messages_with_piggyback_frac": {"p4": 0.0, "vdummy": 0.0},
        "bandwidth_mbit": {"p4": {1: 0.1, 1024: 30.0}},
        "sizes": (1, 1024),
    }
    report = fig6_pingpong.table(results)
    assert "99.50" in report
    assert "Fig. 6(a)" in report and "Fig. 6(b)" in report


def test_fig10_measure_single_cell():
    cell = fig10_recovery._measure("cg", "A", 4, "vcausal", iters=2)
    assert cell["events"] > 0
    assert cell["collection_ms"] > 0
    assert cell["sources"] == 1
    assert cell["faulty_time_s"] > cell["fault_free_time_s"]


def test_fig10_el_vs_peers_single_cell():
    with_el = fig10_recovery._measure("cg", "A", 8, "vcausal", iters=2)
    without = fig10_recovery._measure("cg", "A", 8, "vcausal-noel", iters=2)
    assert with_el["collection_ms"] < without["collection_ms"]
    assert without["sources"] == 7


def test_ablation_el_single_cell():
    result = ablation_distributed_el.run_lu(2, "multicast", iterations=1)
    assert result.finished
    assert result.cluster.event_logger.count == 2


def test_runner_cli_lists_experiments():
    assert {"fig1", "fig6", "fig7", "fig8", "fig9", "fig10"} <= set(FIGURES)
    assert {"ablation-el", "ablation-ckpt"} <= set(FIGURES)


def test_runner_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["-e", "nosuch"])


def test_runner_exits_1_on_a_shape_violation(monkeypatch, capsys):
    broken = Figure(
        "broken", "a figure whose shape never holds",
        run=lambda fast, cell: {}, table=lambda results: "(table)",
        shapes=lambda results: ["the claim failed"],
    )
    monkeypatch.setitem(FIGURES, "broken", broken)
    assert main(["-e", "broken"]) == 1
    assert "  - the claim failed" in capsys.readouterr().out
