"""Fig. 7 — piggybacked data volume in % of exchanged data."""

import pytest

from repro import Cluster
from repro.experiments import fig7_piggyback_size
from repro.workloads.nas import make_app


def run_cell(bench, nprocs, stack, iterations):
    app, _ = make_app(bench, "A", nprocs, iterations=iterations)
    return Cluster(nprocs=nprocs, app_factory=app, stack=stack).run()


@pytest.mark.parametrize("stack", ["vcausal", "vcausal-noel", "manetho-noel", "logon-noel"])
def test_cg16_piggyback_volume_benchmark(stack):
    result = run_cell("cg", 16, stack, 2)
    assert result.finished


def test_regenerate_fig7_table(fast_mode, capsys):
    results = fig7_piggyback_size.run(fast=fast_mode)
    report = fig7_piggyback_size.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    pb = results["pb_percent"]
    # headline shape: EL collapses volume on every cell
    for (bench, nprocs), cell in pb.items():
        for proto in ("vcausal", "manetho", "logon"):
            assert cell[proto] < cell[f"{proto}-noel"], (bench, nprocs, proto)
    # LU/16 residue with EL stays large (EL saturation)
    assert pb[("lu", 16)]["vcausal"] > pb[("bt", 16)]["vcausal"]
