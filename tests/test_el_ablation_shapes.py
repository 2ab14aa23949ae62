"""Shape tests for the distributed-EL ablation on its extreme cells, and
its sync costs outside the grid (the full grid's claims are
``ablation_distributed_el.shapes``)."""

import pytest

from repro import Cluster, ClusterConfig
from repro.experiments import ablation_distributed_el
from repro.workloads.nas import make_app


@pytest.fixture(scope="module")
def lu_cells():
    """LU/16 at 1 and 4 EL shards (the ablation's extremes)."""
    out = {}
    for count in (1, 4):
        out[count] = ablation_distributed_el.run_lu(count, "multicast", iterations=2)
    return out


def test_single_el_saturates_on_lu(lu_cells):
    single = lu_cells[1]
    assert single.probes.el_peak_queue > 20  # deep service queue


def test_sharding_removes_saturation(lu_cells):
    quad = lu_cells[4]
    assert quad.probes.el_peak_queue < lu_cells[1].probes.el_peak_queue / 4


def test_sharding_cuts_residual_piggyback(lu_cells):
    assert (
        lu_cells[4].probes.piggyback_fraction
        < 0.5 * lu_cells[1].probes.piggyback_fraction
    )


def test_sharding_recovers_performance(lu_cells):
    assert lu_cells[4].mflops > lu_cells[1].mflops


def test_broadcast_strategy_costs_more_sync_traffic():
    multi = ablation_distributed_el.run_lu(2, "multicast", iterations=1)
    broad = ablation_distributed_el.run_lu(2, "broadcast", iterations=1)
    assert (
        broad.cluster.event_logger.sync_bytes
        > multi.cluster.event_logger.sync_bytes
    )


def test_el_sync_interval_configurable():
    cfg = ClusterConfig().with_overrides(
        el_count=2, el_sync_interval_s=0.5e-3
    )
    app, _ = make_app("cg", "S", 4, iterations=2)
    fast_sync = Cluster(nprocs=4, app_factory=app, stack="vcausal", config=cfg).run()
    cfg2 = ClusterConfig().with_overrides(el_count=2, el_sync_interval_s=50e-3)
    app2, _ = make_app("cg", "S", 4, iterations=2)
    slow_sync = Cluster(nprocs=4, app_factory=app2, stack="vcausal", config=cfg2).run()
    assert (
        fast_sync.cluster.event_logger.sync_rounds
        > slow_sync.cluster.event_logger.sync_rounds
    )
