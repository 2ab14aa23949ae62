"""Tests for the distributed Event Logger (paper §VI future work)."""

import pytest

from repro import Cluster, ClusterConfig, OneShotFaults
from repro.core.distributed_el import EventLoggerGroup, shard_host
from repro.workloads.nas import make_app

from tests.conftest import ring_app, run_ring
from tests.oracles import merged_stable


def dcfg(count, strategy="multicast", interval=2e-3):
    return ClusterConfig().with_overrides(
        el_count=count, el_sync_strategy=strategy, el_sync_interval_s=interval
    )


def test_invalid_shard_count_rejected():
    import repro.simulator.engine as eng
    from repro.metrics.probes import ClusterProbes
    from repro.simulator.network import Network

    sim = eng.Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        EventLoggerGroup(sim, net, ClusterConfig(), ClusterProbes(), 4, count=0)
    with pytest.raises(ValueError):
        EventLoggerGroup(
            sim, net, ClusterConfig(), ClusterProbes(), 4,
            count=2, sync_strategy="bogus",
        )


@pytest.mark.parametrize(
    "overrides",
    [
        {"el_count": 2, "el_sync_interval_s": 0.0},  # sync tick livelocks
        {"el_count": 2, "el_sync_interval_s": -1e-3},
        {"el_count": 0},
    ],
)
def test_config_rejects_invalid_el_knobs(overrides):
    with pytest.raises(ValueError):
        ClusterConfig(**overrides)


@pytest.mark.parametrize("index", [-1, 2])
def test_kill_shard_rejects_out_of_range_index(index):
    result = run_ring("vcausal", nprocs=4, iterations=2, config=dcfg(2))
    group = result.cluster.event_logger
    with pytest.raises(ValueError):
        group.kill_shard(index)
    assert group.shard_kills == 0
    assert all(s.alive for s in group.shards)


def test_shard_assignment_is_static_modulo():
    result = run_ring("vcausal", nprocs=4, iterations=3, config=dcfg(2))
    group = result.cluster.event_logger
    assert group.shard_index_for(0) == 0
    assert group.shard_index_for(1) == 1
    assert group.shard_index_for(2) == 0
    assert group.host_for(3) == shard_host(1)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_results_independent_of_shard_count(count):
    reference = run_ring("vcausal", nprocs=4, iterations=10)
    result = run_ring("vcausal", nprocs=4, iterations=10, config=dcfg(count))
    assert result.finished
    assert result.results == reference.results


@pytest.mark.parametrize("strategy", ["multicast", "broadcast"])
def test_sync_strategies_run(strategy):
    result = run_ring(
        "vcausal", nprocs=4, iterations=15, config=dcfg(2, strategy)
    )
    assert result.finished
    group = result.cluster.event_logger
    assert group.sync_rounds > 0
    assert group.sync_bytes > 0


def test_each_shard_stores_only_its_creators():
    result = run_ring("vcausal", nprocs=4, iterations=10, config=dcfg(2))
    group = result.cluster.event_logger
    for creator in range(4):
        own = group.shard_for(creator)
        other = group.shards[1 - group.shard_index_for(creator)]
        assert len(own.store[creator]) > 0
        assert len(other.store[creator]) == 0


def test_merged_stable_covers_all_creators():
    result = run_ring("vcausal", nprocs=4, iterations=10, config=dcfg(2))
    group = result.cluster.event_logger
    merged = merged_stable(group)
    assert all(v > 0 for v in merged)


def test_shards_learn_peer_clocks_via_multicast():
    result = run_ring(
        "vcausal", nprocs=4, iterations=20, config=dcfg(2, "multicast")
    )
    group = result.cluster.event_logger
    # shard 0 owns creators 0 and 2; it must have learned 1's and 3's
    # clocks from shard 1 through the periodic multicast
    shard0 = group.shards[0]
    assert shard0.global_view[1] > 0
    assert shard0.global_view[3] > 0


def test_recovery_with_sharded_el():
    base = run_ring("vcausal", nprocs=4, iterations=25, config=dcfg(2))
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=dcfg(2),
        fault_plan=OneShotFaults([(base.sim_time / 2, 1)]),
    )
    assert result.finished
    assert result.results == base.results
    rec = result.probes.recoveries[0]
    assert rec.event_sources == 1  # one bulk fetch from the owning shard


def test_sharding_desaturates_the_el_on_lu():
    """The point of §VI: more shards → lower residual piggyback volume."""
    def run_lu(count):
        app, _ = make_app("lu", "A", 16, iterations=2)
        return Cluster(
            nprocs=16, app_factory=app, stack="vcausal", config=dcfg(count)
        ).run()

    single = run_lu(1)
    quad = run_lu(4)
    assert quad.probes.piggyback_fraction < single.probes.piggyback_fraction
    assert quad.mflops >= single.mflops


def test_single_shard_matches_legacy_behaviour():
    """count=1 must be byte-identical to the paper's single EL."""
    r1 = run_ring("vcausal", nprocs=4, iterations=10)
    r2 = run_ring("vcausal", nprocs=4, iterations=10, config=dcfg(1))
    assert r1.sim_time == r2.sim_time
    assert r1.probes.total_piggyback_bytes == r2.probes.total_piggyback_bytes
