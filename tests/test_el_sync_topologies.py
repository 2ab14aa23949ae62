"""Shard-sync topology tests for the distributed Event Logger.

Two families:

* **equivalence** — on a quiesced system (no new determinants arriving),
  every topology must converge every shard's merged view to the same
  fixed point the all-to-all multicast reaches: the elementwise max over
  all shards' authoritative clocks;
* **regression** — the ``"multicast"``/``"broadcast"`` strategies predate
  the tree topology and are the recorded-benchmark compatibility
  mode: their message counts, sync bytes and simulation results must stay
  bit-identical (reference values captured on the pre-topology code).
"""

from __future__ import annotations

import random

import pytest

from repro.metrics.probes import ClusterProbes
from repro.core.distributed_el import EventLoggerGroup, shard_host
from repro.core.events import Determinant
from repro.runtime.config import ClusterConfig
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

from tests.conftest import run_ring
from tests.oracles import merged_stable


def dcfg(count, strategy="multicast", interval=2e-3, **kw):
    return ClusterConfig().with_overrides(
        el_count=count, el_sync_strategy=strategy, el_sync_interval_s=interval,
        **kw
    )


def make_group(count, strategy, nprocs=32, seed=7, rounds=2, kill=(), **group_kw):
    """A standalone shard group, quiesced, with pseudo-random seeded
    per-shard authoritative clocks; kills the shards in ``kill``, then
    runs ``rounds`` sync rounds."""
    sim = Simulator()
    net = Network(sim)
    for k in range(count):
        net.attach(shard_host(k))
    group = EventLoggerGroup(
        sim, net, ClusterConfig(), ClusterProbes(), nprocs,
        count=count, sync_strategy=strategy, **group_kw
    )
    rng = random.Random(seed)
    for rank in range(nprocs):
        # stored through the logging path, so the merged views see them
        clocks = range(1, rng.randrange(1, 40) + 1)
        group.shard_for(rank).ingest_records(
            {rank: [Determinant(rank, c, 0, 0, 0) for c in clocks]}
        )
    for k in kill:
        group.kill_shard(k)
    deadline = group.sync_interval_s * (rounds + 0.5)
    group.active_check = lambda: sim.now < deadline
    sim.run()
    return group


def fixed_point(group):
    """The multicast fixed point: elementwise max over every shard's
    authoritative clocks (== what ``merged_stable`` reports)."""
    return merged_stable(group)


@pytest.mark.parametrize(
    "count,strategy,kw",
    [
        (2, "tree", {}),
        (4, "tree", {"seed": 3}),
        (8, "tree", {}),
        (8, "tree", {"nprocs": 8}),   # one creator per shard
        (16, "tree", {"rounds": 1}),
    ],
)
def test_topologies_converge_to_multicast_fixed_point(count, strategy, kw):
    """Property: on a quiesced system every shard's merged view reaches
    the multicast fixed point."""
    group = make_group(count, strategy, **kw)
    reference = make_group(count, "multicast", **{**kw, "rounds": 1})
    want = fixed_point(group)
    assert want == fixed_point(reference)  # same seeded state, same union
    assert all(want)  # every creator logged something
    for shard in group.shards:
        assert shard.merged_view().as_list(group.nprocs) == want, shard.index
    for shard in reference.shards:
        assert shard.merged_view().as_list(group.nprocs) == want, shard.index


@pytest.mark.parametrize("count,seed", [(4, 2), (5, 2), (8, 3)])
def test_tree_converges_in_one_round(count, seed):
    group = make_group(count, "tree", rounds=1, seed=seed)
    want = fixed_point(group)
    for shard in group.shards:
        assert shard.merged_view().as_list(group.nprocs) == want
    # reduce + broadcast: exactly 2 (count - 1) messages per round
    assert group.sync_messages == group.sync_rounds * 2 * (count - 1)


def test_tree_with_a_dead_shard_syncs_all_to_all_among_survivors():
    """A dead shard breaks the reduce tree: each round falls back to the
    all-to-all among the 3 survivors, and their merged views converge on
    the union of the survivors' authoritative clocks."""
    group = make_group(4, "tree", kill=(1,))
    assert not group.config.el_failover
    assert group.sync_rounds == 2
    assert group.sync_messages == group.sync_rounds * 3 * 2
    survivors = [s for s in group.shards if s.alive]
    union = [
        max(s.stable_clock[c] for s in survivors) for c in range(group.nprocs)
    ]
    # the dead shard's creators (rank % 4 == 1) never reach the survivors
    assert [c for c in range(group.nprocs) if not union[c]] == list(
        range(1, group.nprocs, 4)
    )
    for shard in survivors:
        assert shard.merged_view().as_list(group.nprocs) == union, shard.index


@pytest.mark.parametrize(
    "strategy,kw",
    [
        ("tree", {}),
        ("tree", {"interval": 0.5e-3}),
    ],
)
def test_topologies_end_to_end_results_match_reference(strategy, kw):
    """Application results are invariant under the sync topology."""
    reference = run_ring("vcausal", nprocs=4, iterations=20)
    result = run_ring(
        "vcausal", nprocs=4, iterations=20, config=dcfg(4, strategy, **kw)
    )
    assert result.finished
    assert result.results == reference.results
    group = result.cluster.event_logger
    assert group.sync_rounds > 0
    assert group.sync_messages > 0


def test_tree_uses_fewer_messages_than_multicast():
    runs = {}
    for strategy in ("multicast", "tree"):
        result = run_ring(
            "vcausal", nprocs=8, iterations=20, config=dcfg(8, strategy)
        )
        runs[strategy] = result.cluster.event_logger
    per_round_mc = runs["multicast"].sync_messages / runs["multicast"].sync_rounds
    per_round_tree = runs["tree"].sync_messages / runs["tree"].sync_rounds
    assert per_round_mc == 8 * 7
    assert per_round_tree == 2 * 7
    assert per_round_tree < per_round_mc


# --------------------------------------------------------------------- #
# multicast/broadcast compatibility regression

def test_multicast_checksums_unchanged():
    """Reference values captured on the pre-topology implementation
    (PR 2, commit f959ebf): the multicast sync path must stay
    bit-identical — it is what every recorded BENCH checksum ran on."""
    r = run_ring("vcausal", nprocs=4, iterations=20, config=dcfg(2))
    g = r.cluster.event_logger
    assert repr(r.sim_time) == "0.3280317012800131"
    assert r.probes.total_piggyback_bytes == 3300
    assert (g.sync_rounds, g.sync_bytes) == (164, 10496)
    assert g.sync_messages == g.sync_rounds * 2 * 1

    r = run_ring("vcausal", nprocs=4, iterations=20, config=dcfg(4))
    g = r.cluster.event_logger
    assert repr(r.sim_time) == "0.32790708666629925"
    assert r.probes.total_piggyback_bytes == 3620
    assert (g.sync_rounds, g.sync_bytes) == (163, 62592)
    assert g.sync_messages == g.sync_rounds * 4 * 3


def test_broadcast_checksums_unchanged():
    r = run_ring("vcausal", nprocs=4, iterations=20, config=dcfg(2, "broadcast"))
    g = r.cluster.event_logger
    assert repr(r.sim_time) == "0.32807737554242145"
    assert r.probes.total_piggyback_bytes == 3280
    assert (g.sync_rounds, g.sync_bytes) == (164, 52480)
    # shard-to-shard messages exclude the per-node pushes
    assert g.sync_messages == g.sync_rounds * 2 * 1
    assert g.node_push_messages == g.sync_rounds * 2 * 4
