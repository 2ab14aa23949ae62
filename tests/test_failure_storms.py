"""Failure domains, correlated fault storms and infrastructure faults.

The defining property carries over from test_recovery_integration: any
fault pattern — whole domains dying at once, restart-triggered cascades,
an EL shard crash, a checkpoint-server outage — must leave the
application results identical to the fault-free run, and the run must
complete.  On top of that, the robustness layer itself is checked: the
retry/timeout/backoff primitive, the skip-unkillable rule, the failover
bookkeeping, and the bit-identity guarantee of the default knobs.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    CompositeFaults,
    CorrelatedFaults,
    FailureDomains,
    InfraFaults,
    OneShotFaults,
    StormFaults,
)
from repro.runtime.retry import RetryChannel, RetryPolicy, RetryStats

from tests.conftest import ring_app, run_ring


@pytest.fixture(scope="module")
def baseline():
    result = run_ring("vcausal", nprocs=4, iterations=25)
    assert result.finished
    return result.results


# --------------------------------------------------------------------- #
# FailureDomains partition properties


@pytest.mark.parametrize(
    "nprocs,count", [(1, 1), (4, 2), (7, 3), (16, 5), (256, 32), (9, 100), (5, 0)]
)
def test_failure_domains_partition(nprocs, count):
    domains = FailureDomains(nprocs, count)
    expected = nprocs if (count <= 0 or count > nprocs) else count
    assert domains.ndomains == expected
    seen = []
    sizes = []
    for d in range(domains.ndomains):
        members = domains.members(d)
        assert members, "no empty domains"
        # contiguous block, consistent with domain_of
        assert members == list(range(members[0], members[-1] + 1))
        assert all(domains.domain_of(r) == d for r in members)
        seen.extend(members)
        sizes.append(len(members))
    assert seen == list(range(nprocs))  # exact partition, in rank order
    assert max(sizes) - min(sizes) <= 1  # balanced


def test_failure_domains_rejects_empty_cluster():
    with pytest.raises(ValueError):
        FailureDomains(0, 1)


# --------------------------------------------------------------------- #
# satellite: the skip-unkillable rule for planned one-shot faults


def test_oneshot_fault_on_dead_rank_is_skipped(baseline):
    """A second kill landing while the first victim is still dead or
    mid-restart used to double-kill the recovery episode; it is now
    dropped and counted."""
    result = run_ring(
        "vcausal", nprocs=4, iterations=25,
        fault_plan=OneShotFaults([(0.05, 0), (0.051, 0)]),
    )
    assert result.finished
    assert result.results == baseline
    assert result.probes.faults_skipped == 1
    assert result.probes.total("restarts") == 1
    assert len(result.probes.recoveries) == 1


def test_oneshot_fault_after_finish_is_not_counted_as_skip():
    base = run_ring("vcausal", nprocs=4, iterations=5)
    result = run_ring(
        "vcausal", nprocs=4, iterations=5,
        fault_plan=OneShotFaults([(base.sim_time * 2, 0)]),
    )
    assert result.finished
    assert result.probes.faults_skipped == 0  # run over: not a skip


# --------------------------------------------------------------------- #
# satellite: config validation of the new knobs


@pytest.mark.parametrize(
    "overrides",
    [
        {"fault_detection_delay_s": -0.1},
        {"fault_domains": -1},
        {"rpc_timeout_s": -1e-3},
        {"rpc_backoff_base_s": -0.5},
        {"rpc_backoff_factor": 0.5},
        {"rpc_backoff_base_s": 0.2, "rpc_backoff_max_s": 0.1},
        {"rpc_max_attempts": 0},
    ],
)
def test_config_rejects_invalid_fault_and_retry_knobs(overrides):
    with pytest.raises(ValueError):
        ClusterConfig().with_overrides(**overrides)


# --------------------------------------------------------------------- #
# retry primitive (deterministic sim-time unit tests)


def _sim():
    from repro.simulator.engine import Simulator

    return Simulator()


def test_retry_policy_backoff_is_capped():
    policy = RetryPolicy(
        timeout_s=0.1, backoff_base_s=0.05, backoff_factor=2.0, backoff_max_s=0.3
    )
    assert policy.enabled
    assert policy.backoff_s(1) == pytest.approx(0.05)
    assert policy.backoff_s(2) == pytest.approx(0.10)
    assert policy.backoff_s(3) == pytest.approx(0.20)
    assert policy.backoff_s(4) == pytest.approx(0.30)  # capped
    assert policy.backoff_s(10) == pytest.approx(0.30)
    assert not RetryPolicy(timeout_s=0.0).enabled


def test_retry_channel_retries_on_timeout_then_completes():
    sim = _sim()
    policy = RetryPolicy(timeout_s=0.1, backoff_base_s=0.05, max_attempts=8)
    stats = RetryStats()
    channel = RetryChannel(sim, policy, stats)
    sends = []

    def send(call):
        sends.append(sim.now)
        if call.attempt == 3:  # the third attempt is finally answered
            sim.schedule(0.01, call.complete)

    channel.call(send)
    sim.run()
    assert len(sends) == 3
    # attempt 1 at t=0, times out at 0.1, backs off 0.05 -> attempt 2 at
    # 0.15, times out at 0.25, backs off 0.1 -> attempt 3 at 0.35
    assert sends == [pytest.approx(0.0), pytest.approx(0.15), pytest.approx(0.35)]
    assert stats.attempts == 3
    assert stats.retries == 2
    assert stats.timeouts == 2
    assert stats.completions == 1
    assert stats.abandoned == 0


def test_retry_channel_abandons_after_max_attempts():
    sim = _sim()
    policy = RetryPolicy(timeout_s=0.05, backoff_base_s=0.01, max_attempts=3)
    stats = RetryStats()
    channel = RetryChannel(sim, policy, stats)
    sends = []
    channel.call(lambda call: sends.append(call.attempt))  # never answered
    sim.run()
    assert sends == [1, 2, 3]
    assert stats.abandoned == 1
    assert stats.timeouts == 3


def test_retry_channel_explicit_failure_skips_timeout():
    sim = _sim()
    policy = RetryPolicy(timeout_s=10.0, backoff_base_s=0.01, max_attempts=2)
    stats = RetryStats()
    channel = RetryChannel(sim, policy, stats)
    sends = []

    def send(call):
        sends.append(sim.now)
        call.fail()  # connection refused: no waiting for the 10 s deadline

    channel.call(send)
    sim.run()
    assert sim.now < 1.0  # both attempts resolved by backoff, not timeout
    assert len(sends) == 2
    assert stats.failures == 2
    assert stats.timeouts == 0
    assert stats.abandoned == 1


def test_retry_call_complete_is_idempotent_and_cancels_timer():
    sim = _sim()
    policy = RetryPolicy(timeout_s=0.1, max_attempts=8)
    stats = RetryStats()
    channel = RetryChannel(sim, policy, stats)
    call = channel.call(lambda c: None)
    call.complete()
    call.complete()  # late duplicate ack: harmless
    sim.run()
    assert stats.completions == 1
    assert stats.timeouts == 0  # the armed deadline was cancelled
    assert stats.attempts == 1


def test_retry_channel_stops_when_inactive():
    sim = _sim()
    policy = RetryPolicy(timeout_s=0.05, backoff_base_s=0.01, max_attempts=8)
    stats = RetryStats()
    state = {"active": True}
    channel = RetryChannel(sim, policy, stats, active=lambda: state["active"])
    sends = []

    def send(call):
        sends.append(call.attempt)
        state["active"] = False  # cluster finishes while the call is in flight

    channel.call(send)
    sim.run()
    assert sends == [1]  # the retry fired but found the channel inactive
    assert stats.abandoned == 0


# --------------------------------------------------------------------- #
# correlated faults and storms: results survive any schedule


@pytest.mark.parametrize("stack", ["vcausal", "manetho", "logon"])
@pytest.mark.parametrize("seed", [0, 1])
def test_storm_schedules_preserve_results(stack, seed):
    reference = run_ring(stack, nprocs=6, iterations=20)
    cfg = ClusterConfig().with_overrides(fault_domains=3)
    result = run_ring(
        stack, nprocs=6, iterations=20, config=cfg,
        fault_plan=StormFaults(
            start_s=0.05, window_s=0.3, kills=2, seed=seed
        ),
    )
    assert result.finished
    assert result.results == reference.results
    # two domains of two ranks each died
    assert len(result.probes.recoveries) + result.probes.faults_skipped == 4


@pytest.mark.parametrize("stack", ["vcausal", "manetho", "logon"])
def test_correlated_domain_kill_preserves_results(stack):
    reference = run_ring(stack, nprocs=6, iterations=20)
    cfg = ClusterConfig().with_overrides(fault_domains=2)
    result = run_ring(
        stack, nprocs=6, iterations=20, config=cfg,
        fault_plan=CorrelatedFaults(at_s=0.1, domain=1),
    )
    assert result.finished
    assert result.results == reference.results
    assert len(result.probes.recoveries) == 3  # the whole 3-rank domain


def test_cascading_restarts_rekill_the_domain(baseline):
    """With cascade_p=1 every restart inside the struck domain re-kills
    the restarted rank, bounded by max_cascades."""
    cfg = ClusterConfig().with_overrides(fault_domains=2)
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        fault_plan=CorrelatedFaults(
            at_s=0.05, domain=0, cascade_p=1.0, cascade_delay_s=0.15,
            max_cascades=2,
        ),
    )
    assert result.finished
    assert result.results == baseline
    # 2 ranks in the domain + exactly max_cascades re-kills (the 0.15 s
    # delay lets each restarted rank finish replaying, so the re-kill
    # lands on a steady victim instead of being skipped)
    assert len(result.probes.recoveries) == 4
    assert result.probes.faults_skipped == 0


def test_cascade_disabled_by_default(baseline):
    cfg = ClusterConfig().with_overrides(fault_domains=2)
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        fault_plan=CorrelatedFaults(at_s=0.05, domain=0),
    )
    assert result.finished
    assert result.results == baseline
    assert len(result.probes.recoveries) == 2  # no re-kills


# --------------------------------------------------------------------- #
# EL shard failover


EL2 = dict(el_count=2, el_sync_strategy="multicast", el_sync_interval_s=5e-3)


def test_el_failover_knob_is_bit_identical_when_fault_free():
    """Arming ``el_failover`` must add zero simulated events until a shard
    actually dies: the failover machinery is pure host-side state."""
    off = run_ring(
        "vcausal", nprocs=4, iterations=25,
        config=ClusterConfig().with_overrides(**EL2, el_failover=False),
    )
    on = run_ring(
        "vcausal", nprocs=4, iterations=25,
        config=ClusterConfig().with_overrides(**EL2, el_failover=True),
    )
    assert on.events_executed == off.events_executed
    assert on.sim_time == off.sim_time
    assert on.results == off.results


@pytest.mark.parametrize(
    "stack,config,index",
    [
        ("vcausal", ClusterConfig().with_overrides(**EL2), -1),  # would wrap to 1
        ("vcausal", ClusterConfig().with_overrides(**EL2), 5),
        ("vcausal-noel", ClusterConfig(), 0),  # no EL to kill
    ],
    ids=["negative", "past-end", "no-el"],
)
def test_infra_faults_reject_impossible_shard_kills(stack, config, index):
    """An EL shard kill that cannot happen fails when the plan is
    installed, before any event fires — not silently, and not mid-run."""
    cluster = Cluster(
        nprocs=4, app_factory=ring_app(iterations=5), stack=stack, config=config,
        fault_plan=InfraFaults(el_shard_kills=[(0.001, index)]),
    )
    with pytest.raises(ValueError):
        cluster.run()
    assert cluster.sim.events_executed == 0


def test_el_shard_crash_with_failover_preserves_results(baseline):
    cfg = ClusterConfig().with_overrides(
        **EL2, el_failover=True, rpc_timeout_s=5e-3
    )
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        fault_plan=InfraFaults(el_shard_kills=[(0.2, 0)]),
    )
    assert result.finished
    assert result.results == baseline
    probes = result.probes
    assert probes.el_failovers == 1
    group = result.cluster.event_logger
    assert group.shard_kills == 1
    # the dead shard's key range now routes to the survivor
    assert len({group.shard_index_for(r) for r in range(4)}) == 1


def test_el_shard_crash_then_rank_kill_recovers_from_survivor(baseline):
    """After a failover, a recovering rank must fetch its determinants
    from the surviving shard (disk-absorbed + re-logged ones)."""
    cfg = ClusterConfig().with_overrides(
        **EL2, el_failover=True, rpc_timeout_s=5e-3
    )
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        fault_plan=CompositeFaults(plans=[
            InfraFaults(el_shard_kills=[(0.2, 0)]),
            OneShotFaults([(0.3, 0)]),  # rank 0's range lived on shard 0
        ]),
    )
    assert result.finished
    assert result.results == baseline
    assert result.probes.el_failovers == 1
    assert len(result.probes.recoveries) == 1


def test_el_shard_crash_without_failover_strands_the_range():
    """Without the knob a dead shard stays dead: posts to it are dropped.
    The run must still complete (determinant logging is an optimisation,
    not a correctness requirement while no rank dies)."""
    cfg = ClusterConfig().with_overrides(**EL2, el_failover=False)
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        fault_plan=InfraFaults(el_shard_kills=[(0.2, 0)]),
    )
    assert result.finished
    assert result.probes.el_failovers == 0
    assert result.probes.el_posts_dropped > 0


# --------------------------------------------------------------------- #
# checkpoint-server outages


def test_ckpt_outage_aborts_inflight_stores_and_retries(baseline):
    """An outage mid-wave aborts the in-flight store transactions; armed
    retries re-store after the restore and a later fault still recovers
    with correct results."""
    cfg = ClusterConfig().with_overrides(
        ckpt_server_failover=True, rpc_timeout_s=5e-3
    )
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        checkpoint_policy="round-robin", checkpoint_interval_s=0.05,
        fault_plan=CompositeFaults(plans=[
            InfraFaults(ckpt_outages=[(0.12, 0.3)]),
            OneShotFaults([(0.6, 1)]),
        ]),
    )
    assert result.finished
    assert result.results == baseline
    probes = result.probes
    assert probes.ckpt_outages == 1
    assert probes.ckpt_stores_aborted + probes.rpc_channels[
        "ckpt_store"
    ].failures > 0
    assert len(probes.recoveries) == 1


def test_ckpt_unrestored_outage_still_completes(baseline):
    """The server never comes back: stores are abandoned after the attempt
    budget, checkpoint ticks are skipped, and a fault-free run finishes."""
    cfg = ClusterConfig().with_overrides(
        ckpt_server_failover=True, rpc_timeout_s=5e-3, rpc_max_attempts=3
    )
    result = run_ring(
        "vcausal", nprocs=4, iterations=25, config=cfg,
        checkpoint_policy="round-robin", checkpoint_interval_s=0.05,
        fault_plan=InfraFaults(ckpt_outages=[(0.1, None)]),
    )
    assert result.finished
    assert result.results == baseline
    assert result.cluster.scheduler.ticks_skipped > 0


def test_ckpt_outage_unit_transactional_abort():
    """Unit-level transactional contract: a store in flight when the
    server fails aborts at delivery; complete waves survive the outage
    and remain retrievable after the restore."""
    from repro.metrics.probes import ClusterProbes
    from repro.runtime.checkpoint_server import CheckpointServer
    from repro.simulator.engine import Simulator
    from repro.simulator.network import Network

    sim = Simulator()
    config = ClusterConfig()
    network = Network(sim, bandwidth_bps=config.bandwidth_bps)
    network.attach("n0")
    network.attach("ckpt", bandwidth_bps=config.checkpoint_server_bandwidth_bps)
    server = CheckpointServer(sim, network, config, ClusterProbes(), nprocs=1)
    log = []

    # wave 1 commits fully before the crash
    server.store(0, 4096, {"w": 1}, "n0",
                 on_commit=lambda img: log.append("commit1"), wave=1)
    sim.run()
    assert log == ["commit1"]
    assert server.wave_complete(1, nprocs=1)

    # wave 2's store is in flight when the server dies
    accepted = server.store(0, 4096, {"w": 2}, "n0",
                            on_commit=lambda img: log.append("commit2"),
                            on_abort=lambda: log.append("abort2"), wave=2)
    assert accepted
    server.fail()
    sim.run()
    assert log == ["commit1", "abort2"]  # transaction aborted at delivery
    assert 2 not in server.waves  # the aborted wave is never resurrected

    # while down: connection refused, nothing sent
    assert not server.store(0, 4096, {"w": 3}, "n0", wave=3)
    assert not server.retrieve(0, "n0", lambda img: None)

    # after the restore the *complete* wave is still there
    server.restore()
    assert server.latest_complete_wave(nprocs=1) == 1
    got = []
    assert server.retrieve_wave(0, 1, "n0", lambda img: got.append(img))
    sim.run()
    assert got and got[0].snapshot == {"w": 1}


# --------------------------------------------------------------------- #
# default-knob bit-identity of the whole robustness layer


def test_default_knobs_add_no_events():
    """The seed configuration must be bit-identical to a run with the
    whole robustness layer compiled in but disabled (the default knobs):
    no retry timers, no failover bookkeeping events."""
    r = run_ring("vcausal", nprocs=4, iterations=25)
    cfg = ClusterConfig()
    assert cfg.rpc_timeout_s == 0.0
    assert not cfg.el_failover
    assert not cfg.ckpt_server_failover
    assert cfg.fault_domains == 0
    assert r.probes.rpc_channels == {}  # no channel ever instantiated
