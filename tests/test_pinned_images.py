"""Pinned simulation images: the recorded contract of the delivery path.

Every row runs one fixed configuration and compares the simulated image
— completion time, event count, traffic, piggyback volume, recovery
bookkeeping and a fold of the application results — with values
recorded on the commit *before* the layered delivery stack, the
partitioned engine and the multiprocess backend were removed (when a
second implementation still existed to agree with).  Any change to the
delivery pipeline, the piggyback algebra, recovery or the workload
skeletons that moves a single event fails here; a PR that means to
change simulated behaviour re-records the rows it moves and says so.
"""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterConfig, OneShotFaults
from repro.experiments.common import run_nas
from repro.runtime.failure import CompositeFaults, InfraFaults, StormFaults
from repro.workloads.nas import make_app

from benchmarks.e2e.workloads import result_fold
from tests.schedules import LOGGING_STACKS, PROTOCOL_STACKS, run_schedule

#: sends of two sizes, a rooted and an unrooted collective and a compute
#: phase per iteration, on 4 ranks
OPS = [("ring", 32_768), ("ring", 512), ("bcast", 1, 4096), ("allreduce", 8),
       ("compute", 0.002)]
ITERATIONS = 6

KILL = {"fault_at": [(0.02, 1)]}
CKPT_KILL = {"fault_at": [(0.03, 2)], "checkpoint_interval_s": 0.01}

#: row name -> (stack, run_schedule keywords)
SCHEDULE_CASES: dict[str, tuple[str, dict]] = {
    **{f"{s}-faultfree": (s, {})
       for s in ("vdummy", "vcausal-noel") + PROTOCOL_STACKS},
    **{f"{s}-kill": (s, KILL) for s in LOGGING_STACKS},
    **{f"{s}-ckpt_kill": (s, {**CKPT_KILL, "checkpoint_policy": "round-robin"})
       for s in LOGGING_STACKS},
    "coordinated-ckpt_kill": (
        "coordinated", {**CKPT_KILL, "checkpoint_policy": "coordinated"}),
    "vcausal-el4_tree_retry_kill": ("vcausal", {
        **KILL, "el_count": 4, "el_sync_strategy": "tree",
        "el_sync_interval_s": 10e-3, "rpc_timeout_s": 0.05}),
}

#: NAS class-S skeletons under vcausal, 2 iterations: bench -> nprocs
NAS_CASES = {"bt": 9, "sp": 4, "ft": 8}


def pin_of(result) -> tuple:
    """(sim_time, events_executed, app_messages_sent, piggyback_bytes_sent,
    piggyback_events_sent, recoveries, replayed_receptions, result fold)."""
    assert result.finished
    fold = 0
    for v in result.results.values():  # int results: hash() is process-stable
        fold = (fold * 1_000_003 + hash(v)) % (2**61 - 1)
    total = result.probes.total
    return (
        result.sim_time,
        result.events_executed,
        total("app_messages_sent"),
        total("piggyback_bytes_sent"),
        total("piggyback_events_sent"),
        len(result.probes.recoveries),
        total("replayed_receptions"),
        fold,
    )


def run_case(name: str):
    if name in SCHEDULE_CASES:
        stack, kw = SCHEDULE_CASES[name]
        return run_schedule(stack, OPS, ITERATIONS, **kw)
    bench = name.removeprefix("nas-")
    app, _ = make_app(bench, "S", NAS_CASES[bench], iterations=2)
    return Cluster(
        nprocs=NAS_CASES[bench], app_factory=app, stack="vcausal"
    ).run(max_events=20_000_000)


PINS: dict[str, tuple] = {
    "vdummy-faultfree": (0.04169383999999997, 430, 102, 0, 0, 0, 0, 1930628358251192912),
    "vcausal-noel-faultfree": (0.044758620729908064, 532, 102, 9080, 572, 0, 0, 1930628358251192912),
    "vcausal-faultfree": (0.042796039139784955, 838, 102, 648, 12, 0, 0, 1930628358251192912),
    "manetho-faultfree": (0.04282883913978497, 838, 102, 648, 12, 0, 0, 1930628358251192912),
    "logon-faultfree": (0.04282293053763442, 838, 102, 600, 12, 0, 0, 1930628358251192912),
    "pessimistic-faultfree": (0.043417723225806414, 767, 102, 0, 0, 0, 0, 1776918589705270658),
    "coordinated-faultfree": (0.04169383999999997, 430, 102, 0, 0, 0, 0, 1930628358251192912),
    "vcausal-kill": (0.4038191876344082, 951, 117, 1244, 48, 1, 9, 1930628358251192912),
    "manetho-kill": (0.4038478690322577, 951, 117, 1244, 48, 1, 9, 1930628358251192912),
    "logon-kill": (0.4038645609722539, 951, 117, 1236, 48, 1, 9, 1930628358251192912),
    "pessimistic-kill": (0.413137331612903, 865, 117, 0, 0, 1, 9, 1776918589705270658),
    "vcausal-ckpt_kill": (0.7807161222580646, 1115, 112, 1540, 61, 1, 11, 1930628358251192912),
    "manetho-ckpt_kill": (0.7807371222580647, 1115, 112, 1480, 58, 1, 11, 1930628358251192912),
    "logon-ckpt_kill": (0.7807436664904636, 1115, 112, 1392, 59, 1, 11, 1930628358251192912),
    "pessimistic-ckpt_kill": (0.7848382482795713, 1038, 112, 0, 0, 1, 11, 1776918589705270658),
    "coordinated-ckpt_kill": (0.7838102346236578, 752, 144, 0, 0, 1, 0, 1930628358251192912),
    "vcausal-el4_tree_retry_kill": (0.40388477607472023, 1232, 117, 1984, 87, 1, 9, 1930628358251192912),
    "nas-bt": (0.007192012311814559, 1108, 124, 1828, 67, 0, 0, 1956590250360878096),
    "nas-sp": (0.0074528037634408574, 484, 54, 596, 19, 0, 0, 848296323971433027),
    "nas-ft": (0.07237872496575341, 1272, 154, 1096, 24, 0, 0, 970971711552552355),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_image(name):
    assert pin_of(run_case(name)) == PINS[name]


def test_every_case_is_pinned():
    assert set(PINS) == set(SCHEDULE_CASES) | {f"nas-{b}" for b in NAS_CASES}


def test_fault_rows_actually_recover():
    """The kill rows pin a recovery, not a fault that fired after the run:
    logging stacks replay receptions, coordinated rolls everyone back."""
    for name, pin in PINS.items():
        if "kill" in name:
            assert pin[5] >= 1, name
            if not name.startswith("coordinated"):
                assert pin[6] >= 1, name


# --------------------------------------------------------------------- #
# Scale rows: CG-256 and MG-16 under infrastructure faults, and 256 ranks
# over 16 EL shards per sync topology.  Each row is a dict of simulated
# quantities; the five fault rows are the ``BENCH_6.json`` checksums
# verbatim, ``result_fold`` the benchmark's fold of application results.

def fault_image(result) -> dict:
    probes = result.probes
    return {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "messages": probes.total("app_messages_sent"),
        "recoveries": len(probes.recoveries),
        "replayed": probes.total("replayed_receptions"),
        "rpc_retries": probes.rpc_total("retries"),
        "rpc_timeouts": probes.rpc_total("timeouts"),
        "result_fold": result_fold(result.results),
    }


def run_cg256_el4(plan) -> dict:
    """CG A, 256 ranks, four EL shards (tree sync), 32 failure domains,
    shard and checkpoint-server failover and the retry layer armed."""
    cfg = ClusterConfig().with_overrides(
        pb_cost_model="sparse", el_count=4, el_sync_strategy="tree",
        el_sync_interval_s=10e-3, el_failover=True, ckpt_server_failover=True,
        fault_domains=32, rpc_timeout_s=25e-3,
    )
    result, _ = run_nas("cg", "A", 256, "vcausal", iterations=1, config=cfg,
                        fault_plan=plan, app_kwargs={"inner": 3})
    probes = result.probes
    return {
        **fault_image(result),
        "el_failovers": probes.el_failovers,
        "el_disk_recovered": probes.el_disk_records_recovered,
        "el_relogged": probes.el_relogged_determinants,
    }


def run_mg16_ckpt(plan) -> dict:
    """MG A, 16 ranks, coordinated checkpoints every 0.2 s with server
    failover and the retry layer armed."""
    cfg = ClusterConfig().with_overrides(ckpt_server_failover=True, rpc_timeout_s=25e-3)
    result, _ = run_nas("mg", "A", 16, "vcausal", iterations=3, config=cfg,
                        checkpoint_policy="coordinated", checkpoint_interval_s=0.2,
                        fault_plan=plan)
    probes = result.probes
    return {
        **fault_image(result),
        "ckpt_outages": probes.ckpt_outages,
        "ckpt_stores_aborted": probes.ckpt_stores_aborted,
        "ckpt_ticks_skipped": result.cluster.scheduler.ticks_skipped,
    }


def run_cg256_el16(strategy: str) -> dict:
    """CG A (``inner=3``), 256 ranks over 16 EL shards synced every
    10 ms — at the default 2 ms the multicast sync oversubscribes each
    shard's NIC and never drains."""
    cfg = ClusterConfig().with_overrides(
        pb_cost_model="sparse", el_count=16, el_sync_strategy=strategy,
        el_sync_interval_s=10e-3,
    )
    result, _ = run_nas("cg", "A", 256, "vcausal", iterations=1, config=cfg,
                        app_kwargs={"inner": 3})
    probes = result.probes
    group = result.cluster.event_logger
    return {
        "events": result.events_executed,
        "sim_time": round(result.sim_time, 9),
        "pb_events": probes.total("piggyback_events_sent"),
        "pb_bytes": probes.total("piggyback_bytes_sent"),
        "messages": probes.total("app_messages_sent"),
        "sync_rounds": group.sync_rounds,
        "sync_messages": group.sync_messages,
        "sync_bytes": group.sync_bytes,
    }


SCALE_CASES = {
    # two whole failure domains (16 ranks) killed inside 100 ms, with
    # restart-triggered cascade re-kills
    "nas_cg256_el4_storm": lambda: run_cg256_el4(StormFaults(
        start_s=0.3, window_s=0.1, kills=2, cascade_p=0.5,
        cascade_delay_s=0.05, seed=1)),
    # EL shard 1 dies mid-run: survivors absorb its range off disk and
    # creators re-log their unsynced determinants
    "nas_cg256_el4_shardloss": lambda: run_cg256_el4(
        InfraFaults(el_shard_kills=[(0.35, 1)])),
    "nas_cg256_el4_reference": lambda: run_cg256_el4(None),
    # the checkpoint server dies with a whole wave in flight, comes back
    # at 0.65 s, then a rank is killed and recovers
    "nas_mg16_ckpt_outage": lambda: run_mg16_ckpt(CompositeFaults(plans=[
        InfraFaults(ckpt_outages=[(0.41, 0.65)]), OneShotFaults([(0.75, 3)])])),
    "nas_mg16_ckpt_reference": lambda: run_mg16_ckpt(None),
    "nas_cg256_el16_multicast": lambda: run_cg256_el16("multicast"),
    "nas_cg256_el16_tree": lambda: run_cg256_el16("tree"),
}

SCALE_PINS: dict[str, dict] = {
    "nas_cg256_el4_storm": {
        "events": 114944, "sim_time": 1.096032697, "messages": 10962,
        "recoveries": 18, "replayed": 506, "rpc_retries": 2300,
        "rpc_timeouts": 6765, "result_fold": 509649, "el_failovers": 0,
        "el_disk_recovered": 0, "el_relogged": 0},
    "nas_cg256_el4_shardloss": {
        "events": 116545, "sim_time": 0.694652206, "messages": 10446,
        "recoveries": 0, "replayed": 0, "rpc_retries": 4474,
        "rpc_timeouts": 10785, "result_fold": 509649, "el_failovers": 1,
        "el_disk_recovered": 1724, "el_relogged": 760},
    "nas_cg256_el4_reference": {
        "events": 113165, "sim_time": 0.80866554, "messages": 10446,
        "recoveries": 0, "replayed": 0, "rpc_retries": 3534,
        "rpc_timeouts": 8755, "result_fold": 509649, "el_failovers": 0,
        "el_disk_recovered": 0, "el_relogged": 0},
    "nas_mg16_ckpt_outage": {
        "events": 12929, "sim_time": 1.83068913, "messages": 1336,
        "recoveries": 1, "replayed": 63, "rpc_retries": 16,
        "rpc_timeouts": 8, "result_fold": 538348, "ckpt_outages": 1,
        "ckpt_stores_aborted": 16, "ckpt_ticks_skipped": 1},
    "nas_mg16_ckpt_reference": {
        "events": 12392, "sim_time": 0.973372542, "messages": 1272,
        "recoveries": 0, "replayed": 0, "rpc_retries": 0,
        "rpc_timeouts": 7, "result_fold": 538348, "ckpt_outages": 0,
        "ckpt_stores_aborted": 0, "ckpt_ticks_skipped": 0},
    "nas_cg256_el16_multicast": {
        "events": 88109, "sim_time": 0.150781013, "pb_events": 660787,
        "pb_bytes": 10994724, "messages": 10446, "sync_rounds": 15,
        "sync_messages": 3600, "sync_bytes": 6969600},
    "nas_cg256_el16_tree": {
        "events": 84899, "sim_time": 0.110767007, "pb_events": 569353,
        "pb_bytes": 9865428, "messages": 10446, "sync_rounds": 11,
        "sync_messages": 330, "sync_bytes": 655264},
}


@pytest.mark.parametrize("name", sorted(SCALE_CASES))
def test_scale_pin(name):
    assert SCALE_CASES[name]() == SCALE_PINS[name]


def test_scale_pins_hold_their_properties():
    """What the scale rows are about, read off the pins (which the runs
    must equal): faulty runs fold to their fault-free references, the
    faults actually bit, and the tree sync is O(shards) per round where
    multicast is O(shards²)."""
    assert set(SCALE_PINS) == set(SCALE_CASES)
    ref = SCALE_PINS["nas_cg256_el4_reference"]
    storm = SCALE_PINS["nas_cg256_el4_storm"]
    assert storm["recoveries"] >= 16 and storm["replayed"] > 0
    assert storm["result_fold"] == ref["result_fold"]
    shard = SCALE_PINS["nas_cg256_el4_shardloss"]
    assert shard["el_failovers"] == 1
    assert shard["el_disk_recovered"] > 0 and shard["el_relogged"] > 0
    assert shard["result_fold"] == ref["result_fold"]
    outage = SCALE_PINS["nas_mg16_ckpt_outage"]
    assert outage["ckpt_outages"] == 1
    assert outage["ckpt_stores_aborted"] >= 16  # a whole wave aborted in flight
    assert outage["ckpt_ticks_skipped"] >= 1
    assert outage["recoveries"] == 1
    assert outage["result_fold"] == SCALE_PINS["nas_mg16_ckpt_reference"]["result_fold"]
    multicast = SCALE_PINS["nas_cg256_el16_multicast"]
    tree = SCALE_PINS["nas_cg256_el16_tree"]
    assert multicast["sync_messages"] == multicast["sync_rounds"] * 16 * 15
    assert tree["sync_messages"] == tree["sync_rounds"] * 2 * 15
    assert tree["sync_messages"] < multicast["sync_messages"]
