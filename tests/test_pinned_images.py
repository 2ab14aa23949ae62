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

from repro import Cluster
from repro.workloads.nas import make_app

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
