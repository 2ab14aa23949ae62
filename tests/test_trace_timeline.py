"""Tests for the optional timeline recorder."""

from repro import Cluster, OneShotFaults
from repro.metrics.trace import Timeline

from tests.conftest import ring_app
from tests.schedules import LOGGING_STACKS, image_diff, run_image


def run_traced(**kw):
    cluster = Cluster(nprocs=2, app_factory=ring_app(8), stack="vcausal", **kw)
    timeline = Timeline.attach(cluster)
    result = cluster.run(max_events=20_000_000)
    assert result.finished
    return timeline, result


def test_records_sends_and_deliveries():
    timeline, result = run_traced()
    sends = timeline.of_kind("send")
    delivers = timeline.of_kind("deliver")
    assert len(sends) == result.probes.total("app_messages_sent")
    assert len(delivers) > 0
    # times are monotone
    times = [e.time_s for e in timeline]
    assert times == sorted(times)


def test_records_fault_and_restart():
    timeline, result = run_traced(fault_plan=OneShotFaults([(0.05, 1)]))
    faults = timeline.of_kind("fault")
    restarts = timeline.of_kind("restart")
    assert len(faults) == 1 and faults[0].rank == 1
    assert len(restarts) == 1 and restarts[0].rank == 1
    assert restarts[0].time_s > faults[0].time_s


def test_records_checkpoints():
    timeline, _ = run_traced(
        checkpoint_policy="round-robin", checkpoint_interval_s=0.05
    )
    assert len(timeline.of_kind("checkpoint")) >= 1


def test_filters_and_summary():
    timeline, _ = run_traced()
    assert all(e.rank == 0 for e in timeline.for_rank(0))
    window = timeline.between(0.0, 0.001)
    assert all(0.0 <= e.time_s <= 0.001 for e in window)
    summary = timeline.summary()
    assert summary["send"] == len(timeline.of_kind("send"))


def test_entry_format():
    timeline, _ = run_traced()
    text = str(timeline.of_kind("send")[0])
    assert "rank" in text and "send" in text


def test_tracing_does_not_change_results():
    """An attached timeline only observes: with a mid-run kill and replay
    on every logging stack, the traced run's complete image — results,
    simulated time, event count, every probe — equals the untraced one."""
    ops = [("ring", 32_768), ("bcast", 1, 512), ("allreduce", 8), ("compute", 0.002)]
    for stack in LOGGING_STACKS:
        kw = {"fault_at": [(0.012, 1)]}
        plain = run_image(stack, ops, 4, **kw)
        timelines = []
        traced = run_image(
            stack, ops, 4, attach=lambda c: timelines.append(Timeline.attach(c)), **kw
        )
        assert plain["finished"] and traced == plain, (
            stack, image_diff(traced, plain))
        assert plain["probes"]["per_rank"][1]["replayed_receptions"] > 0, stack
        kinds = timelines[0].summary()
        assert kinds["fault"] == 1 and kinds["restart"] == 1 and kinds["deliver"] > 0
