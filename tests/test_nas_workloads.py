"""NAS skeleton tests: completion, determinism, cross-stack agreement."""

import pytest

from repro import Cluster
from repro.workloads.nas import allowed_procs, make_app, problem_info
from repro.workloads.nas.common import pow2_grid, square_side

BENCHES = ("bt", "sp", "cg", "lu", "mg", "ft")


def run_bench(bench, klass="S", nprocs=4, stack="vdummy", iterations=2, **kw):
    app, info = make_app(bench, klass, nprocs, iterations=iterations)
    result = Cluster(nprocs=nprocs, app_factory=app, stack=stack, **kw).run(
        max_events=20_000_000
    )
    assert result.finished, (bench, stack)
    return result, info


# --------------------------------------------------------------------- #
# grids and class tables

def test_square_side_accepts_squares():
    assert square_side(16) == 4
    with pytest.raises(ValueError):
        square_side(8)


def test_pow2_grid_factorization():
    assert pow2_grid(16) == (4, 4)
    assert pow2_grid(8) == (2, 4)
    assert pow2_grid(2) == (1, 2)
    with pytest.raises(ValueError):
        pow2_grid(6)


def test_problem_info_classes():
    a = problem_info("bt", "A")
    b = problem_info("bt", "B")
    assert b.total_flops > a.total_flops
    assert a.iterations == 200


def test_allowed_procs():
    assert 9 in allowed_procs("bt")
    assert 9 not in allowed_procs("cg")


def test_unknown_bench_raises():
    with pytest.raises(ValueError):
        make_app("nosuch", "A", 4)


# --------------------------------------------------------------------- #
# completion on every benchmark

@pytest.mark.parametrize("bench", BENCHES)
def test_bench_completes_on_vdummy(bench):
    nprocs = 4
    result, info = run_bench(bench, nprocs=nprocs)
    assert result.mflops > 0
    assert info.iterations_used == 2
    assert result.probes.total("flops") > 0


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_completes_on_vcausal(bench):
    result, _ = run_bench(bench, stack="vcausal")
    assert result.probes.total("el_events_logged") > 0


@pytest.mark.parametrize("bench", ("bt", "cg", "lu"))
@pytest.mark.parametrize("nprocs", (4, 16))
def test_bench_scales_proc_counts(bench, nprocs):
    result, _ = run_bench(bench, nprocs=nprocs)
    assert result.finished


def test_bt_runs_on_9_procs():
    result, _ = run_bench("bt", nprocs=9)
    assert result.finished


def test_single_process_degenerate_runs():
    for bench in ("cg", "ft", "mg"):
        result, _ = run_bench(bench, nprocs=1)
        assert result.probes.total("app_messages_sent") == 0


# --------------------------------------------------------------------- #
# determinism and cross-stack agreement

@pytest.mark.parametrize("bench", BENCHES)
def test_results_identical_across_stacks(bench):
    """The fault-tolerance stack must never change application results."""
    reference, _ = run_bench(bench, stack="vdummy")
    for stack in ("p4", "vcausal", "manetho-noel", "pessimistic"):
        result, _ = run_bench(bench, stack=stack)
        assert result.results == reference.results, stack


@pytest.mark.parametrize("bench", BENCHES)
def test_bitwise_reproducible(bench):
    r1, _ = run_bench(bench, stack="vcausal")
    r2, _ = run_bench(bench, stack="vcausal")
    assert r1.sim_time == r2.sim_time
    assert r1.results == r2.results
    assert r1.events_executed == r2.events_executed


# --------------------------------------------------------------------- #
# fault tolerance on real workloads

@pytest.mark.parametrize("bench", ("cg", "lu", "ft"))
def test_bench_survives_fault(bench):
    from repro import OneShotFaults

    base, _ = run_bench(bench, klass="S", nprocs=4, stack="vcausal", iterations=3)
    app, _ = make_app(bench, "S", 4, iterations=3)
    result = Cluster(
        nprocs=4,
        app_factory=app,
        stack="vcausal",
        fault_plan=OneShotFaults([(base.sim_time / 2, 1)]),
    ).run(max_events=20_000_000)
    assert result.finished
    assert result.results == base.results


def test_bt_survives_fault_with_checkpoints():
    from repro import OneShotFaults

    base, _ = run_bench("bt", klass="S", nprocs=4, stack="vcausal", iterations=10)
    app, _ = make_app("bt", "S", 4, iterations=10)
    result = Cluster(
        nprocs=4,
        app_factory=app,
        stack="vcausal",
        checkpoint_policy="round-robin",
        checkpoint_interval_s=base.sim_time / 8,
        fault_plan=OneShotFaults([(base.sim_time * 0.6, 0)]),
    ).run(max_events=20_000_000)
    assert result.finished
    assert result.results == base.results


# --------------------------------------------------------------------- #
# workload character (the properties the paper relies on)

def test_lu_sends_many_small_messages():
    lu, _ = run_bench("lu", klass="A", nprocs=16, iterations=1)
    bt, _ = run_bench("bt", klass="A", nprocs=16, iterations=1)
    lu_msgs = lu.probes.total("app_messages_sent")
    bt_msgs = bt.probes.total("app_messages_sent")
    lu_avg = lu.probes.total_payload_bytes / lu_msgs
    bt_avg = bt.probes.total_payload_bytes / bt_msgs
    assert lu_msgs > 5 * bt_msgs          # "very large number of messages"
    assert lu_avg < bt_avg                # smaller strips vs big faces


def test_ft_is_all_to_all():
    ft, _ = run_bench("ft", klass="S", nprocs=8, iterations=2)
    per_rank = ft.probes.per_rank[0].app_messages_sent
    # each rank talks to all 7 peers each iteration (plus reductions)
    assert per_rank >= 2 * 7


def test_cg_latency_bound_many_small():
    cg, _ = run_bench("cg", klass="A", nprocs=16, iterations=1)
    avg = cg.probes.total_payload_bytes / cg.probes.total("app_messages_sent")
    assert avg < 64 * 1024


def test_nas_info_truncation_fraction():
    _, info = run_bench("bt", klass="A", nprocs=4, iterations=5)
    assert info.truncation == pytest.approx(5 / 200)
