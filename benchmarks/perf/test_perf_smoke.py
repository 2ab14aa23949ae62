"""Smoke + opt-in full runs of the perf benchmark driver.

The smoke test runs the ``--quick`` scenario set in-process so tier-1 CI
verifies the driver end-to-end in seconds; the full run is marked
``bench`` and only executes with ``pytest --run-bench``.
"""

import json
import os
import signal

import pytest

from benchmarks.perf import run_bench


def test_quick_mode_runs_in_seconds_and_is_deterministic():
    results = run_bench.run_all(quick=True, repeats=2, verbose=False)
    assert set(results) == set(run_bench.scenarios(quick=True))
    for name, r in results.items():
        assert r["sim_events"] > 0, name
        assert r["events_per_s"] > 0, name
        # measure() raises on checksum divergence between repeats, so
        # reaching this point already proves determinism; sanity-check the
        # recorded checksum shape anyway
        assert r["checksum"]["events"] == r["sim_events"]
    # the sparse 256-rank and fault-injection paths must be part of the
    # tier-1 smoke so they cannot rot between full --run-bench runs
    assert "nas_cg256_vcausal_sparse" in results
    fault = results["nas_cg8_vcausal_fault"]["checksum"]
    assert fault["recoveries"] == 1
    assert fault["replayed"] > 0
    # ... as must the 512-rank scenario
    assert results["nas_cg512_vcausal_sparse"]["checksum"]["messages"] > 0
    # ... as must the EL-saturation and sharded-EL sync-topology paths
    saturation = results["nas_lu16_el_saturation"]["checksum"]
    assert saturation["el_stored"] > 0
    assert saturation["el_peak_queue"] > 1  # LU-16 actually queues at the EL
    multicast = results["nas_cg256_el16_multicast"]["checksum"]
    tree = results["nas_cg256_el16_tree"]["checksum"]
    assert multicast["sync_messages"] == multicast["sync_rounds"] * 16 * 15
    assert tree["sync_messages"] == tree["sync_rounds"] * 2 * 15
    # the point of the tree topology: O(shards) not O(shards²) per round
    assert tree["sync_messages"] < multicast["sync_messages"]
    # ... and the infrastructure-fault scenarios (failure-domain storm,
    # EL-shard failover, checkpoint-server outage): a faulty run that does
    # not reproduce its fault-free reference's application results is a
    # correctness bug, not a slowdown
    ref = results["nas_cg256_el4_reference"]["checksum"]
    storm = results["nas_cg256_el4_storm"]["checksum"]
    assert storm["recoveries"] >= 16  # two domains of 8 ranks, plus cascades
    assert storm["replayed"] > 0
    assert storm["result_fold"] == ref["result_fold"]
    shard = results["nas_cg256_el4_shardloss"]["checksum"]
    assert shard["el_failovers"] == 1
    assert shard["el_disk_recovered"] > 0  # absorbed off the dead shard's disk
    assert shard["el_relogged"] > 0  # unsynced determinants re-sent by creators
    assert shard["result_fold"] == ref["result_fold"]
    outage = results["nas_mg16_ckpt_outage"]["checksum"]
    ck_ref = results["nas_mg16_ckpt_reference"]["checksum"]
    assert outage["ckpt_outages"] == 1
    assert outage["ckpt_stores_aborted"] >= 16  # a whole wave aborted in flight
    assert outage["ckpt_ticks_skipped"] >= 1
    assert outage["recoveries"] == 1
    assert outage["result_fold"] == ck_ref["result_fold"]
    # the infra scenarios run at full size even in quick mode, so this smoke
    # run must reproduce the recorded BENCH_6 checksums bit-for-bit — the
    # robustness scenarios cannot rot between full --run-bench runs
    recorded = json.loads((run_bench.REPO_ROOT / "BENCH_6.json").read_text())
    for name in (
        "nas_cg256_el4_storm",
        "nas_cg256_el4_shardloss",
        "nas_cg256_el4_reference",
        "nas_mg16_ckpt_outage",
        "nas_mg16_ckpt_reference",
    ):
        assert results[name]["checksum"] == recorded["scenarios"][name]["checksum"], name


def test_check_docs_flags_unreferenced_bench_files(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "BENCHMARKING.md").write_text("history: BENCH_1, BENCH_20")
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_2.json").write_text("{}")  # BENCH_20 must not cover it
    (tmp_path / "BENCH_20.json").write_text("{}")
    assert run_bench.check_docs(tmp_path) == ["BENCH_2.json"]


def test_check_docs_passes_on_this_repo():
    """Every recorded BENCH file must be documented in BENCHMARKING.md."""
    assert run_bench.check_docs() == []
    assert run_bench.main(["--check-docs"]) == 0


def test_next_output_path_derives_index(tmp_path):
    assert run_bench.next_output_path(tmp_path).name == "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_7.json").write_text("{}")
    (tmp_path / "BENCH_x.json").write_text("{}")  # non-numeric: ignored
    assert run_bench.next_output_path(tmp_path).name == "BENCH_8.json"


def test_report_doc_records_git_commit():
    doc = run_bench.report_doc({}, repeats=1, quick=True, baseline_meta=None)
    commit = doc["git_commit"]
    assert commit is None or (len(commit) == 40 and set(commit) <= set("0123456789abcdef"))


def test_quick_cli_writes_report(tmp_path):
    out = tmp_path / "bench_quick.json"
    assert run_bench.main(["--quick", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-bench-v1"
    assert doc["quick"] is True
    assert set(doc["scenarios"]) == set(run_bench.scenarios(quick=True))


def test_bench_pool_names_lost_scenarios(monkeypatch):
    """A benchmark worker dying mid-scenario fails the --jobs sweep with
    an error naming the lost scenarios (BrokenProcessPool breaks every
    outstanding future; the pool maps them back to names)."""
    from benchmarks.perf import pool

    def fake_scenarios(quick):
        def ok():
            return 1, {"events": 1}

        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        return {"pool_ok": ok, "pool_suicide": die}

    monkeypatch.setattr(run_bench, "scenarios", fake_scenarios)
    with pytest.raises(RuntimeError, match="pool_suicide"):
        pool.run_parallel(quick=True, repeats=1, jobs=1, verbose=False)


def test_check_static_finds_no_multiprocessing_under_src(tmp_path):
    """Nothing under src/ imports multiprocessing (simulations are
    single-threaded; host parallelism lives in benchmarks/perf/pool.py),
    and the check does flag an offender when there is one."""
    assert run_bench.check_multiprocessing_imports() == []
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("import os\n")
    (pkg / "forks.py").write_text("from multiprocessing import Pool\n")
    assert run_bench.check_multiprocessing_imports(tmp_path) == ["src/pkg/forks.py"]


@pytest.mark.bench
def test_full_benchmark_meets_recorded_baseline(tmp_path):
    """Full scenario set vs the recorded seed baseline (opt-in: --run-bench)."""
    out = tmp_path / "bench_full.json"
    assert run_bench.main(["--repeats", "3", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    for name, r in doc["scenarios"].items():
        if r.get("speedup") is not None:
            assert r["results_match_baseline"], name
