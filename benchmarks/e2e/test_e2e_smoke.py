"""Tier-1 smoke of the repo benchmark (``python3 -m benchmarks.e2e``).

Drives the command the way its users do — as a subprocess — at
``--smoke`` sizes: all six workloads end to end, traced, and the direct
layer probes, in seconds.  Nothing here asserts on a timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import layers, probes

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORT_ONLY = {"failed_share", "fig6_latency_err_pct", "fig7_pb_geo_err"}
OPTIONAL = {
    "hostexec.codec_roundtrip_ns", "partition.window_us", "partition.overhead_ratio",
}


def cli(*args, check=True):
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert done.returncode == 0, done.stderr[-2000:]
    return done


def result_line(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    done = cli("--smoke", "--seconds", 0.2, "--trace", "--layers", "--force", "--output", out)
    return json.loads(out.read_text()), done.stdout


def test_sweep_covers_every_declared_name_and_nothing_else(sweep):
    report, printed = sweep
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    probe_names = set(report["layer_probes"])
    assert OPTIONAL <= probe_names
    for name, row in report["workloads"].items():
        assert row["failed"] == 0, row["failures"]
        assert row["pinned"], name
        assert set(row["end_to_end"]) - REPORT_ONLY == set(E2E), name
        assert set(row["per_layer"]) | (probe_names - OPTIONAL) == set(PER_LAYER), name
        shares = [row["per_layer"][f"{layer}.share"] for layer in layers.LAYERS]
        total = sum(shares) + row["per_layer"]["trace.unattributed_share"]
        assert total == pytest.approx(1.0)
        assert sum(shares) >= 0.95, name
    paper = report["workloads"]["paper_fig7"]["end_to_end"]
    assert paper["fig6_latency_err_pct"]["median"] > 0
    assert paper["fig7_pb_geo_err"]["median"] >= 1
    for name in WORKLOADS + E2E + sorted(REPORT_ONLY):
        assert name in printed
    for key in ("host_cores", "python", "platform", "pinned_cpu", "load1_before",
                "load1_after", "contended", "git_commit"):
        assert key in report


def test_names_are_well_formed():
    names = WORKLOADS + E2E + PER_LAYER
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_contract_output_has_exactly_the_declared_metrics():
    plain = result_line(cli("--workload", "lu16_el_saturated", "--smoke",
                            "--seed", 3, "--seconds", 0.2, "--trace", 0))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == E2E
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    traced = result_line(cli("--workload", "lu16_el_saturated", "--smoke",
                             "--seed", 3, "--seconds", 0.2, "--trace", 1))
    assert list(traced["metrics"]) == PER_LAYER
    for name, m in {**plain["metrics"], **traced["metrics"]}.items():
        assert m["unit"] == units[name], name
        assert isinstance(m["value"], (int, float)), name
    for m in plain["metrics"].values():
        assert m["value"] > 0


def test_unknown_workload_is_refused():
    done = cli("--workload", "nope", check=False)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_every_source_file_maps_to_one_layer():
    assert layers.unmapped_files(ROOT / "src" / "repro") == []
    assert set(layers.LAYER_OF.values()) == set(layers.LAYERS)
    assert layers.layer_of_file("/x/src/repro/core/vcausal.py") == "protocol"
    assert layers.layer_of_file("/x/src/repro/core/event_logger.py") == "el"
    assert layers.layer_of_file("/usr/lib/python3/heapq.py") is None


@pytest.mark.parametrize("workload", ["cg512_el", "cg256_el4_storm"])
def test_traced_counts_and_model_counters_repeat_exactly(workload, sweep):
    report, _ = sweep
    again = result_line(cli("--workload", workload, "--smoke", "--trace", 1, "--layers", 0))
    first = report["workloads"][workload]["per_layer"]
    exact = [k for k in first if k.endswith("calls") or k.startswith("model.")]
    assert len(exact) > 20
    for key in exact:
        assert again["metrics"][key]["value"] == first[key], key


def test_unpinned_seed_is_verified_by_running_twice():
    done = cli("--workload", "cg256_el4_storm", "--smoke", "--seed", 987654,
               "--seconds", 0.1)
    line = result_line(done)
    assert line["correct"] and line["attempted"] >= 2
    detail = json.loads((HERE / "out" / "e2e-cg256_el4_storm.json").read_text())
    assert detail["pinned"] is False
    assert detail["checksum"]["recoveries"] > 0


def test_absent_optional_layer_reports_absent(monkeypatch):
    monkeypatch.setitem(sys.modules, "repro.hostexec.codec", None)
    assert probes.hostexec_codec(20) == {"hostexec.codec_roundtrip_ns": "absent"}


def test_compare_applies_the_bounds(sweep, tmp_path):
    report, _ = sweep
    a = tmp_path / "a.json"
    a.write_text(json.dumps(report))
    same = cli("--compare", a, a)
    assert "regressions: 0" in same.stdout
    slow = json.loads(json.dumps(report))
    wall = slow["workloads"]["lu256_vdummy"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 2
    slow["workloads"]["cg512_el"]["checksum"]["events"] += 1
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slow))
    worse = cli("--compare", a, b, check=False)
    assert worse.returncode != 0
    assert re.search(r"lu256_vdummy\s+wall_s.*regressed", worse.stdout)
    assert re.search(r"cg512_el\s+exact counters moved", worse.stdout)


def test_pins_match_the_last_uncontended_recording():
    """Read-only cross-check: three workloads are BENCH_7 scenarios."""
    bench = ROOT / "BENCH_7.json"
    if not bench.exists():
        pytest.skip("BENCH_7.json is gone")
    recorded = json.loads(bench.read_text())["scenarios"]
    pins = json.loads((HERE / "pins.json").read_text())["full"]
    for workload, seed, scenario in (
        ("cg512_el", "*", "nas_cg512_vcausal_sparse"),
        ("lu256_noel", "*", "nas_lu256_noel_worklist"),
        ("cg256_el4_storm", "1", "nas_cg256_el4_storm"),
    ):
        pin = pins[workload]["seeds"][seed]
        old = recorded[scenario]["checksum"]
        shared = set(pin) & set(old)
        assert {"events", "sim_time", "messages"} <= shared, workload
        assert {k: pin[k] for k in shared} == {k: old[k] for k in shared}, workload


def test_workloads_set_no_implementation_knob():
    """A workload is its inputs: nothing here may choose between
    bit-identical implementations, or lean on the older perf harness."""
    knobs = ("engine_coalesce", "delivery_fastpath", "pb_build_worklist",
             "partition_workers", "partition_ranks")
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        assert "benchmarks.perf" not in text, path.name
        for knob in knobs:
            if knob == "partition_ranks" and path.name == "probes.py":
                continue  # the optional partition probe is the pair itself
            assert knob not in text, (path.name, knob)
