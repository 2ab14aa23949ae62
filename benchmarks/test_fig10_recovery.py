"""Fig. 10 — time to recover the events to replay at restart."""

import pytest

from repro.experiments import fig10_recovery


@pytest.mark.parametrize("mode", ["vcausal", "vcausal-noel"])
def test_recovery_episode_benchmark(mode):
    """A full kill → collect → replay episode (CG B, 8 procs) collects events."""
    cell = fig10_recovery._measure("cg", "B", 8, mode, 2)
    assert cell["events"] > 0


def test_regenerate_fig10_table(fast_mode, capsys):
    results = fig10_recovery.run(fast=fast_mode)
    report = fig10_recovery.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    rec = results["recovery"]
    # with-EL collection beats peer collection at every P >= 4
    for (bench, klass, nprocs, label), cell in rec.items():
        if label != "with EL" or nprocs < 4:
            continue
        other = rec[(bench, klass, nprocs, "without EL")]
        assert cell["collection_ms"] < other["collection_ms"], (bench, nprocs)
        assert cell["sources"] == 1
        assert other["sources"] == nprocs - 1
    # no-EL collection grows with the process count (scalability claim)
    for bench, klass in (("bt", "A"), ("cg", "B"), ("lu", "A")):
        series = [
            cell["collection_ms"]
            for (b, k, p, label), cell in sorted(rec.items())
            if b == bench and k == klass and label == "without EL"
        ]
        assert series == sorted(series), (bench, series)
