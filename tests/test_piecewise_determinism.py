"""Piecewise determinism: replay re-creates the determinants it replays.

A recovering rank re-executes on top of its checkpoint and re-delivers
every collected reception in recorded order, so each replayed reception
must re-create exactly the determinant the cluster's
:class:`~repro.core.events.DeterminantStore` already interned for that
``(creator, clock)``.  The store counts re-creations (host-side, outside
every checksum): on these runs every one is a replayed reception and
none differs from the first determinant created for its clock.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.workloads import build, ops_of
from tests.test_pinned_images import run_case


def assert_replay_recreates_equal(result) -> None:
    assert result.finished
    replayed = result.probes.total("replayed_receptions")
    store = result.cluster.determinants
    assert replayed > 0
    assert store.recreated_equal == replayed
    assert store.recreated_forked == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_storm_replay_recreates_equal_determinants(seed):
    (op,) = ops_of("cg256_el4_storm", smoke=True)
    assert_replay_recreates_equal(build(op, seed).run())


def test_vcausal_kill_replay_recreates_equal_determinants():
    assert_replay_recreates_equal(run_case("vcausal-kill"))
