"""Fig. 10 — time to recover the events to replay at restart.

Regenerates Fig. 10 through the registry and runs one recovery episode
per mode on its own.
"""

import pytest

from repro.experiments import FIGURES, fig10_recovery
from repro.experiments.runner import regenerate


@pytest.mark.parametrize("mode", ["vcausal", "vcausal-noel"])
def test_recovery_episode_benchmark(mode):
    """A full kill → collect → replay episode (CG B, 8 procs) collects events."""
    cell = fig10_recovery._measure("cg", "B", 8, mode, 2)
    assert cell["events"] > 0


def test_regenerate_fig10_table(capsys):
    with capsys.disabled():
        assert regenerate([FIGURES["fig10"]]) == 0
