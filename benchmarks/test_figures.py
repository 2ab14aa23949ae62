"""Paper figures: every registry entry regenerates in fast mode, prints the
rows/series the paper reports and holds its shape claims.  Figs. 6 and 10
regenerate in their own ``test_fig*.py``, next to their per-stack checks.
Run with::

    PYTHONPATH=src python -m pytest benchmarks/ -s
"""

import pytest

from repro.experiments import FIGURES
from repro.experiments.common import Cells
from repro.experiments.runner import regenerate


@pytest.fixture(scope="session")
def cell() -> Cells:
    """One store for the session: Figs. 7-9 simulate each shared cell once."""
    return Cells()


#: figures regenerated by their own test file
OWN_FILE = ("fig6", "fig10")


@pytest.mark.parametrize("name", [n for n in FIGURES if n not in OWN_FILE])
def test_figure_holds_its_shapes(name, cell, capsys):
    with capsys.disabled():
        assert regenerate([FIGURES[name]], cell=cell) == 0
