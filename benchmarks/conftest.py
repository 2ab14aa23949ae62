"""Paper-figure test configuration.

Every ``test_fig*.py`` regenerates one paper figure/table (in fast mode),
prints the same rows/series the paper reports and asserts its shape.
Host time is measured by ``python3 -m benchmarks.e2e``, not here.  Run
with::

    PYTHONPATH=src python -m pytest benchmarks/ -s
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-full",
        action="store_true",
        default=False,
        help="run full parameter sweeps instead of the fast subsets",
    )


@pytest.fixture(scope="session")
def fast_mode(request) -> bool:
    return not request.config.getoption("--paper-full")
