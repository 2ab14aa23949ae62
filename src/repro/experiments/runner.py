"""CLI entry point: regenerate and shape-check every paper figure/table.

Usage::

    python -m repro.experiments.runner --all            # fast mode
    python -m repro.experiments.runner --all --full     # full sweeps
    python -m repro.experiments.runner -e fig7 -e fig10

Exits 1 when any figure violates one of its shape claims.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterable, Optional

from repro.experiments.common import Cells, Figure


def regenerate(
    figures: Iterable[Figure], fast: bool = True, cell: Optional[Cells] = None
) -> int:
    """Run, print and shape-check each figure; 1 if any shape is violated."""
    cell = cell or Cells()
    status = 0
    for fig in figures:
        print("=" * 78)
        print(f"== {fig.name}: {fig.title}")
        print("=" * 78)
        t0 = time.time()  # simlint: ignore[wall-clock] - host-side progress timer, never feeds simulated state
        results = fig.run(fast, cell)
        print(fig.table(results))
        violations = fig.shapes(results)
        if violations:
            status = 1
            print("\nshape violations:")
            for v in violations:
                print("  -", v)
        shapes = "shape violations" if violations else "shapes hold"
        print(f"\n[{fig.name} done in {time.time() - t0:.1f}s, {shapes}]\n")  # simlint: ignore[wall-clock] - same host-side timer
    return status


def main(argv=None) -> int:
    from repro.experiments import FIGURES

    parser = argparse.ArgumentParser(
        description="Reproduce the figures/tables of the IPPS 2005 Event Logger paper"
    )
    parser.add_argument(
        "-e",
        "--experiment",
        action="append",
        choices=sorted(FIGURES),
        help="experiment(s) to run (repeatable)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--full",
        action="store_true",
        help="full parameter sweeps (slow); default is a fast representative subset",
    )
    args = parser.parse_args(argv)

    names = sorted(FIGURES) if args.all or not args.experiment else args.experiment
    return regenerate((FIGURES[n] for n in names), fast=not args.full)


if __name__ == "__main__":
    sys.exit(main())
