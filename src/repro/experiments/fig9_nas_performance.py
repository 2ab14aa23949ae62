"""Fig. 9 — NAS benchmark performance (aggregate Megaflop/s).

Eight panels: CG A, CG B, MG A, BT A, BT B, SP A, LU A, FT A, each across
process counts, for MPICH-P4, MPICH-Vdummy and the three causal protocols
with and without Event Logger.

Shapes to reproduce (paper §V-D.3):

* Vdummy ≥ P4 on some benchmarks (full-duplex exploitation);
* with the EL the three causal protocols are nearly equal, except on the
  highest communication/computation ratios;
* the EL improves every protocol on every benchmark, and the improvement
  exceeds the spread between the two antecedence-graph protocols;
* without the EL, LU/16 punishes LogOn hardest (piggyback explosion).
"""

from __future__ import annotations

from repro.experiments.common import Cells
from repro.metrics.reporting import format_table
from repro.runtime.config import FIGURE_STACKS

#: the eight panels of Fig. 9: (bench, class) -> process counts
PANELS: dict[tuple[str, str], tuple[int, ...]] = {
    ("cg", "A"): (2, 4, 8, 16),
    ("cg", "B"): (2, 4, 8, 16),
    ("mg", "A"): (2, 4, 8, 16),
    ("bt", "A"): (4, 9, 16),
    ("bt", "B"): (4, 9, 16),
    ("sp", "A"): (4, 9, 16),
    ("lu", "A"): (2, 4, 8, 16),
    ("ft", "A"): (2, 4, 8, 16),
}

#: fast mode runs a representative subset of the panels
FAST_PANELS: dict[tuple[str, str], tuple[int, ...]] = {
    ("cg", "A"): (4, 16),
    ("bt", "A"): (4, 16),
    ("lu", "A"): (4, 16),
    ("ft", "A"): (4, 16),
}


def run(fast: bool, cell: Cells) -> dict:
    panels = FAST_PANELS if fast else PANELS
    mflops: dict[tuple[str, str, int], dict[str, float]] = {}
    for (bench, klass), counts in panels.items():
        for nprocs in counts:
            mflops[(bench, klass, nprocs)] = {
                stack: cell(bench, klass, nprocs, stack, fast).mflops
                for stack in FIGURE_STACKS
            }
    return {"mflops": mflops}


def table(results: dict) -> str:
    rows = []
    for (bench, klass, nprocs), cell in results["mflops"].items():
        rows.append(
            [f"{bench.upper()} {klass}", nprocs]
            + [f"{cell[s]:.0f}" for s in FIGURE_STACKS]
        )
    return format_table(
        ["bench", "P"] + list(FIGURE_STACKS),
        rows,
        title="Fig. 9 — NAS performance (aggregate Mflop/s; shapes, not absolutes)",
    )


def shapes(results: dict) -> list[str]:
    """The EL improves every protocol; Vdummy is not slower than Vcausal."""
    violations = []
    for key, cell in results["mflops"].items():
        for proto in ("vcausal", "manetho", "logon"):
            if cell[proto] < cell[f"{proto}-noel"] * 0.98:
                violations.append(f"{key}: EL did not improve {proto}")
        if not cell["vdummy"] >= cell["vcausal"] * 0.98:
            violations.append(f"{key}: vcausal outperformed vdummy")
    return violations
