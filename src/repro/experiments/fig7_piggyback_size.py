"""Fig. 7 — piggybacked data in percent of total exchanged data.

Runs BT, CG and LU class A with the three piggyback reduction techniques,
with and without Event Logger, and reports the total piggybacked bytes as
a percentage of the application payload bytes exchanged.
"""

from __future__ import annotations

from repro.experiments.common import Cells
from repro.metrics.reporting import format_table

#: paper Fig. 7 values (percent of total exchanged data)
PAPER_PB_PERCENT = {
    ("bt", 4): {"vcausal": 0.014, "manetho": 0.014, "logon": 0.013,
                "vcausal-noel": 0.249, "manetho-noel": 0.172, "logon-noel": 0.286},
    ("bt", 9): {"vcausal": 0.034, "manetho": 0.030, "logon": 0.029,
                "vcausal-noel": 2.27, "manetho-noel": 1.08, "logon-noel": 2.09},
    ("bt", 16): {"vcausal": 0.141, "manetho": 0.138, "logon": 0.154,
                 "vcausal-noel": 7.04, "manetho-noel": 3.01, "logon-noel": 5.9},
    ("cg", 2): {"vcausal": 0.012, "manetho": 0.014, "logon": 0.010,
                "vcausal-noel": 0.226, "manetho-noel": 0.225, "logon-noel": 0.225},
    ("cg", 4): {"vcausal": 0.032, "manetho": 0.026, "logon": 0.028,
                "vcausal-noel": 0.761, "manetho-noel": 0.313, "logon-noel": 0.434},
    ("cg", 8): {"vcausal": 0.348, "manetho": 0.39, "logon": 0.368,
                "vcausal-noel": 4.87, "manetho-noel": 2.64, "logon-noel": 4.42},
    ("cg", 16): {"vcausal": 0.492, "manetho": 0.433, "logon": 0.482,
                 "vcausal-noel": 11.8, "manetho-noel": 3.95, "logon-noel": 4.97},
    ("lu", 2): {"vcausal": 0.034, "manetho": 0.033, "logon": 0.3,
                "vcausal-noel": 0.444, "manetho-noel": 0.444, "logon-noel": 0.538},
    ("lu", 4): {"vcausal": 0.098, "manetho": 0.091, "logon": 0.081,
                "vcausal-noel": 4.05, "manetho-noel": 2.6, "logon-noel": 5.13},
    ("lu", 8): {"vcausal": 0.197, "manetho": 0.166, "logon": 0.151,
                "vcausal-noel": 16.5, "manetho-noel": 6.39, "logon-noel": 13.6},
    ("lu", 16): {"vcausal": 13.6, "manetho": 7.19, "logon": 13.8,
                 "vcausal-noel": 50.3, "manetho-noel": 13.1, "logon-noel": 39.8},
}

STACKS = ("vcausal", "manetho", "logon", "vcausal-noel", "manetho-noel", "logon-noel")

PROC_COUNTS = {"bt": (4, 9, 16), "cg": (2, 4, 8, 16), "lu": (2, 4, 8, 16)}


def run(fast: bool, cell: Cells) -> dict:
    out: dict[tuple[str, int], dict[str, float]] = {}
    for bench, counts in PROC_COUNTS.items():
        for nprocs in counts:
            out[(bench, nprocs)] = {
                stack: cell(bench, "A", nprocs, stack, fast).probes.piggyback_fraction
                for stack in STACKS
            }
    return {"pb_percent": out}


def table(results: dict) -> str:
    rows = []
    for (bench, nprocs), cell in results["pb_percent"].items():
        paper = PAPER_PB_PERCENT.get((bench, nprocs), {})
        rows.append(
            [bench.upper(), nprocs]
            + [f"{cell[s]:.3f} ({paper.get(s, float('nan')):.3f})" for s in STACKS]
        )
    return format_table(
        ["bench", "P"] + list(STACKS),
        rows,
        title=(
            "Fig. 7 — piggybacked data in % of total exchanged data, "
            "NAS class A  [model (paper)]"
        ),
    )


def shapes(results: dict) -> list[str]:
    """The EL collapses the volume on every cell; LU/16 keeps a residue."""
    pb = results["pb_percent"]
    violations = [
        f"{key}: the EL did not cut {proto}'s piggyback volume"
        for key, cell in pb.items()
        for proto in ("vcausal", "manetho", "logon")
        if not cell[proto] < cell[f"{proto}-noel"]
    ]
    if not pb[("lu", 16)]["vcausal"] > pb[("bt", 16)]["vcausal"]:
        violations.append("LU/16 with the EL left no more residue than BT/16")
    return violations
