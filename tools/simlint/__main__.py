"""CLI entry point: ``python -m tools.simlint [paths...]``.

Exits 0 when every finding is suppressed (or none exist), 1 otherwise —
the contract the tier-1 meta-test relies on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.simlint.config import load_config
from tools.simlint.rules import RULES
from tools.simlint.runner import lint_paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.simlint",
        description="determinism & hot-path static analysis (docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repo root: config + scope globs resolve against it (default: .)",
    )
    parser.add_argument(
        "--rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print suppressed findings",
    )
    args = parser.parse_args(argv)

    if args.rules:
        width = max(len(r) for r in RULES)
        for rule, desc in RULES.items():
            print(f"{rule:<{width}}  {desc}")
        return 0

    root = Path(args.root)
    config = load_config(root)
    findings = lint_paths([Path(p) for p in args.paths], root, config)
    unsuppressed = [f for f in findings if not f.suppressed]
    shown = findings if args.show_suppressed else unsuppressed
    for finding in shown:
        print(finding.render())
    n_sup = sum(1 for f in findings if f.suppressed)
    print(f"simlint: {len(unsuppressed)} finding(s), {n_sup} suppressed")
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
