"""simlint configuration: rule → package-glob scope mapping.

A rule only fires in files whose repo-relative posix path matches one of
the rule's scope globs (``fnmatch`` semantics: ``*`` crosses directory
separators, so ``src/repro/core/**`` covers the whole subtree).  The
defaults below encode the repository's determinism contract:

* **determinism rules** guard every simulated path (``src/repro/``) —
  the packages whose execution must be a pure function of
  ``(config, seed)`` for the recorded BENCH checksums to be meaningful;
* **hot-path rules** guard the modules the compiled-core roadmap item
  wants to hand to mypyc: the engine, the network, the per-rank process
  and daemon state, and the determinant structures.

Projects override scopes in ``pyproject.toml``::

    [tool.simlint]
    exclude = ["tests/fixtures/*"]

    [tool.simlint.scopes]
    "missing-slots" = ["src/repro/simulator/engine.py"]

Keys under ``[tool.simlint.scopes]`` replace the default scope for that
rule only; ``exclude`` globs are dropped from every scan.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: packages whose execution feeds simulated results (determinism scope)
_SIM_PACKAGES = [
    "src/repro/core/*",
    "src/repro/simulator/*",
    "src/repro/runtime/*",
    "src/repro/mpi/*",
]

#: every simulated *or* experiment path — wall clocks and raw randomness
#: are banned a layer wider than the unordered-iteration rules because a
#: wall-clock read in an experiment driver corrupts recorded results just
#: as surely as one in the engine
_ALL_SRC = ["src/repro/*", "tools/*"]

#: modules whose classes must declare ``__slots__`` (the mypyc on-ramp:
#: slotted layouts compile to struct-like attribute access)
_SLOTS_MODULES = [
    "src/repro/simulator/engine.py",
    "src/repro/simulator/network.py",
    "src/repro/simulator/process.py",
    "src/repro/core/events.py",
    "src/repro/core/vcausal.py",
    "src/repro/runtime/daemon.py",
]

DEFAULT_SCOPES: dict[str, list[str]] = {
    # determinism family
    "wall-clock": _ALL_SRC,
    "raw-random": _ALL_SRC,
    "unordered-iter": _SIM_PACKAGES + ["tools/*"],
    "id-order": _SIM_PACKAGES,
    "env-read": _SIM_PACKAGES,
    # host concurrency is banned across all of src/repro (not just the
    # four sim packages): a thread anywhere under the import graph of a
    # simulation breaks single-threaded determinism.
    "host-thread": ["src/repro/*"],
    # hot-path family
    "missing-slots": _SLOTS_MODULES,
    "hot-closure": ["*"],
    "mutable-default": ["*"],
}

#: modules allowed to construct numpy Generators however they like — the
#: single sanctioned randomness seam (see docs/ANALYSIS.md)
DEFAULT_RNG_MODULES = ["src/repro/simulator/rng.py"]

DEFAULT_EXCLUDE = ["tests/fixtures/*", ".*"]


@dataclass
class Config:
    """Resolved simlint configuration."""

    scopes: dict[str, list[str]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPES)
    )
    rng_modules: list[str] = field(
        default_factory=lambda: list(DEFAULT_RNG_MODULES)
    )
    exclude: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    #: report suppression comments that suppress nothing — keeps stale
    #: justifications from outliving the code they excused
    warn_unused_ignores: bool = True

    def excluded(self, relpath: str) -> bool:
        return any(fnmatch(relpath, glob) for glob in self.exclude)

    def active_rules(self, relpath: str) -> set[str]:
        """Rule ids whose scope covers ``relpath``."""
        return {
            rule
            for rule, globs in self.scopes.items()
            if any(fnmatch(relpath, glob) for glob in globs)
        }

    def is_rng_module(self, relpath: str) -> bool:
        return any(fnmatch(relpath, glob) for glob in self.rng_modules)


def load_config(root: Path) -> Config:
    """Build a :class:`Config`, overlaying ``[tool.simlint]`` from
    ``<root>/pyproject.toml`` when present."""
    config = Config()
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("simlint", {})
    for rule, globs in table.get("scopes", {}).items():
        config.scopes[rule] = list(globs)
    if "exclude" in table:
        config.exclude = list(table["exclude"])
    if "rng-modules" in table:
        config.rng_modules = list(table["rng-modules"])
    if "warn-unused-ignores" in table:
        config.warn_unused_ignores = bool(table["warn-unused-ignores"])
    return config
