"""Module -> layer map, and the fold of a cProfile table through it.

``LAYER_OF`` is the one table that says which layer a file under
``src/repro/`` belongs to.  Keys are paths relative to ``src/repro``: a
file, or a directory ending in ``/`` that covers everything below it not
named more specifically.  A file resolves through its longest matching
key, so every file maps to exactly one layer (the smoke test walks the
tree and fails on a file that resolves to none).
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Optional

LAYERS = (
    "engine", "network", "process", "partition", "hostexec", "daemon",
    "cluster", "recovery", "protocol", "el", "mpi", "workloads", "metrics",
)

LAYER_OF = {
    "__init__.py": "cluster",            # the public facade re-exports Cluster
    "simulator/__init__.py": "engine",
    "simulator/engine.py": "engine",
    "simulator/network.py": "network",
    "simulator/process.py": "process",
    "simulator/rng.py": "process",
    "simulator/partition.py": "partition",
    "hostexec/": "hostexec",
    "runtime/__init__.py": "cluster",
    "runtime/cluster.py": "cluster",
    "runtime/config.py": "cluster",
    "runtime/daemon.py": "daemon",
    "runtime/fastpath.py": "daemon",
    "runtime/channel.py": "daemon",
    "runtime/failure.py": "recovery",
    "runtime/dispatcher.py": "recovery",
    "runtime/retry.py": "recovery",
    "runtime/checkpoint_scheduler.py": "recovery",
    "runtime/checkpoint_server.py": "recovery",
    "core/": "protocol",
    "core/event_logger.py": "el",
    "core/distributed_el.py": "el",
    "mpi/": "mpi",
    "workloads/": "workloads",
    "experiments/": "workloads",
    "metrics/": "metrics",
}

#: public hook functions reported as their own rows: metric stem ->
#: (function name, layer whose files may define it).  Rows are matched by
#: name, so they survive a file split and read 0 when the hook is never
#: called (``on_el_ack`` without an Event Logger).
HOOKS = {
    "protocol.build": ("build_piggyback", "protocol"),
    "protocol.accept": ("accept_piggyback", "protocol"),
    "protocol.ack": ("on_el_ack", "protocol"),
    "el.receive_log": ("receive_log", "el"),
    "el.fetch_events": ("fetch_events", "el"),
    "network.transfer": ("transfer", "network"),
    "engine.enqueue": ("enqueue", "engine"),
}

_MARKER = "/src/repro/"


def layer_of_relpath(rel: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro`` (longest key wins)."""
    best = None
    for key, layer in LAYER_OF.items():
        hit = rel.startswith(key) if key.endswith("/") else rel == key
        if hit and (best is None or len(key) > len(best[0])):
            best = (key, layer)
    return best[1] if best else None


def layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiler filename, or None outside ``src/repro``."""
    _, sep, rel = filename.replace("\\", "/").rpartition(_MARKER)
    return layer_of_relpath(rel) if sep else None


def unmapped_files(src_repro: Path) -> list[str]:
    """Python files under ``src/repro`` that resolve to no layer."""
    return [
        rel
        for path in sorted(src_repro.rglob("*.py"))
        if layer_of_relpath(rel := path.relative_to(src_repro).as_posix()) is None
    ]


def fold_profile(stats: pstats.Stats) -> dict:
    """Per-layer self time and calls, plus the public hook rows.

    Self time of a Python function goes to the layer of the file that
    defines it.  A C builtin has no file, so its time goes to the layer
    of each *calling* function, read from the callers table (this is
    where ``heappush`` under the engine or ``dict.update`` under the
    protocol lands).  Whatever resolves to no layer — the benchmark's
    own frames, the standard library — is summed as ``unattributed``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    hooks = {stem: [0.0, 0] for stem in HOOKS}
    by_hook = {(fn, layer): stem for stem, (fn, layer) in HOOKS.items()}
    run_s = 0.0
    unattributed = 0.0
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, callers) in stats.stats.items():
        layer = layer_of_file(filename)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            stem = by_hook.get((func, layer))
            if stem is not None:
                hooks[stem][0] += cumtime
                hooks[stem][1] += ncalls
            if layer == "engine" and func == "run":
                run_s += cumtime  # one row per engine class; never nested
            continue
        if filename != "~":
            unattributed += tottime
            continue
        split = 0.0
        for (caller_file, _l, _f), (_c, _n, caller_tt, _ct) in callers.items():
            caller_layer = layer_of_file(caller_file)
            if caller_layer is not None:
                self_s[caller_layer] += caller_tt
                split += caller_tt
        unattributed += max(tottime - split, 0.0)
    total = sum(self_s.values()) + unattributed
    return {
        "self_s": self_s,
        "calls": calls,
        "hooks": {stem: tuple(v) for stem, v in hooks.items()},
        "engine_run_s": run_s,
        "total_s": total,
        "unattributed_s": unattributed,
    }
