"""Host-side scenario pool for ``run_bench.py --jobs N``.

This is the one place in the repository where host-level parallelism
is allowed (the ``host-thread`` simlint rule forbids ``threading`` /
``multiprocessing`` / ``concurrent`` / ``asyncio`` imports everywhere
under ``src/repro``): simulations must stay single-threaded and
deterministic, so parallelism lives strictly *between* simulations, one
whole scenario per worker process.

Design constraints, in order:

* **Per-scenario walls stay honest.**  Each scenario's repeats run
  inside one worker process, exactly as in the serial driver, so
  intra-scenario comparisons never cross a process boundary.  Scenario-to-scenario walls *are* noisier under ``--jobs``
  (workers share cores and caches), so every record is annotated
  ``"contended": true`` and ``compare()`` refuses to compute a
  vs-baseline speedup from it; docs/BENCHMARKING.md documents when a
  recorded wall is comparable.
* **Dead workers fail loudly.**  A worker killed mid-scenario (signal,
  OOM) must fail *that scenario* with an error naming it — not hang the
  collation or silently drop the record.  ``ProcessPoolExecutor``
  breaks every outstanding future when a worker dies, and the future →
  scenario map turns that into a named error.
* **Deterministic collation.**  Futures complete out of order; results
  are re-keyed into the scenario registry's order before anything is
  reported, so the emitted JSON is byte-stable for a given set of
  checksums regardless of scheduling.
* **Scenarios travel by name.**  The registry maps names to lambdas,
  which do not pickle; workers re-import the registry and look the
  scenario up by name, so the parent only ships ``(name, quick,
  repeats)`` tuples.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any


def _run_scenario(name: str, quick: bool, repeats: int) -> dict[str, Any]:
    """Worker entry point: rebuild the scenario by name and measure it."""
    from benchmarks.perf import run_bench

    fn = run_bench.scenarios(quick)[name]
    return run_bench.measure(fn, repeats)


def run_parallel(
    quick: bool, repeats: int, jobs: int, verbose: bool = True
) -> dict[str, dict[str, Any]]:
    """Measure every scenario across ``jobs`` worker processes.

    Returns the same ``{name: measure(...)}`` mapping as the serial
    ``run_all``, in scenario-registry order, with each record marked
    ``contended`` so downstream comparisons know these walls shared
    cores.  Raises ``RuntimeError`` naming the scenario whose worker
    died instead of hanging the sweep.
    """
    from benchmarks.perf import run_bench

    names = list(run_bench.scenarios(quick))
    # fork shares the parent's imported modules (no re-import cost and no
    # sys.path re-derivation); fall back to the platform default where
    # fork is unavailable (the worker re-imports by module name then)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    collected: dict[str, dict[str, Any]] = {}
    with ProcessPoolExecutor(max_workers=max(1, jobs), mp_context=ctx) as pool:
        futures = {
            name: pool.submit(_run_scenario, name, quick, repeats)
            for name in names
        }
        for name, future in futures.items():
            try:
                result = future.result()
            except BrokenProcessPool:
                # a dead worker breaks every outstanding future at once;
                # the scenarios without a completed result are the ones
                # whose measurements were lost (the killed one among them)
                lost = [
                    n
                    for n, f in futures.items()
                    if f.cancelled() or (f.done() and f.exception() is not None)
                ]
                raise RuntimeError(
                    "benchmark worker died mid-scenario (killed or out of "
                    "memory); lost scenarios: " + ", ".join(lost)
                ) from None
            result["contended"] = True
            collected[name] = result
            if verbose:
                print(
                    f"{name:28s} {result['wall_s']:9.4f} s   "
                    f"{result['events_per_s']:>12,.0f} ev/s   "
                    f"({result['sim_events']:,} events)"
                )
    # registry-order collation: identical shape to the serial driver
    return {name: collected[name] for name in names}
