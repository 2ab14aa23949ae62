"""The figure registry's shared pieces: the ``Figure`` record, the NAS
cell runner and the per-invocation cell store."""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from repro.runtime.cluster import Cluster, RunResult
from repro.runtime.config import ClusterConfig
from repro.runtime.failure import FaultPlan
from repro.workloads.nas import make_app
from repro.workloads.nas.common import NasInfo

#: truncated outer-iteration counts used in fast mode (rates/ratios are
#: stationary after a few iterations; see workloads.nas.common docstring)
FAST_ITERATIONS = {
    "bt": 5,
    "sp": 5,
    "cg": 3,
    "lu": 3,
    "mg": 3,
    "ft": 6,
}

#: larger counts for --full mode (still truncated for LU/SP; full elsewhere)
FULL_ITERATIONS = {
    "bt": 30,
    "sp": 30,
    "cg": 10,
    "lu": 10,
    "mg": 4,
    "ft": 6,
}


def run_nas(
    bench: str,
    klass: str,
    nprocs: int,
    stack: str,
    iterations: Optional[int] = None,
    fast: bool = True,
    config: Optional[ClusterConfig] = None,
    checkpoint_policy: str = "none",
    checkpoint_interval_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    app_kwargs: Optional[dict] = None,
) -> tuple[RunResult, NasInfo]:
    """Run one NAS skeleton configuration to completion.

    ``app_kwargs`` is forwarded to the benchmark builder (e.g. CG's
    ``inner`` truncation).
    """
    if bench not in FAST_ITERATIONS:
        raise ValueError(f"unknown NAS benchmark {bench!r}")
    if iterations is None:
        iterations = (FAST_ITERATIONS if fast else FULL_ITERATIONS)[bench]
    app, info = make_app(
        bench, klass, nprocs, iterations=iterations, **(app_kwargs or {})
    )
    cluster = Cluster(
        nprocs=nprocs,
        app_factory=app,
        stack=stack,
        config=config,
        seed=seed,
        checkpoint_policy=checkpoint_policy,
        checkpoint_interval_s=checkpoint_interval_s,
        fault_plan=fault_plan,
    )
    result = cluster.run()
    if not result.finished:
        raise RuntimeError(
            f"{bench} {klass} P={nprocs} stack={stack} did not complete"
        )
    return result, info


class Cells:
    """Per-invocation store of fault-free NAS runs.

    Figs. 7, 8 and 9 read the same (bench, class, P, stack) cells; each
    distinct cell is simulated once and kept without its ``Cluster``.
    """

    def __init__(self) -> None:
        self._runs: dict[tuple, RunResult] = {}

    def __call__(
        self,
        bench: str,
        klass: str,
        nprocs: int,
        stack: str,
        fast: bool = True,
        iterations: Optional[int] = None,
    ) -> RunResult:
        if iterations is None:
            iterations = (FAST_ITERATIONS if fast else FULL_ITERATIONS).get(bench)
        key = (bench, klass, nprocs, stack, iterations)
        result = self._runs.get(key)
        if result is None:
            result, _ = run_nas(bench, klass, nprocs, stack, iterations=iterations)
            result = self._runs[key] = dataclasses.replace(result, cluster=None)
        return result


@dataclasses.dataclass(frozen=True)
class Figure:
    """One registry entry: how to simulate, print and shape-check a figure.

    ``shapes`` returns the violated shape claims (empty when the figure
    reproduces the paper's shape)."""

    name: str
    title: str
    run: Callable[[bool, Cells], dict]
    table: Callable[[dict], str]
    shapes: Callable[[dict], list[str]]
