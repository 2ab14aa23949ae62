"""The figure registry: one ``Figure`` per paper figure or ablation.

Each module declares its grid and paper table plus ``run(fast, cell)``,
``table(results)`` and ``shapes(results)``; ``FIGURES`` names them.
Figures that share NAS cells (7, 8, 9) read them through one ``Cells``
store, so each distinct cell is simulated once per invocation.

Run everything::

    python -m repro.experiments.runner --all
    python -m repro.experiments.runner --experiment fig7 --full
"""

from repro.experiments import (
    ablation_checkpoint_policies,
    ablation_distributed_el,
    fig1_fault_resilience,
    fig6_pingpong,
    fig7_piggyback_size,
    fig8_piggyback_time,
    fig9_nas_performance,
    fig10_recovery,
)
from repro.experiments.common import Figure

FIGURES = {
    name: Figure(name, m.__doc__.strip().splitlines()[0], m.run, m.table, m.shapes)
    for name, m in (
        ("fig1", fig1_fault_resilience),
        ("fig6", fig6_pingpong),
        ("fig7", fig7_piggyback_size),
        ("fig8", fig8_piggyback_time),
        ("fig9", fig9_nas_performance),
        ("fig10", fig10_recovery),
        ("ablation-el", ablation_distributed_el),
        ("ablation-ckpt", ablation_checkpoint_policies),
    )
}

__all__ = ["FIGURES", "Figure"]
