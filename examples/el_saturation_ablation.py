#!/usr/bin/env python
"""Ablation: Event Logger saturation and the distributed-EL question.

The paper's conclusion: "Using only one Event Logger ... will lead to a
bottleneck as the number of processes grows" and proposes distributing the
log over several Event Loggers as future work.  This ablation measures the
single-EL bottleneck directly by sweeping the EL's per-determinant service
time on the LU skeleton (the workload that saturates it, Fig. 7), showing
how the residual piggyback volume and application performance degrade as
the EL slows — equivalently, as the cluster grows relative to EL capacity.
The distributed fix (EL shards × sync topology) is the ``ablation-el``
figure:  python -m repro.experiments.runner -e ablation-el

Run:  python examples/el_saturation_ablation.py
"""

from repro import Cluster, ClusterConfig
from repro.metrics.reporting import format_table
from repro.workloads.nas import make_app


def measure(service_us: float):
    config = ClusterConfig().with_overrides(el_service_time_s=service_us * 1e-6)
    app, _ = make_app("lu", "A", nprocs=16, iterations=2)
    result = Cluster(nprocs=16, app_factory=app, stack="vcausal", config=config).run()
    p = result.probes
    acked = p.total("el_acks_received")
    logged = p.total("el_events_logged")
    return [
        f"{service_us:.0f} µs",
        f"{p.piggyback_fraction:.2f} %",
        f"{result.mflops:.0f}",
        f"{p.el_peak_queue}",
        f"{100 * acked / max(logged, 1):.0f} %",
    ]


def main():
    rows = [measure(us) for us in (5, 15, 30, 60, 120, 240)]
    # reference: no EL at all
    app, _ = make_app("lu", "A", nprocs=16, iterations=2)
    noel = Cluster(nprocs=16, app_factory=app, stack="vcausal-noel").run()
    rows.append(["(no EL)", f"{noel.probes.piggyback_fraction:.2f} %",
                 f"{noel.mflops:.0f}", "-", "-"])
    print(
        format_table(
            ["EL service", "piggyback %", "Mflop/s", "peak EL queue", "acks recvd"],
            rows,
            title=(
                "Event Logger saturation ablation — NAS LU A, 16 processes, "
                "Vcausal (slower EL ≈ more nodes per EL)"
            ),
        )
    )
    print(
        "\nAs the EL saturates, acknowledgments lag, processes cannot prune"
        "\nbefore their next send, and the piggyback volume climbs back"
        "\ntoward the no-EL level — the motivation for distributing the EL"
        "\n(see: python -m repro.experiments.runner -e ablation-el)."
    )


if __name__ == "__main__":
    main()
