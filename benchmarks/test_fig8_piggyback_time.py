"""Fig. 8 — time to manage piggyback information.

Also drives each protocol's build/accept kernels outside a cluster, in a
ring of protocol instances.
"""

import pytest

from repro.core.events import Determinant
from repro.core.logon import LogOnProtocol
from repro.core.manetho import ManethoProtocol
from repro.core.vcausal import VcausalProtocol
from repro.experiments import fig8_piggyback_time
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig

CFG = ClusterConfig()
PROTOS = {
    "vcausal": VcausalProtocol,
    "manetho": ManethoProtocol,
    "logon": LogOnProtocol,
}


def drive_protocol_kernel(cls, nprocs=8, rounds=40):
    """Protocol kernel: a ring of protocol instances exchanging events."""
    protos = [cls(r, nprocs, CFG, ProcessProbes(rank=r)) for r in range(nprocs)]
    clocks = [0] * nprocs
    ssn = {}
    for _ in range(rounds):
        for src in range(nprocs):
            dst = (src + 1) % nprocs
            pb = protos[src].build_piggyback(dst)
            key = (src, dst)
            ssn[key] = ssn.get(key, 0) + 1
            protos[dst].accept_piggyback(src, pb, clocks[src])
            clocks[dst] += 1
            det = Determinant(dst, clocks[dst], src, ssn[key], clocks[src])
            protos[dst].on_local_event(det)
    return sum(p.events_held() for p in protos)


@pytest.mark.parametrize("proto", sorted(PROTOS))
def test_protocol_kernel_host_time(proto):
    held = drive_protocol_kernel(PROTOS[proto])
    assert held > 0


def test_regenerate_fig8_tables(fast_mode, capsys):
    results = fig8_piggyback_time.run(fast=fast_mode)
    report = fig8_piggyback_time.format_report(results)
    with capsys.disabled():
        print("\n" + report)
    pct = results["pct"]
    # EL reduces the management cost on every benchmark/protocol
    for (bench, nprocs), cell in pct.items():
        for proto in ("vcausal", "manetho", "logon"):
            assert cell[proto] <= cell[f"{proto}-noel"] + 1e-9
    # Vcausal's sequence scan is the cheapest technique (LU and CG)
    for bench in ("lu", "cg"):
        cell = pct[(bench, 16)]
        assert cell["vcausal-noel"] <= cell["manetho-noel"]
        assert cell["vcausal-noel"] <= cell["logon-noel"]