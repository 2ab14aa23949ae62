"""Unit tests for the Event Logger stable server."""

from repro.core.bounds import BoundVector
from repro.core.event_logger import EL_HOST, EventLogger
from repro.core.events import Determinant
from repro.metrics.probes import ClusterProbes
from repro.runtime.config import ClusterConfig
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

from tests.oracles import ack_snapshot


def make_el(nprocs=3, **cfg_kw):
    sim = Simulator()
    cfg = ClusterConfig().with_overrides(**cfg_kw) if cfg_kw else ClusterConfig()
    net = Network(sim, bandwidth_bps=cfg.bandwidth_bps, latency_s=cfg.network_latency_s)
    net.attach(EL_HOST)
    for r in range(nprocs):
        net.attach(f"n{r}")
    probes = ClusterProbes()
    el = EventLogger(sim, net, cfg, probes, nprocs)
    return sim, net, el, probes


def det(creator, clock, sender=0):
    return Determinant(creator, clock, sender, clock, 0)


def test_log_and_ack_carries_stable_vector():
    sim, net, el, probes = make_el()
    acks = []
    el.receive_log(1, (det(1, 1),), lambda v: acks.append(v), "n1")
    sim.run()
    assert [BoundVector(ack_snapshot(v)).as_list(3) for v in acks] == [[0, 1, 0]]
    assert el.stable_clock.as_list(3) == [0, 1, 0]
    assert probes.el_determinants_stored == 1


def test_stability_advances_contiguously():
    sim, net, el, _ = make_el()
    el.receive_log(0, (det(0, 1),), lambda v: None, "n0")
    el.receive_log(0, (det(0, 2),), lambda v: None, "n0")
    el.receive_log(0, (det(0, 3),), lambda v: None, "n0")
    sim.run()
    assert el.stable_clock[0] == 3
    assert el.stored_count() == 3


def test_duplicate_determinants_discarded():
    """Replayed re-executions re-post the same determinants."""
    sim, net, el, _ = make_el()
    el.receive_log(0, (det(0, 1), det(0, 2)), lambda v: None, "n0")
    el.receive_log(0, (det(0, 1), det(0, 2)), lambda v: None, "n0")
    sim.run()
    assert el.stored_count() == 2
    assert el.stable_clock[0] == 2


def test_service_queue_serializes_under_load():
    """The single-threaded EL saturates: acks queue behind service."""
    sim, net, el, probes = make_el(nprocs=2)
    ack_times = []
    n = 50
    for k in range(1, n + 1):
        el.receive_log(0, (det(0, k),), lambda v, t=None: ack_times.append(sim.now), "n0")
    sim.run()
    assert len(ack_times) == n
    cfg = ClusterConfig()
    # the last ack must wait behind ~n service slots
    assert ack_times[-1] - ack_times[0] >= (n - 1) * cfg.el_service_time_s * 0.9
    assert probes.el_peak_queue > 1


def test_fetch_events_returns_clock_filtered():
    sim, net, el, _ = make_el()
    el.receive_log(2, tuple(det(2, k) for k in range(1, 11)), lambda v: None, "n2")
    sim.run()
    got = []
    el.fetch_events(2, clock_after=4, reply_to=got.extend, reply_host="n2")
    sim.run()
    assert [d.clock for d in got] == [5, 6, 7, 8, 9, 10]


def test_fetch_events_empty_when_nothing_stored():
    sim, net, el, _ = make_el()
    got = []
    el.fetch_events(1, 0, got.extend, "n1")
    sim.run()
    assert got == []


def test_hole_keeps_stability_at_contiguous_prefix():
    sim, net, el, _ = make_el()
    acks = []
    el.receive_log(0, (det(0, 1), det(0, 3)), lambda v: None, "n0")
    sim.run()
    assert el.stable_clock[0] == 1  # 3 stored but not stable past the hole
    # the filler lands below the newest clock and stability advances over
    # the buffered run in one journal entry
    el.receive_log(0, (det(0, 2),), acks.append, "n0")
    sim.run()
    assert [d.clock for d in el.store[0]] == [1, 2, 3]
    assert el.stable_clock[0] == 3
    assert el._ack_log == [(0, 1), (0, 3)]
    assert ack_snapshot(acks[0]) == {0: 3}


def test_ack_vector_covers_nprocs():
    sim, net, el, _ = make_el(nprocs=5)
    acks = []
    el.receive_log(4, (det(4, 1),), lambda v: acks.append(v), "n0")
    sim.run()
    assert BoundVector(ack_snapshot(acks[0])).as_list(5) == [0, 0, 0, 0, 1]


def test_ack_wire_bytes_dense_vs_sparse():
    """The dense compatibility format grows with nprocs; the sparse format
    grows only with the creators that have actually logged something."""
    cfg = ClusterConfig()
    sim, net, el, _ = make_el(nprocs=64)
    el.receive_log(0, (det(0, 1),), lambda v: None, "n0")
    sim.run()
    dense = el.ack_vector_bytes(el.stable_clock)
    assert dense == 4 * 64

    sim, net, el, _ = make_el(nprocs=64, pb_cost_model="sparse")
    el.receive_log(0, (det(0, 1),), lambda v: None, "n0")
    sim.run()
    sparse = el.ack_vector_bytes(el.stable_clock)
    assert sparse == cfg.el_ack_entry_bytes * 1
    assert sparse < dense
