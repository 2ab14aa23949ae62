"""Daemon-level unit tests: dedupe, epochs, replay buffering, ssn flow."""

import pytest

from repro import Cluster
from repro.runtime.daemon import WireMessage

from tests.conftest import ring_app, run_ring


def make_cluster(stack="vcausal", nprocs=2, iterations=3):
    c = Cluster(nprocs=nprocs, app_factory=ring_app(iterations), stack=stack)
    return c


def test_duplicate_ssn_dropped():
    c = make_cluster()
    c.run()
    d1 = c.daemons[1]
    before = d1.clock
    # replay a stale duplicate of the first message from rank 0
    dup = WireMessage(kind="app", src=0, dst=1, ssn=1, nbytes=8, epoch=c.epoch)
    d1.wire_sink(dup)
    c.sim.run(check_deadlock=False)
    assert d1.clock == before  # no new determinant was created


def test_stale_epoch_message_dropped():
    c = make_cluster()
    c.run()
    d1 = c.daemons[1]
    before = d1.clock
    msg = WireMessage(
        kind="app", src=0, dst=1, ssn=999, nbytes=8, epoch=c.epoch - 1
    )
    d1.wire_sink(msg)
    c.sim.run(check_deadlock=False)
    assert d1.clock == before


def test_message_to_dead_daemon_dropped():
    c = make_cluster()
    c.run()
    d1 = c.daemons[1]
    d1.alive = False
    msg = WireMessage(kind="app", src=0, dst=1, ssn=999, nbytes=8, epoch=c.epoch)
    d1.wire_sink(msg)  # no crash, silently dropped
    assert d1.clock >= 0


def test_unknown_wire_kind_raises():
    from repro.simulator.engine import SimulationError

    c = make_cluster()
    c.run()
    with pytest.raises(SimulationError, match="unknown wire kind"):
        c.daemons[1].wire_sink(
            WireMessage(kind="bogus", src=0, dst=1, epoch=c.epoch)
        )


def test_ssn_counters_monotone_per_destination():
    c = make_cluster(nprocs=3, iterations=5)
    c.run()
    for d in c.daemons.values():
        for dst, ssn in d.ssn_next.items():
            assert ssn >= 1
            # the receiver saw exactly that many messages from us
            assert c.daemons[dst].last_ssn.get(d.rank, 0) == ssn


def test_clock_equals_total_receptions():
    c = make_cluster(nprocs=4, iterations=6)
    result = c.run()
    for r, d in c.daemons.items():
        assert d.clock == result.probes.per_rank[r].receptions
        assert d.clock > 0


def test_determinants_match_el_store():
    c = make_cluster(nprocs=3, iterations=6)
    c.run()
    group = c.event_logger
    for r, d in c.daemons.items():
        stored = group.shard_for(r).store[r]
        assert [det.clock for det in stored] == list(range(1, d.clock + 1))


def test_vdummy_creates_no_determinants():
    c = make_cluster(stack="vdummy", nprocs=2, iterations=4)
    c.run()
    for d in c.daemons.values():
        assert d.clock == 0
        assert not d.is_logging


def test_pessimistic_send_blocks_until_stability():
    """Pessimistic sends wait for EL acks: more sim time than causal."""
    pes = run_ring("pessimistic", nprocs=4, iterations=10)
    cau = run_ring("vcausal", nprocs=4, iterations=10)
    assert pes.sim_time > cau.sim_time
    assert pes.probes.total("el_acks_received") > 0


def test_hard_reset_restores_counters():
    c = make_cluster(nprocs=2, iterations=5)
    c.run()
    d = c.daemons[0]
    snapshot = {
        "clock": 3,
        "ssn_next": {1: 7},
        "last_ssn": {1: 4},
        "protocol": d.protocol.export_state(),
        "sender_log": d.sender_log.export_state(),
    }
    d.hard_reset(snapshot)
    assert d.clock == 3
    assert d.ssn_next == {1: 7}
    assert d.last_ssn == {1: 4}
    assert d.last_ckpt_clock == 3
    d.hard_reset(None)
    assert d.clock == 0
    assert d.ssn_next == {}


def test_sender_log_populated_only_for_logging_stacks():
    c1 = make_cluster(stack="vcausal", iterations=4)
    c1.run()
    assert all(d.sender_log.messages_held > 0 for d in c1.daemons.values())
    c2 = make_cluster(stack="coordinated", iterations=4)
    c2.run()
    assert all(d.sender_log.messages_held == 0 for d in c2.daemons.values())
