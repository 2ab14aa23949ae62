"""Dirty-creator worklist equivalence.

The worklist build loop is a host wall-clock optimisation: it must never
change *what* is simulated.  These tests drive every causal protocol
through random send / receive / prune / checkpoint-restore interleavings
twice — the protocol as shipped and its full-scan twin
(:func:`tests.oracles.full_scan`) — and assert byte-identical piggybacks
(events, order, run table, bytes) and identical charged costs at every
step, plus the two regressions the worklist is most likely to break:

* a checkpoint restore must repopulate the dirty sets, or the first
  post-restore piggyback on a previously-synced channel ships stale
  (under-full) causality and orphans the receiver;
* the LogOn accept path must consume whole runs on the contiguous-run
  fast path (probe-counted), not merge per determinant.
"""

from __future__ import annotations

import copy
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, OneShotFaults, PeriodicFaults
from repro.core.events import Determinant
from repro.core.logon import LogOnProtocol
from repro.core.manetho import ManethoProtocol
from repro.core.vcausal import VcausalProtocol
from repro.metrics.probes import ProcessProbes
from tests.conftest import VectorLogger, ring_app, run_ring
from tests.oracles import flat_bytes, full_scan

CFG = ClusterConfig()
PROTOCOLS = [VcausalProtocol, ManethoProtocol, LogOnProtocol]


class TwinWorlds:
    """Drive one protocol class twice — worklist and full-scan reference —
    through an identical schedule, asserting piggyback equivalence at every
    send."""

    def __init__(self, cls, n: int):
        self.cls = cls
        self.fs_cls = full_scan(cls)
        self.n = n
        self.wl = [cls(r, n, CFG, ProcessProbes(rank=r)) for r in range(n)]
        self.fs = [self.fs_cls(r, n, CFG, ProcessProbes(rank=r)) for r in range(n)]
        self.clocks = [0] * n
        self.ssn: dict[tuple[int, int], int] = {}
        self.stable = [0] * n
        self.logger = VectorLogger(n)

    def send(self, src: int, dst: int):
        pb_wl = self.wl[src].build_piggyback(dst)
        pb_fs = self.fs[src].build_piggyback(dst)
        # byte-identical: same events in the same order, same run table,
        # same wire bytes, same charged simulated cost
        assert pb_wl.events == pb_fs.events
        assert pb_wl.runs == pb_fs.runs
        assert pb_wl.nbytes == pb_fs.nbytes
        assert pb_wl.build_cost_s == pb_fs.build_cost_s
        ssn = self.ssn.get((src, dst), 0) + 1
        self.ssn[(src, dst)] = ssn
        dep = self.clocks[src]
        cost_wl = self.wl[dst].accept_piggyback(src, pb_wl, dep)
        cost_fs = self.fs[dst].accept_piggyback(src, pb_fs, dep)
        assert cost_wl == cost_fs
        self.clocks[dst] += 1
        det = Determinant(dst, self.clocks[dst], src, ssn, dep)
        self.wl[dst].on_local_event(det)
        self.fs[dst].on_local_event(det)
        assert self.wl[dst].events_held() == self.fs[dst].events_held()
        return pb_wl

    def ack(self, advance_to: dict[int, int], recipients: list[int]):
        for c, k in advance_to.items():
            self.stable[c] = max(self.stable[c], min(k, self.clocks[c]))
        ack = self.logger.ack(self.stable)
        for r in recipients:
            self.wl[r].on_el_ack(ack)
            self.fs[r].on_el_ack(ack)

    def restore(self, rank: int, in_place: bool = False):
        """Checkpoint-restore ``rank`` mid-stream in both worlds (the
        worklist side must repopulate its dirty sets from the image).

        ``in_place`` restores into the *used* instance instead of a fresh
        one — the case where stale per-channel worklist cursors would
        out-tick the repopulated growth log and mark everything clean.
        """
        for protos, cls in ((self.wl, self.cls), (self.fs, self.fs_cls)):
            state = copy.deepcopy(protos[rank].export_state())
            if in_place:
                protos[rank].restore_state(state)
                continue
            fresh = cls(rank, self.n, CFG, ProcessProbes(rank=rank))
            fresh.restore_state(state)
            protos[rank] = fresh


@pytest.mark.parametrize("cls", PROTOCOLS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_worklist_piggybacks_byte_identical_to_full_scan(cls, data):
    """Random send/receive/prune/restore interleavings: the worklist and
    full-scan paths must stay bit-for-bit equivalent throughout."""
    n = data.draw(st.integers(2, 4), label="nprocs")
    world = TwinWorlds(cls, n)
    steps = data.draw(st.integers(1, 50), label="steps")
    for _ in range(steps):
        kind = data.draw(
            st.sampled_from(["send", "send", "send", "send", "ack", "restore"])
        )
        if kind == "send":
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 1).filter(lambda r: r != src))
            world.send(src, dst)
        elif kind == "ack":
            advance = {
                c: data.draw(st.integers(0, max(world.clocks[c], 0)))
                for c in range(n)
            }
            recips = data.draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            world.ack(advance, recips)
        else:
            world.restore(
                data.draw(st.integers(0, n - 1), label="victim"),
                in_place=data.draw(st.booleans(), label="in_place"),
            )


@pytest.mark.parametrize("cls", [ManethoProtocol, LogOnProtocol])
def test_late_hole_fill_keeps_creator_clocks_ascending(cls):
    """Rank 2 learns (0,3) from rank 0 — which had pruned (0,1),(0,2)
    after an EL ack — before rank 1 hands it (0,1),(0,2).  Every later
    piggyback must still list rank 0's events in clock order, or the
    receiver stores the creator run unsorted and its checkpoint image
    cannot be restored."""
    world = TwinWorlds(cls, 4)
    for _ in range(3):
        world.send(1, 0)
    world.send(0, 1)
    world.ack({0: 2}, [0])
    for src, dst in ((0, 2), (1, 2), (2, 3)):
        pb = world.send(src, dst)
        for creator in {d.creator for d in pb.events}:
            clocks = [d.clock for d in pb.events if d.creator == creator]
            assert clocks == sorted(clocks), (src, dst, creator, clocks)
    world.restore(3)
    assert world.wl[3].graph.get(0, 3) is not None


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("cls", PROTOCOLS)
def test_restore_repopulates_dirty_sets(cls, in_place):
    """The stale-piggyback regression: after traffic has marked a channel
    clean, a checkpoint-restore must re-dirty every restored sequence —
    otherwise the next build on that channel ships an under-full piggyback
    (here: empty) while the reference path ships the held causality.  The
    in-place variant additionally requires the per-channel cursors to
    reset: the repopulated growth log restarts its ticks at 1, so a
    surviving cursor would out-tick every creator and mark them clean."""
    n = 3
    world = TwinWorlds(cls, n)
    for _ in range(4):
        world.send(0, 1)
        world.send(1, 0)
        world.send(1, 2)
    # channel 0->1 is fully synced at this point; restore rank 0 from its
    # own image and immediately build for rank 2 (a fresh channel: every
    # unstable event must ship) and for rank 1 (the synced channel)
    world.restore(0, in_place=in_place)
    pb_fresh = world.send(0, 2)
    assert pb_fresh.n_events > 0  # restored state must actually ship
    world.send(2, 0)
    world.send(0, 1)  # the synced channel stays equivalent post-restore


@pytest.mark.parametrize("cls", PROTOCOLS)
def test_worklist_scans_fewer_sequences(cls):
    """The point of the refactor: on a quiet channel the worklist build
    touches only grown sequences, while the reference rescans every held
    one; both ship the same (empty) piggyback."""
    n = 4
    world = TwinWorlds(cls, n)
    for _ in range(6):
        world.send(1, 0)
        world.send(2, 0)
        world.send(3, 0)
    # rank 0 now holds sequences for every creator; repeated sends on the
    # same quiet channel scan nothing new after the first
    for _ in range(5):
        world.send(0, 1)
    wl = world.wl[0].probes.pb_build_seqs_scanned
    fs = world.fs[0].probes.pb_build_seqs_scanned
    assert wl < fs


def test_logon_accept_consumes_runs_not_determinants():
    """Acceptance criterion: on the contiguous-run fast path the LogOn
    accept loop merges whole runs (pb_accept_runs) with zero
    per-determinant fallback merges (pb_accept_fallback_dets)."""
    n = 3
    world = TwinWorlds(LogOnProtocol, n)
    for _ in range(8):
        world.send(0, 1)
        world.send(1, 2)
        world.send(2, 0)
    for proto in world.wl:
        if proto.probes.pb_recv_ops:
            assert proto.probes.pb_accept_runs > 0
        assert proto.probes.pb_accept_fallback_dets == 0
    # and the run table itself must ride on every LogOn piggyback
    pb = world.send(0, 2)
    from itertools import groupby

    assert pb.runs and pb.n_events == len(pb.events)
    assert pb.n_groups == sum(1 for _ in groupby(d.creator for d in pb.events))
    assert pb.nbytes == flat_bytes(pb.events, CFG)  # wire unchanged


# --------------------------------------------------------------------- #
# full-cluster regressions (checkpoint + kill/replay through the daemon)

def _ring_results(stack: str, fault_plan=None):
    result = run_ring(
        stack,
        nprocs=4,
        iterations=25,
        checkpoint_policy="round-robin",
        checkpoint_interval_s=0.03,
        fault_plan=fault_plan,
    )
    assert result.finished
    return result


@pytest.mark.parametrize("stack", ["vcausal", "vcausal-noel", "manetho-noel", "logon-noel"])
def test_kill_replay_identical_across_build_modes(stack, monkeypatch):
    """Kill/replay at a 10 ms fault period with checkpoints: the worklist
    run must match the full-scan reference (results, simulated time,
    piggyback totals) and the fault-free baseline results.  A restore that
    forgot to re-dirty the worklist would diverge here: the restarted rank
    would piggyback stale causality into the replay traffic."""
    baseline = _ring_results(stack).results
    # 10 ms period, starting after the first checkpoint waves have
    # committed so at least one recovery restores a real snapshot (the
    # restore_state path) rather than restarting from scratch
    plan = PeriodicFaults(per_minute=6000.0, start_s=0.15, max_faults=3)

    def faulty_run():
        r = _ring_results(stack, fault_plan=plan)
        assert r.probes.total("restarts") >= 1
        assert r.probes.checkpoints_stored > 0
        return r

    wl = faulty_run()
    # make_protocol resolves the class from its module at call time
    cls = {c.name: c for c in PROTOCOLS}[stack.split("-")[0]]
    monkeypatch.setattr(sys.modules[cls.__module__], cls.__name__, full_scan(cls))
    fs = faulty_run()
    assert fs.probes.total("pb_build_seqs_scanned") > wl.probes.total(
        "pb_build_seqs_scanned"
    )  # the twin really ran
    assert wl.results == baseline
    assert wl.results == fs.results
    assert wl.sim_time == fs.sim_time
    for probe in (
        "piggyback_events_sent",
        "piggyback_bytes_sent",
        "app_messages_sent",
        "replayed_receptions",
    ):
        assert wl.probes.total(probe) == fs.probes.total(probe), probe
