"""Per-process and cluster-wide measurement probes.

The paper instruments MPICH-V with probes to measure (a) piggyback
computation cost, (b) piggyback size, (c) application performance and (d)
recovery performance.  This module is the equivalent instrumentation:
protocols and daemons increment these counters, experiments read them.

All quantities are raw accumulators; derived percentages and rates are
computed by :mod:`repro.experiments` so that the accounting stays auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ProcessProbes:
    """Counters for one MPI process (daemon + protocol)."""

    rank: int = 0

    # -- traffic -------------------------------------------------------- #
    app_messages_sent: int = 0
    app_payload_bytes_sent: int = 0     # application payload only
    piggyback_bytes_sent: int = 0       # causality piggyback bytes
    piggyback_events_sent: int = 0
    messages_with_piggyback: int = 0    # messages carrying >= 1 event
    header_bytes_sent: int = 0

    # -- piggyback computation (simulated seconds, from the op-count model)
    pb_send_time_s: float = 0.0         # build/serialize on the send path
    pb_recv_time_s: float = 0.0         # merge/deserialize on the recv path

    # -- raw operation counts (host-time-free view of the same work)
    pb_send_ops: int = 0                # graph visits + events serialized
    pb_recv_ops: int = 0

    # -- build/accept loop mechanics (host-side work, not simulated cost) --
    # Creator sequences examined by build_piggyback: the dirty-creator
    # worklist touches only the sequences that grew since the last send on
    # that channel, where a scan of every held sequence (the test oracle)
    # would count them all.  The simulated cost charges every held
    # sequence either way, so this counter is host-side evidence only.
    pb_build_seqs_scanned: int = 0
    # Accept-path merge granularity: whole clock-ascending creator runs
    # accepted by interval arithmetic (holes included) vs determinants of
    # runs over another backing list than the window's, copied in clock
    # by clock (only after a conflicting re-creation forked the store).
    pb_accept_runs: int = 0
    pb_accept_fallback_dets: int = 0

    # -- event logger --------------------------------------------------- #
    el_events_logged: int = 0
    el_acks_received: int = 0

    # -- logs / memory -------------------------------------------------- #
    sender_log_bytes: int = 0
    sender_log_messages: int = 0
    events_held_peak: int = 0           # peak volatile causal-info footprint

    # -- lifecycle ------------------------------------------------------ #
    receptions: int = 0                 # rsn counter mirror
    replayed_receptions: int = 0
    restarts: int = 0
    flops: float = 0.0                  # application-declared useful flops
    compute_time_s: float = 0.0

    def note_events_held(self, count: int) -> None:
        if count > self.events_held_peak:
            self.events_held_peak = count


@dataclass
class RecoveryRecord:
    """One fault → recovery episode (Fig. 10 raw data)."""

    rank: int
    fault_time: float
    detect_time: float = 0.0
    restart_time: float = 0.0
    #: time spent collecting the events to replay (EL or peers) — the
    #: quantity Fig. 10 reports
    event_collection_s: float = 0.0
    events_collected: int = 0
    event_sources: int = 0              # 1 with EL, n-1 without
    replay_end_time: float = 0.0
    collection_bytes: int = 0


@dataclass
class ClusterProbes:
    """Aggregated view over all processes plus shared components."""

    per_rank: dict[int, ProcessProbes] = field(default_factory=dict)
    recoveries: list[RecoveryRecord] = field(default_factory=list)

    # Event Logger server counters
    el_determinants_stored: int = 0
    el_bytes_received: int = 0
    el_peak_queue: int = 0
    el_busy_time_s: float = 0.0

    # checkpoint server counters
    checkpoints_stored: int = 0
    checkpoint_bytes: int = 0

    # fault-plan bookkeeping: scheduled faults dropped because the victim
    # was already dead, mid-restart, or finished (OneShot and Periodic
    # plans, plus the domain-level storm/correlated plans)
    faults_skipped: int = 0

    # infrastructure failover counters
    el_failovers: int = 0               # dead-shard ranges absorbed
    el_posts_dropped: int = 0           # log/fetch messages hitting a dead shard
    el_disk_records_recovered: int = 0  # determinants streamed off a dead shard's disk
    el_relog_requests: int = 0          # creators asked to re-log unsynced suffixes
    el_relogged_determinants: int = 0   # determinants re-posted by creators
    ckpt_outages: int = 0               # checkpoint-server failure episodes
    ckpt_waves_aborted: int = 0         # in-flight coordinated waves dropped
    ckpt_stores_aborted: int = 0        # store transactions aborted mid-transfer

    #: per-channel retry/timeout accounting (channel name -> RetryStats);
    #: populated lazily by Cluster.rpc_channel
    rpc_channels: dict = field(default_factory=dict)

    def rpc_total(self, attr: str) -> int:
        """Sum one RetryStats column over every service channel."""
        return sum(getattr(s, attr) for s in self.rpc_channels.values())

    def rank(self, r: int) -> ProcessProbes:
        if r not in self.per_rank:
            self.per_rank[r] = ProcessProbes(rank=r)
        return self.per_rank[r]

    # -- aggregations used by the experiments --------------------------- #

    def total(self, attr: str) -> float:
        return sum(getattr(p, attr) for p in self.per_rank.values())

    @property
    def total_payload_bytes(self) -> int:
        return int(self.total("app_payload_bytes_sent"))

    @property
    def total_piggyback_bytes(self) -> int:
        return int(self.total("piggyback_bytes_sent"))

    @property
    def piggyback_fraction(self) -> float:
        """Piggybacked data in percent of total application data exchanged
        (the Fig. 7 metric)."""
        payload = self.total_payload_bytes
        if payload == 0:
            return 0.0
        return 100.0 * self.total_piggyback_bytes / payload

    @property
    def pb_send_time_s(self) -> float:
        return self.total("pb_send_time_s")

    @property
    def pb_recv_time_s(self) -> float:
        return self.total("pb_recv_time_s")

    @property
    def pb_total_time_s(self) -> float:
        return self.pb_send_time_s + self.pb_recv_time_s
