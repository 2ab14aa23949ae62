"""Every calibrated constant of the simulation model, in one place.

The paper's testbed is a 32-node cluster of AthlonXP 2800+ nodes on
switched Fast Ethernet (100 Mbit/s), running MPICH 1.2.5 (ch_p4) and the
MPICH-V framework (ch_v).  This module encodes that testbed as a
:class:`ClusterConfig`, and the eight measured software stacks of the paper
as :class:`StackSpec` entries in :data:`STACKS`:

========================  ========  ==========  ============  ===========
stack                     daemon    protocol    event logger  full duplex
========================  ========  ==========  ============  ===========
p4                        no        none        --            no
vdummy                    yes       none        --            yes
vcausal / +EL             yes       vcausal     yes           yes
manetho / +EL             yes       manetho     yes           yes
logon / +EL               yes       logon       yes           yes
vcausal-noel              yes       vcausal     no            yes
manetho-noel              yes       manetho     no            yes
logon-noel                yes       logon       no            yes
pessimistic               yes       pessimist.  yes           yes
coordinated               yes       coord.      --            yes
========================  ========  ==========  ============  ===========

Calibration targets (paper Fig. 6(a), Ethernet latency in µs):
P4 ≈ 99.6, Vdummy ≈ 134.8, causal+EL ≈ 156–157, Vcausal-noEL ≈ 165,
graph-noEL ≈ 173.  The constants below reproduce these within a few
percent; the *shape* (ordering and relative gaps) is the reproduction
target, per DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ClusterConfig:
    """Calibrated machine/network/protocol cost model.

    All times are seconds, all rates are per-second, all sizes bytes.
    """

    # ---------------------------------------------------------------- #
    # Network (Fast Ethernet through one switch)
    bandwidth_bps: float = 100e6
    network_latency_s: float = 25e-6       # NIC + switch one-way latency
    per_message_overhead_bytes: int = 66   # Ethernet+IP+TCP framing
    goodput_factor: float = 0.93           # peak TCP payload / wire rate

    # ---------------------------------------------------------------- #
    # Software stack per-message costs
    mpi_software_latency_s: float = 66e-6  # MPICH protocol stack (both sides total)
    daemon_overhead_s: float = 35e-6       # 2 pipe copies + context switches
    daemon_copy_bandwidth_bps: float = 3.2e9   # memcpy through the pipe pair
    sender_log_bandwidth_bps: float = 6.4e9    # local payload-log memcpy
    logging_fixed_latency_s: float = 14e-6 # determinant creation + bookkeeping
    eager_threshold_bytes: int = 128 * 1024
    short_threshold_bytes: int = 1024
    rendezvous_rtt_factor: float = 2.0     # RTS/CTS handshake latencies

    # ---------------------------------------------------------------- #
    # Piggyback computation cost model (per-operation constants; these
    # convert deterministic op counts into simulated seconds).
    cost_serialize_event_s: float = 3.0e-6    # pack one event on the wire
    cost_deserialize_event_s: float = 3.0e-6  # unpack + append one event
    cost_graph_visit_s: float = 1.0e-6        # visit one vertex/edge
    cost_graph_insert_s: float = 2.5e-6       # (re)link one vertex
    cost_logon_reorder_s: float = 1.5e-6      # partial-order insert per event
    cost_piggyback_fixed_s: float = 1.0e-6     # fixed cost of building any piggyback
    # Building a piggyback scans per-peer structures (bounds, buckets,
    # knowledge vectors) whose size grows with the process count; this is
    # what makes the paper's per-message management cost at P=16 far larger
    # than the +22 µs seen in the 2-process ping-pong (Fig. 8 vs Fig. 6a).
    cost_pb_send_per_rank_s: float = 1.5e-6    # × nprocs, on every build
    cost_pb_recv_per_rank_s: float = 0.6e-6    # × nprocs, on every merge
    # Bound/knowledge-vector cost model.  "dense" charges the two × nprocs
    # constants above on every build/merge (the original formulas, kept as
    # the compatibility mode so recorded BENCH checksums stay comparable).
    # "sparse" models the BoundVector representation honestly: work scales
    # with the entries actually touched (held sequences scanned on build,
    # creator runs merged on accept), not with cluster size — this is what
    # unlocks 256+ rank scenarios.  The same switch selects the EL ack
    # wire format: a dense 4-byte-per-rank clock array vs (rank, clock)
    # pairs for the nonzero entries only.
    pb_cost_model: str = "dense"               # "dense" | "sparse"
    cost_pb_send_per_entry_s: float = 1.5e-6   # × touched entries, on build
    cost_pb_recv_per_entry_s: float = 0.6e-6   # × touched entries, on merge
    el_ack_entry_bytes: int = 8                # (rank, clock) pair, sparse acks
    # Memory-pressure term: volatile causal structures that keep growing
    # (the no-EL mode) slow every piggyback operation down — the paper
    # attributes part of the 5-10% no-EL latency penalty to the growing
    # antecedence graph.  Charged as coeff * log2(1 + events held) per send.
    cost_seq_pressure_s: float = 0.30e-6       # flat sequences (Vcausal)
    cost_graph_pressure_s: float = 0.60e-6      # antecedence graph methods

    # ---------------------------------------------------------------- #
    # Compute node (AthlonXP 2800+ effective throughput on NAS kernels)
    node_flops: float = 320e6

    # ---------------------------------------------------------------- #
    # Event Logger.  Determinants are posted at NIC-level delivery, while
    # the payload still has to cross the pipes and the MPI stack — the ack
    # therefore races the software stack, and for small messages it can
    # arrive before the *next* piggyback is built (the Fig. 6(a) effect).
    el_service_time_s: float = 45e-6       # per-determinant service at the EL
    el_ack_delay_s: float = 2.0e-6         # ack batching delay at the EL
    el_event_wire_bytes: int = 20          # determinant + header on the wire
    el_ack_wire_bytes: int = 16
    # Distributed Event Logger (paper §VI future work): number of EL
    # shards, their synchronization strategy and its period.  count=1
    # reproduces the single EL used throughout the paper's evaluation.
    # Strategies (see repro.core.distributed_el):
    #   "multicast" — all-to-all between shards, O(shards²) msgs/round;
    #   "broadcast" — multicast plus a push to every compute node;
    #   "tree"      — k-ary reduce-then-broadcast over the shards,
    #                 2·(shards-1) msgs/round, fanout below.
    el_count: int = 1
    el_sync_strategy: str = "multicast"
    el_sync_interval_s: float = 2e-3
    el_tree_fanout: int = 2

    # ---------------------------------------------------------------- #
    # Checkpointing and recovery.  The checkpoint service link is
    # provisioned above one Fast-Ethernet NIC: sender-based logging must
    # ship roughly the cluster's send volume to stable storage, and the
    # paper itself notes that "the bandwidth of a single reliable node may
    # not be sufficient and implies using more than one reliable node"
    # (§III-A).  This aggregated link stands in for those extra nodes.
    checkpoint_server_bandwidth_bps: float = 400e6
    checkpoint_fixed_overhead_s: float = 0.050   # fork+image setup
    fault_detection_delay_s: float = 0.250       # dispatcher detects a dead node
    restart_overhead_s: float = 0.100            # process relaunch
    recovery_request_bytes: int = 64             # "send me your events" request
    event_record_bytes: int = 16                 # stored determinant size

    # ---------------------------------------------------------------- #
    # Failure domains and infrastructure failover.  ``fault_domains``
    # groups the ranks into that many contiguous, balanced blocks (one
    # node / switch group per block) that the correlated fault plans kill
    # as a unit; 0 keeps the historical one-rank-per-domain behaviour.
    # ``el_failover`` lets surviving Event Logger shards absorb a dead
    # shard's key range (from its stable store plus creator re-logs);
    # ``ckpt_server_failover`` arms the checkpoint-server outage handling
    # (in-flight waves abort, restarts fall back to the last complete
    # wave).  Both are inert until an infrastructure component actually
    # dies, so defaults keep every recorded checksum bit-identical.
    fault_domains: int = 0
    el_failover: bool = False
    ckpt_server_failover: bool = False
    # Retry/timeout/backoff layer for daemon→EL and daemon→checkpoint
    # traffic (repro.runtime.retry).  ``rpc_timeout_s == 0`` disables the
    # layer entirely (the default: no extra timers, bit-identical runs);
    # when enabled, each attempt is re-sent after a capped exponential
    # backoff: min(rpc_backoff_base_s * rpc_backoff_factor**k,
    # rpc_backoff_max_s), giving up after rpc_max_attempts attempts.
    rpc_timeout_s: float = 0.0
    rpc_backoff_base_s: float = 0.05
    rpc_backoff_factor: float = 2.0
    rpc_backoff_max_s: float = 1.0
    rpc_max_attempts: int = 8

    # ---------------------------------------------------------------- #
    # Wire format of causal piggybacks (paper §III-C)
    pb_group_header_bytes: int = 8   # {rid, nb} per factored group
    pb_event_factored_bytes: int = 12  # event without receiver rank
    pb_event_flat_bytes: int = 16      # LogOn event incl. receiver rank
    pb_length_header_bytes: int = 4    # piggyback length prefix

    def __post_init__(self):
        if self.pb_cost_model not in ("dense", "sparse"):
            raise ValueError(
                f"pb_cost_model must be 'dense' or 'sparse', got {self.pb_cost_model!r}"
            )
        if self.el_tree_fanout < 1:
            raise ValueError("el_tree_fanout must be >= 1")
        if self.fault_detection_delay_s < 0:
            raise ValueError(
                f"fault_detection_delay_s must be >= 0, got {self.fault_detection_delay_s!r}"
            )
        if self.fault_domains < 0:
            raise ValueError(f"fault_domains must be >= 0, got {self.fault_domains!r}")
        if self.rpc_timeout_s < 0:
            raise ValueError(f"rpc_timeout_s must be >= 0, got {self.rpc_timeout_s!r}")
        if self.rpc_backoff_base_s < 0:
            raise ValueError(
                f"rpc_backoff_base_s must be >= 0, got {self.rpc_backoff_base_s!r}"
            )
        if self.rpc_backoff_factor < 1:
            raise ValueError(
                f"rpc_backoff_factor must be >= 1, got {self.rpc_backoff_factor!r}"
            )
        if self.rpc_backoff_max_s < self.rpc_backoff_base_s:
            raise ValueError(
                "rpc_backoff_max_s must be >= rpc_backoff_base_s, got "
                f"{self.rpc_backoff_max_s!r} < {self.rpc_backoff_base_s!r}"
            )
        if self.rpc_max_attempts < 1:
            raise ValueError(
                f"rpc_max_attempts must be >= 1, got {self.rpc_max_attempts!r}"
            )

    def with_overrides(self, **kw) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class StackSpec:
    """One measured software stack (a column of the paper's tables)."""

    name: str
    daemon: bool = True
    protocol: str = "none"   # none|vcausal|manetho|logon|pessimistic|coordinated
    event_logger: bool = False
    full_duplex: bool = True
    sender_based_logging: bool = False

    @property
    def is_causal(self) -> bool:
        return self.protocol in ("vcausal", "manetho", "logon")

    @property
    def label(self) -> str:
        if self.protocol == "none":
            return "MPICH-P4" if not self.daemon else "MPICH-Vdummy"
        el = "EL" if self.event_logger else "no EL"
        return f"{self.protocol} ({el})"


def _causal(name: str, el: bool) -> StackSpec:
    return StackSpec(
        name=name,
        daemon=True,
        protocol=name.replace("-noel", ""),
        event_logger=el,
        full_duplex=True,
        sender_based_logging=True,
    )


#: The software stacks measured in the paper, keyed by short name.
STACKS: dict[str, StackSpec] = {
    "p4": StackSpec(name="p4", daemon=False, protocol="none", full_duplex=False),
    "vdummy": StackSpec(name="vdummy", daemon=True, protocol="none"),
    "vcausal": _causal("vcausal", el=True),
    "manetho": _causal("manetho", el=True),
    "logon": _causal("logon", el=True),
    "vcausal-noel": _causal("vcausal-noel", el=False),
    "manetho-noel": _causal("manetho-noel", el=False),
    "logon-noel": _causal("logon-noel", el=False),
    "pessimistic": StackSpec(
        name="pessimistic",
        daemon=True,
        protocol="pessimistic",
        event_logger=True,
        sender_based_logging=True,
    ),
    "coordinated": StackSpec(
        name="coordinated",
        daemon=True,
        protocol="coordinated",
        event_logger=False,
        sender_based_logging=False,
    ),
}

#: Stack order used by the figures (P4 first, then Vdummy, then causal).
FIGURE_STACKS: tuple[str, ...] = (
    "p4",
    "vdummy",
    "vcausal",
    "manetho",
    "logon",
    "vcausal-noel",
    "manetho-noel",
    "logon-noel",
)

CAUSAL_PROTOCOLS: tuple[str, ...] = ("vcausal", "manetho", "logon")
