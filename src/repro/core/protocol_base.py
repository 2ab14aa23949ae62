"""The V-protocol hook API (paper §IV, Fig. 4).

MPICH-V designs fault-tolerance protocols as "a set of hooks called in
relevant routines of the generic subsystem".  :class:`VProtocol` is that
hook API; the Vdaemon calls it on every send, every delivery, every EL ack
and during recovery.  :class:`NoFaultTolerance` is the trivial
implementation (Vdummy) used to measure the raw framework overhead.

Contract
--------

Fault-free path (called by :class:`repro.runtime.daemon.Vdaemon`):

* :meth:`build_piggyback` — on the send path, before the wire.  Returns a
  :class:`~repro.core.piggyback.Piggyback` whose ``build_cost_s`` is charged
  to the simulated clock and whose ``nbytes`` ride on the message.
* :meth:`on_local_event` — a new reception determinant was created locally
  (the daemon assigned the rsn).
* :meth:`accept_piggyback` — piggybacked events arrived with a message;
  returns the simulated cost of merging them.
* :meth:`on_el_ack` — an Event Logger ack or push arrived, an
  :class:`~repro.core.event_logger.ElAck` journal handle; one fold path
  for every protocol, into the one sparse stable view ``_sv``.

Recovery path:

* :meth:`events_created_by` — determinants of ``creator`` this process
  still holds (peers answer this during no-EL recovery).
* :meth:`export_state` / :meth:`restore_state` — protocol part of a
  checkpoint image.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.event_logger import ElAck, EventLogger
from repro.core.events import Determinant, DeterminantStore, GrowthLog
from repro.core.interfaces import DaemonHost
from repro.core.piggyback import Piggyback
from repro.metrics.probes import ProcessProbes
from repro.runtime.config import ClusterConfig


class VProtocol:
    """Base class: no-op hooks, shared bookkeeping."""

    __slots__ = (
        "rank", "nprocs", "config", "probes", "daemon", "_sv", "store",
        "_send_scan_dense", "_recv_scan_dense", "_chan_synced",
        "_ack_src", "_ack_pos",
    )

    #: whether this protocol ships determinants to the Event Logger
    uses_event_logger = False
    #: whether sends must block on event stability (pessimistic logging)
    blocking_on_stability = False
    #: human-readable protocol name
    name = "base"

    def __init__(
        self,
        rank: int,
        nprocs: int,
        config: ClusterConfig,
        probes: ProcessProbes,
        store: Optional[DeterminantStore] = None,
    ) -> None:
        self.rank = rank
        self.nprocs = nprocs
        self.config = config
        self.probes = probes
        self.daemon: Optional[DaemonHost] = None
        #: the stable view: creator -> highest EL-stable clock, zero
        #: entries omitted.  Monotone: folds only ever raise it.
        self._sv: dict[int, int] = {}
        #: where held determinants are interned: the cluster's one store,
        #: or a private one for a protocol driven on its own
        self.store = store if store is not None else DeterminantStore()
        #: bound-vector scan cost model (see ClusterConfig.pb_cost_model).
        #: Dense compatibility mode charges these precomputed ``× nprocs``
        #: constants on every build/merge; None selects the sparse model,
        #: where the hooks charge ``cost_pb_*_per_entry_s × touched
        #: entries`` instead.  Precomputed so the per-message hot paths pay
        #: an attribute load, not a string compare.
        if config.pb_cost_model == "dense":
            self._send_scan_dense: Optional[float] = (
                config.cost_pb_send_per_rank_s * nprocs
            )
            self._recv_scan_dense: Optional[float] = (
                config.cost_pb_recv_per_rank_s * nprocs
            )
        else:
            self._send_scan_dense = None
            self._recv_scan_dense = None
        #: dirty-creator worklist: per-peer cursor into the protocol's
        #: growth log.  A creator is "dirty" for a channel when its
        #: sequence grew after the last build on that channel; clean
        #: creators cannot contribute events (their channel/knowledge
        #: bound already covers their max clock), so the build loop skips
        #: them without touching their sequences.
        self._chan_synced: dict[int, int] = {}
        #: the adopted EventLogger, whose journal folded up to the cursor
        #: equals the stable view (None when none is), and per logger the
        #: cursor: the journal position the view has folded (on_el_ack)
        self._ack_src: Optional[EventLogger] = None
        self._ack_pos: dict[EventLogger, int] = {}

    def bind(self, daemon: DaemonHost) -> None:
        self.daemon = daemon

    def _pb_send_scan_cost(self, touched: int) -> float:
        """Cost of scanning per-peer bound structures on a build."""
        flat = self._send_scan_dense
        if flat is not None:
            return flat
        return self.config.cost_pb_send_per_entry_s * touched

    def _pb_recv_scan_cost(self, touched: int) -> float:
        """Cost of updating per-peer bound structures on an accept."""
        flat = self._recv_scan_dense
        if flat is not None:
            return flat
        return self.config.cost_pb_recv_per_entry_s * touched

    def _build_candidates(self, dst: int, growth: GrowthLog) -> list[int]:
        """Creators whose sequences the build loop for ``dst`` must scan.

        The creators grown since the last build on this channel, sorted
        into sequence-creation order — a scan of every held sequence
        restricted to dirty creators, so piggybacks are byte-identical to
        that scan's (clean creators contribute nothing to it; the
        full-scan oracle in ``tests/oracles.py`` overrides this method to
        property-test exactly that).

        ``growth`` is the protocol's :class:`~repro.core.events.GrowthLog`:
        growing a creator moves it to the end with a fresh monotone tick,
        so the dirty set is exactly the suffix of entries with a tick
        above this channel's cursor (collected by one reverse walk).
        Marking growth is O(1) and collection is O(dirty), independent of
        both the cluster size and the number of held sequences.  The
        ``pb_build_seqs_scanned`` probe counts the sequences returned.
        """
        cursor = self._chan_synced.get(dst, 0)
        self._chan_synced[dst] = growth.counter
        seq_order = growth.seq_order
        dirty: list[int] = []
        for creator, tick in reversed(growth.order.items()):
            if tick <= cursor:
                break
            dirty.append(seq_order[creator])
        self.probes.pb_build_seqs_scanned += len(dirty)
        if len(dirty) > 1:
            # creation indices sort as bare ints (no key function), then
            # map back to creators — the full scan's iteration order
            dirty.sort()
        by_index = growth.by_index
        return [by_index[ix] for ix in dirty]

    # ------------------------------------------------------------------ #
    # fault-free hooks

    def build_piggyback(self, dst: int) -> Piggyback:
        return Piggyback()

    def on_local_event(self, det: Determinant) -> None:
        """A new local reception event was created (rsn assigned)."""

    def accept_piggyback(self, src: int, pb: Piggyback, dep: int) -> float:
        """Merge piggybacked causality; returns simulated merge cost (s).

        ``dep`` is the sender's reception clock at emission time (the
        antecedence cross edge), available to every protocol.
        """
        return 0.0

    def on_el_ack(self, ack: ElAck) -> None:
        """Fold an Event Logger ack (or push) into the stable view.

        A process keeps a cursor per logger and folds only the journal
        slice past it.  Each creator's journal entries rise, so
        max-merging the slice into a view that already covers the
        journal up to the cursor equals max-merging the full snapshot.
        Once the view *equals* a logger's journal fold (the logger is
        *adopted*: first contact, nothing else folded), every later entry
        raises it, so its slices skip the max.  A fold from any other
        logger (a failover owner, a peer shard's push) drops adoption.
        """
        src = ack.src
        pos = self._ack_pos.get(src, 0)
        upto = ack.upto
        moved = dict(ack.log[pos:upto])
        if upto > pos:  # a stale ack slices nothing and keeps the cursor
            self._ack_pos[src] = upto
        if src is self._ack_src:
            self._fold_raises(moved)
            return
        self._fold_vector(moved)
        self._ack_src = src if pos == 0 and self._sv == moved else None

    def _fold_vector(self, vector: dict[int, int]) -> None:
        """Max-merge ``vector`` (creator -> clock) into the stable view.

        :meth:`on_el_ack` calls exactly one of this and
        :meth:`_fold_raises` per ack; a protocol that acts on an ack (a
        prune) overrides these steps, never :meth:`on_el_ack` itself.
        """
        sv = self._sv
        get = sv.get
        for c, k in vector.items():
            if k > get(c, 0):
                sv[c] = k

    def _fold_raises(self, moved: dict[int, int]) -> None:
        """Fold journal entries that each raise the stable view."""
        self._fold_vector(moved)

    def _stable_list(self) -> list[int]:
        """The stable view in a checkpoint image's dense form."""
        get = self._sv.get
        return [get(c, 0) for c in range(self.nprocs)]

    def _restore_stable(self, dense: list[int]) -> None:
        """Max-merge a checkpoint image's dense stable list (no prune).
        The view may then exceed the adopted journal: drop adoption."""
        VProtocol._fold_vector(self, dict(enumerate(dense)))
        self._ack_src = None

    # ------------------------------------------------------------------ #
    # introspection / recovery

    def events_created_by(self, creator: int) -> list[Determinant]:
        """Determinants of ``creator`` held in volatile memory here."""
        return []

    def events_held(self) -> int:
        """Number of determinants currently held (memory footprint).

        On the per-message cost path: implementations must be O(1)
        (incrementally maintained), with :meth:`scan_events_held` as the
        full recount the tests check it against.
        """
        return 0

    def scan_events_held(self) -> int:
        """Recount :meth:`events_held` from the backing structures."""
        return self.events_held()

    def volatile_bytes(self) -> int:
        """Causal-information bytes that join a checkpoint image."""
        return self.events_held() * self.config.event_record_bytes

    def export_state(self) -> dict[str, Any]:
        """Deep-copyable protocol state for a checkpoint image."""
        return {}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore from :meth:`export_state` output (already deep-copied)."""


class NoFaultTolerance(VProtocol):
    """Vdummy: the trivial hook implementation (no fault tolerance).

    Equivalent to the MPICH-P4 reference implementation; used to measure
    the raw performance of the generic communication layer.
    """

    __slots__ = ()

    name = "vdummy"


def make_protocol(
    protocol: str,
    rank: int,
    nprocs: int,
    config: ClusterConfig,
    probes: ProcessProbes,
    store: Optional[DeterminantStore] = None,
) -> VProtocol:
    """Protocol factory keyed by :class:`~repro.runtime.config.StackSpec` name."""
    # local imports avoid a cycle (protocol modules import this base)
    from repro.core.coordinated import CoordinatedProtocol
    from repro.core.logon import LogOnProtocol
    from repro.core.manetho import ManethoProtocol
    from repro.core.pessimistic import PessimisticProtocol
    from repro.core.vcausal import VcausalProtocol

    classes = {
        "none": NoFaultTolerance,
        "vdummy": NoFaultTolerance,
        "vcausal": VcausalProtocol,
        "manetho": ManethoProtocol,
        "logon": LogOnProtocol,
        "pessimistic": PessimisticProtocol,
        "coordinated": CoordinatedProtocol,
    }
    if protocol not in classes:
        raise ValueError(f"unknown protocol {protocol!r}")
    return classes[protocol](rank, nprocs, config, probes, store)
