"""The Event Logger (EL): stable, asynchronous determinant storage.

The EL is "a single thread server based on a select loop to handle non
blocking asynchronous communications" (paper §IV-B.4):

* every process sends each reception determinant to the EL
  **asynchronously** (fire-and-forget, off the critical path);
* the EL stores it and replies with an acknowledgment carrying the *last
  event stored for each process* (a full stable vector), letting every
  process garbage-collect causality information about **all** creators;
* being single-threaded, it has a finite service rate: at high event rates
  the ack latency grows and processes cannot prune before their next send
  — this saturation is what limits the EL's benefit on LU/16 (Fig. 7) and
  motivates the distributed-EL future work of §VI.

During recovery the EL answers a single bulk query with every determinant
of the crashed process — one request to one server instead of one to every
peer, which is the whole Fig. 10 story.

The same class is one shard of the §VI distributed EL
(:mod:`repro.core.distributed_el`): a logger is authoritative for the
stable clocks of the creators that log to it, keeps a ``global_view`` of
the clocks its peers sent it, and acks with the merge of the two.  The
single EL of the paper's body is shard 0 of a one-shard group, whose
global view stays empty, so its acks carry exactly its stable clocks.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.bounds import BoundVector
from repro.core.events import Determinant
from repro.metrics.probes import ClusterProbes
from repro.runtime.config import ClusterConfig
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

#: host name of the EL's NIC in every deployment
EL_HOST = "el"


class ElAck(BoundVector):
    """A stable-vector ack that also carries its logger's advance journal.

    Behaves exactly like the :class:`BoundVector` snapshot it wraps (all
    protocols consume it through ``items()``), plus three fields that let
    a receiver which has folded ``src``'s acks *exclusively* replace the
    full-vector rescan with the journal slice ``log[pos:upto]`` — the
    entries that actually moved since the ack it last processed.  Acks
    from one logger to one daemon are served and delivered FIFO, so
    ``upto`` is monotone per receiver and the slice fold is exact.
    """

    __slots__ = ("src", "log", "upto")

    def __init__(
        self,
        vector: BoundVector,
        src: "EventLogger",
        log: list[tuple[int, int]],
        upto: int,
    ) -> None:
        # adopt the fresh per-ack snapshot dict (no extra copy)
        self.data = vector.data
        self.src = src
        self.log = log
        self.upto = upto


class EventLogger:
    """Single-threaded stable storage for determinants (one EL shard)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ClusterConfig,
        probes: ClusterProbes,
        nprocs: int,
        index: int = 0,
        host: str = EL_HOST,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.probes = probes
        self.nprocs = nprocs
        #: position in the shard group (0 for a standalone logger)
        self.index = index
        #: NIC this logger serves from
        self.host = host
        #: False after a crash: messages addressed to this logger are
        #: dropped on the floor (clients time out and retry elsewhere)
        self.alive = True
        #: creators whose absorbed key range is still being rebuilt from a
        #: dead peer's disk — their fetches are deferred until the records
        #: have been ingested (a fetch answered mid-rebuild would hand the
        #: recovering rank a truncated history)
        self._rebuilding: set[int] = set()
        self._deferred_fetches: list[tuple] = []
        #: creator -> clock-ordered stored determinants
        self.store: dict[int, list[Determinant]] = {r: [] for r in range(nprocs)}
        #: creator -> highest contiguous stored clock (sparse: only creators
        #: that have logged something carry an entry) — authoritative for
        #: the creators that log here
        self.stable_clock = BoundVector()
        #: freshest clocks peer shards sent us (empty for a lone logger)
        self.global_view = BoundVector()
        #: stable clocks merged with the global view — what acks carry.
        #: Raised in place on every stable advance and absorb rather than
        #: recomputed (a full copy + elementwise max) on every ack.
        self._merged = BoundVector()
        #: append-only journal of every (creator, clock) stable advance, in
        #: advance order.  Acks from a journal-valid logger ship as
        #: :class:`ElAck` carrying (journal, position): a receiver that has
        #: folded this logger's acks exclusively knows its stable view
        #: equals the journal prefix it has consumed, so the next ack only
        #: has to fold the slice since its position — the moved entries —
        #: instead of rescanning the whole vector (see
        #: ``VcausalProtocol.on_el_ack``).  One tuple per stored
        #: determinant, i.e. no larger than ``store`` itself.
        self._ack_log: list[tuple[int, int]] = []
        #: False when the ack vector can advance other than by this
        #: logger's own stable advances (sharded groups: peer-view
        #: absorbs, disk failover rebuilds) — the journal then no longer
        #: mirrors the vector and acks fall back to plain snapshots.
        self._ack_fast = True
        #: when the single-threaded select loop next falls idle
        self._busy_until = 0.0
        self._queued = 0

    def _book(self, service: float) -> float:
        """Queue ``service`` seconds of select-loop work behind whatever is
        already booked; returns its completion time."""
        start = max(self.sim.now, self._busy_until)
        done = start + service
        self._busy_until = done
        self.probes.el_busy_time_s += service
        return done

    @staticmethod
    def _bulk_service_s(n: int) -> float:
        """One scan-and-stream pass over ``n`` records (bulk fetch, disk
        ingest): fixed setup plus a small per-record cost."""
        return 50e-6 + 1.5e-6 * n

    def ack_vector_bytes(self, vector: BoundVector) -> int:
        """Wire size of a stable-vector payload (without the fixed header).

        Dense compatibility mode ships one 4-byte clock per rank; sparse
        mode ships (rank, clock) pairs for the nonzero entries only — the
        piece of the EL ack that otherwise grows with cluster size.
        """
        cfg = self.config
        if cfg.pb_cost_model == "dense":
            return 4 * self.nprocs
        return cfg.el_ack_entry_bytes * len(vector)

    # ------------------------------------------------------------------ #
    # logging path (called at network delivery of a log message)

    def receive_log(
        self,
        src_rank: int,
        dets: tuple[Determinant, ...],
        ack_to: Callable[[list[int]], None],
        ack_host: str,
    ) -> None:
        """Handle one asynchronous log message from ``src_rank``.

        ``ack_to`` is invoked at the source daemon when the ack message is
        delivered; it receives the stable vector snapshot taken at ack time.
        """
        if not self.alive:
            self.probes.el_posts_dropped += 1
            return  # no ack: the client's retry timer covers the loss
        cfg = self.config
        self._queued += 1
        if self._queued > self.probes.el_peak_queue:
            self.probes.el_peak_queue = self._queued
        done = self._book(cfg.el_service_time_s * max(1, len(dets)))
        self.sim.post(done, self._serve_log, src_rank, dets, ack_to, ack_host)

    def _serve_log(
        self,
        src_rank: int,
        dets: tuple[Determinant, ...],
        ack_to: Callable[[list[int]], None],
        ack_host: str,
    ) -> None:
        self._queued -= 1
        if not self.alive:
            return  # crashed after accepting: the queued service dies too
        for det in dets:
            self._store(det)
        self.probes.el_determinants_stored += len(dets)
        # ack with the full merged vector, after a small batching delay
        vector = self.merged_view()
        ack_bytes = self.config.el_ack_wire_bytes + self.ack_vector_bytes(vector)
        if self._ack_fast:
            # same snapshot + the journal handle; wire bytes are unchanged
            # (the journal is receiver-side bookkeeping, not wire payload)
            vector = ElAck(vector, self, self._ack_log, len(self._ack_log))
        self.network.transfer(
            self.host,
            ack_host,
            ack_bytes,
            ack_to,
            extra_latency=self.config.el_ack_delay_s,
            args=(vector,),
        )

    def _store(self, det: Determinant) -> None:
        lst = self.store[det.creator]
        if lst and det.clock <= lst[-1].clock:
            return  # duplicate from a replayed re-execution
        lst.append(det)
        stable = self.stable_clock.data
        if det.clock == stable.get(det.creator, 0) + 1:
            # advance over any contiguous run already buffered
            stable[det.creator] = det.clock
            if self._ack_fast:
                self._ack_log.append((det.creator, det.clock))
            merged = self._merged.data
            if det.clock > merged.get(det.creator, 0):
                merged[det.creator] = det.clock
        # else a hole (lost in-flight log before a crash): keep the record,
        # but stability stays at the contiguous prefix

    # ------------------------------------------------------------------ #
    # shard-to-shard view exchange

    def merged_view(self) -> BoundVector:
        """Snapshot of the authoritative clocks merged with the peer view."""
        return self._merged.copy()

    def absorb_peer_vector(self, vector: BoundVector) -> None:
        """Merge a peer shard's merged-view snapshot into our views."""
        gv = self.global_view.data
        merged = self._merged.data
        for creator, clock in vector.items():
            if clock > gv.get(creator, 0):
                gv[creator] = clock
                if clock > merged.get(creator, 0):
                    merged[creator] = clock

    # ------------------------------------------------------------------ #
    # recovery path

    def fetch_events(
        self,
        creator: int,
        clock_after: int,
        reply_to: Callable[[list[Determinant]], None],
        reply_host: str,
    ) -> None:
        """Bulk query used at restart: all stored determinants of
        ``creator`` with clock > ``clock_after`` in one response.

        Unlike the logging path (one select-loop iteration per incoming
        determinant), a bulk fetch is a single scan-and-stream of the
        creator's log: fixed setup plus a small per-event streaming cost.
        """
        if not self.alive:
            self.probes.el_posts_dropped += 1
            return  # no reply: the recovering rank's retry covers it
        if creator in self._rebuilding:
            # absorbed range still streaming off the dead shard's disk:
            # answer once the rebuild lands (deferred, not dropped)
            self._deferred_fetches.append((creator, clock_after, reply_to, reply_host))
            return
        cfg = self.config
        dets = [d for d in self.store[creator] if d.clock > clock_after]
        done = self._book(self._bulk_service_s(len(dets)))
        nbytes = cfg.el_ack_wire_bytes + len(dets) * cfg.event_record_bytes
        self.sim.post(done, self._serve_fetch, dets, nbytes, reply_to, reply_host)

    def _serve_fetch(
        self,
        dets: list[Determinant],
        nbytes: int,
        reply_to: Callable[[list[Determinant]], None],
        reply_host: str,
    ) -> None:
        self.network.transfer(self.host, reply_host, nbytes, reply_to, args=(dets,))

    # ------------------------------------------------------------------ #
    # failover support

    def ingest_records(self, records: dict[int, list[Determinant]]) -> int:
        """Bulk-load determinants streamed off a dead peer's disk.

        Charged like one bulk fetch per batch (a single scan-and-append
        pass); returns the number of records ingested.  Creators are
        processed in rank order and each creator's records arrive
        clock-ordered, so the contiguous-stability bookkeeping of
        :meth:`_store` applies unchanged.
        """
        n = 0
        for creator in sorted(records):
            for det in records[creator]:
                self._store(det)
                n += 1
        self._book(self._bulk_service_s(n))
        return n

    def finish_rebuild(self, creators: Iterable[int]) -> None:
        """The absorbed range is loaded: flush any deferred fetches."""
        self._rebuilding.difference_update(creators)
        pending, self._deferred_fetches = self._deferred_fetches, []
        for creator, clock_after, reply_to, reply_host in pending:
            self.fetch_events(creator, clock_after, reply_to, reply_host)

    def stored_count(self) -> int:
        return sum(len(v) for v in self.store.values())
