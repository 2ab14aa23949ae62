"""Distributed Event Logger (the paper's §VI future work, implemented).

"Using only one Event Logger for consistency purpose will lead to a
bottleneck as the number of processes grows.  It is thus necessary to
investigate how to distribute the logging of events among several Event
Loggers. ... Assigning a subset of the nodes to one Event Logger seems the
obvious way to gain scalability.  But in order to keep the good
performance introduced by the Event Logger in the system, each node has to
receive the most up to date array of logical clocks already logged."

This module implements exactly that design space:

* ``count`` Event Loggers (shards); node ``r`` logs to shard ``r % count``
  (a static subset assignment);
* every shard is authoritative for the stable clocks of its assigned
  creators and keeps a (possibly stale) *global view* of the others;
* acknowledgments carry the shard's merged global view, so nodes can prune
  events of **all** creators, not just their shard's.  An ack is an
  :class:`~repro.core.event_logger.ElAck` handle on the shard's journal of
  merged-view raises, absorbed peer views included;
* every shard-to-shard sync message is a snapshot of the sender's merged
  view, exchanged along one of three strategies:

  - ``"multicast"`` — each shard periodically multicasts its view to the
    other shards (nodes see fresher vectors on their next ack).
    O(shards²) messages per round: the all-to-all exchange the paper
    sketches;
  - ``"broadcast"`` — shards additionally push the merged vector to
    every compute node directly, as an ack-shaped handle (fresher
    pruning, more traffic);
  - ``"tree"`` — binary reduce-then-broadcast over the shards (the
    MPICH-style collective pattern): views flow leaf→root along a binary
    tree rooted at shard 0, the root's merged global view flows back
    root→leaf.  2·(shards−1) messages per round over O(log₂ shards)
    network hops.  While a shard is dead the tree is broken, and each
    round falls back to the multicast all-to-all among the survivors.

All three converge every shard's merged view to the same fixed point on a
quiesced system (tested); they differ in message count.

Shard failover (``ClusterConfig.el_failover``): shards themselves run on
volatile grid nodes.  Each shard writes determinants to stable storage
before acknowledging them (a write-ahead store), so when a shard dies the
group reassigns its key range to the next surviving shard
(:meth:`EventLoggerGroup.kill_shard` → failover after the detection
delay): the dead shard's disk is streamed to the new owner, and the
creators of the absorbed range re-log whatever the disk did not hold —
which is exactly the set of determinants the dead shard had never acked,
hence still held (unpruned) at their creators — or, when a creator is
dead at that moment, at the peers it reached, from which its recovery
then collects the suffix.  Clients re-resolve
``shard_for`` per attempt (see :mod:`repro.runtime.retry`), so retries
land on the new owner.

With ``count=1`` this degenerates to the single EL of the paper's body.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.bounds import BoundVector
from repro.core.event_logger import ElAck, EventLogger
from repro.core.events import Determinant
from repro.metrics.probes import ClusterProbes
from repro.runtime.config import ClusterConfig
from repro.simulator.engine import Simulator
from repro.simulator.network import Network

SYNC_STRATEGIES = ("multicast", "broadcast", "tree")


def shard_host(index: int) -> str:
    return f"el{index}"


class EventLoggerGroup:
    """A set of EL shards plus the synchronization machinery."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: ClusterConfig,
        probes: ClusterProbes,
        nprocs: int,
        count: int = 1,
        sync_strategy: str = "multicast",
        sync_interval_s: float = 2e-3,
        node_hosts: Optional[list[str]] = None,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one Event Logger shard")
        if sync_strategy not in SYNC_STRATEGIES:
            raise ValueError(f"unknown EL sync strategy {sync_strategy!r}")
        self.sim = sim
        self.network = network
        self.config = config
        self.probes = probes
        self.nprocs = nprocs
        self.count = count
        self.sync_strategy = sync_strategy
        self.sync_interval_s = sync_interval_s
        self.node_hosts = node_hosts or []
        self.shards = [
            EventLogger(sim, network, config, probes, nprocs, k, shard_host(k))
            for k in range(count)
        ]
        #: key-range ownership: slot ``rank % count`` -> shard index.  The
        #: identity map reproduces the static assignment; failover points
        #: a dead shard's slots at the surviving shard that absorbed them.
        self.owner: list[int] = list(range(count))
        self.shard_kills = 0
        #: per-node sinks for the broadcast strategy's pushes
        self.node_vector_sinks: dict[str, Callable[[ElAck], None]] = {}
        #: per-node re-log request sinks (daemon.on_el_relog_request)
        self.relog_sinks: dict[str, Callable[[int], None]] = {}
        #: creators a re-log request found dead: the suffix the dead shard
        #: never acked died with their volatile state too, so their
        #: recovery also collects it from the peers that still hold it
        self.relog_missed: set[int] = set()
        self.sync_rounds = 0
        self.sync_bytes = 0
        #: shard-to-shard sync messages (excludes broadcast-to-node pushes,
        #: counted separately so topologies compare on the same quantity)
        self.sync_messages = 0
        self.node_push_messages = 0
        #: liveness check set by the cluster: the periodic sync stops when
        #: the run completes, letting the event heap drain
        self.active_check: Callable[[], bool] = lambda: True
        if count > 1:
            sim.schedule(sync_interval_s, self._sync_tick)

    # ------------------------------------------------------------------ #

    def shard_index_for(self, rank: int) -> int:
        return self.owner[rank % self.count]

    def shard_for(self, rank: int) -> EventLogger:
        return self.shards[self.shard_index_for(rank)]

    def shard_at(self, index: int) -> EventLogger:
        """Shard ``index``, rejecting an index outside ``[0, count)``
        (a negative one would otherwise wrap around to a live shard)."""
        if not 0 <= index < self.count:
            raise ValueError(
                f"EL shard index {index} out of range for {self.count} shards"
            )
        return self.shards[index]

    def host_for(self, rank: int) -> str:
        return shard_host(self.shard_index_for(rank))

    def register_node_sink(self, host: str, sink: Callable[[ElAck], None]) -> None:
        """Register a daemon callback for broadcast-strategy pushes."""
        self.node_vector_sinks[host] = sink

    def register_relog_sink(self, host: str, sink: Callable[[int], None]) -> None:
        """Register a daemon callback for failover re-log requests."""
        self.relog_sinks[host] = sink

    # ------------------------------------------------------------------ #
    # shard failure + failover

    def kill_shard(self, index: int) -> None:
        """Crash one shard.  With ``ClusterConfig.el_failover`` enabled,
        a surviving shard absorbs the dead shard's key range after the
        usual detection delay; without it the range simply goes dark
        (clients that retry keep retrying into the dead host)."""
        shard = self.shard_at(index)
        if not shard.alive:
            return
        shard.alive = False
        self.shard_kills += 1
        if not self.config.el_failover:
            return
        if not any(s.alive for s in self.shards):
            return
        self.sim.schedule(
            self.config.fault_detection_delay_s, self._failover, index
        )

    def _failover(self, index: int) -> None:
        """Reassign the dead shard's key range to the next alive shard.

        The shard's write-ahead store — every determinant was written to
        stable storage *before* being acknowledged — is streamed off its
        disk to the new owner; determinants the dead shard had received
        but not yet serviced were never acked, so their creators still
        hold them and are asked to re-log everything above the disk's
        stable clock.  Ownership flips immediately: clients that re-probe
        (``shard_for``) land on the new owner, whose merged global view
        already carries the dead range's last synced clocks.
        """
        dead = self.shards[index]
        new_owner = None
        for i in range(1, self.count + 1):
            cand = self.shards[(index + i) % self.count]
            if cand.alive:
                new_owner = cand
                break
        if new_owner is None:
            return  # pragma: no cover - kill_shard guards this
        dead_slots = {
            slot for slot in range(self.count) if self.owner[slot] == index
        }
        for slot in sorted(dead_slots):
            self.owner[slot] = new_owner.index
        creators = [
            c for c in range(self.nprocs) if (c % self.count) in dead_slots
        ]
        self.probes.el_failovers += 1
        records = {c: list(dead.store[c]) for c in creators if dead.store[c]}
        n = sum(len(v) for v in records.values())
        self.probes.el_disk_records_recovered += n
        new_owner._rebuilding.update(creators)
        nbytes = self.config.el_ack_wire_bytes + n * self.config.event_record_bytes
        self.network.transfer(
            dead.host,
            new_owner.host,
            nbytes,
            self._disk_loaded,
            args=(new_owner, records, creators),
        )

    def _disk_loaded(
        self,
        owner: EventLogger,
        records: dict[int, list[Determinant]],
        creators: list[int],
    ) -> None:
        owner.ingest_records(records)
        owner.finish_rebuild(creators)
        # ask every creator of the absorbed range to re-log what the disk
        # did not hold (received-but-unacked determinants died with the
        # shard's process; unacked means the creator still holds them)
        for creator in creators:
            host = (
                self.node_hosts[creator]
                if creator < len(self.node_hosts)
                else None
            )
            sink = self.relog_sinks.get(host) if host is not None else None
            if sink is None:
                continue
            disk_clock = owner.stable_clock.data.get(creator, 0)
            self.probes.el_relog_requests += 1
            self.network.transfer(
                owner.host,
                host,
                self.config.recovery_request_bytes,
                sink,
                args=(disk_clock,),
            )

    # ------------------------------------------------------------------ #
    # synchronization

    def _vector_wire_bytes(self, shard: EventLogger, vector: BoundVector) -> int:
        return self.config.el_ack_wire_bytes + shard.ack_vector_bytes(vector)

    def _sync_tick(self) -> None:
        if not self.active_check():
            return
        self.sync_rounds += 1
        if self.sync_strategy == "tree" and all(s.alive for s in self.shards):
            self._tree_round()
        else:
            # multicast/broadcast, and the tree while a dead shard breaks it
            self._all_to_all_round()
        self.sim.schedule(self.sync_interval_s, self._sync_tick)

    def _all_to_all_round(self) -> None:
        """Every alive shard sends its merged-view snapshot to every other
        alive shard — O(count²) messages — and, under ``"broadcast"``, a
        handle on that view to every compute node too."""
        alive = [s for s in self.shards if s.alive]
        broadcast = self.sync_strategy == "broadcast"
        for shard in alive:
            vector = shard.merged_view()
            vec_bytes = self._vector_wire_bytes(shard, vector)
            for peer in alive:
                if peer is shard:
                    continue
                self.sync_messages += 1
                self.sync_bytes += vec_bytes
                self.network.transfer(
                    shard.host,
                    peer.host,
                    vec_bytes,
                    peer.absorb_peer_vector,
                    args=(vector,),
                )
            if broadcast:
                push = shard.ack()
                for host, sink in self.node_vector_sinks.items():
                    self.node_push_messages += 1
                    self.sync_bytes += vec_bytes
                    self.network.transfer(
                        shard.host, host, vec_bytes, sink, args=(push,)
                    )

    # -- tree: binary reduce-then-broadcast over the shards -------------- #

    def _tree_children(self, index: int) -> range:
        return range(2 * index + 1, min(2 * index + 3, self.count))

    def _tree_round(self) -> None:
        """Reduce merged views leaf→root, broadcast the root's merged
        global view root→leaf: 2·(count−1) messages per round."""
        pending = [len(self._tree_children(k)) for k in range(self.count)]
        for k in range(self.count):
            if pending[k] == 0:
                self._tree_send_up(k, pending)

    def _tree_send_up(self, index: int, pending: list[int]) -> None:
        shard = self.shards[index]
        vector = shard.merged_view()
        if index == 0:
            # root holds the fully reduced global view: broadcast it down
            self._tree_send_down(0, vector)
            return
        parent = self.shards[(index - 1) // 2]
        vec_bytes = self._vector_wire_bytes(shard, vector)
        self.sync_messages += 1
        self.sync_bytes += vec_bytes

        def _absorb_up(p: EventLogger = parent, v: BoundVector = vector) -> None:  # v is a frozen snapshot
            p.absorb_peer_vector(v)
            pending[p.index] -= 1
            if pending[p.index] == 0:
                self._tree_send_up(p.index, pending)

        self.network.transfer(shard.host, parent.host, vec_bytes, _absorb_up)

    def _tree_send_down(self, index: int, vector: BoundVector) -> None:
        shard = self.shards[index]
        for child_index in self._tree_children(index):
            child = self.shards[child_index]
            vec_bytes = self._vector_wire_bytes(shard, vector)
            self.sync_messages += 1
            self.sync_bytes += vec_bytes

            def _absorb_down(c: EventLogger = child, v: BoundVector = vector) -> None:  # v is a frozen snapshot
                c.absorb_peer_vector(v)
                self._tree_send_down(c.index, v)

            self.network.transfer(shard.host, child.host, vec_bytes, _absorb_down)

    # ------------------------------------------------------------------ #
    # aggregate introspection

    def stored_count(self) -> int:
        """Determinants held by the *alive* shards (a dead shard's store
        is its unread disk; counting it would double-count records already
        absorbed by its failover owner)."""
        return sum(s.stored_count() for s in self.shards if s.alive)
