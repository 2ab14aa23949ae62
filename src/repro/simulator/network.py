"""Calibrated network model: NICs, switch, latency/bandwidth.

The model reproduces the paper's testbed topology — compute nodes connected
through a single Fast-Ethernet switch — at the level of detail the
experiments are sensitive to:

* **Serialization**: a message of ``n`` bytes occupies the sender's TX link
  for ``n * 8 / bandwidth`` seconds and the receiver's RX link for the same
  duration, shifted by the propagation+switch latency.  Concurrent messages
  to one receiver therefore queue (this is what saturates the Event Logger
  at high event rates, Fig. 7 LU-16).
* **Duplex**: a full-duplex NIC has independent TX/RX resources; a
  half-duplex NIC shares one.  The paper observes that MPICH-Vdummy can
  exploit full duplex while MPICH-P4 cannot (Fig. 9); the stack config
  chooses the flag.
* **Goodput**: Ethernet/IP/TCP framing is modelled as a fixed per-message
  header plus a goodput factor on the raw 100 Mbit/s wire.

Every delivery is one engine event, posted at the time the receiver's RX
link has taken the last byte.

No topology beyond a single switch is modelled; the paper's cluster used
one Fast Ethernet switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.simulator.engine import SimulationError, Simulator


@dataclass(slots=True)
class TransferStats:
    """Per-NIC traffic accounting (used by the piggyback-volume probes).

    ``messages_*`` count wire messages: every chunk of a chunked transfer
    is one wire message (it pays its own framing overhead).  The logical
    view is kept separately: ``logical_messages_*`` count one per
    :meth:`Network.transfer` / :meth:`Network.transfer_chunked` call, and
    ``chunks_*`` count the wire messages that belonged to chunked
    transfers, so ``messages_sent == logical_messages_sent`` exactly when
    nothing was chunked.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    logical_messages_sent: int = 0
    logical_messages_received: int = 0
    chunks_sent: int = 0
    chunks_received: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "messages_received": self.messages_received,
            "bytes_received": self.bytes_received,
            "logical_messages_sent": self.logical_messages_sent,
            "logical_messages_received": self.logical_messages_received,
            "chunks_sent": self.chunks_sent,
            "chunks_received": self.chunks_received,
        }


class Nic:
    """One endpoint attached to the switch."""

    __slots__ = (
        "sim", "name", "bandwidth_bps", "full_duplex",
        "_tx_busy_until", "_rx_busy_until", "stats",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        full_duplex: bool = True,
    ) -> None:
        if bandwidth_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        self.full_duplex = bool(full_duplex)
        self._tx_busy_until = 0.0
        self._rx_busy_until = 0.0
        self.stats = TransferStats()

    # -- serialization bookkeeping ------------------------------------- #

    def wire_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps

    def reserve_tx(self, duration: float) -> tuple[float, float]:
        """Reserve the TX link; returns (start, end) of the transmission."""
        busy = self._tx_busy_until if self.full_duplex else max(
            self._tx_busy_until, self._rx_busy_until
        )
        start = max(self.sim.now, busy)
        end = start + duration
        self._tx_busy_until = end
        if not self.full_duplex:
            self._rx_busy_until = end
        return start, end

    def reserve_rx(self, earliest: float, duration: float) -> tuple[float, float]:
        """Reserve the RX link no earlier than ``earliest``."""
        busy = self._rx_busy_until if self.full_duplex else max(
            self._tx_busy_until, self._rx_busy_until
        )
        start = max(earliest, busy)
        end = start + duration
        self._rx_busy_until = end
        if not self.full_duplex:
            self._tx_busy_until = end
        return start, end


class Network:
    """Single-switch network connecting named NICs.

    Parameters
    ----------
    sim: engine
    bandwidth_bps: raw wire rate (Fast Ethernet: 100e6)
    latency_s: one-way propagation + switch latency
    per_message_overhead_bytes: framing headers charged to every message
    goodput_factor: fraction of the raw wire rate achievable by TCP payload
    """

    __slots__ = (
        "sim", "bandwidth_bps", "latency_s", "per_message_overhead_bytes",
        "goodput_factor", "nics", "total_messages",
        "total_logical_messages", "total_chunk_messages", "total_bytes",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 100e6,
        latency_s: float = 55e-6,
        per_message_overhead_bytes: int = 66,
        goodput_factor: float = 0.93,
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.per_message_overhead_bytes = int(per_message_overhead_bytes)
        self.goodput_factor = float(goodput_factor)
        self.nics: dict[str, Nic] = {}
        #: wire messages (each chunk of a chunked transfer counts once)
        self.total_messages = 0
        #: logical messages (a whole chunked transfer counts once)
        self.total_logical_messages = 0
        #: wire messages that belonged to chunked transfers
        self.total_chunk_messages = 0
        self.total_bytes = 0

    # ------------------------------------------------------------------ #

    def attach(
        self,
        name: str,
        full_duplex: bool = True,
        bandwidth_bps: Optional[float] = None,
    ) -> Nic:
        """Attach a NIC; ``bandwidth_bps`` overrides the network default
        (used for the checkpoint server's aggregated stable-storage link)."""
        if name in self.nics:
            raise SimulationError(f"NIC {name!r} already attached")
        raw = bandwidth_bps if bandwidth_bps is not None else self.bandwidth_bps
        nic = Nic(
            self.sim,
            name,
            raw * self.goodput_factor,
            full_duplex=full_duplex,
        )
        self.nics[name] = nic
        return nic

    def nic(self, name: str) -> Nic:
        return self.nics[name]

    # simlint: hot
    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: int,
        deliver: Callable[..., None],
        extra_latency: float = 0.0,
        args: tuple = (),
        _chunk: bool = False,
    ) -> float:
        """Move ``nbytes`` from NIC ``src`` to NIC ``dst``.

        ``deliver(*args)`` runs when the last byte has been received
        (passing ``args`` instead of closing over them keeps the hot path
        free of one closure allocation per message).  Returns the
        scheduled delivery time (useful for tests).  Loopback transfers
        (src == dst) skip the wire entirely and cost only ``extra_latency``.
        """
        if nbytes < 0:
            raise SimulationError("negative transfer size")
        src_nic = self.nics[src]
        dst_nic = self.nics[dst]
        self.total_messages += 1
        self.total_bytes += nbytes
        src_stats = src_nic.stats
        dst_stats = dst_nic.stats
        src_stats.messages_sent += 1
        src_stats.bytes_sent += nbytes
        dst_stats.messages_received += 1
        dst_stats.bytes_received += nbytes
        if _chunk:
            src_stats.chunks_sent += 1
            dst_stats.chunks_received += 1
        else:
            self.total_logical_messages += 1
            src_stats.logical_messages_sent += 1
            dst_stats.logical_messages_received += 1

        if src == dst:
            at = self.sim.now + extra_latency
            self.sim.post(at, deliver, *args)
            return at

        wire_bytes = nbytes + self.per_message_overhead_bytes
        duration = src_nic.wire_time(wire_bytes)
        tx_start, _tx_end = src_nic.reserve_tx(duration)
        earliest_rx = tx_start + self.latency_s + extra_latency
        _rx_start, rx_end = dst_nic.reserve_rx(earliest_rx, duration)
        self.sim.post(rx_end, deliver, *args)
        return rx_end

    def transfer_chunked(
        self,
        src: str,
        dst: str,
        nbytes: int,
        deliver: Callable[[], None],
        chunk_bytes: int = 256 * 1024,
    ) -> None:
        """Bulk transfer split into chunks reserved one at a time.

        A monolithic :meth:`transfer` books the sender's TX link for the
        whole payload contiguously, which would stall application messages
        behind a multi-megabyte checkpoint image.  Real TCP interleaves
        streams; chunking approximates that: each chunk is reserved when
        the previous one completes, letting other traffic slot in between.

        One continuation (:meth:`_chunk_step` with a mutable remaining
        counter) is shared by every chunk — no per-chunk closure chain.
        The whole transfer counts as **one** logical message; each chunk
        is one wire message and is counted in the ``chunks_*`` /
        ``total_chunk_messages`` columns (see :class:`TransferStats`).
        """
        self.total_logical_messages += 1
        self.nics[src].stats.logical_messages_sent += 1
        self.nics[dst].stats.logical_messages_received += 1
        if nbytes <= chunk_bytes:
            self.transfer(src, dst, nbytes, deliver, _chunk=True)
            self.total_chunk_messages += 1
            return
        state = [src, dst, nbytes, chunk_bytes, deliver]
        self._chunk_step(state)

    def _chunk_step(self, state: list) -> None:
        src, dst, remaining, chunk_bytes, deliver = state
        take = min(chunk_bytes, remaining)
        state[2] = remaining - take
        self.total_chunk_messages += 1
        if state[2] > 0:
            self.transfer(src, dst, take, self._chunk_step, args=(state,), _chunk=True)
        else:
            self.transfer(src, dst, take, deliver, _chunk=True)
