"""Timeline tracing: record per-rank lifecycle events of a run.

Attach a :class:`Timeline` to a cluster before running to capture an
ordered record of the interesting moments — sends, deliveries, checkpoint
commits, faults, recovery phases — for debugging protocol interleavings
and for producing the recovery timelines shown by the examples.

The recorder is entirely optional and costs nothing when not attached.

Usage::

    cluster = Cluster(...)
    timeline = Timeline.attach(cluster)
    cluster.run()
    for entry in timeline.of_kind("fault"):
        print(entry)
    print(timeline.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cluster import Cluster


@dataclass(frozen=True)
class TraceEntry:
    """One recorded event."""

    time_s: float
    kind: str            # send | deliver | checkpoint | fault | restart | ...
    rank: int
    detail: str = ""

    def __str__(self) -> str:
        return f"[{self.time_s * 1e3:10.3f} ms] rank {self.rank:3d} {self.kind:11s} {self.detail}"


class Timeline:
    """Ordered event record, populated through the ``trace_sink`` hooks."""

    def __init__(self) -> None:
        self.entries: list[TraceEntry] = []

    # ------------------------------------------------------------------ #

    def record(self, time_s: float, kind: str, rank: int, detail: str = "") -> None:
        self.entries.append(TraceEntry(time_s, kind, rank, detail))

    def of_kind(self, kind: str) -> list[TraceEntry]:
        return [e for e in self.entries if e.kind == kind]

    def for_rank(self, rank: int) -> list[TraceEntry]:
        return [e for e in self.entries if e.rank == rank]

    def between(self, t0: float, t1: float) -> list[TraceEntry]:
        return [e for e in self.entries if t0 <= e.time_s <= t1]

    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # ------------------------------------------------------------------ #

    @classmethod
    def attach(cls, cluster: "Cluster") -> "Timeline":
        """Instrument a (not yet started) cluster and return the timeline."""
        timeline = cls()
        # faults and restarts come through the cluster's sink, sends /
        # deliveries / checkpoints through each daemon's
        cluster.trace_sink = timeline.record
        for daemon in cluster.daemons.values():
            daemon.trace_sink = timeline.record

        return timeline
