"""Piggyback wire formats and exact byte accounting (paper §III-C).

Two encodings exist in the paper:

* **Factored** (Vcausal, Manetho): events are grouped by creator rank
  ("factored by peer rank"); the wire format is a list of
  ``{rid, nb, sequence-of-events}`` so the creator rank is paid once per
  group (8-byte header) and each event costs 12 bytes.

* **Flat** (LogOn): in the paper the piggyback respects a partial order
  across all creators, so factoring is impossible; every event carries
  its creator rank and costs 16 bytes.  "For the same number of events to
  piggyback, the actual size in bytes of data added to the message is
  higher for LogOn."  The simulator charges this per event; it does not
  materialize the order.

Either way a :class:`Piggyback` carries the events as clock-range runs
``(creator, first, last)``, each with the sender's interned backing list
it reads from (:class:`~repro.core.events.DeterminantStore`), plus the
event and creator-group counts the byte and cost accounting needs.  A run
is a clock-contiguous stretch of one creator; a creator group (a factored
``{rid, nb, …}`` entry) is the one or more runs of one creator, which the
build loops emit together.  :attr:`Piggyback.events` derives the
determinant list from the runs.

Byte sizes are configurable through :class:`~repro.runtime.config.ClusterConfig`;
the defaults match 4-byte rank/clock/ssn fields.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import Determinant
from repro.runtime.config import ClusterConfig

#: ``(creator, first, last)``: clocks ``first..last`` of ``creator``
Run = tuple[int, int, int]


def run_events(runs: Sequence[Run], backings: Sequence[list]) -> list[Determinant]:
    """The determinants ``runs`` cover; run ``i`` reads ``backings[i]``."""
    return [
        d
        for (_c, first, last), backing in zip(runs, backings)
        for d in backing[first - 1 : last]
    ]


class Piggyback:
    """Causality information attached to one application message
    (read-only by contract)."""

    __slots__ = ("runs", "backings", "n_events", "n_groups", "nbytes", "build_cost_s")

    def __init__(
        self,
        runs: tuple[Run, ...] = (),
        backings: tuple[list, ...] = (),
        n_events: int = 0,
        n_groups: int = 0,
        nbytes: int = 0,
        build_cost_s: float = 0.0,
    ) -> None:
        #: the events as clock-range runs
        self.runs = runs
        #: each run's backing list, in run order.  Kept apart from the runs
        #: so that a run is a tuple of ints, which the cyclic GC untracks:
        #: runs holding a list stay tracked, survive young collections
        #: while in flight and trigger extra full collections
        self.backings = backings
        #: events the runs cover
        self.n_events = n_events
        #: creator groups: what the factored format pays a header for
        self.n_groups = n_groups
        self.nbytes = nbytes
        #: simulated seconds spent building this piggyback (serialization +
        #: graph traversal, charged to the sender before the wire)
        self.build_cost_s = build_cost_s

    @property
    def events(self) -> tuple[Determinant, ...]:
        """The piggybacked determinants, derived from :attr:`runs`."""
        return tuple(run_events(self.runs, self.backings))


def factored_bytes_from_counts(
    n_events: int, n_groups: int, config: ClusterConfig
) -> int:
    """Wire size of a factored (Vcausal/Manetho) piggyback: one group
    header per creator group."""
    return (
        config.pb_length_header_bytes
        + n_groups * config.pb_group_header_bytes
        + n_events * config.pb_event_factored_bytes
    )


def flat_bytes_from_count(n_events: int, config: ClusterConfig) -> int:
    """Wire size of a flat (LogOn) piggyback."""
    return config.pb_length_header_bytes + n_events * config.pb_event_flat_bytes
