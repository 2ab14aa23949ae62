"""Sparse per-creator clock bounds — the 256+ rank scale representation.

Every causal protocol keeps *per-peer* vectors of per-creator clock bounds
(Vcausal's channel bounds, Manetho/LogOn's knowledge vectors) and the Event
Logger keeps per-creator stable clocks.  Stored densely (``[0] * nprocs``)
these make every send/accept O(nprocs) in both memory and — through
``cost_pb_send_per_rank_s * nprocs`` — simulated time, which caps credible
scenarios at a few dozen ranks.

In real runs the vectors are overwhelmingly sparse: a rank only ever holds
bounds for the creators it has actually heard from, and NAS communication
graphs touch O(log P) peers per rank.  :class:`BoundVector` stores only the
nonzero entries, so per-message work scales with *touched entries*, not
cluster size.

Hot loops read/write :attr:`BoundVector.data` (the backing dict) directly;
mutations through the dict must only ever *raise* bounds, which is what
every protocol does.

The cost model side lives in :class:`~repro.runtime.config.ClusterConfig`
(``pb_cost_model``): the dense ``× nprocs`` formulas are kept as the
default compatibility mode so recorded benchmark checksums stay
comparable, while ``"sparse"`` charges the new per-entry constants.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

BoundState = Union["BoundVector", Mapping[int, int], Iterable[int]]


class BoundVector:
    """Sparse map of creator rank -> clock bound, zero by default.

    Semantically equivalent to an unbounded ``[0] * nprocs`` list; only
    nonzero entries are stored.  ``len()`` is the number of nonzero
    entries — the "touched entries" quantity the sparse cost model and the
    sparse ack wire format charge for.
    """

    __slots__ = ("data",)

    def __init__(self, entries: BoundState | None = None) -> None:
        data: dict[int, int] = {}
        if entries is not None:
            items = (
                entries.data.items()
                if isinstance(entries, BoundVector)
                else entries.items()
                if isinstance(entries, Mapping)
                else enumerate(entries)
            )
            for creator, clock in items:
                if clock > 0:
                    data[int(creator)] = clock
        self.data = data

    # -- reads ---------------------------------------------------------- #

    def __getitem__(self, creator: int) -> int:
        return self.data.get(creator, 0)

    def get(self, creator: int, default: int = 0) -> int:
        return self.data.get(creator, default)

    def __len__(self) -> int:
        """Number of nonzero entries (the sparse-cost "touched" count)."""
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(self.data)

    def items(self) -> Iterable[tuple[int, int]]:
        return self.data.items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BoundVector):
            return self.data == other.data
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundVector({dict(sorted(self.data.items()))!r})"

    def as_list(self, nprocs: int) -> list[int]:
        """Dense ``[0] * nprocs`` view (reporting / legacy comparisons)."""
        out = [0] * nprocs
        for creator, clock in self.data.items():
            if creator < nprocs:
                out[creator] = clock
        return out

    # -- writes --------------------------------------------------------- #

    def __setitem__(self, creator: int, clock: int) -> None:
        if clock > 0:
            self.data[creator] = clock
        else:
            self.data.pop(creator, None)

    def raise_to(self, creator: int, clock: int) -> bool:
        """Monotone write; returns True if the bound moved."""
        if clock > self.data.get(creator, 0):
            self.data[creator] = clock
            return True
        return False

    def update_max(self, other: BoundState) -> bool:
        """Absorb the elementwise max of ``other``; True if any entry moved."""
        data = self.data
        moved = False
        for creator, clock in _iter_entries(other):
            if clock > data.get(creator, 0):
                data[creator] = clock
                moved = True
        return moved

    def max_with(self, other: BoundState) -> "BoundVector":
        """New vector holding the elementwise max of ``self`` and ``other``."""
        merged = self.copy()
        merged.update_max(other)
        return merged

    def copy(self) -> "BoundVector":
        fresh = BoundVector.__new__(BoundVector)
        fresh.data = dict(self.data)
        return fresh

    # -- checkpoint round-trip ------------------------------------------ #

    def export_state(self) -> dict[int, int]:
        return dict(self.data)

    @classmethod
    def from_state(cls, state: BoundState) -> "BoundVector":
        """Rebuild from :meth:`export_state` output (dense lists from old
        checkpoint images are accepted too)."""
        return cls(state)


def _iter_entries(vector: BoundState) -> Iterable[tuple[int, int]]:
    """(creator, clock) pairs of any bound representation (sparse or dense)."""
    if isinstance(vector, BoundVector):
        return vector.data.items()
    if isinstance(vector, Mapping):
        return vector.items()
    return enumerate(vector)
