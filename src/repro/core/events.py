"""Determinants, the per-creator determinant store and holder windows.

Message-logging terminology (Alvisi/Marzullo):

* Every *reception* is a non-deterministic event.  Its **determinant**
  records everything needed to replay it: which message (sender, send
  sequence number) was delivered as the receiver's ``clock``-th reception.
* We extend the determinant with ``dep``: the sender's reception clock at
  emission time.  This is the cross edge of the antecedence graph used by
  Manetho and LogOn (paper Fig. 3) and is carried by every message anyway
  (one integer).

An event is identified by ``(creator, clock)``; clocks are contiguous
per creator, which lets protocols exchange *ranges* of events and lets the
Event Logger acknowledge with a single per-creator stable clock.

A determinant is created once but held by many processes until the Event
Logger makes it stable, so it is interned once: each cluster owns one
:class:`DeterminantStore` (per creator, one backing list indexed by
clock), every holder keeps an :class:`EventSequence` — a window of held
clock spans over a backing list — and piggybacks ship ``(creator, first,
last)`` clock ranges over backing lists (:mod:`repro.core.piggyback`)
instead of copied determinants.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple, Optional


class Determinant(NamedTuple):
    """Determinant #e of one reception event.

    Attributes
    ----------
    creator: rank that performed the reception.
    clock:   the creator's reception sequence number (rsn), 1-based.
    sender:  rank that sent the delivered message.
    ssn:     sender's send sequence number on the (sender → creator) channel.
    dep:     sender's reception clock at emission (antecedence cross edge).
    """

    creator: int
    clock: int
    sender: int
    ssn: int
    dep: int

    @property
    def event_id(self) -> tuple[int, int]:
        return (self.creator, self.clock)


def _place(backing: list, clock: int, det: Determinant) -> None:
    """Fill the free slot of ``clock``, padding unseen clocks with None."""
    if clock > len(backing):
        backing.extend([None] * (clock - len(backing)))
    backing[clock - 1] = det


class DeterminantStore:
    """Append-only per-creator determinant store, one per cluster.

    :meth:`backing` is creator ``c``'s current backing list: index
    ``k - 1`` holds the determinant with clock ``k`` (``None`` where no
    holder has seen clock ``k`` yet).  A set entry never changes, so a
    window or an in-flight piggyback run reads its clocks straight from
    the list.  Nothing is pruned: the store is bounded by the
    determinants created.

    A creator that re-executes past a lost suffix may re-create a clock
    with a *different* determinant.  :meth:`record` then forks: the
    creator gets a new backing list (the prefix copied, the new
    determinant appended) and every existing reader stays on the old one.
    """

    __slots__ = ("_lists", "_forked", "recreated_equal", "recreated_forked")

    def __init__(self) -> None:
        self._lists: dict[int, list[Optional[Determinant]]] = {}
        #: creator -> backing lists forked away from, oldest first
        self._forked: dict[int, list[list[Optional[Determinant]]]] = {}
        #: host-side counters, excluded from checksums: re-creations of an
        #: already created (creator, clock) that equal / differ from the
        #: first determinant created for it (piecewise determinism says
        #: replay only ever produces the equal kind)
        self.recreated_equal = 0
        self.recreated_forked = 0

    def backing(self, creator: int) -> list[Optional[Determinant]]:
        """Creator ``creator``'s current backing list."""
        b = self._lists.get(creator)
        if b is None:
            b = self._lists[creator] = []
        return b

    def record(self, det: Determinant) -> None:
        """``det`` was just created by its creator (a fresh or a replayed
        reception)."""
        creator = det.creator
        clock = det.clock
        b = self.backing(creator)
        forked = self._forked.get(creator)
        if forked is None and clock == len(b) + 1:
            b.append(det)  # the common case: a first creation
            return
        held = b[clock - 1] if clock <= len(b) else None
        if held is None:
            _place(b, clock, det)
        elif held != det:
            self._forked.setdefault(creator, []).append(b)
            self._lists[creator] = b[: clock - 1] + [det]
        first = next(
            (old[clock - 1] for old in forked or () if clock <= len(old)
             and old[clock - 1] is not None),
            held,
        )
        if first is not None and first == det:
            self.recreated_equal += 1
        elif first is not None:
            self.recreated_forked += 1


_first_clock = itemgetter(0)


class EventSequence:
    """One holder's window over a creator's determinants: a prune floor
    (:attr:`pruned_upto`) plus the held clocks as sorted, disjoint,
    non-adjacent ``(first, last)`` spans over one backing list (index
    ``k - 1`` holds clock ``k``).  Usually there is one span; holes are
    further spans, not a fallback.

    The backing list is normally the :class:`DeterminantStore`'s list
    for the creator, shared by every holder, so accepting a piggyback run
    over the same list is span arithmetic.  Writes only fill free slots;
    a determinant that conflicts with a set slot moves this window to a
    list that agrees with everything it holds (the store's current list
    when it does, else a private copy).
    """

    __slots__ = (
        "creator", "pruned_upto", "max_clock", "_detstore", "_backing", "_spans", "_nheld",
    )

    def __init__(self, creator: int, store: Optional[DeterminantStore] = None) -> None:
        self.creator = creator
        #: events at or below this clock were pruned (stable) — gone forever
        self.pruned_upto = 0
        #: highest held clock (0 when nothing is held); read per event
        self.max_clock = 0
        self._detstore = store = store if store is not None else DeterminantStore()
        self._backing = store._lists.get(creator) or store.backing(creator)
        self._spans: list[tuple[int, int]] = []
        self._nheld = 0

    # -- inspection ----------------------------------------------------- #

    def __len__(self) -> int:
        return self._nheld

    @property
    def min_clock(self) -> Optional[int]:
        return self._spans[0][0] if self._spans else None

    def __iter__(self) -> Iterator[Determinant]:
        b = self._backing
        for first, last in list(self._spans):
            yield from b[first - 1 : last]

    def holds(self, clock: int) -> bool:
        spans = self._spans
        if len(spans) == 1:
            first, last = spans[0]
            return first <= clock <= last
        i = bisect_right(spans, clock, key=_first_clock)
        return i > 0 and clock <= spans[i - 1][1]

    def get(self, clock: int) -> Optional[Determinant]:
        return self._backing[clock - 1] if self.holds(clock) else None

    def new_run_offset(self, first: int, last: int, count: int) -> Optional[int]:
        """Classify a clock-ascending run ``[first, last]`` of ``count``
        events against this window, in O(1).

        Returns the offset of the first event of the run not yet held:
        ``0`` (whole run new), ``count`` (whole run already held), or an
        interior split when a hole-free run overlaps a hole-free window
        (everything up to :attr:`max_clock` is a duplicate).  ``None``
        means the run cannot be classified O(1) — holes on one side or the
        other — and the caller must merge per event.

        Events at or below :attr:`pruned_upto` count as already held: they
        are stable and must never be re-admitted, even when the window is
        empty (fully pruned, or just restored from a checkpoint image).
        """
        base = 0
        floor = self.pruned_upto
        if first <= floor:
            if last <= floor:
                return count  # entire run already stable
            if last - first + 1 != count:
                return None  # holes in the run: per-event fallback
            # hole-free run straddling the prune floor: the prefix at or
            # below the floor is a duplicate, classify the remainder
            base = floor - first + 1
            first = floor + 1
        maxc = self.max_clock
        if first > maxc:
            return base
        spans = self._spans
        if (
            last - first + 1 == count - base
            and len(spans) == 1
            and spans[0][0] <= first
        ):
            return count if last <= maxc else base + (maxc - first + 1)
        return None

    def index_window(self, bound: int, upto: int) -> tuple[list, int, int]:
        """``(dets, lo, hi)`` such that ``dets[lo:hi]`` are exactly the
        held determinants with ``bound < clock <= upto``, clock-ordered.

        When those clocks are one span this is clock arithmetic over the
        backing list — no copy, so the antecedence graph walks chain
        segments (in either direction) allocation-free.  Across holes the
        held determinants are gathered into a new list.  The list is
        **read-only by contract**.
        """
        lo = bound
        hi = upto
        spans = self._spans
        if len(spans) == 1:
            first, last = spans[0]
            if first > lo + 1:
                lo = first - 1
            if last < hi:
                hi = last
            return (self._backing, lo, hi) if hi > lo else (self._backing, 0, 0)
        b = self._backing
        dets = [
            d
            for first, last in spans
            if last > lo and first <= hi
            for d in b[max(first, lo + 1) - 1 : min(last, hi)]
        ]
        return dets, 0, len(dets)

    def extend_tail_runs(self, runs: list, backings: list, bound: int) -> int:
        """Append the held clocks above ``bound`` as ``(creator, first,
        last)`` runs — one per span — to ``runs`` and their backing list
        to ``backings``; return how many events they cover.  When any is
        appended the last run ends at :attr:`max_clock`."""
        maxc = self.max_clock
        if maxc <= bound:
            return 0
        spans = self._spans
        b = self._backing
        creator = self.creator
        if len(spans) == 1:
            first = spans[0][0]
            if first <= bound:
                first = bound + 1
            runs.append((creator, first, maxc))
            backings.append(b)
            return maxc - first + 1
        n = 0
        for first, last in spans:
            if last > bound:
                if first <= bound:
                    first = bound + 1
                runs.append((creator, first, last))
                backings.append(b)
                n += last - first + 1
        return n

    # -- mutation ------------------------------------------------------- #

    def _put(self, clock: int, det: Determinant) -> None:
        """Make the backing list hold ``det`` at ``clock`` (not yet held)."""
        b = self._backing
        if clock > len(b) or b[clock - 1] is None:
            _place(b, clock, det)
            return
        held = b[clock - 1]
        if held is det or held == det:
            return
        # a set slot conflicts: move to the store's current list if it
        # agrees with everything held plus det, else to a private copy
        cur = self._detstore.backing(self.creator)
        if (
            cur is not b
            and clock <= len(cur)
            and cur[clock - 1] == det
            and all(
                last <= len(cur) and cur[first - 1 : last] == b[first - 1 : last]
                for first, last in self._spans
            )
        ):
            self._backing = cur
        else:
            b = self._backing = list(b)
            b[clock - 1] = det

    def _hold(self, clock: int) -> None:
        """Add one not-yet-held clock to the spans."""
        spans = self._spans
        i = bisect_right(spans, clock, key=_first_clock)
        left = i > 0 and spans[i - 1][1] == clock - 1
        right = i < len(spans) and spans[i][0] == clock + 1
        if left and right:
            spans[i - 1] = (spans[i - 1][0], spans.pop(i)[1])
        elif left:
            spans[i - 1] = (spans[i - 1][0], clock)
        elif right:
            spans[i] = (clock, spans[i][1])
        else:
            spans.insert(i, (clock, clock))
        self._nheld += 1
        if clock > self.max_clock:
            self.max_clock = clock

    def append(self, det: Determinant) -> None:
        """Hold a determinant with a clock greater than any held."""
        if det.creator != self.creator:
            raise ValueError(f"creator mismatch: {det.creator} != {self.creator}")
        clock = det.clock
        spans = self._spans
        if spans and clock <= self.max_clock:
            raise ValueError(
                f"non-monotonic append: clock {clock} <= {self.max_clock}"
            )
        b = self._backing
        if clock > len(b) or b[clock - 1] is not det:
            self._put(clock, det)  # not already there (a creator's own is)
        if spans and clock == self.max_clock + 1:
            spans[-1] = (spans[-1][0], clock)
        else:
            spans.append((clock, clock))
        self._nheld += 1
        self.max_clock = clock

    def extend_monotonic(self, first: int, last: int, backing: list) -> int:
        """Hold the run ``[first, last]`` of ``backing`` (a creator backing
        list) above every held clock; returns its length.

        The accept paths' bulk append: over this window's own backing
        list, or into an empty window (which adopts ``backing``), it is
        span arithmetic; any other list is copied in clock by clock.
        """
        if last < first:
            return 0
        spans = self._spans
        if spans:
            if first <= self.max_clock:
                raise ValueError(
                    f"non-monotonic append: clock {first} <= {self.max_clock}"
                )
            if backing is not self._backing:
                for k in range(first, last + 1):
                    self._put(k, backing[k - 1])
                    self._hold(k)
                return last - first + 1
            if first == self.max_clock + 1:
                spans[-1] = (spans[-1][0], last)
            else:
                spans.append((first, last))
        else:
            self._backing = backing
            spans.append((first, last))
        n = last - first + 1
        self._nheld += n
        self.max_clock = last
        return n

    def merge(self, dets: Iterable[Determinant]) -> int:
        """Hold determinants given in any order; returns how many were new.

        Events at or below :attr:`pruned_upto` are stable and stay gone —
        a late duplicate from an unacknowledged peer must not resurrect
        them.  A clock already held keeps its determinant.
        """
        added = 0
        for det in dets:
            if det.creator != self.creator:
                raise ValueError("creator mismatch in merge")
            clock = det.clock
            if clock <= self.pruned_upto or (
                clock <= self.max_clock and self.holds(clock)
            ):
                continue
            self._put(clock, det)
            self._hold(clock)
            added += 1
        return added

    def prune_upto(self, clock: int) -> int:
        """Drop determinants with ``clock <= clock``; returns count dropped.

        Runs once per advanced creator per EL ack, so the common shapes
        are O(1): nothing held, nothing stable yet, everything stable.
        """
        if clock > self.pruned_upto:
            self.pruned_upto = clock
        maxc = self.max_clock
        if not maxc:
            return 0
        if clock >= maxc:
            dropped = self._nheld
            self._spans.clear()
            self._nheld = 0
            self.max_clock = 0
            return dropped
        spans = self._spans
        if clock < spans[0][0]:
            return 0
        dropped = 0
        while spans[0][1] <= clock:
            first, last = spans.pop(0)
            dropped += last - first + 1
        first, last = spans[0]
        if first <= clock:
            dropped += clock - first + 1
            spans[0] = (clock + 1, last)
        self._nheld -= dropped
        return dropped

    # -- checkpoint round-trip ------------------------------------------ #

    def export_state(self) -> dict[str, Any]:
        """Checkpointable state: the held determinants, materialized (a
        deep copy of an image must not copy a backing list), plus the
        prune floor.

        ``pruned_upto`` must survive the round-trip: :meth:`merge` relies on
        it to refuse resurrecting stable determinants, so a restore that
        only replays the live determinants silently re-admits duplicates of
        pruned events on the next accept.
        """
        return {"dets": list(self), "pruned_upto": self.pruned_upto}

    @classmethod
    def from_state(
        cls, creator: int, state: Any, store: Optional[DeterminantStore] = None
    ) -> "EventSequence":
        """Rebuild from :meth:`export_state` output, interning the
        determinants into ``store`` again (bare determinant lists from
        pre-``pruned_upto`` checkpoint images are accepted too)."""
        seq = cls(creator, store)
        if isinstance(state, dict):
            seq.pruned_upto = state["pruned_upto"]
            dets = state["dets"]
        else:
            dets = state
        for det in dets:
            seq.append(det)
        return seq


class GrowthLog:
    """Recency-ordered creator growth log backing the dirty-creator
    worklists (consumed by ``VProtocol._build_candidates``).

    ``order`` maps creator -> monotone tick of its last growth; growing a
    creator pops and re-appends it, so the creators grown after any saved
    cursor are exactly the suffix of entries with a larger tick.
    ``seq_order`` records sequence-creation order, the iteration order a
    full scan would use — worklists re-sort into it so reduced scans stay
    byte-identical to scan-everything builds.
    """

    __slots__ = ("order", "counter", "seq_order", "by_index")

    def __init__(self) -> None:
        self.order: dict[int, int] = {}
        self.counter = 0
        self.seq_order: dict[int, int] = {}
        #: creation index -> creator (inverse of seq_order; lets worklists
        #: sort plain ints instead of sorting creators by a key function)
        self.by_index: list[int] = []

    def register(self, creator: int) -> None:
        """Record a newly created sequence's position in the scan order."""
        self.seq_order[creator] = len(self.seq_order)
        self.by_index.append(creator)

    def mark_grown(self, creator: int) -> None:
        """Move ``creator`` to the end of the log (O(1))."""
        order = self.order
        order.pop(creator, None)
        self.counter += 1
        order[creator] = self.counter

    def repopulate(self, creators: Iterable[int]) -> None:
        """Reset and mark every creator freshly grown (checkpoint restore:
        an empty log after a restore would mark everything clean and the
        next build would ship a stale, under-full piggyback)."""
        self.order = {}
        self.counter = 0
        self.seq_order = {}
        self.by_index = []
        for creator in creators:
            self.register(creator)
            self.mark_grown(creator)
