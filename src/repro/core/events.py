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
clock), every holder keeps one :class:`WindowTable` — per creator a
window of held clock spans over a backing list, stored as int columns
keyed by creator rather than as one object per window — and piggybacks
ship ``(creator, first, last)`` clock ranges over backing lists
(:mod:`repro.core.piggyback`) instead of copied determinants.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Optional, Sequence


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

    __slots__ = ("_lists", "_origin", "_forked", "recreated_equal", "recreated_forked")

    def __init__(self) -> None:
        self._lists: dict[int, list[Optional[Determinant]]] = {}
        #: creator -> its first backing list, which a fork never replaces
        #: (the list a window reads unless it holds a private one)
        self._origin: dict[int, list[Optional[Determinant]]] = {}
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
            b = self._lists[creator] = self._origin[creator] = []
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


class WindowTable:
    """One holder's windows over a :class:`DeterminantStore`, one window
    per creator, kept as int columns keyed by creator — no Python object
    per window.

    A window is a prune floor plus the held clocks: sorted, disjoint,
    non-adjacent ``(first, last)`` spans over one backing list (index
    ``k - 1`` holds clock ``k``).  Usually there is one span; holes are
    further spans.  The columns:

    * :attr:`floor` — every window's prune floor: clocks at or below it
      were pruned (stable) and are never re-admitted.  Insertion order is
      window creation order and ``len(floor)`` is the window count; a
      prune never deletes a window.
    * :attr:`min_clock` / :attr:`max_clock` — the lowest and highest held
      clock, for non-empty windows only.
    * ``_holes`` — the exact span tuple of a window with more than one
      span (rare; created on first use).
    * ``_private`` — the backing list of a window that is not on the
      store's *original* list for its creator (rare; created on first
      use).  Every other window reads that original list, so a fork in
      :meth:`DeterminantStore.record` leaves every reader where it was.

    The three public columns hold only ints, so CPython's GC never
    tracks them, and span tuples of ints leave it at their first
    collection: a table costs a handful of tracked objects whatever its
    window count.  :attr:`held` counts the
    determinants held over all windows, and :attr:`growth` logs which
    windows grew (the protocols' dirty-creator worklists).

    Writes to a backing list only fill free slots; a determinant that
    conflicts with a set slot moves its window to a list that agrees with
    everything it holds (the store's current list when it does, else a
    private copy).  A mutator opens the window it names when needed.
    """

    __slots__ = (
        "floor", "min_clock", "max_clock", "held", "growth", "run_merges",
        "det_merges", "_holes", "_private", "_detstore", "_origin",
    )

    def __init__(self, store: Optional[DeterminantStore] = None) -> None:
        self._detstore = store = store if store is not None else DeterminantStore()
        self._origin = store._origin
        self.floor: dict[int, int] = {}
        self.min_clock: dict[int, int] = {}
        self.max_clock: dict[int, int] = {}
        self._holes: Optional[dict[int, tuple[tuple[int, int], ...]]] = None
        self._private: Optional[dict[int, list]] = None
        self.held = 0
        self.growth = GrowthLog()
        #: accept counters, mirrored into probes by the protocols: runs
        #: accepted by span arithmetic vs determinants of runs over a
        #: foreign backing list copied in clock by clock
        self.run_merges = 0
        self.det_merges = 0

    # -- inspection ----------------------------------------------------- #

    def _spans(self, c: int) -> tuple[tuple[int, int], ...]:
        holes = self._holes
        if holes and c in holes:
            return holes[c]
        hi = self.max_clock.get(c)
        return ((self.min_clock[c], hi),) if hi is not None else ()

    def _backing(self, c: int) -> list:
        priv = self._private
        if priv and c in priv:
            return priv[c]
        return self._origin[c]

    def count(self, c: int) -> int:
        """Determinants held in ``c``'s window."""
        return sum(last - first + 1 for first, last in self._spans(c))

    def scan_held(self) -> int:
        """O(#windows) recount of :attr:`held` (tests verify equality)."""
        return sum(self.count(c) for c in self.max_clock)

    def dets(self, c: int) -> list[Determinant]:
        """The determinants held in ``c``'s window, clock-ordered."""
        spans = self._spans(c)
        if not spans:
            return []
        b = self._backing(c)
        return [d for first, last in spans for d in b[first - 1 : last]]

    def holds(self, c: int, clock: int) -> bool:
        hi = self.max_clock.get(c)
        if hi is None or clock > hi:
            return False
        holes = self._holes
        if holes and c in holes:
            spans = holes[c]
            i = bisect_right(spans, clock, key=_first_clock)
            return i > 0 and clock <= spans[i - 1][1]
        return self.min_clock[c] <= clock

    def get(self, c: int, clock: int) -> Optional[Determinant]:
        return self._backing(c)[clock - 1] if self.holds(c, clock) else None

    def index_window(self, c: int, bound: int, upto: int) -> tuple[Sequence, int, int]:
        """``(dets, lo, hi)`` such that ``dets[lo:hi]`` are exactly the
        determinants held for ``c`` with ``bound < clock <= upto``,
        clock-ordered.

        When those clocks are one span this is clock arithmetic over the
        backing list — no copy, so the antecedence graph walks chain
        segments (in either direction) allocation-free.  Across holes the
        held determinants are gathered into a new list.  The sequence is
        **read-only by contract**.
        """
        holes = self._holes
        if not (holes and c in holes):
            last = self.max_clock.get(c)
            if last is None:
                return (), 0, 0
            first = self.min_clock[c]
            lo = first - 1 if first > bound + 1 else bound
            hi = last if last < upto else upto
            return (self._backing(c), lo, hi) if hi > lo else ((), 0, 0)
        b = self._backing(c)
        dets = [
            d
            for first, last in holes[c]
            if last > bound and first <= upto
            for d in b[max(first, bound + 1) - 1 : min(last, upto)]
        ]
        return dets, 0, len(dets)

    def select_tails(
        self,
        candidates: Optional[Iterable[int]],
        bound: dict[int, int],
        stable: dict[int, int],
        runs: list,
        backings: list,
    ) -> tuple[int, int]:
        """Append every candidate window's held clocks above
        ``max(bound[c], stable[c])`` as ``(creator, first, last)`` runs —
        one per span — to ``runs`` and their backing lists to
        ``backings``, and raise ``bound[c]`` to the window's
        :attr:`max_clock`.  Returns (events, creator groups) selected.

        ``candidates`` lists creators in the order to scan (a
        dirty-creator worklist); ``None`` scans every window in creation
        order.
        """
        hget = self.max_clock.get
        bget = bound.get
        sget = stable.get
        lows = self.min_clock
        holes = self._holes
        priv = self._private
        origin = self._origin
        n = groups = 0
        for c in self.floor if candidates is None else candidates:
            mc = hget(c)
            if mc is None:
                continue
            lo = bget(c, 0)
            s = sget(c, 0)
            if s > lo:
                lo = s
            if mc <= lo:
                continue  # nothing above the bound for this creator
            b = priv[c] if priv and c in priv else origin[c]
            if holes and c in holes:
                for first, last in holes[c]:
                    if last > lo:
                        if first <= lo:
                            first = lo + 1
                        runs.append((c, first, last))
                        backings.append(b)
                        n += last - first + 1
            else:
                first = lows[c]
                if first <= lo:
                    first = lo + 1
                runs.append((c, first, mc))
                backings.append(b)
                n += mc - first + 1
            groups += 1
            bound[c] = mc
        return n, groups

    # -- mutation ------------------------------------------------------- #

    def open(self, c: int) -> None:
        """Create ``c``'s window (empty, floor 0) unless it exists."""
        floor = self.floor
        if c in floor:
            return
        floor[c] = 0
        cur = self._detstore.backing(c)
        if cur is not self._origin[c]:
            self._set_backing(c, cur)
        self.growth.register(c)

    def _set_backing(self, c: int, b: list) -> None:
        priv = self._private
        if b is self._origin[c]:
            if priv:
                priv.pop(c, None)
        else:
            if priv is None:
                priv = self._private = {}
            priv[c] = b

    def _set_spans(self, c: int, spans: Sequence[tuple[int, int]]) -> None:
        holes = self._holes
        if not spans:
            self.min_clock.pop(c, None)
            self.max_clock.pop(c, None)
        else:
            self.min_clock[c] = spans[0][0]
            self.max_clock[c] = spans[-1][1]
            if len(spans) > 1:
                if holes is None:
                    holes = self._holes = {}
                holes[c] = tuple(spans)
                return
        if holes:
            holes.pop(c, None)

    def _put(self, c: int, clock: int, det: Determinant) -> None:
        """Make ``c``'s backing list hold ``det`` at ``clock`` (not yet
        held)."""
        b = self._backing(c)
        if clock > len(b) or b[clock - 1] is None:
            _place(b, clock, det)
            return
        held = b[clock - 1]
        if held is det or held == det:
            return
        # a set slot conflicts: move to the store's current list if it
        # agrees with everything held plus det, else to a private copy
        cur = self._detstore.backing(c)
        if (
            cur is not b
            and clock <= len(cur)
            and cur[clock - 1] == det
            and all(
                last <= len(cur) and cur[first - 1 : last] == b[first - 1 : last]
                for first, last in self._spans(c)
            )
        ):
            self._set_backing(c, cur)
        else:
            b = list(b)
            b[clock - 1] = det
            self._set_backing(c, b)

    def _hold_top(self, c: int, first: int, last: int, hi: int) -> None:
        """Hold ``[first, last]``, above every held clock (``hi`` is the
        highest, 0 for an empty window)."""
        if not hi:
            self.min_clock[c] = first
        elif first > hi + 1:
            self._set_spans(c, self._spans(c) + ((first, last),))
        else:
            holes = self._holes
            if holes and c in holes:
                spans = holes[c]
                holes[c] = spans[:-1] + ((spans[-1][0], last),)
        self.max_clock[c] = last
        self.held += last - first + 1

    def _hold_range(self, c: int, a: int, last: int) -> int:
        """Hold every clock of ``[a, last]`` not held yet; returns how
        many."""
        added = last - a + 1
        lo, hi = a, last
        spans = []
        for first, end in self._spans(c):
            if end < a - 1 or first > last + 1:
                spans.append((first, end))
                continue
            overlap = min(end, last) - max(first, a) + 1
            if overlap > 0:
                added -= overlap
            if first < lo:
                lo = first
            if end > hi:
                hi = end
        spans.append((lo, hi))
        spans.sort()
        self._set_spans(c, spans)
        self.held += added
        return added

    def append(self, c: int, det: Determinant) -> None:
        """Hold a determinant of ``c`` with a clock above any held."""
        if det.creator != c:
            raise ValueError(f"creator mismatch: {det.creator} != {c}")
        if c not in self.floor:
            self.open(c)
        clock = det.clock
        hi = self.max_clock.get(c, 0)
        if clock <= hi:
            raise ValueError(f"non-monotonic append: clock {clock} <= {hi}")
        b = self._backing(c)
        if clock > len(b) or b[clock - 1] is not det:
            self._put(c, clock, det)  # not already there (a creator's own is)
        self._hold_top(c, clock, clock, hi)
        self.growth.mark_grown(c)

    def merge(self, c: int, dets: Iterable[Determinant]) -> int:
        """Hold determinants of ``c`` given in any order; returns how many
        were new.

        Clocks at or below the floor are stable and stay gone — a late
        duplicate from an unacknowledged peer must not resurrect them.  A
        clock already held keeps its determinant.
        """
        if c not in self.floor:
            self.open(c)
        floor = self.floor
        added = 0
        for det in dets:
            if det.creator != c:
                raise ValueError("creator mismatch in merge")
            clock = det.clock
            if clock <= floor[c] or self.holds(c, clock):
                continue
            self._put(c, clock, det)
            self._hold_range(c, clock, clock)
            added += 1
        if added:
            self.growth.mark_grown(c)
        return added

    # simlint: hot
    def accept_run(
        self, c: int, first: int, last: int, backing: list, stable: int = 0,
        floor: int = 0,
    ) -> int:
        """Accept one piggyback run — clocks ``first..last`` of ``c`` read
        from ``backing`` — after raising the window's floor to ``floor``;
        returns how many clocks were new.

        A clock is admitted when it is not held, above the floor, and
        above :attr:`max_clock` or above ``stable`` (a hole below the
        highest held clock is refilled only while it is unstable).  Those
        clocks are ``[a, last]`` minus the held spans for one threshold
        ``a``, so the accept is interval arithmetic; only a run over
        another backing list than the window's is copied clock by clock.
        """
        fl = self.floor
        f = fl.get(c)
        if f is None:
            self.open(c)
            f = 0
        if floor > f:
            fl[c] = f = floor
        hi = self.max_clock
        maxc = hi.get(c, 0)
        t = stable if stable < maxc else maxc
        if f > t:
            t = f
        a = first if first > t else t + 1
        if a > last:
            self.run_merges += 1
            return 0
        priv = self._private
        if not maxc:  # empty window: adopt the run's list
            if backing is not self._origin[c] or (priv and c in priv):
                self._set_backing(c, backing)
        elif backing is not (priv[c] if priv and c in priv else self._origin[c]):
            self.det_merges += last - first + 1
            return self.merge(c, backing[a - 1 : last])
        self.run_merges += 1
        holes = self._holes
        if a > maxc:
            n = last - a + 1
            self._hold_top(c, a, last, maxc)
        elif holes and c in holes or self.min_clock[c] > a:
            n = self._hold_range(c, a, last)
        elif last > maxc:  # one span already covering [a, maxc]
            n = last - maxc
            hi[c] = last
            self.held += n
        else:
            return 0
        if n:
            self.growth.mark_grown(c)
        return n

    def prune_upto(self, c: int, clock: int) -> int:
        """Raise ``c``'s floor to ``clock`` and drop the held clocks at or
        below it; returns how many were dropped."""
        fl = self.floor
        if clock > fl[c]:
            fl[c] = clock
        hi = self.max_clock.get(c)
        if hi is None:
            return 0
        lo = self.min_clock[c]
        if clock < lo:
            return 0
        holes = self._holes
        if holes and c in holes:
            spans = []
            dropped = 0
            for first, last in holes[c]:
                if last <= clock:
                    dropped += last - first + 1
                elif first <= clock:
                    dropped += clock - first + 1
                    spans.append((clock + 1, last))
                else:
                    spans.append((first, last))
            self._set_spans(c, spans)
        elif clock >= hi:
            del self.min_clock[c], self.max_clock[c]
            dropped = hi - lo + 1
        else:
            self.min_clock[c] = clock + 1
            dropped = clock - lo + 1
        self.held -= dropped
        return dropped

    def prune(self, stable: dict[int, int]) -> int:
        """Prune every non-empty window to its ``stable`` clock where that
        reaches a held clock; returns how many were dropped.  Walks the
        smaller side of the (stable ∩ non-empty) join."""
        lows = self.min_clock
        if len(lows) <= len(stable):
            sget = stable.get
            hits = [(c, k) for c, m in lows.items() if (k := sget(c, 0)) >= m]
        else:
            lget = lows.get
            hits = [
                (c, k) for c, k in stable.items()
                if (m := lget(c)) is not None and k >= m
            ]
        prune_upto = self.prune_upto
        return sum(prune_upto(c, k) for c, k in hits)

    def raise_floors(self, stable: dict[int, int], keep: Iterable[int] = ()) -> None:
        """Raise every floor to its ``stable`` clock, except the windows in
        ``keep``."""
        floor = self.floor
        get = stable.get
        for c, f in floor.items():
            if c not in keep and (s := get(c, 0)) > f:
                floor[c] = s

    # -- checkpoint round-trip ------------------------------------------ #

    def export_state(self) -> dict[int, dict[str, Any]]:
        """Checkpointable state, per window in creation order: the held
        determinants, materialized (a deep copy of an image must not copy
        a backing list), plus the floor.

        The floor must survive the round-trip: it is what refuses
        resurrecting stable determinants, so a restore that only replays
        the held determinants silently re-admits duplicates of pruned
        events on the next accept.
        """
        return {
            c: {"dets": self.dets(c), "pruned_upto": f}
            for c, f in self.floor.items()
        }

    def load(self, state: dict[int, Any]) -> None:
        """Fill this empty table from :meth:`export_state` output,
        interning the determinants into the store again (a bare
        determinant list stands for a window with floor 0).  Every window
        counts as freshly grown, in image order."""
        for c, window in state.items():
            self.open(c)
            if isinstance(window, dict):
                self.floor[c] = window["pruned_upto"]
                window = window["dets"]
            for det in window:
                self.append(c, det)
        self.growth.repopulate(self.floor)


class GrowthLog:
    """Recency-ordered creator growth log of a :class:`WindowTable`,
    backing the dirty-creator worklists (consumed by
    ``VProtocol._build_candidates``).

    ``order`` maps creator -> monotone tick of its last growth; growing a
    creator pops and re-appends it, so the creators grown after any saved
    cursor are exactly the suffix of entries with a larger tick.
    ``seq_order`` records window-creation order, the iteration order a
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
        """Record a newly created window's position in the scan order."""
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
