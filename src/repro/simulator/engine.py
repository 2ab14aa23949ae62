"""Deterministic discrete-event simulation engine.

The engine executes callbacks scheduled at absolute simulated times in
``(time, seq)`` order, so two events scheduled for the same instant fire in
scheduling order.  This makes every simulation in the repository
bit-reproducible, which the test suite relies on (e.g. a fault-free run and
a faulty run with recovery must produce identical application results).

The heap of :class:`Simulator` holds **unique timestamps**; each timestamp
maps to a FIFO bucket of entries.  Because the global sequence number grows
monotonically, append order within a bucket *is* ``seq`` order, so draining
one bucket left-to-right in a single loop iteration is ``(time, seq)``
order while paying one heap push/pop per *timestamp* instead of one per
event.  The bucket of the timestamp currently being drained doubles as the
*now-queue*: ``call_soon`` / zero-delay hand-offs append to it and execute
in the same drain without ever touching the heap.  The executable
statement of the ordering contract is the one-heap-entry-per-event oracle
in ``tests/oracles.py``, which ``tests/test_engine_coalescing.py``
property-checks this engine against.

Hot-path notes
--------------

Entries are plain lists ``[time, seq, fn, args]``, so :class:`EventHandle`
cancels in place (``fn = None``).  :meth:`Simulator.post` is the
allocation-lean variant of :meth:`Simulator.at` for internal callers that
do not need a cancellation handle, and :meth:`Simulator.schedule_bulk`
amortizes many insertions into one pass.

Serial resources (a NIC's RX link, a daemon's receive pipeline, an Event
Logger's select loop) book strictly increasing completion times, so they
never need more than one live heap entry: :class:`SerialDrain` keeps their
pending work in a deque and rides the heap with a single timer re-armed at
the head entry's *pre-claimed* ``(time, seq)`` slot, which keeps
execution order bit-identical to scheduling every entry individually while
dropping heap occupancy from O(queued work) to O(resources).

Nothing in this module knows about processes, networks or MPI; those are
layered on top in :mod:`repro.simulator.process` and
:mod:`repro.simulator.network`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional


class SimulationError(RuntimeError):
    """Base class for all simulation-level failures."""


class DeadlockError(SimulationError):
    """Raised when the event heap drains while registered actors still wait.

    A discrete-event simulation "hangs" by running out of events while some
    process is still blocked on a future that nothing will ever resolve.
    The engine detects this eagerly and reports the blocked actors so that
    protocol deadlocks show up as crisp test failures instead of silently
    truncated runs.
    """

    def __init__(self, blocked: list[str]) -> None:
        self.blocked = list(blocked)
        msg = "simulation deadlock; blocked actors: " + ", ".join(blocked)
        super().__init__(msg)


# entry layout: [time, seq, fn, args]; fn is None once cancelled
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class EventHandle:
    """Cancellable handle for a scheduled callback."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_FN] is None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        entry = self._entry
        entry[_FN] = None
        entry[_ARGS] = ()


#: sentinel "no timestamp is being drained" value (compares unequal to
#: every schedulable time)
_NO_LIVE = float("-inf")


class Simulator:
    """Macro-event engine: timestamp heap + per-timestamp FIFO buckets.

    Bucket representation: ``_buckets[t]`` is either a bare entry
    (``[time, seq, fn, args]`` — the overwhelmingly common single-event
    timestamp pays no wrapper list) or a list of entries.  The two are
    distinguished by the type of element 0 (a number for a bare entry, a
    list for a bucket).  While timestamp ``t`` is being drained its bucket
    is moved out of the dict and ``_live`` collects events scheduled *at*
    ``t`` (``call_soon``, zero-delay hand-offs): the now-queue.  Now-queue
    entries carry fresh sequence numbers, which are by construction larger
    than those of every pending entry at ``t``, so draining the bucket
    then the now-queue left-to-right is exactly ``(time, seq)`` order.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, label)`` invoked for every event
        executed when tracing is enabled; useful when debugging protocol
        interleavings.
    """

    __slots__ = (
        "now",
        "_times",
        "_buckets",
        "_live",
        "_live_time",
        "_seq",
        "_trace",
        "_events_executed",
        "_extra_events",
        "_blocked_actors",
    )

    def __init__(self, trace: Optional[Callable[[float, str], None]] = None) -> None:
        self.now: float = 0.0
        #: heap of timestamps that currently own a bucket
        self._times: list[float] = []
        #: timestamp -> bare entry or FIFO list of entries
        self._buckets: dict[float, list[Any]] = {}
        #: now-queue of the timestamp being drained (reused list)
        self._live: list[list[Any]] = []
        self._live_time: float = _NO_LIVE
        self._seq = 0
        self._trace = trace
        self._events_executed = 0
        #: extra executions credited by drains that deliver more than one
        #: entry per timer fire (see SerialDrain)
        self._extra_events = 0
        # Actors register a "blocked reason" here so that deadlocks can be
        # diagnosed; see DeadlockError.
        self._blocked_actors: dict[Any, str] = {}

    # ------------------------------------------------------------------ #
    # scheduling

    def _put(self, time: float, entry: list) -> None:
        if time == self._live_time:
            self._live.append(entry)
            return
        buckets = self._buckets
        b = buckets.get(time)
        if b is None:
            buckets[time] = entry
            heappush(self._times, time)
        elif type(b[0]) is list:
            b.append(entry)
        else:
            buckets[time] = [b, entry]

    # simlint: hot
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:  # also catches NaN
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        self._seq = seq = self._seq + 1
        time = self.now + delay
        entry = [time, seq, fn, args]
        # _put(), inlined (hot path)
        if time == self._live_time:
            self._live.append(entry)
        else:
            buckets = self._buckets
            b = buckets.get(time)
            if b is None:
                buckets[time] = entry
                heappush(self._times, time)
            elif type(b[0]) is list:
                b.append(entry)
            else:
                buckets[time] = [b, entry]
        return EventHandle(entry)

    # simlint: hot
    def at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        # _put(), inlined (hot path)
        if time == self._live_time:
            self._live.append(entry)
        else:
            buckets = self._buckets
            b = buckets.get(time)
            if b is None:
                buckets[time] = entry
                heappush(self._times, time)
            elif type(b[0]) is list:
                b.append(entry)
            else:
                buckets[time] = [b, entry]
        return EventHandle(entry)

    # simlint: hot
    def post(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`at` without an :class:`EventHandle` (hot path).

        Internal callers that never cancel (network deliveries, daemon
        hand-offs) use this to skip one object allocation per event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        # _put(), inlined (hot path)
        if time == self._live_time:
            self._live.append(entry)
        else:
            buckets = self._buckets
            b = buckets.get(time)
            if b is None:
                buckets[time] = entry
                heappush(self._times, time)
            elif type(b[0]) is list:
                b.append(entry)
            else:
                buckets[time] = [b, entry]

    def call_soon(self, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn`` at the current instant (after pending same-time events).

        While the current timestamp is being drained this appends to the
        now-queue and never touches the heap.
        """
        return self.at(self.now, fn, *args)

    def schedule_bulk(
        self, items: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> None:
        """Schedule many ``(delay, fn, args)`` triples in one operation.

        Equivalent to calling :meth:`schedule` per triple (no handles are
        returned).  Entries land directly in their timestamp buckets; only
        previously unseen timestamps pay a heap push.
        """
        now = self.now
        seq = self._seq
        put = self._put
        for delay, fn, args in items:
            if not delay >= 0:
                raise SimulationError(f"negative or NaN delay: {delay!r}")
            seq += 1
            self._seq = seq
            put(now + delay, [now + delay, seq, fn, args])

    # -- order-exact deferred scheduling (SerialDrain support) ---------- #

    def post_at_seq(self, time: float, seq: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn`` at ``(time, seq)`` for a previously claimed seq.

        A :class:`SerialDrain` claims the slot when work is *enqueued* and
        redeems it here when the entry has to ride the engine on its own,
        so it fires exactly where a per-entry ``post`` at enqueue time
        would have fired.  The entry is inserted at its seq-sorted
        position inside the timestamp bucket (buckets are otherwise
        append-ordered, i.e. seq-ascending, so a short reverse scan finds
        the slot).  Serial
        resources book strictly increasing completion times, so drain
        timers never target the instant currently being drained; should
        one ever land there it is appended to the now-queue — a sorted
        insert could land behind the drain cursor and silently drop the
        event, while an append is always executed.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now={self.now}"
            )
        entry = [time, seq, fn, args]
        if time == self._live_time:
            self._live.append(entry)
            return
        buckets = self._buckets
        b = buckets.get(time)
        if b is None:
            buckets[time] = entry
            heappush(self._times, time)
            return
        if type(b[0]) is not list:
            b = buckets[time] = [b]
        bucket = b
        i = len(bucket)
        while i > 0 and bucket[i - 1][_SEQ] > seq:
            i -= 1
        bucket.insert(i, entry)

    def credit_events(self, n: int) -> None:
        """Count ``n`` extra executions performed inside one engine event
        (a drain that delivered more than its head entry)."""
        self._extra_events += n

    # ------------------------------------------------------------------ #
    # deadlock bookkeeping

    def mark_blocked(self, actor: Any, reason: str) -> None:
        """Record that ``actor`` is waiting for an external wake-up."""
        self._blocked_actors[actor] = reason

    def mark_unblocked(self, actor: Any) -> None:
        self._blocked_actors.pop(actor, None)

    @property
    def blocked_actors(self) -> dict[Any, str]:
        return dict(self._blocked_actors)

    # ------------------------------------------------------------------ #
    # execution

    @property
    def events_executed(self) -> int:
        return self._events_executed + self._extra_events

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events at exactly
            ``until`` still execute).
        max_events:
            Safety valve for runaway protocols; exactly ``max_events``
            events execute, then SimulationError is raised if more are
            pending (the excess event stays scheduled).
        check_deadlock:
            When True (default) raise :class:`DeadlockError` if the queue
            drains while actors are still marked blocked.

        Both paths drain one whole timestamp bucket per heap pop; events
        scheduled *at* the timestamp being drained join the live bucket
        and execute in the same iteration (the now-queue).
        """
        times = self._times
        buckets = self._buckets
        live = self._live
        pop = heappop
        b = None
        i = j = 0
        single_done = False
        try:
            if until is None and max_events is None and self._trace is None:
                executed = self._events_executed
                try:
                    while times:
                        t = pop(times)
                        b = buckets.pop(t)
                        i = j = 0
                        single_done = False
                        self._live_time = t
                        # the clock advances with the first *live* entry
                        # (a cancelled event never moves it)
                        if type(b[0]) is not list:
                            # bare entry: the common single-event timestamp
                            fn = b[_FN]
                            single_done = True
                            if fn is not None:
                                self.now = t
                                executed += 1
                                fn(*b[_ARGS])
                        else:
                            while i < len(b):
                                entry = b[i]
                                i += 1
                                fn = entry[_FN]
                                if fn is None:
                                    continue
                                self.now = t
                                executed += 1
                                fn(*entry[_ARGS])
                        if live:
                            # now-queue: events scheduled at t during the
                            # drain (their seqs postdate the bucket's)
                            while j < len(live):
                                entry = live[j]
                                j += 1
                                fn = entry[_FN]
                                if fn is None:
                                    continue
                                executed += 1
                                fn(*entry[_ARGS])
                            live.clear()
                        b = None
                finally:
                    self._events_executed = executed
            else:
                trace = self._trace
                executed = 0
                while times:
                    t = times[0]
                    if until is not None and t > until:
                        # only a live event beyond the deadline stops the
                        # run; cancelled-only buckets are discarded
                        head = buckets[t]
                        entries = head if type(head[0]) is list else (head,)
                        if any(e[_FN] is not None for e in entries):
                            self.now = until
                            return
                        pop(times)
                        del buckets[t]
                        continue
                    pop(times)
                    b = buckets.pop(t)
                    if type(b[0]) is not list:
                        b = [b]
                    i = j = 0
                    single_done = False
                    self._live_time = t
                    while True:
                        if i < len(b):
                            entry = b[i]
                            from_live = False
                        elif j < len(live):
                            entry = live[j]
                            from_live = True
                        else:
                            break
                        fn = entry[_FN]
                        if fn is None:
                            if from_live:
                                j += 1
                            else:
                                i += 1
                            continue
                        if max_events is not None and executed >= max_events:
                            raise SimulationError(f"exceeded max_events={max_events}")
                        if from_live:
                            j += 1
                        else:
                            i += 1
                        self.now = t
                        executed += 1
                        self._events_executed += 1
                        if trace is not None:
                            trace(t, getattr(fn, "__qualname__", repr(fn)))
                        fn(*entry[_ARGS])
                    live.clear()
                    self._live_time = _NO_LIVE
                    b = None
            if check_deadlock and self._blocked_actors:
                raise DeadlockError(
                    sorted(str(r) for r in self._blocked_actors.values())
                )
        except BaseException:
            # a callback raised (or max_events tripped) mid-drain: park the
            # unexecuted tail of the bucket + now-queue back in the dict so
            # a subsequent run() resumes exactly where this one stopped
            if b is not None or live:
                rem = [] if (b is None or single_done) else b[i:]
                rem += live[j:]
                if rem:
                    buckets[t] = rem
                    heappush(times, t)
            live.clear()
            raise
        finally:
            self._live_time = _NO_LIVE


class SerialDrain:
    """Order-exact pending queue for one serial resource.

    A serial resource (a NIC's RX link, a daemon's single-threaded receive
    pipeline, an Event Logger's select loop) books strictly increasing
    completion times, so at any instant it needs at most one live engine
    event.  Work is appended to a deque as ``(ready_time, seq, fn, args)``
    with the sequence slot *claimed at enqueue time*; a single timer rides
    the engine at the head entry's ``(ready_time, seq)``, fires, delivers
    every entry whose ready time has arrived (exactly one when completion
    times are strictly increasing), and re-arms at the new head's reserved
    slot.  Claimed slots make execution order — and therefore the whole
    simulation — bit-identical to scheduling each entry individually,
    while heap occupancy drops from O(queued work) to O(resources).  The
    precondition is load-bearing: a completion booked for ``now``, or
    equal completions enqueued with another event's seq between theirs,
    are delivered out of ``(time, seq)`` order.

    Entries delivered beyond the head in one fire are credited back to
    ``events_executed``, which therefore counts deliveries, not timer
    fires.
    """

    __slots__ = ("sim", "pending", "armed", "_entry")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: entries share the engine's [time, seq, fn, args] list layout
        self.pending: deque[list[Any]] = deque()
        self.armed = False
        # reusable timer entry: the timer is re-armed only after it fired
        # (its entry left the queue), so one list serves every arming
        self._entry = [0.0, 0, self._drain, ()]

    def _arm(self, when: float, seq: int) -> None:
        """Specialized put of the (reused) timer entry at ``(when, seq)``.

        ``when`` is strictly in the future (serial resources book
        ``now + duration`` with positive duration), so no past/now-queue
        checks are needed; the claimed seq may predate entries already in
        the bucket, hence the seq-sorted insert.
        """
        sim = self.sim
        entry = self._entry
        entry[0] = when
        entry[1] = seq
        buckets = sim._buckets
        b = buckets.get(when)
        if b is None:
            buckets[when] = entry
            heappush(sim._times, when)
        elif type(b[0]) is list:
            i = len(b)
            while i > 0 and b[i - 1][1] > seq:
                i -= 1
            b.insert(i, entry)
        else:
            buckets[when] = [entry, b] if b[1] > seq else [b, entry]

    def __len__(self) -> int:
        return len(self.pending)

    def enqueue(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Queue ``fn(*args)`` for ``when`` (serial completion order)."""
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        entry = [when, seq, fn, args]
        pending = self.pending
        if pending:
            # the timer is armed at the current head; just join the queue
            if when >= pending[-1][0]:
                pending.append(entry)
                return
            # ready time regressed (a resource reset mid-simulation, e.g.
            # a daemon restarting over a stale pipeline): schedule this
            # entry individually — order-exact either way
            sim.post_at_seq(when, seq, fn, *args)
            return
        pending.append(entry)
        if not self.armed:
            self.armed = True
            self._arm(when, seq)
        # else: an enqueue from inside the head's delivery callback (the
        # deque is momentarily empty mid-_drain); the drain tail re-arms

    def _drain(self) -> None:
        pending = self.pending
        sim = self.sim
        try:
            entry = pending.popleft()  # the timer fired at the head's slot
            entry[2](*entry[3])
            now = sim.now
            while pending and pending[0][0] <= now:
                # completion times are strictly increasing for the
                # resources drained this way, so this is defensive; extra
                # deliveries are credited so events_executed counts one
                # per delivery
                e = pending.popleft()
                e[2](*e[3])
                sim.credit_events(1)
        finally:
            # re-arm even when a delivery raised: the raising entry is
            # consumed (like any raising event) but the rest of the queue
            # must survive a resumed run()
            if pending:
                head = pending[0]
                self._arm(head[0], head[1])
            else:
                self.armed = False
