"""Collective operations built from point-to-point, MPICH-1.2.5 style.

MPICH 1.2.5 implements collectives over the channel's point-to-point
primitives; we use the classic algorithms of that era:

* ``barrier``   — dissemination (⌈log₂ p⌉ rounds, works for any p);
* ``bcast``     — binomial tree from the root;
* ``reduce``    — binomial tree to the root (mirror of bcast);
* ``allreduce`` — reduce to 0 + bcast from 0 (the MPICH-1 composition);
* ``allgather`` — ring (p−1 rounds of neighbour exchange);
* ``alltoall``  — pairwise exchange (p−1 rounds, partner = rank XOR/shift).

Every collective call consumes one tag block from
:meth:`~repro.mpi.api.MpiContext.next_collective_tag`, so overlapping
in-simulation collectives and point-to-point traffic never cross-match.
(That overlap is simulated time only: nothing here — or anywhere under
``src/repro`` — uses host threads or processes, which the
``host-thread`` simlint rule enforces.)
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.mpi.api import MpiContext


def _op_or_sum(op: Optional[Callable[[Any, Any], Any]]):
    if op is not None:
        return op

    def _sum(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    return _sum


def barrier(ctx: MpiContext):
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    if p == 1:
        return
    k = 0
    step = 1
    while step < p:
        dst = (ctx.rank + step) % p
        src = (ctx.rank - step) % p
        yield from ctx.sendrecv(dst, 4, src, tag=tag + k)
        step <<= 1
        k += 1


def bcast(ctx: MpiContext, root: int, nbytes: int, payload: Any = None):
    """Binomial-tree broadcast; returns the payload on every rank."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    if p == 1:
        return payload
    vrank = (ctx.rank - root) % p
    # receive from parent (unless root); mask ends at the low set bit of
    # vrank, or at the first power of two >= p for the root
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank - mask + root) % p
            msg = yield from ctx.recv(parent, tag)
            payload = msg.payload
            break
        mask <<= 1
    # forward to children vrank + mask/2, mask/4, ...
    mask >>= 1
    while mask > 0:
        child_v = vrank + mask
        if child_v < p:
            child = (child_v + root) % p
            yield from ctx.send(child, nbytes, tag=tag, payload=payload)
        mask >>= 1
    return payload


def reduce(ctx: MpiContext, root: int, nbytes: int, value: Any, op=None):
    """Binomial-tree reduction; the root returns the combined value."""
    tag = ctx.next_collective_tag()
    combine = _op_or_sum(op)
    p = ctx.size
    if p == 1:
        return value
    vrank = (ctx.rank - root) % p
    acc = value
    mask = 1
    while mask < p:
        if vrank & mask:
            parent = (vrank & ~mask) % p
            yield from ctx.send((parent + root) % p, nbytes, tag=tag, payload=acc)
            return None
        child_v = vrank | mask
        if child_v < p:
            msg = yield from ctx.recv((child_v + root) % p, tag)
            acc = combine(acc, msg.payload)
        mask <<= 1
    return acc


def allreduce(ctx: MpiContext, nbytes: int, value: Any, op=None):
    """MPICH-1 composition: reduce to rank 0, then broadcast."""
    acc = yield from reduce(ctx, 0, nbytes, value, op)
    result = yield from bcast(ctx, 0, nbytes, acc)
    return result


def allgather(ctx: MpiContext, nbytes: int, value: Any):
    """Ring allgather; returns the list of per-rank values."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    values: list[Any] = [None] * p
    values[ctx.rank] = value
    if p == 1:
        return values
    right = (ctx.rank + 1) % p
    left = (ctx.rank - 1) % p
    carry_rank = ctx.rank
    for step in range(p - 1):
        send_payload = (carry_rank, values[carry_rank])
        msg = yield from ctx.sendrecv(
            right, nbytes, left, tag=tag + step, payload=send_payload
        )
        got_rank, got_value = msg.payload
        values[got_rank] = got_value
        carry_rank = got_rank
    return values


def alltoall(ctx: MpiContext, nbytes_per_pair: int):
    """Pairwise-exchange alltoall (payload sizes only, no data carried)."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    if p == 1:
        return
    for step in range(1, p):
        if p & (p - 1) == 0:  # power of two: XOR pairing (perfect matching)
            dst = src = ctx.rank ^ step
        else:  # shift pattern: send right by step, receive from the left
            dst = (ctx.rank + step) % p
            src = (ctx.rank - step) % p
        yield from ctx.sendrecv(dst, nbytes_per_pair, src, tag=tag + step)


def gather(ctx: MpiContext, root: int, nbytes: int, value: Any):
    """Linear gather to the root; returns list at root, None elsewhere."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    if ctx.rank == root:
        values: list[Any] = [None] * p
        values[root] = value
        for src in range(p):
            if src == root:
                continue
            msg = yield from ctx.recv(src, tag)
            values[src] = msg.payload
        return values
    yield from ctx.send(root, nbytes, tag=tag, payload=value)
    return None


def scatter(ctx: MpiContext, root: int, nbytes: int, values: Any):
    """Linear scatter from the root; every rank returns its element."""
    tag = ctx.next_collective_tag()
    p = ctx.size
    if ctx.rank == root:
        if values is None or len(values) != p:
            raise ValueError("root must provide one value per rank")
        for dst in range(p):
            if dst == root:
                continue
            yield from ctx.send(dst, nbytes, tag=tag, payload=values[dst])
        return values[root]
    msg = yield from ctx.recv(root, tag)
    return msg.payload


def reduce_scatter(ctx: MpiContext, nbytes: int, values: list[Any], op=None):
    """Combine per-destination contributions; rank r returns the combined
    element r (MPI_Reduce_scatter_block over Python objects).

    Implemented as the MPICH-1 composition reduce-to-0 + scatter.
    """
    combine = _op_or_sum(op)
    if len(values) != ctx.size:
        raise ValueError("need one contribution per rank")

    def combine_lists(a, b):
        if a is None:
            return list(b)
        if b is None:
            return list(a)
        return [combine(x, y) for x, y in zip(a, b)]

    totals = yield from reduce(ctx, 0, nbytes * ctx.size, list(values), combine_lists)
    mine = yield from scatter(ctx, 0, nbytes, totals)
    return mine


def scan(ctx: MpiContext, nbytes: int, value: Any, op=None):
    """Inclusive prefix reduction along rank order (linear pipeline)."""
    tag = ctx.next_collective_tag()
    combine = _op_or_sum(op)
    acc = value
    if ctx.rank > 0:
        msg = yield from ctx.recv(ctx.rank - 1, tag)
        acc = combine(msg.payload, value)
    if ctx.rank < ctx.size - 1:
        yield from ctx.send(ctx.rank + 1, nbytes, tag=tag, payload=acc)
    return acc
