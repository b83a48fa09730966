"""Streaming combinators over sorted position iterators.

The iterator half of the plan executor: every combinator consumes
iterators of strictly increasing positions and yields a strictly
increasing stream, holding O(k) cursors — never a materialized list —
so the cluster's bounded-memory gather guarantees survive arbitrary
predicate shapes.  Abandoned pipelines propagate ``close()`` to their
producers (the prefetching gather relies on it to drain in-flight
fetches deterministically).
"""

from __future__ import annotations

import heapq


def _close_all(iters) -> None:
    for it in iters:
        close = getattr(it, "close", None)
        if close is not None:
            close()


def intersect_iters(iters: list):
    """K-way merge-intersect: positions present in *every* stream.

    The §1 conjunctive merge: one cursor per stream, laggards advance
    to the frontier, a position is emitted only when all agree.  Any
    stream running dry ends the whole intersection (the streaming form
    of the empty-dimension short-circuit).
    """
    if not iters:
        raise ValueError("intersect_iters needs at least one iterator")

    def gen():
        sentinel = object()
        try:
            heads = []
            for it in iters:
                head = next(it, sentinel)
                if head is sentinel:
                    return
                heads.append(head)
            while True:
                frontier = max(heads)
                aligned = True
                for i, it in enumerate(iters):
                    while heads[i] < frontier:
                        head = next(it, sentinel)
                        if head is sentinel:
                            return
                        heads[i] = head
                    if heads[i] > frontier:
                        aligned = False
                if not aligned:
                    continue
                yield frontier
                for i, it in enumerate(iters):
                    head = next(it, sentinel)
                    if head is sentinel:
                        return
                    heads[i] = head
        finally:
            _close_all(iters)

    return gen()


def union_iters(iters: list):
    """K-way merge-union: positions present in *any* stream, deduped.

    The disjunctive counterpart of :func:`intersect_iters` — a heap
    merge over the streams with equal positions collapsed, so an
    ``Or`` emits each matching position exactly once, in order.
    """
    if not iters:
        raise ValueError("union_iters needs at least one iterator")

    def gen():
        try:
            last = None
            for p in heapq.merge(*iters):
                if last is None or p != last:
                    yield p
                    last = p
        finally:
            _close_all(iters)

    return gen()


def difference_iter(positive, negative):
    """Positions of ``positive`` absent from ``negative`` (both sorted).

    The streaming ``A - B``: how an ``And`` subtracts its negated
    children without materializing any complement — the negative
    stream is walked in lockstep and only as far as the positive one
    reaches.
    """

    def gen():
        sentinel = object()
        try:
            bad = next(negative, sentinel)
            for p in positive:
                while bad is not sentinel and bad < p:
                    bad = next(negative, sentinel)
                if bad is sentinel or bad != p:
                    yield p
        finally:
            _close_all((positive, negative))

    return gen()


def count_iter(it) -> int:
    """Drain a position stream and return how many positions it held.

    The materialize-then-count baseline the aggregate path is measured
    against: every position still flows through the pipeline, it just
    isn't kept.
    """
    count = 0
    try:
        for _ in it:
            count += 1
    finally:
        _close_all((it,))
    return count


def first(it):
    """The first position of a stream, or ``None`` when it is empty.

    Pulls at most one element and closes the pipeline either way —
    the streaming counterpart of ``exists`` (non-``None`` means the
    predicate matches something).
    """
    sentinel = object()
    try:
        head = next(it, sentinel)
    finally:
        _close_all((it,))
    return None if head is sentinel else head


def shift(positions: list, offset: int) -> list:
    """One shard's sorted local positions as global RIDs.

    Shard ``i``'s RIDs all precede shard ``i + 1``'s, so a gather's
    k-way merge of shard answers is a concatenation of these shifted
    runs.  Materialized (the list comprehension is the fastest
    per-element translation); ``offset`` 0 returns ``positions``
    itself, which callers treat as read-only.
    """
    if not offset:
        return positions
    return [p + offset for p in positions]


def complement_iter(it, universe: int):
    """Every position of ``[0, universe)`` absent from the stream.

    O(1) extra memory, but the output is inherently O(universe - z)
    long — the executor reaches for it only when a ``Not`` has no
    positive sibling to subtract from (a top-level ``Not``'s answer
    really is almost everything).
    """

    def gen():
        sentinel = object()
        try:
            cursor = 0
            for p in it:
                while cursor < p:
                    yield cursor
                    cursor += 1
                cursor = p + 1
            while cursor < universe:
                yield cursor
                cursor += 1
        finally:
            _close_all((it,))

    return gen()
