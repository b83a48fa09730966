"""The worker-process half of :class:`~repro.cluster.executor.\
ProcessExecutor`: resident shard runtimes.

Each worker process owns a set of shard runtimes — one
:class:`~repro.engine.engine.QueryEngine` per resident shard uid —
built *once* from the picklable snapshot the coordinator ships
(``("build", uid, payload)``) and thereafter kept in sync by routed
deltas, never by re-pickling engine state:

==================  ====================================================
delta               effect on the resident engine
==================  ====================================================
``append``          ``engine.append(name, ch)`` (LRU invalidation included)
``change``          ``engine.change(name, pos, ch)``
``delete``          ``engine.delete(name, pos)`` (mirror compaction too)
``set_contract``    re-declare a column's dynamism / delete requirement
``rebuild``         swap the column onto a named backend, in place
``add_column``      build one more column into the resident engine
``drop_column``     drop a column
``set_latency``     (re)apply the disk latency model to every column
``drop_caches``     flush engine LRU + every disk's block cache
==================  ====================================================

Coalescable deltas (``append``/``change``) may arrive wholesale as one
``("delta_batch", uid, [delta, ...])`` message — the coordinator's
round-trip amortization under write-heavy load — applied strictly in
list order.

Bulk payloads ride shared memory, not the pipe.  A large build
arrives as ``("build_shm", uid, segment, cache_size, latency_s,
metas)`` — the codes of every column packed as one flat ``int64``
array in a :mod:`multiprocessing.shared_memory` segment (``None``
encoded as ``-1``), with only names and per-column counts on the
pipe; a long coalescable batch arrives as ``("delta_batch_shm", uid,
segment, count, names)`` with each delta packed as an ``int64`` quad.
The worker attaches, copies the payload out, closes its mapping, and
replies — the coordinator owns the unlink, tied to the resolution of
the request that shipped the segment, so segment lifetime is bounded
by the request round-trip.  The query side speaks four ops: ``query`` (one range),
``query_multi`` (a grouped scatter: every range the coordinator wants
from this worker's shards in one message, answered as a list of
per-request replies in order),
``leaves`` (the compiled-leaf fetch op: every interval a predicate
plan needs from one column, answered as a list of
``(positions, Snapshot)`` pairs in order — one round-trip per shard
per column however wide the IN-list), and ``fold`` (the
aggregate-pushdown op: a whole shard-local compiled plan evaluated
resident-side in cardinality space, answered as one
``(count | exists-bit | {group code: count}, Snapshot)`` — positions
never cross the pipe).

Because the coordinator applies the *same* operations to its own
replica in the same order, and every build pins the backend the
coordinator's advisor already chose, the resident engine is a
bit-identical twin: queries return identical positions and identical
I/O counter deltas, which is exactly what the conformance suite
asserts.

The wire protocol is strict request/reply in FIFO order — one
``("ok", payload)`` or ``("err", exception)`` per request — which is
what lets the parent pipeline many queries down one pipe and resolve
them with a plain deque.
"""

from __future__ import annotations

import time
from array import array
from multiprocessing import resource_tracker, shared_memory

from ..engine.engine import QueryEngine
from ..engine.registry import get_spec
from ..errors import InvalidParameterError
from ..iomodel.stats import Snapshot
from ..obs.tracer import Span
from ..query import (
    Plan,
    evaluate_count,
    evaluate_count_by,
    evaluate_exists,
    resolve_universe,
)
from .cache import shared_key

#: Fold payload: (mode, columns, leaves, root, group) — a shard-local
#: compiled plan (leaves already translated onto this shard's
#: alphabets) plus the aggregate mode to fold it in.  The reply is
#: ``(value, Snapshot)``: an int (count), bool (exists) or
#: ``{local group code: count}`` dict — never a RID list.


def evaluate_shard_fold(
    engine: QueryEngine, payload: tuple
) -> tuple["int | bool | dict[int, int]", Snapshot]:
    """Fold one shard-local plan in cardinality space, resident-side.

    Shared verbatim by the worker's ``fold`` op and the coordinator's
    serial/threaded path (:meth:`~repro.cluster.engine.ClusterEngine.\
_fold_shard_local`), so the aggregate a shard reports — value *and*
    measured I/O — is executor-independent.  Deliberately bypasses the
    shared result cache (workers do not hold it); only the engine's
    own LRU serves repeats, keeping the two paths' I/O identical.

    Fetches are memoized for the duration of the fold: a ``count_by``
    group leaf the predicate already fetched (``~In(group, S)`` reads
    each excluded code's equality leaf) is answered from the memo, not
    decoded a second time.
    """
    mode, columns, leaves, root, group = payload
    plan = Plan(
        normalized=None,
        leaves=tuple(leaves),
        root=root,
        columns=tuple(columns),
    )
    universe = resolve_universe(plan, lambda name: engine.column(name).n)
    total = Snapshot()
    memo: dict = {}

    def fetch(col: str, lo: int, hi: int, keep: bool = True):
        nonlocal total
        result = memo.get((col, lo, hi))
        if result is None:
            result, io = engine.query_measured(col, lo, hi)
            total = total + io
            if keep:
                memo[col, lo, hi] = result
        return result

    costs = engine._leaf_costs(plan)
    if mode == "count":
        value: "int | bool | dict[int, int]" = evaluate_count(
            plan, fetch, universe, costs
        )
    elif mode == "exists":
        value = evaluate_exists(plan, fetch, universe, costs)
    elif mode == "count_by":
        group_col = engine.column(group)
        group_codes = sorted(
            {c for c in group_col.codes if c is not None}
        )

        def group_fetch(code: int):
            # Group leaves are read once each: consult the memo, but
            # do not grow it with every group's answer.
            return fetch(group, code, code, keep=False)

        value = evaluate_count_by(
            plan, fetch, universe, group_codes, group_fetch, costs
        )
    else:
        raise InvalidParameterError(f"unknown fold mode {mode!r}")
    return value, total

#: Build payload: (cache_size, io_latency_s, [column payload, ...]).
#: Column payload: (name, codes, sigma, dynamism, expected_selectivity,
#: require_exact, require_delete, backend_name[, epoch]).  The optional
#: trailing epoch is the column's cluster-level incarnation stamp —
#: durable cache-store keys carry it; payloads without one (older
#: producers, tests) default to "" and simply never match a store.


def _apply_latency(engine: QueryEngine, latency_s: float) -> None:
    for column in engine.columns.values():
        column.index.disk.latency_s = latency_s


def _add_column(engine: QueryEngine, column_payload: tuple) -> str:
    """Build one payload column into ``engine``; returns its epoch."""
    (
        name,
        codes,
        sigma,
        dynamism,
        expected_selectivity,
        require_exact,
        require_delete,
        backend,
        *rest,
    ) = column_payload
    engine.add_column(
        name,
        codes,
        sigma,
        dynamism=dynamism,
        expected_selectivity=expected_selectivity,
        require_exact=require_exact,
        require_delete=require_delete,
        backend=backend,
    )
    return rest[0] if rest else ""


class ShardHost:
    """The resident runtimes of one worker process (testable in-process).

    ``clock`` times worker-side spans when a request carries a trace
    id; injectable so in-process tests get deterministic durations.
    """

    def __init__(self, clock=None, cache_store=None) -> None:
        self.engines: dict[int, QueryEngine] = {}
        self.latencies: dict[int, float] = {}
        #: Per-shard column epochs (incarnation stamps): durable
        #: cache-store keys carry them, so a re-added or re-epoched
        #: column can never read a predecessor's persisted results.
        self.epochs: dict[int, dict[str, str]] = {}
        #: Optional durable result store
        #: (:class:`repro.persist.FileCacheStore` or any
        #: :class:`~repro.cluster.cache.CacheStore`): consulted on the
        #: untraced query path *before* decoding index pages, fed on
        #: every miss.  Version-stamped keys make staleness impossible
        #: — a mutated column's old entries simply stop matching.
        self.cache_store = cache_store
        self.clock = clock if clock is not None else time.monotonic

    def _engine(self, uid: int) -> QueryEngine:
        try:
            return self.engines[uid]
        except KeyError:
            raise InvalidParameterError(
                f"shard uid {uid} is not resident in this worker"
            ) from None

    def build(self, uid: int, payload: tuple) -> None:
        cache_size, latency_s, columns = payload
        engine = QueryEngine(cache_size=cache_size)
        epochs: dict[str, str] = {}
        for column_payload in columns:
            epochs[column_payload[0]] = _add_column(engine, column_payload)
        _apply_latency(engine, latency_s)
        self.engines[uid] = engine
        self.latencies[uid] = latency_s
        self.epochs[uid] = epochs

    def retire(self, uid: int) -> None:
        self.engines.pop(uid, None)
        self.latencies.pop(uid, None)
        self.epochs.pop(uid, None)

    def snap(self, uid: int, path: str) -> int:
        """Write one resident shard's snapshot to ``path`` (checkpoint).

        The worker holds the *built* indexes (the coordinator's are
        deferred under a resident executor), so it writes the snapshot
        — over the shared filesystem — and the restore's rehydrate op
        gets real index pages to mmap rather than a rebuild.  Returns
        the column count as a cheap success token.
        """
        from ..persist.snapshot import write_shard_snapshot  # late: cycle

        engine = self._engine(uid)
        write_shard_snapshot(path, engine)
        return len(engine.columns)

    def rehydrate(
        self,
        uid: int,
        path: str,
        cache_size: int,
        latency_s: float,
        epochs: dict,
    ) -> None:
        """Adopt a shard from its snapshot file — no index rebuild.

        The mirror image of :meth:`build` for restores: the engine is
        mmap-loaded from ``path`` (index pages fault in on demand), so
        bringing a worker back costs file opens, not construction.
        ``epochs`` carries the restored columns' incarnation stamps so
        durable cache-store entries from before the restart keep
        matching.
        """
        from ..persist.snapshot import load_shard_engine  # late: cycle

        engine = load_shard_engine(path, cache_size=cache_size)
        for column in engine.columns.values():
            # Not _apply_latency: that touches column.index.disk,
            # which would force-build any deferred column; the
            # column-level setter is deferred-safe.
            column.apply_latency(latency_s)
        self.engines[uid] = engine
        self.latencies[uid] = latency_s
        self.epochs[uid] = dict(epochs)

    def delta(self, uid: int, delta: tuple) -> None:
        engine = self._engine(uid)
        op = delta[0]
        if op == "append":
            engine.append(delta[1], delta[2])
        elif op == "change":
            engine.change(delta[1], delta[2], delta[3])
        elif op == "delete":
            engine.delete(delta[1], delta[2])
        elif op == "set_contract":
            _, name, dynamism, require_delete = delta
            column = engine.column(name)
            column.stats = column.stats.with_(
                dynamism=dynamism, require_delete=require_delete
            )
        elif op == "rebuild":
            _, name, backend = delta
            engine.column(name).rebuild(get_spec(backend))
            engine.cache.invalidate(lambda key: key[0] == name)
            _apply_latency(engine, self.latencies.get(uid, 0.0))
        elif op == "add_column":
            epoch = _add_column(engine, delta[1])
            self.epochs.setdefault(uid, {})[delta[1][0]] = epoch
            _apply_latency(engine, self.latencies.get(uid, 0.0))
        elif op == "drop_column":
            engine.drop_column(delta[1])
            self.epochs.get(uid, {}).pop(delta[1], None)
        elif op == "set_latency":
            self.latencies[uid] = delta[1]
            _apply_latency(engine, delta[1])
        elif op == "drop_caches":
            engine.cache.invalidate()
            for column in engine.columns.values():
                column.index.disk.flush_cache()
        else:
            raise InvalidParameterError(f"unknown shard delta {op!r}")

    def delta_batch(self, uid: int, deltas: list[tuple]) -> None:
        """Apply one coalesced shipment of routed deltas, in order."""
        for delta in deltas:
            self.delta(uid, delta)

    def drop_caches_all(self) -> None:
        """Flush every resident engine's caches, one broadcast message.

        The per-shard ``drop_caches`` delta stays for targeted drops;
        this is the whole-worker form, so a cluster-wide cache drop
        costs one message per worker instead of one per shard.
        """
        for engine in self.engines.values():
            engine.cache.invalidate()
            for column in engine.columns.values():
                column.index.disk.flush_cache()

    def _worker_span(
        self, kind: str, trace: str, uid: int, engine: QueryEngine, fn
    ) -> tuple[object, Snapshot, dict]:
        """Run one traced shard op; returns (value, io, span dict).

        The span's ``bits_read`` tag is taken from the *same*
        :class:`Snapshot` the reply ships back — the one the
        coordinator folds into ``scatter_io`` — so summed span bits
        always equal the scatter accounting exactly.
        """
        t0 = self.clock()
        value, io = fn()
        span = Span(kind, t0=t0, t1=self.clock())
        span.tags.update(
            trace_id=trace,
            shard_uid=uid,
            bits_read=io.bits_read,
            reads=io.reads,
        )
        return value, io, span.to_dict()

    def _store_key(self, uid: int, engine: QueryEngine, name, lo, hi):
        epoch = self.epochs.get(uid, {}).get(name)
        if not epoch:
            # No incarnation stamp means no safe durable key: the
            # payload predates epochs, or the column is local-only.
            return None
        return shared_key(name, epoch, uid, engine.column(name).version, lo, hi)

    def _store_get(self, uid, engine, name, lo, hi):
        if self.cache_store is None:
            return None
        key = self._store_key(uid, engine, name, lo, hi)
        if key is None:
            return None
        cached = self.cache_store.get(key)
        return list(cached) if cached is not None else None

    def _store_put(self, uid, engine, name, lo, hi, positions) -> None:
        if self.cache_store is None:
            return
        key = self._store_key(uid, engine, name, lo, hi)
        if key is not None:
            self.cache_store.put(key, positions)

    def query(
        self,
        uid: int,
        name: str,
        char_lo: int,
        char_hi: int,
        trace: str | None = None,
    ) -> tuple:
        """One measured range query; traced replies carry a span dict.

        The untraced reply shape ``(positions, Snapshot)`` is
        unchanged; a request carrying a trace id (the optional sixth
        message element) widens it to
        ``(positions, Snapshot, span dict)``.
        """
        engine = self._engine(uid)
        if trace is None:
            cached = self._store_get(uid, engine, name, char_lo, char_hi)
            if cached is not None:
                return cached, Snapshot()
            result, io = engine.query_measured(name, char_lo, char_hi)
            positions = result.positions()
            self._store_put(uid, engine, name, char_lo, char_hi, positions)
            return positions, io
        col = engine.column(name)
        # Peek before the query: __contains__ skips the LRU counters,
        # so tagging the verdict never perturbs the stats the real
        # lookup records.
        hit = (name, col.version, char_lo, char_hi) in engine.cache
        positions, io, span = self._worker_span(
            "worker_query",
            trace,
            uid,
            engine,
            lambda: (
                lambda r, s: (r.positions(), s)
            )(*engine.query_measured(name, char_lo, char_hi)),
        )
        span["tags"].update(
            column=name,
            char_lo=char_lo,
            char_hi=char_hi,
            backend=col.spec.name,
            cache="hit" if hit else "miss",
            rids=len(positions),
        )
        return positions, io, span

    def leaves(
        self,
        uid: int,
        name: str,
        intervals: list[tuple[int, int]],
        trace: str | None = None,
    ) -> "list | tuple":
        """The compiled-leaf fetch op: many measured queries, one reply.

        Untraced: a list of ``(positions, Snapshot)`` pairs, one per
        interval in order.  Traced: ``(pairs, [span dicts])`` with one
        ``worker_query`` span per interval.
        """
        engine = self._engine(uid)
        if trace is None:
            out = []
            for char_lo, char_hi in intervals:
                cached = self._store_get(
                    uid, engine, name, char_lo, char_hi
                )
                if cached is not None:
                    out.append((cached, Snapshot()))
                    continue
                result, io = engine.query_measured(name, char_lo, char_hi)
                positions = result.positions()
                self._store_put(
                    uid, engine, name, char_lo, char_hi, positions
                )
                out.append((positions, io))
            return out
        col = engine.column(name)
        pairs = []
        spans = []
        for char_lo, char_hi in intervals:
            hit = (name, col.version, char_lo, char_hi) in engine.cache
            positions, io, span = self._worker_span(
                "worker_query",
                trace,
                uid,
                engine,
                lambda lo=char_lo, hi=char_hi: (
                    lambda r, s: (r.positions(), s)
                )(*engine.query_measured(name, lo, hi)),
            )
            span["tags"].update(
                column=name,
                char_lo=char_lo,
                char_hi=char_hi,
                backend=col.spec.name,
                cache="hit" if hit else "miss",
                rids=len(positions),
            )
            pairs.append((positions, io))
            spans.append(span)
        return pairs, spans

    def fold(
        self, uid: int, payload: tuple, trace: str | None = None
    ) -> tuple:
        """The aggregate-pushdown op: evaluate a plan, ship a number.

        The whole shard-local plan executes against the resident
        engine and only the fold — count, existence bit, or per-group
        counts — crosses the pipe with its I/O snapshot; positions
        never do.  Traced replies widen to
        ``(value, Snapshot, span dict)``.
        """
        engine = self._engine(uid)
        if trace is None:
            return evaluate_shard_fold(engine, payload)
        value, io, span = self._worker_span(
            "worker_fold",
            trace,
            uid,
            engine,
            lambda: evaluate_shard_fold(engine, payload),
        )
        span["tags"]["mode"] = payload[0]
        return value, io, span

    def io_totals(self) -> Snapshot:
        total = Snapshot()
        for engine in self.engines.values():
            for column in engine.columns.values():
                total = total + column.index.stats.snapshot()
        return total


# ----------------------------------------------------------------------
# Shared-memory transport (the worker half)
# ----------------------------------------------------------------------
#
# Large build snapshots and long delta batches arrive as flat
# ``array('q')`` payloads in a coordinator-created shared-memory
# segment; the pipe message carries only the segment name plus
# metadata.  The worker attaches read-only, copies what it needs, and
# closes immediately — the *coordinator* owns the unlink, tied to the
# resolution of the request that shipped the segment.


def _tracker_is_inherited() -> bool:
    # Forked workers inherit the coordinator's resource-tracker fd
    # (the executor starts the tracker before forking); spawned
    # workers import fresh and lazily start a tracker of their own.
    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None


#: Fixed at worker startup, before any segment is attached.
_SHARED_TRACKER = True


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # Attaching registers the segment with the resource tracker
    # (CPython <= 3.12 behavior).  With the coordinator's inherited
    # tracker that register is an idempotent set-add balanced by the
    # coordinator's unlink, and unregistering here would strip the
    # parent's own registration.  A spawn-mode worker runs its own
    # tracker, which never sees the unlink — balance the attach
    # registration locally or the worker warns about (and
    # double-unlinks) segments it never owned.
    shm = shared_memory.SharedMemory(name=name)
    if not _SHARED_TRACKER:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def _unpack_build_shm(
    name: str, cache_size: int, latency_s: float, metas: list
) -> tuple:
    """Rebuild a ``build`` payload from its flat-codes segment."""
    shm = _attach_segment(name)
    try:
        codes = array("q")
        total = sum(meta[1] for meta in metas)
        codes.frombytes(bytes(shm.buf[: total * codes.itemsize]))
    finally:
        shm.close()
    columns = []
    offset = 0
    for (col_name, count, sigma, dyn, sel, exact, delete, backend,
         *rest) in metas:
        col_codes = [
            None if c < 0 else c for c in codes[offset : offset + count]
        ]
        offset += count
        columns.append(
            (col_name, col_codes, sigma, dyn, sel, exact, delete, backend,
             *rest)
        )
    return (cache_size, latency_s, columns)


def _unpack_delta_batch_shm(
    name: str, count: int, names: tuple
) -> list[tuple]:
    """Rebuild a delta batch from its int64-quad segment."""
    shm = _attach_segment(name)
    try:
        packed = array("q")
        packed.frombytes(bytes(shm.buf[: count * 4 * packed.itemsize]))
    finally:
        shm.close()
    deltas: list[tuple] = []
    for i in range(0, 4 * count, 4):
        op, idx, a, b = packed[i : i + 4]
        if op == 0:
            deltas.append(("append", names[idx], a))
        else:
            deltas.append(("change", names[idx], a, b))
    return deltas


def shard_worker_main(conn) -> None:
    """The worker loop: one reply per request, FIFO, until ``close``."""
    from .executor import ship_exception  # late: avoid an import cycle

    global _SHARED_TRACKER
    _SHARED_TRACKER = _tracker_is_inherited()
    host = ShardHost()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died; nothing left to serve
            return
        op = message[0]
        if op == "drop_caches_all":
            # The one *silent* op: shipped fire-and-forget, so no
            # reply may be sent — not even an error — or the FIFO
            # reply pipe desynchronizes.  Cache drops cannot fail in
            # a way the coordinator could act on.
            try:
                host.drop_caches_all()
            except Exception:
                pass
            continue
        try:
            if op == "close":
                conn.send(("ok", None))
                return
            if op == "build":
                host.build(message[1], message[2])
                reply = None
            elif op == "build_shm":
                host.build(message[1], _unpack_build_shm(*message[2:]))
                reply = None
            elif op == "retire":
                host.retire(message[1])
                reply = None
            elif op == "delta":
                host.delta(message[1], message[2])
                reply = None
            elif op == "delta_batch":
                host.delta_batch(message[1], message[2])
                reply = None
            elif op == "delta_batch_shm":
                host.delta_batch(
                    message[1], _unpack_delta_batch_shm(*message[2:])
                )
                reply = None
            elif op == "query":
                reply = host.query(*message[1:])
            elif op == "query_multi":
                # message: (op, first_uid, [(uid, name, lo, hi), ...])
                # with an optional trailing trace id; one reply per
                # request, in order.
                trace = message[3:4]
                reply = [
                    host.query(*request, *trace) for request in message[2]
                ]
            elif op == "leaves":
                reply = host.leaves(*message[1:])
            elif op == "fold":
                reply = host.fold(*message[1:])
            elif op == "stats":
                reply = host.io_totals()
            elif op == "snap":
                reply = host.snap(message[1], message[2])
            elif op == "rehydrate":
                host.rehydrate(*message[1:])
                reply = None
            elif op == "cache_store":
                host.cache_store = message[1]
                reply = None
            else:
                raise InvalidParameterError(f"unknown worker op {op!r}")
            conn.send(("ok", reply))
        except BaseException as exc:  # ship it back; the loop survives
            conn.send(("err", ship_exception(exc)))
