"""Differential tests: the shard-local materialized select.

``ClusterEngine.select`` evaluates each shard's specialized plan with
the complement-aware set kernels and concatenates the offset-translated
shard answers; ``select_iter`` streams the global plan through per-leaf
iterators.  Both must equal the brute-force oracle on every predicate
shape — ``And``/``Or``/``Not`` nesting, shards a leaf prunes, shards a
complement fully covers (``ALL`` roots), empty answers, and columns
whose shard boundaries have drifted apart — under the serial, threaded
and process executors.  On a cold cluster of static columns the
materialized select never reads more modeled bits than draining the
stream: a pruned shard is never fetched at all.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.cluster import ClusterEngine, ProcessExecutor, ThreadedExecutor
from repro.core.interface import RangeResult
from repro.obs import Tracer
from repro.query import And, In, Not, Or, Range, compile_pred, evaluate
from repro.query.planner import ALL, EMPTY

from tests.conftest import pred_oracle, random_pred

ROWS = 480
SHARDS = 6
SIGMA_A = 16
SIGMA_B = 8


def clustered_columns(seed: int) -> dict[str, list[int]]:
    """``a`` sorted-ish (each shard holds a few codes, so static shards
    prune most ``a`` leaves), ``b`` uniform."""
    rng = random.Random(seed)
    a = [
        min(SIGMA_A - 1, (i * SIGMA_A) // ROWS + rng.randrange(2))
        for i in range(ROWS)
    ]
    b = [rng.randrange(SIGMA_B) for _ in range(ROWS)]
    return {"a": a, "b": b}


SHAPES = [
    And(Range("a", 2, 9), Range("b", 1, 5)),
    Or(Range("a", 0, 1), Not(Range("b", 2, 6))),
    Not(Range("a", 4, 7)),  # ALL on every shard that prunes the leaf
    And(Range("a", 3, 5), Not(In("b", [1, 4, 6]))),
    Or(
        And(Range("a", 0, 5), Not(Range("b", 0, 3))),
        And(Not(Range("a", 0, 5)), Range("b", 0, 3)),
    ),
    And(Range("a", 0, 2), Range("a", 12, 15)),  # empty answer
    Range("a", 6, 6),  # a bare leaf
    Range("a", 0, SIGMA_A - 1),  # TRUE: ALL everywhere
    Not(Or(Range("b", 0, 2), Range("a", 9, 15))),
]


def random_shapes(seed: int, count: int) -> list:
    rng = random.Random(seed)
    values = {"a": list(range(SIGMA_A - 2)), "b": list(range(SIGMA_B - 2))}
    return [random_pred(rng, values, 3) for _ in range(count)]


@pytest.fixture(scope="module")
def process_pool():
    with ProcessExecutor(max_workers=2) as pool:
        yield pool


@pytest.fixture(params=["serial", "threaded", "process"])
def executor(request, process_pool):
    if request.param == "serial":
        yield None
    elif request.param == "threaded":
        with ThreadedExecutor(2) as pool:
            yield pool
    else:
        yield process_pool


def build(columns, executor, **kwargs) -> ClusterEngine:
    cluster = ClusterEngine(
        num_shards=SHARDS, drift_window=None, executor=executor, **kwargs
    )
    cluster.add_column("a", columns["a"], SIGMA_A)
    cluster.add_column("b", columns["b"], SIGMA_B)
    return cluster


def test_select_matches_stream_and_oracle(executor):
    columns = clustered_columns(7)
    cluster = build(columns, executor)
    try:
        for pred in SHAPES + random_shapes(11, 30):
            want = pred_oracle(pred, columns)
            assert cluster.select(pred) == want, pred
            assert list(cluster.select_iter(pred)) == want, pred
            # Repeat: every leaf now answers from the shared cache.
            assert cluster.select(pred) == want, pred
        assert cluster.gather_stats.live_rids == 0
    finally:
        cluster.close()


def test_shapes_cover_pruned_and_all_roots():
    # The fixed shapes really exercise what they claim: some shard's
    # specialized root is EMPTY (pruned) and some is ALL.
    columns = clustered_columns(7)
    cluster = build(columns, None)
    metas = {name: cluster._meta(name) for name in ("a", "b")}
    roots = set()
    for pred in SHAPES:
        plan, _ = cluster._compile_pred(pred)
        for shard_id in range(SHARDS):
            _, root = cluster._specialize_shard(plan, metas, shard_id)
            roots.add(root[0])
    assert {EMPTY, ALL} <= roots


def cold_bits(cluster: ClusterEngine, run) -> tuple[list[int], int]:
    cluster.drop_caches()
    before = cluster.scatter_io.bits_read
    got = run()
    return got, cluster.scatter_io.bits_read - before


def test_cold_select_reads_no_more_bits_than_the_stream(executor):
    # The stream is drained on the inline executor: its walk is lazy
    # and every fetch it starts is accounted.  (A prefetching stream
    # also starts fetches that an inner pipeline closes before taking
    # delivery; those read bits scatter_io never sees.)
    columns = clustered_columns(8)
    cluster = build(columns, executor)
    serial = build(columns, None)
    try:
        for pred in SHAPES + random_shapes(12, 20):
            got, select_bits = cold_bits(cluster, lambda: cluster.select(pred))
            streamed, stream_bits = cold_bits(
                serial, lambda: list(serial.select_iter(pred))
            )
            assert got == streamed, pred
            assert select_bits <= stream_bits, pred
    finally:
        cluster.close()


def test_select_bits_are_executor_independent(process_pool):
    columns = clustered_columns(9)
    serial = build(columns, None)
    proc = build(columns, process_pool)
    try:
        for pred in SHAPES:
            assert proc.select(pred) == serial.select(pred)
        assert proc.scatter_io.snapshot() == serial.scatter_io.snapshot()
    finally:
        proc.close()


def test_traced_select_is_one_trace_whose_spans_hold_every_bit(executor):
    tracer = Tracer()
    columns = clustered_columns(10)
    cluster = build(columns, executor, tracer=tracer)
    pred = And(Range("a", 2, 12), Not(In("b", [1, 4])))
    try:
        for _ in range(2):  # cold, then answered from the shared cache
            before = cluster.scatter_io.snapshot()
            assert cluster.select(pred) == pred_oracle(pred, columns)
            delta = cluster.scatter_io.snapshot() - before
            trace = tracer.last()
            assert trace.root.name == "select"
            assert trace.find("plan") and trace.find("scatter")
            spans = trace.spans()
            assert sum(s.tags.get("bits_read", 0) for s in spans) == (
                delta.bits_read
            )
        assert delta.bits_read == 0 and trace.find("cache_lookup") != []
    finally:
        cluster.close()


def test_select_buffers_one_shard_of_leaves_at_a_time():
    columns = {
        "a": [i % SIGMA_A for i in range(ROWS)],
        "b": [i % SIGMA_B for i in range(ROWS)],
    }
    cluster = build(columns, None)
    pred = And(Range("a", 0, 13), Not(Range("b", 0, 0)))
    cluster.gather_stats.reset()
    want = pred_oracle(pred, columns)
    assert cluster.select(pred) == want
    max_shard = max(cluster.shard_lengths("a"))
    peak = cluster.gather_stats.peak_rids
    assert 0 < peak <= 2 * max_shard < len(want)
    assert cluster.gather_stats.live_rids == 0


def drifted_cluster(executor):
    """Two dynamic columns whose shard boundaries have drifted apart:
    single-column appends split ``a``'s last shard on their own."""
    base_a = [0, 3, 1, 7, 2, 5, 0, 4, 6, 1, 3, 2] * 2
    base_b = [1, 1, 2, 6, 3, 0, 7, 5, 4, 2, 0, 6] * 2
    cluster = ClusterEngine(
        target_shard_rows=12, drift_window=None, executor=executor
    )
    cluster.add_column("a", base_a, 8, dynamism="fully_dynamic")
    cluster.add_column("b", base_b, 8, dynamism="fully_dynamic")
    a, b = list(base_a), list(base_b)
    for ch in (0, 1, 0, 2, 0, 3, 0, 1):
        cluster.append("a", ch)
        a.append(ch)
    for ch in (4, 0, 7, 2, 1, 3, 0, 5):
        cluster.append("b", ch)
        b.append(ch)
    assert cluster.total_rows("a") == cluster.total_rows("b")
    assert cluster.shard_lengths("a") != cluster.shard_lengths("b")
    return cluster, {"a": a, "b": b}


def test_drifted_columns_fall_back_to_global_answers(executor):
    cluster, columns = drifted_cluster(executor)
    values = {"a": list(range(7)), "b": list(range(7))}
    preds = [
        And(Range("a", 0, 1), Range("b", 0, 3)),
        Or(Range("a", 0, 0), Not(Range("b", 2, 5))),
        Not(Range("a", 1, 3)),
    ] + [random_pred(random.Random(i), values, 2) for i in range(20)]
    try:
        for pred in preds:
            want = pred_oracle(pred, columns)
            assert cluster.select(pred) == want, pred
            assert list(cluster.select_iter(pred)) == want, pred
            assert cluster.count(pred) == len(want), pred
            assert cluster.exists(pred) == bool(want), pred
            by_b: dict[int, int] = {}
            for rid in want:
                by_b[columns["b"][rid]] = by_b.get(columns["b"][rid], 0) + 1
            assert cluster.count_by("b", pred) == by_b, pred
    finally:
        cluster.close()


def test_evaluate_leaves_no_reference_cycles():
    # The fold is a module-level recursion: one evaluate call must not
    # leave garbage only the cyclic collector can reclaim (which kept
    # every leaf list alive until the next collection).
    plan = compile_pred(
        Or(And(Range("a", 0, 3), Not(Range("b", 1, 2))), Range("b", 5, 5)),
        lambda name: 8,
    )
    leaves = [RangeResult(list(range(i, 64, 3)), 64) for i in range(3)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        evaluate(plan, leaves, 64)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
