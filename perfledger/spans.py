"""Span tracing applied from outside the program, for the traced run.

:func:`install` wraps the public entry points of each ``repro`` layer
at run time (no source edits; ``repro.obs`` stays off) and the returned
:class:`Installation` puts the originals back.  Every wrapped call records a
:class:`Span` — name, layer, start, end, parent, trace id — kept in
memory in :class:`Recorder`.  The current span travels in a context
variable, so nesting is exact per thread and per asyncio task; the
benchmark copies the context into the front end's bridge threads so a
cluster call nests under the request that caused it.

A generator's span covers only the time spent inside its resumptions,
so the per-element stream merges are charged where they run, not
where they were created.  Self time is a span's duration minus the
time its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import os
import sys
import time
import types
from collections import defaultdict

_clock = time.perf_counter
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfledger_span", default=None
)


class Span:
    __slots__ = (
        "name", "layer", "start", "end", "duration", "child", "parent",
        "trace_id",
    )

    def __init__(self, name, layer, parent, trace_id) -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.trace_id = trace_id
        self.start = _clock()
        self.end = self.start
        self.duration = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return max(0.0, self.duration - self.child)

    @property
    def outermost(self) -> bool:
        """True unless a span of the same layer encloses this one."""
        return self.parent is None or self.parent.layer != self.layer

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "self": self.self_time,
            "parent": id(self.parent) if self.parent is not None else None,
            "id": id(self),
            "trace_id": self.trace_id,
        }


class Recorder:
    """Holds every finished span and a few event counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._trace_ids = itertools.count(1)

    def open(self, name: str, layer: str) -> Span:
        parent = _current.get()
        trace_id = (
            parent.trace_id if parent is not None else next(self._trace_ids)
        )
        return Span(name, layer, parent, trace_id)

    def close(self, span: Span, duration: float) -> None:
        span.end = _clock()
        span.duration = duration
        if span.parent is not None:
            span.parent.child += duration
        self.spans.append(span)

    # -- aggregation ----------------------------------------------------

    def self_time(self, layer: str) -> float:
        return sum(s.self_time for s in self.spans if s.layer == layer)

    def inclusive(self, layer: str) -> float:
        """Summed duration of the layer's outermost spans."""
        return sum(
            s.duration for s in self.spans if s.layer == layer and s.outermost
        )

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.layer == layer and s.outermost)

    def dump(self, path: str) -> None:
        import json

        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")


def _wrap_sync(recorder: Recorder, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, layer)
        token = _current.set(span)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            _current.reset(token)
            recorder.close(span, _clock() - t0)
        if isinstance(result, types.GeneratorType):
            return _timed_generator(recorder, result, name, layer)
        return result

    return wrapper


def _wrap_async(recorder: Recorder, fn, name: str, layer: str):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = recorder.open(name, layer)
        token = _current.set(span)
        t0 = _clock()
        try:
            return await fn(*args, **kwargs)
        finally:
            _current.reset(token)
            recorder.close(span, _clock() - t0)

    return wrapper


def _timed_generator(recorder: Recorder, gen, name: str, layer: str):
    """Re-yield ``gen``, charging each resumption to one span.

    The span's children are whatever runs inside those resumptions;
    the consumer that resumed it is charged the resumption as child
    time, wherever the generator was created.
    """
    span = recorder.open(name, layer)
    try:
        while True:
            resumer = _current.get()
            token = _current.set(span)
            t0 = _clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                dt = _clock() - t0
                _current.reset(token)
                span.duration += dt
                if resumer is not None:
                    resumer.child += dt
            yield item
    finally:
        gen.close()
        # Resumptions were already charged to their resumers.
        span.end = _clock()
        recorder.spans.append(span)


class Installation:
    """The set of patches one :func:`install` applied."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module
    ]


def _patch_function(inst, recorder, fn, name, layer) -> None:
    """Wrap a module function everywhere it is bound, ``from``-imports too."""
    wrapped = _wrap_sync(recorder, fn, name, layer)
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                inst.patch(module, attr, wrapped)


def _patch_method(inst, recorder, cls, attr, layer, name=None) -> None:
    fn = cls.__dict__[attr]
    label = name or f"{cls.__name__}.{attr}"
    if inspect.iscoroutinefunction(fn):
        inst.patch(cls, attr, _wrap_async(recorder, fn, label, layer))
    else:
        inst.patch(cls, attr, _wrap_sync(recorder, fn, label, layer))


#: Public read entry points of the engine-like layers.
_READ_OPS = ("query", "select", "count", "exists", "count_by", "topk")


def install(recorder: Recorder) -> Installation:
    """Wrap every layer's entry points; returns the undo handle."""
    import repro.baselines  # noqa: F401  (load every backend class)
    import repro.core  # noqa: F401
    from repro.bits import kernels, ops
    from repro.cluster import engine as cluster_engine
    from repro.cluster import executor as cluster_executor
    from repro.engine import engine as query_engine
    from repro.persist import checkpoint, snapshot, wal
    from repro.query import planner, stream
    from repro.serve import frontend

    inst = Installation()
    for attr in _READ_OPS:
        _patch_method(inst, recorder, frontend.FrontEnd, attr, "serve")
    cluster = cluster_engine.ClusterEngine
    for attr in _READ_OPS + ("query_iter", "select_iter"):
        _patch_method(inst, recorder, cluster, attr, "cluster")
    for attr in ("append", "change", "delete"):
        _patch_method(inst, recorder, cluster, attr, "cluster.write")
    _patch_method(
        inst, recorder, query_engine.EngineColumn, "restat", "cluster.restat"
    )
    local_executors = (
        cluster_executor.SerialExecutor, cluster_executor.ThreadedExecutor
    )
    for cls in local_executors:
        for attr in ("map", "submit"):
            _patch_method(inst, recorder, cls, attr, "executor")
    process = cluster_executor.ProcessExecutor
    for attr, value in list(vars(process).items()):
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and attr not in ("close", "pending_delta_count", "segment_count")
        ):
            _patch_method(inst, recorder, process, attr, "executor")
    for cls in vars(cluster_executor).values():
        if isinstance(cls, type) and "result" in cls.__dict__:
            _patch_method(inst, recorder, cls, "result", "executor.wait")
    for fn in (planner.compile_pred, planner.specialize):
        _patch_function(inst, recorder, fn, fn.__name__, "query.plan")
    for fn_name in (
        "evaluate", "evaluate_fetch", "evaluate_count", "evaluate_exists",
        "evaluate_count_by",
    ):
        fn = getattr(planner, fn_name)
        _patch_function(inst, recorder, fn, fn_name, "query.fold")
    stream_fns = [
        value
        for attr, value in vars(stream).items()
        if inspect.isfunction(value)
        and not attr.startswith("_")
        and value.__module__ == stream.__name__
    ]
    for fn in stream_fns + [planner.evaluate_iter]:
        _patch_function(inst, recorder, fn, fn.__name__, "query.stream")
    engine = query_engine.QueryEngine
    for attr in _READ_OPS + ("query_measured", "query_iter", "select_iter"):
        _patch_method(inst, recorder, engine, attr, "engine")
    for cls in _backend_classes():
        if "range_query" in cls.__dict__:
            _patch_method(inst, recorder, cls, "range_query", "backend")
        for attr in ("append", "change", "delete"):
            if attr in cls.__dict__:
                _patch_method(inst, recorder, cls, attr, "backend.update")
    for module in (kernels, ops):
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
                and attr not in ("kernel_name", "set_kernel")
            ):
                _patch_function(
                    inst, recorder, value, f"{module.__name__}.{attr}", "bits"
                )
    _patch_method(inst, recorder, wal.DeltaLog, "append", "persist.wal")
    _patch_function(
        inst, recorder, checkpoint.checkpoint_cluster, "checkpoint_cluster",
        "persist.checkpoint",
    )
    _patch_function(
        inst, recorder, snapshot.load_shard_engine, "load_shard_engine",
        "persist.restore_load",
    )
    _patch_function(
        inst, recorder, checkpoint._apply_record, "_apply_record",
        "persist.replay",
    )
    _patch_fsync(inst, recorder)
    return inst


def _backend_classes():
    from repro.core.interface import SecondaryIndex

    seen, out = set(), []
    for module in _repro_modules():
        if not module.__name__.startswith(("repro.core", "repro.baselines")):
            continue
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and value not in seen
                and (
                    issubclass(value, SecondaryIndex)
                    or "range_query" in value.__dict__
                )
            ):
                seen.add(value)
                out.append(value)
    return out


def _patch_fsync(inst: Installation, recorder: Recorder) -> None:
    """Count ``os.fsync`` calls, split by the layer that issued them."""
    original = os.fsync

    def fsync(fd):
        span = _current.get()
        layer = span.layer if span is not None else "none"
        recorder.counters[f"fsync.{layer}"] += 1
        return original(fd)

    inst.patch(os, "fsync", fsync)


def propagate_context(loop) -> None:
    """Make ``loop.run_in_executor`` carry the caller's context.

    The front end bridges every engine call into a thread pool; with
    the context copied, the cluster span in the bridge thread nests
    under the request span that caused it.
    """
    original = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        ctx = contextvars.copy_context()
        return original(executor, ctx.run, func, *args)

    loop.run_in_executor = run_in_executor
