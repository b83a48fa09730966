"""Layer-ledger benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfledger/run.py --workload scan-cold --seed 1 --seconds 32

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs an
untraced phase and then a traced phase on the same cluster and prints
every per-layer metric, including the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong answer, a failed request or an
acknowledged write missing after restore makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Every per-layer metric a traced run prints, with its unit.  A layer a
#: workload does not exercise reports 0 (no time, no work).
PER_LAYER = {
    "serve.self_ms": "ms/op",
    "serve.coalesced_ratio": "ratio",
    "serve.shed": "count",
    "cluster.self_ms": "ms/op",
    "cluster.gather_rids_per_op": "rids/op",
    "cluster.cache_hit_ratio": "ratio",
    "cluster.write_self_ms": "ms/op",
    "cluster.splits": "count",
    "cluster.migrations": "count",
    "cluster.restats": "count",
    "executor.round_trips_per_op": "1/op",
    "executor.self_ms": "ms/op",
    "executor.wait_ms": "ms/op",
    "query.plan_ms": "ms/op",
    "query.fold_self_ms": "ms/op",
    "query.stream_self_ms": "ms/op",
    "engine.self_ms": "ms/op",
    "engine.calls_per_op": "1/op",
    "backend.range_query_ms": "ms/op",
    "backend.calls_per_op": "1/op",
    "backend.update_ms": "ms/op",
    "bits.kernel_ms": "ms/op",
    "io.bits_read_per_op": "bits/op",
    "persist.wal_append_ms": "ms/op",
    "persist.wal_bytes_per_write": "B/op",
    "persist.fsyncs_per_write": "1/op",
    "persist.checkpoints": "count",
    "persist.checkpoint_ms": "ms",
    "persist.stall_ms": "ms",
    "persist.restore_load_ms": "ms",
    "persist.replay_ms": "ms",
    "persist.replayed_records": "count",
    "ops_per_s": "1/s",
    "select_p50_ms": "ms",
    "count_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "restore_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.ops": "count",
}

#: Wall-clock figures a traced run reports from its untraced phase.  CPU
#: steal on a shared host moves them by more than any regression bound
#: may be, and a write or restore does not exist on every workload, so
#: they are per-layer entries rather than bounded end-to-end metrics.
UNTRACED_LAYERS = (
    "ops_per_s", "select_p50_ms", "count_p50_ms", "read_p99_ms",
    "write_p50_ms", "write_p99_ms", "restore_s",
)

#: Layer metrics each workload must cover: a nonzero value in its traced
#: run, which needs at least one span or counter event in that layer.
COVERAGE = {
    "scan-cold": (
        "cluster.self_ms", "cluster.gather_rids_per_op", "executor.self_ms",
        "read_p99_ms",
        "query.plan_ms", "query.stream_self_ms", "query.fold_self_ms",
        "engine.self_ms", "engine.calls_per_op", "backend.range_query_ms",
        "backend.calls_per_op", "bits.kernel_ms", "io.bits_read_per_op",
    ),
    "serve-hot": (
        "serve.self_ms", "serve.coalesced_ratio", "cluster.self_ms",
        "cluster.cache_hit_ratio", "cluster.write_self_ms",
        "executor.round_trips_per_op", "executor.wait_ms",
        "query.plan_ms", "io.bits_read_per_op", "read_p99_ms",
        "write_p50_ms",
    ),
    "ingest-durable": (
        "cluster.self_ms", "cluster.write_self_ms", "cluster.splits",
        "cluster.restats", "engine.self_ms", "backend.range_query_ms",
        "backend.update_ms", "io.bits_read_per_op", "persist.wal_append_ms",
        "persist.wal_bytes_per_write", "persist.fsyncs_per_write",
        "persist.checkpoints", "persist.checkpoint_ms", "persist.stall_ms",
        "persist.restore_load_ms", "persist.replay_ms", "read_p99_ms",
        "write_p50_ms", "write_p99_ms", "restore_s",
    ),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("scan-cold", "serve-hot", "ingest-durable"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rows", type=int, default=None,
        help="rows per column (default: 60000, or 40000 for ingest-durable)",
    )
    parser.add_argument(
        "--inject-fault", choices=("wrong-answer", "lost-write"),
        default=None, help="self-test hook: corrupt one checked outcome",
    )
    parser.add_argument(
        "--spans-out", default=None,
        help="write the traced run's spans here as JSON lines",
    )
    args = parser.parse_args(argv)
    if args.rows is None:
        args.rows = 40000 if args.workload == "ingest-durable" else 60000
    return args


def stop_children() -> None:
    """Stop and reap every process this run started.

    The workloads close their worker pools; what remains is the
    resource tracker ``multiprocessing`` starts for shared memory, which
    would otherwise outlive this process as an unreaped orphan.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    scratch = os.path.join(ROOT, ".perfledger-tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    out = workloads.Outcome()
    try:
        workloads.WORKLOADS[args.workload](args, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass

    if args.trace:
        for name in UNTRACED_LAYERS:
            if name in out.notes:
                out.layers[name] = (out.notes[name], PER_LAYER[name])
        metrics = {
            name: out.layers.get(name, (0, unit))
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = out.metrics
    report(args, out, metrics)
    uncovered = [
        name for name in COVERAGE[args.workload]
        if args.trace and not metrics[name][0]
    ]
    correct = not out.wrong and not any(out.failed.values())
    if uncovered:
        print(f"trace coverage missing: {', '.join(uncovered)}")
    for what in out.wrong[:20]:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out.attempted.values()),
        "failed": sum(out.failed.values()),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct and not uncovered else 1


def report(args, out, metrics) -> None:
    """The human-readable part of the output, before the JSON line."""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for op in sorted(out.attempted):
        print(
            f"  op {op:<9} attempted {out.attempted[op]:>7} "
            f"failed {out.failed[op]:>3}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.4f} {unit}")
    wall = [name for name in UNTRACED_LAYERS if name in out.notes]
    if not args.trace:
        for name in wall:
            value, unit = out.notes[name], PER_LAYER[name]
            print(f"  {name:<30} {value:>14.4f} {unit} (wall, unbounded)")
    for key, value in sorted(out.notes.items()):
        if key not in wall:
            print(f"  note {key}: {json.dumps(value, default=str)}")


if __name__ == "__main__":
    sys.exit(main())
