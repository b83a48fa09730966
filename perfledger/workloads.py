"""The three ledger workloads: set up, drive, check, measure.

Each workload function fills an :class:`Outcome`: per-op-type attempted
and failed counts, the end-to-end metrics and wall-clock figures of its
untraced phase and, when traced, the per-layer metrics of a second,
traced phase on the same cluster.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import math
import os
import random
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from multiprocessing import active_children

import schedules as sch
import spans

clock = time.perf_counter
#: Setups per run; ``setup_s`` reports their median.
SETUPS = 5
#: Largest machine-wide CPU steal share of a clean segment.
STEAL_LIMIT = 0.05
#: Requests per segment of ``serve-hot`` (a quarter round); a
#: calibration follows each.
HOT_SEGMENT = 100
#: CPU seconds :func:`reference_job` takes at the reference host speed.
#: Bounded times are scaled to this speed (see :func:`host_scale`).
REFERENCE_SECONDS = 0.02
#: Runs of the reference job per calibration; the median counts.
REFERENCE_REPS = 3


class Outcome:
    """Everything one run reports: counts, metrics, layers and notes."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.wrong: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.notes: dict = {}

    def wrong_answer(self, what: str) -> None:
        self.wrong.append(what)


class Phase:
    """One timed phase: per-request latencies, split into segments.

    A segment is a round, or a fixed number of requests.  Each segment
    records the machine's CPU steal.  The wall-clock figures use only the
    *clean* segments, those where the hypervisor stole at most
    :data:`STEAL_LIMIT` of the CPU time; when fewer than half are clean,
    the half with the least steal.  A program cannot cause steal, so
    this drops other tenants' interference, never the program's own
    stalls.
    """

    def __init__(self) -> None:
        self.requests: list[tuple[str, float, float]] = []
        self.reads = 0
        self.writes = 0
        self.elapsed = 0.0
        #: CPU seconds of this process and its workers over the phase.
        self.cpu = 0.0
        self.steal = 0.0
        #: Segment boundaries: (time, requests so far, /proc/stat ticks).
        self.marks: list[tuple[float, int, list[int]]] = []
        #: Reference-job CPU seconds, one per calibration in the phase.
        self.calibrations: list[float] = []
        #: CPU seconds the calibrations themselves used.
        self.calibration_cpu = 0.0
        #: Indices of the segments that were calibrations, not requests.
        self.gaps: set[int] = set()
        #: Program counter deltas over the phase, when traced.
        self.counters: dict = {}
        #: What each read returned, checked after the phase.
        self.answers: list = []

    def begin(self) -> None:
        """Start timing, after a collection so none lands inside."""
        gc.collect()
        self._cpu = cpu_seconds()
        self.start = clock()
        self.marks = [(self.start, 0, cpu_ticks())]

    def mark_segment(self) -> None:
        self.marks.append((clock(), self.ops, cpu_ticks()))

    def since_start(self) -> float:
        return self.marks[-1][0] - self.start

    def calibrate(self) -> None:
        """Time the reference job here, in a gap outside every segment.

        Call it where no request is in flight, right after a mark.
        """
        self.gaps.add(len(self.marks) - 1)
        seconds, used = reference_seconds()
        self.calibrations.append(seconds)
        self.calibration_cpu += used
        self.marks.append((clock(), self.ops, cpu_ticks()))

    def end(self) -> None:
        if self.ops > self.marks[-1][1]:
            self.mark_segment()
        if not self.calibrations:
            self.calibrate()
        self.elapsed = clock() - self.start
        self.cpu = cpu_seconds() - self._cpu
        self.steal = steal_share(self.marks[0][2], self.marks[-1][2])

    def record(self, op: str, t0: float, t1: float) -> None:
        self.requests.append((op, t0, t1))
        if op in ("append", "change", "delete", "write"):
            self.writes += 1
        else:
            self.reads += 1

    @property
    def ops(self) -> int:
        return self.reads + self.writes

    def segments(self) -> list[tuple[float, float, int, float]]:
        """``(start, end, requests, steal share)`` of every segment."""
        return [
            (t0, t1, n1 - n0, steal_share(k0, k1))
            for i, ((t0, n0, k0), (t1, n1, k1)) in enumerate(
                zip(self.marks, self.marks[1:])
            )
            if i not in self.gaps
        ]

    def clean(self) -> list[tuple[float, float, int, float]]:
        segments = self.segments()
        clean = [seg for seg in segments if seg[3] <= STEAL_LIMIT]
        if 2 * len(clean) < len(segments):
            by_steal = sorted(segments, key=lambda seg: seg[3])
            clean = sorted(by_steal[: math.ceil(len(segments) / 2)])
        return clean

    def ops_per_s(self) -> float:
        """Requests completed per second of the clean segments."""
        clean = self.clean()
        seconds = sum(t1 - t0 for t0, t1, _, _ in clean)
        return sum(n for _, _, n, _ in clean) / seconds if seconds else 0.0

    def cpu_ms_per_op(self) -> float:
        """CPU milliseconds per request over the whole phase, background
        threads and workers included, calibrations left out."""
        return (self.cpu - self.calibration_cpu) / self.ops * 1e3

    def samples(self, *ops: str) -> list[float]:
        """Sorted latencies of ``ops`` issued in clean segments."""
        clean = self.clean()
        starts = [t0 for t0, _, _, _ in clean]
        ends = [t1 for _, t1, _, _ in clean]
        out = []
        for op, t0, t1 in self.requests:
            if op in ops:
                i = bisect.bisect_right(starts, t0) - 1
                if i >= 0 and t0 < ends[i]:
                    out.append(t1 - t0)
        return sorted(out)


def cpu_seconds() -> float:
    """CPU time used so far by this process and its live workers.

    Unlike wall time, this excludes what the hypervisor steals.
    """
    total = time.process_time()
    tick = os.sysconf("SC_CLK_TCK")
    for child in active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def reference_job() -> int:
    """Fixed pure-Python work like the program's own: set algebra, big-int
    bitmaps, dict counting and sorting.  It never calls the program, so
    the host's speed is what changes its time."""
    rng = random.Random(7)
    xs = [rng.randrange(1 << 16) for _ in range(4000)]
    total = 0
    for _ in range(4):
        a, b = set(xs[::2]), set(xs[::3])
        total += len(a & b) + len(sorted(a | b))
        bitmap = 0
        for x in xs:
            bitmap |= 1 << x
        total += bin(bitmap).count("1")
        counts: dict[int, int] = {}
        for x in xs:
            counts[x & 255] = counts.get(x & 255, 0) + 1
        total += max(counts.values())
    return total


def reference_seconds() -> tuple[float, float]:
    """One calibration: the median CPU seconds of :data:`REFERENCE_REPS`
    reference jobs on this thread, and the CPU seconds they used in all.

    The collector is off meanwhile: a collection would traverse the
    program's heap, and its size must not change the reference time.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPS):
            t0 = time.thread_time()
            reference_job()
            times.append(time.thread_time() - t0)
    finally:
        gc.enable()
    return statistics.median(times), sum(times)


def host_scale(calibrations: list[float]) -> float:
    """Factor that scales a time measured beside ``calibrations`` to the
    reference host speed.

    The shared host's speed drifts by tens of percent within minutes
    (other tenants, clock changes).  A time measured on it and divided
    by the reference job's time, taken in the same run, cancels the
    drift; the program's own cost still moves it.  The mean, not the
    median, of the calibrations: the times it scales are sums over the
    same stretch of time, so the two average alike.
    """
    return REFERENCE_SECONDS / statistics.mean(calibrations)


def cpu_ticks() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (zeros elsewhere)."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return [0] * 10


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def rss_peak_mb() -> float:
    """Peak RSS of this process plus its live worker processes, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def index_bits_per_row(cluster) -> float:
    bits = rows = 0
    for name in cluster.columns:
        for shard in cluster.shards:
            bits += shard.column(name).index.size_bits()
        rows += sum(
            sum(1 for c in shard.column(name).codes if c is not None)
            for shard in cluster.shards
        )
    return bits / rows


def end_to_end(out: Outcome, phase: Phase, setup: list[tuple[float, float]],
               bound_bits, index_bits: float, rss: float) -> None:
    """Fill in the end-to-end metrics.  ``setup`` holds each build's
    seconds and the calibration taken just before it.  The two times
    are scaled to the reference host speed; their raw figures are
    notes."""
    m = out.metrics
    m["setup_s"] = (
        statistics.median(t * host_scale([c]) for t, c in setup), "s"
    )
    scale = host_scale(phase.calibrations)
    cpu = phase.cpu_ms_per_op()
    m["cpu_ms_per_op"] = (cpu * scale, "ms")
    out.notes["setup_s_raw"] = statistics.median(t for t, _ in setup)
    out.notes["cpu_ms_per_op_raw"] = cpu
    out.notes["host_speed"] = scale
    cal = phase.calibrations
    quartiles = statistics.quantiles(cal, n=4) if len(cal) > 1 else cal * 3
    out.notes["calibrations"] = {
        "count": len(cal),
        "mean_ms": statistics.mean(cal) * 1e3,
        "median_ms": statistics.median(cal) * 1e3,
        "iqr_ms": (quartiles[2] - quartiles[0]) * 1e3,
    }
    m["rss_peak_mb"] = (rss, "MB")
    m["io_bits_ratio"] = (bound_bits[0] / bound_bits[1], "ratio")
    m["index_bits_per_row"] = (index_bits, "bits/row")
    # Wall-clock figures: reported, but too sensitive to CPU steal on a
    # shared host to carry a regression bound (see README.md).
    reads = phase.samples("select", "count", "count_by")
    writes = phase.samples("append", "change", "delete", "write")
    notes = out.notes
    notes["ops_per_s"] = phase.ops_per_s()
    notes["select_p50_ms"] = percentile(phase.samples("select"), 0.5) * 1e3
    notes["count_p50_ms"] = percentile(phase.samples("count"), 0.5) * 1e3
    notes["read_p99_ms"] = percentile(reads, 0.99) * 1e3
    out.notes["samples"] = dict(Counter(op for op, _, _ in phase.requests))
    out.notes["steal_pct"] = round(phase.steal * 100, 2)
    out.notes["clean_segments"] = [len(phase.clean()), len(phase.segments())]
    out.notes["reads_beyond_p99"] = len(reads) - int(0.99 * len(reads))
    out.notes["write_p50_ms"] = percentile(writes, 0.5) * 1e3
    out.notes["write_p99_ms"] = percentile(writes, 0.99) * 1e3


# ----------------------------------------------------------------------
# Per-layer metrics from a traced phase
# ----------------------------------------------------------------------


class Counters:
    """Program-side counters sampled before and after a phase."""

    def __init__(self, cluster, frontend=None, checkpointer=None) -> None:
        self.cluster, self.frontend = cluster, frontend
        self.checkpointer = checkpointer
        self.before = self.sample()

    def sample(self) -> dict:
        cl = self.cluster
        cache = cl.shared_cache
        out = {
            "bits_read": cl.scatter_io.bits_read,
            "gather_rids": cl.gather_rids,
            "hits": getattr(cache, "hits", 0),
            "misses": getattr(cache, "misses", 0),
            "round_trips": sum(
                (getattr(cl.executor, "op_counts", None) or {}).values()
            ),
            "migrations": len(cl.migrations),
            "wal_bytes": cl.wal.bytes_written if cl.wal is not None else 0,
        }
        if self.frontend is not None:
            stats = self.frontend.stats()
            out.update(
                requests=stats.requests, coalesced=stats.coalesced,
                shed=stats.shed,
            )
        if self.checkpointer is not None:
            out["checkpoints"] = self.checkpointer.checkpoints
        return out

    def delta(self) -> dict:
        after = self.sample()
        return {k: after[k] - self.before.get(k, 0) for k in after}


def layer_metrics(out: Outcome, rec: spans.Recorder, phase: Phase,
                  delta: dict, untraced_ops_per_s: float) -> None:
    reads, writes, ops = max(1, phase.reads), phase.writes, max(1, phase.ops)
    per_write = (lambda v: v / writes) if writes else (lambda v: 0.0)
    hits, misses = delta["hits"], delta["misses"]
    lay = out.layers
    lay["serve.self_ms"] = (rec.self_time("serve") / ops * 1e3, "ms/op")
    lay["serve.coalesced_ratio"] = (
        delta.get("coalesced", 0) / max(1, delta.get("requests", 0)), "ratio"
    )
    lay["serve.shed"] = (delta.get("shed", 0), "count")
    lay["cluster.self_ms"] = (rec.self_time("cluster") / reads * 1e3, "ms/op")
    lay["cluster.gather_rids_per_op"] = (
        delta["gather_rids"] / reads, "rids/op"
    )
    lay["cluster.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )
    lay["cluster.write_self_ms"] = (
        per_write(rec.self_time("cluster.write") * 1e3), "ms/op"
    )
    lay["cluster.migrations"] = (delta["migrations"], "count")
    lay["cluster.restats"] = (rec.calls("cluster.restat"), "count")
    lay["executor.round_trips_per_op"] = (delta["round_trips"] / ops, "1/op")
    lay["executor.self_ms"] = (rec.self_time("executor") / ops * 1e3, "ms/op")
    lay["executor.wait_ms"] = (
        rec.inclusive("executor.wait") / ops * 1e3, "ms/op"
    )
    lay["query.plan_ms"] = (rec.inclusive("query.plan") / reads * 1e3, "ms/op")
    lay["query.fold_self_ms"] = (
        rec.self_time("query.fold") / reads * 1e3, "ms/op"
    )
    lay["query.stream_self_ms"] = (
        rec.self_time("query.stream") / reads * 1e3, "ms/op"
    )
    lay["engine.self_ms"] = (rec.self_time("engine") / reads * 1e3, "ms/op")
    lay["engine.calls_per_op"] = (rec.calls("engine") / reads, "1/op")
    lay["backend.range_query_ms"] = (
        rec.self_time("backend") / reads * 1e3, "ms/op"
    )
    lay["backend.calls_per_op"] = (rec.calls("backend") / reads, "1/op")
    lay["backend.update_ms"] = (
        per_write(rec.inclusive("backend.update") * 1e3), "ms/op"
    )
    lay["bits.kernel_ms"] = (rec.self_time("bits") / reads * 1e3, "ms/op")
    lay["io.bits_read_per_op"] = (delta["bits_read"] / reads, "bits/op")
    lay["persist.wal_append_ms"] = (
        per_write(rec.inclusive("persist.wal") * 1e3), "ms/op"
    )
    lay["persist.wal_bytes_per_write"] = (
        per_write(delta["wal_bytes"]), "B/op"
    )
    lay["persist.fsyncs_per_write"] = (
        per_write(rec.counters["fsync.persist.wal"]), "1/op"
    )
    checkpoints = delta.get("checkpoints", 0)
    lay["persist.checkpoints"] = (checkpoints, "count")
    lay["persist.checkpoint_ms"] = (
        rec.inclusive("persist.checkpoint") / max(1, checkpoints) * 1e3, "ms"
    )
    ckpt_spans = [s for s in rec.spans if s.layer == "persist.checkpoint"]
    stall = max(
        (
            t1 - t0
            for _, t0, t1 in phase.requests
            for s in ckpt_spans
            if t0 < s.end and s.start < t1
        ),
        default=0.0,
    )
    lay["persist.stall_ms"] = (stall * 1e3, "ms")
    traced_ops_per_s = phase.ops_per_s()
    lay["trace.overhead"] = (untraced_ops_per_s / traced_ops_per_s, "ratio")
    lay["trace.spans"] = (len(rec.spans), "count")
    lay["trace.ops"] = (phase.ops, "count")


def family_breakdown(rec: spans.Recorder, reads: int) -> dict:
    """Backend self time per op, by index class (the backend family)."""
    totals: Counter = Counter()
    calls: Counter = Counter()
    for s in rec.spans:
        if s.layer == "backend":
            family = s.name.split(".")[0]
            totals[family] += s.self_time
            calls[family] += s.outermost
    return {
        family: {
            "range_query_ms": totals[family] / max(1, reads) * 1e3,
            "calls_per_op": calls[family] / max(1, reads),
        }
        for family in sorted(totals)
    }


@contextmanager
def tracing():
    """Every layer wrapped for the duration; yields the span recorder."""
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        yield rec
    finally:
        inst.undo()


def check_count_by(got: dict) -> dict:
    return {code: n for code, n in got.items() if n}


# ----------------------------------------------------------------------
# scan-cold
# ----------------------------------------------------------------------


def scan_cold(args, out: Outcome, workdir: str) -> None:
    from repro import ClusterEngine, In, InMemorySharedCache, Range
    from repro.cluster import SerialExecutor
    from repro.cluster.cache import CacheStore

    class NeverHitStore(CacheStore):
        """A shared-cache store that keeps nothing: every request computes."""

        def get(self, key):
            return None

        def put(self, key, positions):
            pass

        def invalidate_prefix(self, prefix):
            return 0

    data = sch.TwoColumnData(args.seed, args.rows)
    setup = []
    for _ in range(SETUPS):
        gc.collect()  # the last build's garbage, outside the timing
        calibration = reference_seconds()[0]
        t0 = clock()
        cluster = ClusterEngine(
            num_shards=16, executor=SerialExecutor(), cache_size=0,
            shared_cache=InMemorySharedCache(store=NeverHitStore()),
        )
        cluster.add_column("a", data.a, sigma=sch.SIGMA_A)
        cluster.add_column("b", data.b, sigma=sch.SIGMA_B)
        setup.append((clock() - t0, calibration))
    out.notes["backends"] = {
        name: sorted(set(cluster.backends(name))) for name in ("a", "b")
    }
    order = random.Random(f"order-{args.seed}")

    def drive(seconds: float) -> Phase:
        """Whole rounds until ``seconds`` have passed (one round at 0)."""
        phase = Phase()
        phase.begin()
        while True:
            for op, lo, hi, excluded, _ in sch.scan_round(order):
                pred = Range("a", lo, hi) & ~In("b", list(excluded))
                out.attempted[op] += 1
                t0 = clock()
                try:
                    if op == "select":
                        got = cluster.select(pred)
                    elif op == "count":
                        got = cluster.count(pred)
                    else:
                        got = cluster.count_by("b", pred)
                except Exception as exc:  # counted, reported, run fails
                    out.failed[op] += 1
                    out.wrong_answer(f"{op} raised {exc!r}")
                    continue
                t1 = clock()
                phase.record(op, t0, t1)
                if op == "select":
                    got = sch.digest(got)
                elif op == "count_by":
                    got = check_count_by(got)
                phase.answers.append((op, lo, hi, excluded, got))
            phase.mark_segment()
            phase.calibrate()
            if phase.since_start() >= seconds:
                break
        phase.end()
        return phase

    phases = [drive(0)]  # warm-up: one round, checked but not timed
    bits0 = cluster.scatter_io.bits_read
    phase = drive(args.seconds)
    bits = cluster.scatter_io.bits_read - bits0
    phases.append(phase)
    if args.trace:
        counters = Counters(cluster)
        with tracing() as rec:
            traced_phase = drive(args.seconds)
        phases.append(traced_phase)
        layer_metrics(
            out, rec, traced_phase, counters.delta(), phase.ops_per_s()
        )
        out.notes["backend_families"] = family_breakdown(
            rec, traced_phase.reads
        )
        dump_spans(args, rec)
    inject_fault(args, phase.answers)
    for op, lo, hi, excluded, got in (a for p in phases for a in p.answers):
        if got != data.expected(op, lo, hi, excluded):
            out.failed[op] += 1
            out.wrong_answer(f"{op} a∈[{lo},{hi}] b∉{excluded}: wrong")
    bound = sum(
        sch.answer_bits(op, got, data.n)
        for op, _, _, _, got in phase.answers
    )
    end_to_end(
        out, phase, setup, (bits, bound), index_bits_per_row(cluster),
        rss_peak_mb(),
    )


def inject_fault(args, answers: list) -> None:
    """Test hook: corrupt the first recorded select answer."""
    if args.inject_fault != "wrong-answer":
        return
    for i, (op, *rest, got) in enumerate(answers):
        if op == "select":
            answers[i] = (op, *rest, (got[0] + 1, got[1]))
            return


def dump_spans(args, rec: spans.Recorder) -> None:
    if args.spans_out:
        rec.dump(args.spans_out)


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------


def serve_hot(args, out: Outcome, workdir: str) -> None:
    from repro import ClusterEngine, In, Range
    from repro.cluster import SerialExecutor
    from repro.cluster.executor import ProcessExecutor
    from repro.serve import FrontEnd

    data = sch.TwoColumnData(args.seed, args.rows)
    pool = sch.hot_pool(args.seed)
    preds = [
        Range("a", lo, hi) & ~In("b", list(excluded))
        for _, lo, hi, excluded, _ in pool
    ]
    appends = sch.hot_appends(data)
    oracle = sch.HotOracle(data, pool)
    workers = os.cpu_count() or 2
    setup = []
    executor = cluster = None
    for _ in range(SETUPS):
        if cluster is not None:
            cluster.close()
            executor.close()
        gc.collect()  # the last build's garbage, outside the timing
        calibration = reference_seconds()[0]
        t0 = clock()
        executor = ProcessExecutor(max_workers=workers)
        cluster = ClusterEngine(num_shards=16, executor=executor)
        cluster.add_column(
            "a", data.a, sigma=sch.SIGMA_A, dynamism="semidynamic"
        )
        cluster.add_column(
            "b", data.b, sigma=sch.SIGMA_B, dynamism="semidynamic"
        )
        executor.flush_deltas()
        setup.append((clock() - t0, calibration))
    out.notes["backends"] = {
        name: sorted(set(cluster.backends(name))) for name in ("a", "b")
    }
    try:
        order = random.Random(f"order-{args.seed}")
        state = {"writes": 0}

        async def read(frontend, phase: Phase, item: int) -> None:
            op = pool[item][0]
            out.attempted[op] += 1
            k0 = state["writes"]
            t0 = clock()
            try:
                if op == "select":
                    got = await frontend.select(preds[item])
                elif op == "count":
                    got = await frontend.count(preds[item])
                else:
                    got = await frontend.count_by("b", preds[item])
            except Exception as exc:
                out.failed[op] += 1
                out.wrong_answer(f"{op} raised {exc!r}")
                return
            phase.record(op, t0, clock())
            if op == "select":
                got = sch.digest(got)
            elif op == "count_by":
                got = check_count_by(got)
            phase.answers.append((op, item, k0, state["writes"], got))

        async def warm_up() -> Phase:
            """Every pool entry once, so the timed phase starts cache-hot."""
            frontend = FrontEnd(cluster, coalesce=True)
            phase = Phase()
            for item in range(len(pool)):
                await read(frontend, phase, item)
            await frontend.close()
            return phase

        async def drive(seconds: float, rec=None) -> Phase:
            loop = asyncio.get_running_loop()
            if rec is not None:
                spans.propagate_context(loop)
            frontend = FrontEnd(cluster, coalesce=True)
            phase = Phase()
            counters = Counters(cluster, frontend) if rec is not None else None

            async def caller(stream):
                for kind, item in stream:
                    if kind == "write":
                        out.attempted["write"] += 1
                        t0 = clock()
                        # One row spans both columns: hold the cluster's
                        # serve lock so no read sees a half-appended row.
                        with cluster._serve_lock:
                            cluster.append("a", item[0])
                            cluster.append("b", item[1])
                            state["writes"] += 1
                            oracle.appended.append(item)
                        phase.record("write", t0, clock())
                    else:
                        await read(frontend, phase, item)

            phase.begin()
            while True:
                # Whole rounds, in segments of HOT_SEGMENT requests.  All
                # callers finish a segment before its calibration, so no
                # request is in flight during one.
                items = sch.hot_round(order, appends)
                for i in range(0, len(items), HOT_SEGMENT):
                    stream = iter(items[i:i + HOT_SEGMENT])
                    await asyncio.gather(
                        *(caller(stream) for _ in range(workers))
                    )
                    phase.mark_segment()
                    phase.calibrate()
                if phase.since_start() >= seconds:
                    break
            phase.end()
            if counters is not None:
                phase.counters = counters.delta()
            await frontend.close()
            return phase

        phases = [asyncio.run(warm_up())]
        bits0 = cluster.scatter_io.bits_read
        phase = asyncio.run(drive(args.seconds))
        bits = cluster.scatter_io.bits_read - bits0
        phases.append(phase)
        if args.trace:
            with tracing() as rec:
                traced_phase = asyncio.run(drive(args.seconds, rec))
            phases.append(traced_phase)
            layer_metrics(
                out, rec, traced_phase, traced_phase.counters,
                phase.ops_per_s(),
            )
            dump_spans(args, rec)
        inject_fault(args, phase.answers)
        for op, index, k0, k1, got in (a for p in phases for a in p.answers):
            states = [oracle.expected(index, k) for k in range(k0, k1 + 1)]
            if op == "count_by":
                states = [check_count_by(s) for s in states]
            if got not in states:
                out.failed[op] += 1
                out.wrong_answer(f"{op} pool[{index}] at {k0}..{k1} appends")
        bound = sum(
            sch.answer_bits(op, got, data.n + k0)
            for op, _, k0, _, got in phase.answers
        )
        rss = rss_peak_mb()
        # The coordinator holds deferred columns; measure the workers'
        # indexes from a checkpoint of them, outside every timed region.
        snapdir = os.path.join(workdir, "sizes")
        cluster.checkpoint(snapdir)
    finally:
        cluster.close()
        executor.close()
    local = ClusterEngine.restore(
        snapdir, executor=SerialExecutor(), attach_wal=False
    )
    index_bits = index_bits_per_row(local)
    end_to_end(out, phase, setup, (bits, bound), index_bits, rss)
    local.close()


# ----------------------------------------------------------------------
# ingest-durable
# ----------------------------------------------------------------------

#: Nominal seconds per ``ingest-durable`` round: the run is *sized*, not
#: timed, so checkpoints and splits belong to the work it repeats.
INGEST_ROUND_SECONDS = 8
#: Requests per segment of ``ingest-durable``; a calibration follows
#: each.
INGEST_SEGMENT = 250
#: Acknowledged appends after the checkpointer stops, which the restart
#: must replay from the WAL.
TAIL_APPENDS = 200


def ingest_durable(args, out: Outcome, workdir: str) -> None:
    from repro import ClusterEngine, Range
    from repro.cluster import SerialExecutor
    from repro.persist import CheckpointPolicy, Checkpointer, init_persistence

    shard_rows = max(16, args.rows * 4000 // 40000)
    schedule = sch.IngestSchedule(args.seed, args.rows, shard_rows)
    rounds = max(1, round(args.seconds / INGEST_ROUND_SECONDS))
    setup = []
    for i in range(SETUPS):
        durable = os.path.join(workdir, f"durable-{i}")
        gc.collect()  # the last build's garbage, outside the timing
        calibration = reference_seconds()[0]
        t0 = clock()
        cluster = ClusterEngine(
            target_shard_rows=shard_rows, executor=SerialExecutor()
        )
        cluster.add_column(
            "v", schedule.initial, sigma=sch.SIGMA_V,
            dynamism="fully_dynamic", require_delete=True,
        )
        init_persistence(cluster, durable, sync="fsync", fsync=True)
        setup.append((clock() - t0, calibration))
        if i < SETUPS - 1:
            cluster.close()
    out.notes["backends"] = {"v": sorted(set(cluster.backends("v")))}
    checkpointer = Checkpointer(
        cluster, durable, CheckpointPolicy(every_mutations=1000), fsync=True
    )

    def drive(n_rounds: int) -> Phase:
        plan = [schedule.round() for _ in range(n_rounds)]
        phase = Phase()
        phase.begin()
        for item in (item for block in plan for item in block):
            op = item[0]
            out.attempted[op] += 1
            t0 = clock()
            try:
                if op == "append":
                    cluster.append("v", item[1])
                elif op == "change":
                    cluster.change("v", item[1], item[2])
                elif op == "delete":
                    cluster.delete("v", item[1])
                elif op == "count":
                    got = cluster.count(Range("v", item[1], item[2]))
                else:
                    got = cluster.select(Range("v", item[1], item[2]))
            except Exception as exc:
                out.failed[op] += 1
                out.wrong_answer(f"{op} raised {exc!r}")
                continue
            t1 = clock()
            phase.record(op, t0, t1)
            if op == "select":
                phase.answers.append((op, item, sch.digest(got)))
            elif op == "count":
                phase.answers.append((op, item, got))
            if phase.ops % INGEST_SEGMENT == 0:
                phase.mark_segment()
                # A checkpoint holds the serve lock: calibrate only
                # between checkpoints, so none competes with the job.
                lock = cluster._serve_lock
                if lock.acquire(blocking=False):
                    try:
                        phase.calibrate()
                    finally:
                        lock.release()
        wait_idle(checkpointer)
        phase.end()
        return phase

    bits0 = cluster.scatter_io.bits_read
    splits0 = len(cluster.splits)
    phase = drive(rounds)
    bits = cluster.scatter_io.bits_read - bits0
    phases = [phase]
    out.notes["checkpoints"] = checkpointer.checkpoints
    if args.trace:
        counters = Counters(cluster, checkpointer=checkpointer)
        with tracing() as rec:
            traced_phase = drive(rounds)
        phases.append(traced_phase)
        layer_metrics(
            out, rec, traced_phase, counters.delta(), phase.ops_per_s()
        )
        dump_spans(args, rec)
    checkpointer.close()
    # A WAL tail past the last checkpoint, so the restore replays.
    for code in schedule.tail(TAIL_APPENDS):
        cluster.append("v", code)
    splits = len(cluster.splits) - splits0
    index_bits = index_bits_per_row(cluster)
    cluster.close()
    inject_fault(args, phase.answers)
    for op, (_, lo, hi, expected, _), got in (
        a for p in phases for a in p.answers
    ):
        if got != expected:
            out.failed[op] += 1
            out.wrong_answer(f"{op} v∈[{lo},{hi}]: wrong answer")
    bound = sum(
        sch.answer_bits(op, got, item[4]) for op, item, got in phase.answers
    )
    if args.inject_fault == "lost-write":
        # An acknowledged append the durable state never received.
        schedule.codes.append(0)
        schedule.histogram[0] += 1
    restore_s, restored_layers = restart_check(args, out, durable, schedule)
    out.notes["restore_s"] = restore_s
    rss = rss_peak_mb()
    end_to_end(out, phase, setup, (bits, bound), index_bits, rss)
    if args.trace:
        out.layers["cluster.splits"] = (splits, "count")
        out.layers.update(restored_layers)


def wait_idle(checkpointer, quiet: float = 0.05, timeout: float = 60.0):
    """Block until the background checkpointer has gone idle.

    Idle means no checkpoint started or finished during a ``quiet``
    window; a running checkpoint holds the cluster's serve lock, so
    taking that lock waits it out.
    """
    deadline = clock() + timeout
    while clock() < deadline:
        before = checkpointer.checkpoints
        time.sleep(quiet)
        with checkpointer.cluster._serve_lock:
            if checkpointer.checkpoints == before:
                return
    raise TimeoutError("the checkpointer never went idle")


def restart_check(args, out: Outcome, durable: str, schedule) -> tuple:
    """Restore from disk and compare against the mirror; time the restore."""
    from repro import ClusterEngine, Range
    from repro.cluster import SerialExecutor

    def restore():
        return ClusterEngine.restore(
            durable, executor=SerialExecutor(), wal_sync="fsync"
        )

    gc.collect()
    t0 = clock()
    restored = restore()
    restore_s = clock() - t0
    out.attempted["restore"] += 1
    lost = []
    for code in range(sch.SIGMA_V):
        if restored.count(Range("v", code, code)) != schedule.histogram[code]:
            lost.append(code)
    for code in range(0, sch.SIGMA_V, 8):
        got = restored.select(Range("v", code, code))
        if got != schedule.rids_of(code):
            lost.append(code)
    restored.close()
    if lost:
        out.failed["restore"] += 1
        out.wrong_answer(f"restore lost acknowledged writes (codes {lost})")
    layers = {}
    if args.trace:
        with tracing() as rec:
            restore().close()
        layers["persist.restore_load_ms"] = (
            rec.inclusive("persist.restore_load") * 1e3, "ms"
        )
        replay = rec.inclusive("persist.replay")
        layers["persist.replay_ms"] = (replay * 1e3, "ms")
        layers["persist.replayed_records"] = (
            rec.calls("persist.replay"), "count"
        )
    return restore_s, layers


WORKLOADS = {
    "scan-cold": scan_cold,
    "serve-hot": serve_hot,
    "ingest-durable": ingest_durable,
}
