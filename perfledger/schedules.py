"""Seed-stable inputs for the ledger workloads, and their oracle answers.

The seed shuffles only three things: row placement, request order and
the order of the members of ``In(...)`` sets.  Data histograms and the
multiset of requests — (op, range-width class, alphabet stratum) and
the excluded sets themselves — are fixed, so two seeds ask the program
for the same amount of work.  (Which codes a set excludes decides the
widths of its complement runs, and so the leaves a plan fetches.)
Every request carries what the brute-force mirror expects; answers are
compared after the timed region.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from collections import Counter

#: Range widths (``hi - lo``) of the ``a``-column predicates.
WIDTHS = (0, 3, 15, 63)
#: ``lo`` of each alphabet stratum of ``a`` (σ=256); stratum 0 skips the
#: few hottest Zipf codes so that no single request dominates a round.
STRATA_LO = (8, 64, 128, 192)
SIGMA_A = 256
SIGMA_B = 16
SIGMA_V = 64


def exact_counts(weights, total: int) -> list[int]:
    """Integer counts proportional to ``weights`` summing to ``total``.

    Largest-remainder rounding with index tie-breaks, so the histogram
    is a pure function of its arguments.
    """
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def column_from_counts(counts, rng: random.Random, blocks: int) -> list[int]:
    """A column with histogram ``counts``, placed by ``rng`` within blocks.

    The sorted codes are dealt round-robin into ``blocks`` contiguous
    RID blocks (one per shard), so every block's histogram is fixed too;
    the seed only shuffles rows inside each block.  A shard's answer
    sizes, and so the work of recomputing just that shard, then do not
    depend on the seed.
    """
    ordered = [code for code, c in enumerate(counts) for _ in range(c)]
    column = []
    for k in range(blocks):
        block = ordered[k::blocks]
        rng.shuffle(block)
        column += block
    return column


def zipf_weights(sigma: int, s: float) -> list[float]:
    return [1.0 / (k + 1) ** s for k in range(sigma)]


def digest(rids) -> tuple[int, int]:
    """``(length, crc32)`` of a RID list: an exact, small answer record."""
    return len(rids), zlib.crc32(array("q", rids).tobytes())


def lg_binomial(n: int, m: int) -> float:
    """``log2 C(n, m)``: the information content of an m-subset of n rows."""
    if m <= 0 or m >= n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    ) / math.log(2)


def answer_bits(op: str, answer, n: int) -> float:
    """The information bound of one read answer (``count_by`` summed)."""
    if op == "select":
        return lg_binomial(n, answer[0])
    if op == "count":
        return lg_binomial(n, answer)
    return sum(lg_binomial(n, c) for c in answer.values())


def excluded_set(rng: random.Random, size: int = 3) -> tuple[int, ...]:
    """``size`` pairwise non-adjacent ``b`` codes away from the edges.

    The complement of such a set is always ``size + 1`` code runs.
    """
    while True:
        members = sorted(rng.sample(range(1, SIGMA_B - 1), size))
        if all(y - x >= 2 for x, y in zip(members, members[1:])):
            return tuple(members)


def shuffled(members: tuple, rng: random.Random) -> tuple:
    """The same ``In`` set with its members in seeded order."""
    return tuple(rng.sample(members, len(members)))


class TwoColumnData:
    """60k rows: ``a`` exact Zipf(1.1) over σ=256, ``b`` exact uniform σ=16.

    Rows are placed within 16 blocks, one per shard.  ``rows_by_a`` and
    ``b`` are the brute-force mirror the oracle reads.
    """

    SHARDS = 16

    def __init__(self, seed: int, rows: int) -> None:
        rng = random.Random(f"rows-{seed}")
        self.n = rows
        self.a = column_from_counts(
            exact_counts(zipf_weights(SIGMA_A, 1.1), rows), rng, self.SHARDS
        )
        self.b = column_from_counts(
            exact_counts([1.0] * SIGMA_B, rows), rng, self.SHARDS
        )
        self.rows_by_a: list[list[int]] = [[] for _ in range(SIGMA_A)]
        for rid, code in enumerate(self.a):
            self.rows_by_a[code].append(rid)

    def matching(self, lo: int, hi: int, excluded) -> list[int]:
        b, skip = self.b, set(excluded)
        rids = [
            rid
            for code in range(lo, hi + 1)
            for rid in self.rows_by_a[code]
            if b[rid] not in skip
        ]
        rids.sort()
        return rids

    def expected(self, op: str, lo: int, hi: int, excluded):
        rids = self.matching(lo, hi, excluded)
        if op == "select":
            return digest(rids)
        if op == "count":
            return len(rids)
        return dict(Counter(self.b[rid] for rid in rids))


def scan_round(rng: random.Random) -> list[tuple]:
    """One shuffled round of ``scan-cold`` requests.

    Per round: a ``select`` and a ``count`` for each of the 16
    (width, stratum) cells, plus a ``count_by(b)`` on the four diagonal
    cells — 36 requests, 44/44/11%.  Each request is
    ``(op, lo, hi, excluded, cell)``.
    """
    requests = [
        (op, lo, hi, shuffled(excluded, rng), cell)
        for op, lo, hi, excluded, cell in _SCAN_REQUESTS
    ]
    rng.shuffle(requests)
    return requests


def _scan_requests() -> list[tuple]:
    fixed = random.Random("scan-sets")
    requests = []
    for w in WIDTHS:
        for s, lo in enumerate(STRATA_LO):
            for op in ("select", "count"):
                requests.append((op, lo, lo + w, excluded_set(fixed), (w, s)))
    for s, w in enumerate(WIDTHS):
        lo = STRATA_LO[s]
        requests.append(("count_by", lo, lo + w, excluded_set(fixed), (w, s)))
    return requests


_SCAN_REQUESTS = _scan_requests()


#: The ``serve-hot`` predicate pool: 100 (op, lo, hi, excluded) entries
#: laid out without the seed; the seed only orders each ``In``.
POOL_SIZE = 100
#: Per ``serve-hot`` round: reads by exact Zipf(1.0) over pool ranks,
#: plus appended rows (5% of requests).
HOT_READS = 380
HOT_WRITES = 20


def pool_shapes() -> list[tuple[str, int, int, tuple[int, int]]]:
    shapes = []
    for i in range(POOL_SIZE):
        op = "count_by" if i % 10 == 9 else ("select", "count")[i % 2]
        w = WIDTHS[i % len(WIDTHS)]
        s = (i // len(WIDTHS)) % len(STRATA_LO)
        lo = min(STRATA_LO[s] + (i * 7) % 48, SIGMA_A - 1 - w)
        shapes.append((op, lo, lo + w, (w, s)))
    return shapes


def hot_pool(seed: int) -> list[tuple]:
    fixed, rng = random.Random("pool-sets"), random.Random(f"pool-{seed}")
    return [
        (op, lo, hi, shuffled(excluded_set(fixed), rng), cell)
        for op, lo, hi, cell in pool_shapes()
    ]


def hot_appends(data: TwoColumnData) -> list[tuple[int, int]]:
    """The round's appended ``(a, b)`` rows: Zipf quantiles of ``a``."""
    ordered = sorted(data.a)
    return [
        (ordered[(2 * j + 1) * data.n // (2 * HOT_WRITES)], j % SIGMA_B)
        for j in range(HOT_WRITES)
    ]


def hot_round(rng: random.Random, rows: list) -> list[tuple]:
    """One shuffled ``serve-hot`` round: pool indices and append rows.

    The round's reads are dealt into one fixed window per append, so
    every window holds the same multiset of reads whatever the seed;
    the seed orders the windows, the reads inside each window, and the
    rows.  Cache misses after each append then repeat across seeds.
    Items are ``("read", pool_index)`` or ``("write", (a, b))``.
    """
    counts = exact_counts(
        [1.0 / (r + 1) for r in range(POOL_SIZE)], HOT_READS
    )
    reads = [i for i, c in enumerate(counts) for _ in range(c)]
    windows = [reads[w::HOT_WRITES] for w in range(HOT_WRITES)]
    rows = list(rows)
    rng.shuffle(windows)
    rng.shuffle(rows)
    items = []
    for window, row in zip(windows, rows):
        rng.shuffle(window)
        items += [("read", i) for i in window]
        items.append(("write", row))
    return items


class HotOracle:
    """Expected ``serve-hot`` answers at any append count.

    Appends only add RIDs at the end, so the answer after ``k`` appends
    is the base answer plus the matching appended rows among the first
    ``k``.
    """

    def __init__(self, data: TwoColumnData, pool: list) -> None:
        self.data = data
        self.pool = pool
        self.base = [
            data.matching(lo, hi, excluded) for _, lo, hi, excluded, _ in pool
        ]
        self.appended: list[tuple[int, int]] = []

    def expected(self, index: int, k: int):
        op, lo, hi, excluded, _ = self.pool[index]
        extra = [
            (self.data.n + j, b)
            for j, (a, b) in enumerate(self.appended[:k])
            if lo <= a <= hi and b not in excluded
        ]
        rids = self.base[index] + [rid for rid, _ in extra]
        if op == "select":
            return digest(rids)
        if op == "count":
            return len(rids)
        counts = Counter(self.data.b[rid] for rid in self.base[index])
        counts.update(b for _, b in extra)
        return dict(counts)


class IngestSchedule:
    """``ingest-durable``: a tracked mirror of one ``fully_dynamic`` column.

    40k rows exact uniform over σ=64, shard size 4000.  Each round is
    2500 requests: 750 appends, 375 changes, 125 deletes, 1000 narrow
    ``count`` s and 250 single-code ``select`` s.  1250 writes a round
    keep round ends away from the 1000-mutation checkpoint period.
    Changes aim at live RIDs; deletes aim at live RIDs of the shards
    that receive no appends, whose position space never compacts or
    splits during a run (a compaction would renumber RIDs under the
    mirror).  Every read carries the mirror's answer at its point in the
    schedule, with the live row count its information bound needs.
    """

    APPENDS, CHANGES, DELETES, COUNTS, SELECTS = 750, 375, 125, 1000, 250
    COUNT_WIDTHS = (0, 1, 3)

    def __init__(self, seed: int, rows: int, shard_rows: int) -> None:
        self.rng = random.Random(f"ingest-{seed}")
        self.shard_rows = shard_rows
        self.codes: list[int | None] = column_from_counts(
            exact_counts([1.0] * SIGMA_V, rows), self.rng, rows // shard_rows
        )
        self.initial = list(self.codes)
        self.histogram = Counter(self.codes)
        #: Deletes stay below this RID: the initial shards except the
        #: last, which absorbs appends and splits.
        self.delete_limit = rows - shard_rows

    def _live(self, limit: int) -> int:
        while True:
            rid = self.rng.randrange(limit)
            if self.codes[rid] is not None:
                return rid

    def round(self) -> list[tuple]:
        rng = self.rng
        kinds = (
            ["append"] * self.APPENDS + ["change"] * self.CHANGES
            + ["delete"] * self.DELETES + ["count"] * self.COUNTS
            + ["select"] * self.SELECTS
        )
        rng.shuffle(kinds)
        values = {
            "append": [j % SIGMA_V for j in range(self.APPENDS)],
            "change": [j % SIGMA_V for j in range(self.CHANGES)],
        }
        for vals in values.values():
            rng.shuffle(vals)
        count_cells = [
            (w, lo)
            for j in range(self.COUNTS)
            for w in [self.COUNT_WIDTHS[j % 3]]
            for lo in [(j * 13) % (SIGMA_V - w)]
        ]
        select_codes = [(j * 5) % SIGMA_V for j in range(self.SELECTS)]
        rng.shuffle(count_cells)
        rng.shuffle(select_codes)
        out = []
        for kind in kinds:
            if kind == "append":
                code = values["append"].pop()
                self.codes.append(code)
                self.histogram[code] += 1
                out.append(("append", code))
            elif kind == "change":
                rid = self._live(len(self.codes))
                code = values["change"].pop()
                self.histogram[self.codes[rid]] -= 1
                self.histogram[code] += 1
                self.codes[rid] = code
                out.append(("change", rid, code))
            elif kind == "delete":
                rid = self._live(self.delete_limit)
                self.histogram[self.codes[rid]] -= 1
                self.codes[rid] = None
                out.append(("delete", rid))
            elif kind == "count":
                w, lo = count_cells.pop()
                hi = lo + w
                expected = sum(self.histogram[c] for c in range(lo, hi + 1))
                out.append(("count", lo, hi, expected, self.live_rows()))
            else:
                code = select_codes.pop()
                out.append((
                    "select", code, code, digest(self.rids_of(code)),
                    self.live_rows(),
                ))
        return out

    def tail(self, count: int) -> list[int]:
        """Codes of ``count`` appends after the timed phases."""
        codes = [j % SIGMA_V for j in range(count)]
        for code in codes:
            self.codes.append(code)
            self.histogram[code] += 1
        return codes

    def rids_of(self, code: int) -> list[int]:
        return [rid for rid, c in enumerate(self.codes) if c == code]

    def live_rows(self) -> int:
        return sum(self.histogram.values())
