"""Compiling predicates into executable plans, and executing them.

A :class:`Plan` is the compiled form of a normalized predicate: a
table of *unique* leaf intervals (the DAG's shared nodes — a leaf
appearing under several disjuncts is fetched once and its cache entry
shared) plus an operator tree over leaf indices.  The planner is
engine-agnostic: the single-process :class:`~repro.engine.engine.\
QueryEngine` and the sharded :class:`~repro.cluster.engine.\
ClusterEngine` compile through the same functions and execute the
same plan object, so the two serving layers can never diverge on
predicate semantics.

Execution comes in two forms:

* :func:`evaluate` — materialized: every unique leaf is fetched
  (deterministically, in leaf-table order — identical I/O under every
  executor), then the tree folds bottom-up with the complement-aware
  set algebra of :mod:`repro.bits.ops`.  A ``Not`` is a flag flip on
  the child's §2.1 representation — the paper's complement-threshold
  answers are *reused*, never materialized — and mixed operands
  rewrite into differences of the stored (small) lists.
* :func:`evaluate_iter` — streaming: the tree compiles into a lazy
  iterator pipeline (:mod:`.stream`) over per-leaf position
  iterators; ``And`` runs the k-way merge-intersect, ``Or`` the k-way
  merge-union, and an ``And`` with negated children subtracts their
  merged stream without ever buffering a complement.

:class:`PlanReport` is the typed, JSON-serializable answer of
``plan()``/``explain()``: the operator tree with one
:class:`LeafPlan` per unique leaf — backend verdict, predicted bits,
cache state, and (under a cluster) the per-shard fan-out.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..bits.ops import (
    count_aware,
    intersect_aware,
    intersect_aware_count,
    union_aware,
    union_aware_count,
)
from ..core.interface import RangeResult
from ..errors import QueryError
from . import stream
from .predicates import (
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    Pred,
    Range,
    columns_of,
    normalize,
)

#: Operator-tree node tags (the tree is plain nested tuples, so a
#: compiled plan is picklable and trivially JSON-convertible).
LEAF = "leaf"
NOT = "not"
AND = "and"
OR = "or"
ALL = "all"
EMPTY = "empty"


@dataclass(frozen=True)
class Plan:
    """One compiled predicate: unique leaves + an operator tree.

    ``leaves`` holds every distinct ``(column, char_lo, char_hi)``
    interval the plan reads, sorted — the backend ``range_query``
    calls of the DAG.  ``root`` is the operator tree: ``("leaf", i)``,
    ``("not", child)``, ``("and", (children...))``,
    ``("or", (children...))``, ``("all",)`` or ``("empty",)``.
    ``columns`` records every column the *original* predicate
    mentioned (simplification may have dropped some), which is what
    execution validates universes against.
    """

    normalized: Pred
    leaves: tuple[tuple[str, int, int], ...]
    root: tuple
    columns: tuple[str, ...]

    @property
    def is_trivial(self) -> bool:
        """True when no index bits are needed (TRUE/FALSE predicates)."""
        return not self.leaves

    @property
    def needs_universe(self) -> bool:
        """True when execution must know the exact row universe.

        ``Not`` and ``TRUE`` answer with complements *of the universe*;
        plans without them are pure positive set algebra, which
        tolerates columns whose position spaces have drifted apart
        under engine-level single-column updates.
        """
        return _needs_universe(self.root)

    def fingerprint(
        self, epoch_of: "Callable[[str], object] | None" = None
    ) -> str:
        """A stable content hash of the compiled plan.

        ``compile_pred`` canonicalizes (normalized tree, sorted leaf
        table, renumbered operator tree), so equivalent predicates
        compile to identical plans and collide here, while any
        difference in leaves, operator structure, or referenced
        columns changes the hash.  ``epoch_of(column)`` mixes each
        column's dictionary epoch into the key so it cannot survive a
        drop/re-add of a column it touches.  Pairs with
        :meth:`repro.query.Pred.fingerprint` as a coalescing or
        result-cache key.
        """
        if epoch_of is not None:
            scope: tuple = tuple((c, str(epoch_of(c))) for c in self.columns)
        else:
            scope = self.columns
        payload = repr(("plan", scope, self.leaves, self.root))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def _needs_universe(node: tuple) -> bool:
    tag = node[0]
    if tag in (NOT, ALL):
        return True
    if tag in (AND, OR):
        return any(_needs_universe(c) for c in node[1])
    return False


def _renumber(node: tuple, remap: dict[int, int]) -> tuple:
    """The operator tree with every leaf index mapped through ``remap``."""
    tag = node[0]
    if tag == LEAF:
        return (LEAF, remap[node[1]])
    if tag == NOT:
        return (NOT, _renumber(node[1], remap))
    if tag in (AND, OR):
        return (tag, tuple(_renumber(c, remap) for c in node[1]))
    return node


def resolve_universe(plan: Plan, n_of: Callable[[str], int]) -> int:
    """The row universe a plan executes against.

    All referenced columns agreeing is the normal case.  Columns that
    have drifted apart (engine-level single-column updates) still
    serve pure positive plans — the answer universe is the widest
    column — but complement semantics (``Not``, ``TRUE``) are
    undefined over misaligned position spaces and are rejected.
    """
    universes = {n_of(col) for col in plan.columns}
    if not universes:
        raise QueryError(
            "predicate references no column; there is no row universe "
            "to answer against"
        )
    if len(universes) == 1:
        return universes.pop()
    if plan.needs_universe:
        raise QueryError(
            f"columns {list(plan.columns)} disagree on row count "
            f"{sorted(universes)}; Not/TRUE need aligned columns"
        )
    return max(universes)


def _compile_node(node: Pred, leaf_id: Callable[[Range], int]) -> tuple:
    if node is TRUE:
        return (ALL,)
    if node is FALSE:
        return (EMPTY,)
    if isinstance(node, Range):
        return (LEAF, leaf_id(node))
    if isinstance(node, Not):
        return (NOT, _compile_node(node.part, leaf_id))
    if isinstance(node, And):
        return (AND, tuple(_compile_node(p, leaf_id) for p in node.parts))
    if isinstance(node, Or):
        return (OR, tuple(_compile_node(p, leaf_id) for p in node.parts))
    raise QueryError(f"unexpected normalized node {type(node).__name__}")


def compile_pred(pred: Pred, sigma_of: Callable[[str], int]) -> Plan:
    """Normalize and compile a code-space predicate into a :class:`Plan`."""
    if not isinstance(pred, Pred):
        raise QueryError(
            f"expected a predicate, got {type(pred).__name__}; build one "
            "from repro.query (Range/Eq/In/And/Or/Not)"
        )
    columns = tuple(sorted(columns_of(pred)))
    normalized = normalize(pred, sigma_of)
    leaf_index: dict[tuple[str, int, int], int] = {}

    def leaf_id(leaf: Range) -> int:
        key = (leaf.column, leaf.lo, leaf.hi)
        if key not in leaf_index:
            leaf_index[key] = len(leaf_index)
        return leaf_index[key]

    root = _compile_node(normalized, leaf_id)
    # Renumber leaves into sorted order so execution's fetch sequence
    # (and therefore its I/O) is canonical for equivalent predicates.
    ordered = sorted(leaf_index)
    remap = {leaf_index[key]: i for i, key in enumerate(ordered)}
    return Plan(
        normalized=normalized,
        leaves=tuple(ordered),
        root=_renumber(root, remap),
        columns=columns,
    )


# ----------------------------------------------------------------------
# Materialized execution (complement-aware set algebra)
# ----------------------------------------------------------------------


def align_leaf(
    result: RangeResult, universe: int, needs_universe: bool
) -> tuple[list[int], bool]:
    """Validate one leaf answer against the plan universe, symmetrically.

    A leaf universe *larger* than the plan's is always corruption.  A
    *smaller* one is legitimate only for pure positive plans (drifted
    columns, ``resolve_universe`` picked the max): the positions are
    re-anchored by expanding a complement representation — a §2.1
    complement is relative to its own column's universe — and plain
    positions pass through unchanged because they are already global.
    Under ``needs_universe`` (``Not``/``TRUE`` in the tree) any
    mismatch is rejected; complements of a smaller universe must never
    silently flow into algebra over the plan universe.
    """
    if result.universe > universe:
        raise QueryError(
            f"leaf universe {result.universe} exceeds the plan "
            f"universe {universe}; columns are out of alignment"
        )
    if result.universe != universe:
        if needs_universe:
            raise QueryError(
                f"leaf universe {result.universe} != plan universe "
                f"{universe}; Not/TRUE need aligned columns"
            )
        if result.complemented:
            return result.positions(), False
    return result.stored_positions(), result.complemented


def _subtree_leaves(node: tuple, out: set[int]) -> None:
    tag = node[0]
    if tag == LEAF:
        out.add(node[1])
    elif tag == NOT:
        _subtree_leaves(node[1], out)
    elif tag in (AND, OR):
        for child in node[1]:
            _subtree_leaves(child, out)


def order_children(
    children: tuple, leaf_costs: Sequence[float] | None
) -> tuple:
    """Order sibling subtrees by predicted fetch cost, cheapest first.

    ``leaf_costs[i]`` is the advisor's predicted bits for
    ``plan.leaves[i]`` (zero when cached); a subtree costs the sum
    over its distinct leaves.  The sort is stable, so equal-cost
    siblings keep the canonical leaf-table order and the demanded-leaf
    sequence stays deterministic.  With no cost vector the canonical
    order is returned untouched.
    """
    if leaf_costs is None or len(children) < 2:
        return children

    def cost(node: tuple) -> float:
        seen: set[int] = set()
        _subtree_leaves(node, seen)
        return sum(leaf_costs[i] for i in seen)

    return tuple(sorted(children, key=cost))


def evaluate(
    plan: Plan,
    leaf_results: Sequence[RangeResult],
    universe: int,
) -> RangeResult:
    """Fold one fetched plan into its answer.

    ``leaf_results[i]`` is the :class:`RangeResult` of
    ``plan.leaves[i]`` — fetched by whatever serves the plan (engine
    LRU, cluster scatter, bare indexes).  The fold works on
    ``(stored, complemented)`` pairs, so a complement-represented
    majority answer flows through ``Not``/``And``/``Or`` without ever
    being expanded; only the final :class:`RangeResult` (itself
    possibly complemented) is produced.
    """
    if len(leaf_results) != len(plan.leaves):
        raise QueryError(
            f"plan has {len(plan.leaves)} leaves, got "
            f"{len(leaf_results)} results"
        )
    needs_universe = plan.needs_universe
    aligned = [
        align_leaf(result, universe, needs_universe)
        for result in leaf_results
    ]
    stored, comp = _fold(plan.root, aligned.__getitem__, None)
    return RangeResult(stored, universe, complemented=comp)


def evaluate_fetch(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> RangeResult:
    """:func:`evaluate` with lazy, memoized, short-circuiting fetches.

    Leaves are fetched on demand as the fold reaches them (each unique
    leaf at most once — the DAG's sharing): an ``And`` that goes empty
    skips its remaining children's fetches entirely (the §1
    empty-dimension short-circuit, generalized), and an ``Or`` that
    reaches the full universe stops likewise.  With ``leaf_costs``
    (the advisor's predicted bits per leaf, zero when cached), ``And``
    legs run cheapest-first so a cheap selective leg can empty the
    conjunction before the expensive legs are ever fetched.  The
    demanded-leaf sequence is a deterministic function of the
    canonical plan, the cost vector, and the data.  Single-process
    serving uses this; the cluster prefers :func:`evaluate` over a
    prefetched batch, trading the short-circuit for overlapped,
    per-shard-batched scatter I/O that is identical under every
    executor.
    """
    memo: dict[int, tuple[list[int], bool]] = {}
    needs_universe = plan.needs_universe

    def leaf(index: int) -> tuple[list[int], bool]:
        if index not in memo:
            memo[index] = align_leaf(
                fetch(*plan.leaves[index]), universe, needs_universe
            )
        return memo[index]

    stored, comp = _fold(plan.root, leaf, leaf_costs)
    return RangeResult(stored, universe, complemented=comp)


def _fold(
    node: tuple,
    leaf: Callable[[int], tuple[list[int], bool]],
    leaf_costs: Sequence[float] | None,
) -> tuple[list[int], bool]:
    """Fold one subtree into a complement-aware ``(stored, comp)`` pair.

    ``leaf(i)`` supplies leaf ``i``'s aligned pair.  An ``And`` that
    goes empty and an ``Or`` that reaches the full universe skip their
    remaining children (no fetch, no set operation); ``And`` legs run
    cheapest-first under ``leaf_costs``.  A module-level recursion, not
    a closure over itself: a self-referencing closure is a reference
    cycle that would keep every leaf list alive until the next cyclic
    garbage collection.
    """
    tag = node[0]
    if tag == ALL:
        return [], True
    if tag == EMPTY:
        return [], False
    if tag == LEAF:
        return leaf(node[1])
    if tag == NOT:
        stored, comp = _fold(node[1], leaf, leaf_costs)
        return stored, not comp
    if tag == AND:
        children = order_children(node[1], leaf_costs)
        stored, comp = _fold(children[0], leaf, leaf_costs)
        for child in children[1:]:
            if not stored and not comp:  # empty: nothing can revive
                break
            c_stored, c_comp = _fold(child, leaf, leaf_costs)
            stored, comp = intersect_aware(stored, comp, c_stored, c_comp)
        return stored, comp
    if tag == OR:
        stored, comp = _fold(node[1][0], leaf, leaf_costs)
        for child in node[1][1:]:
            if not stored and comp:  # full: nothing can add
                break
            c_stored, c_comp = _fold(child, leaf, leaf_costs)
            stored, comp = union_aware(stored, comp, c_stored, c_comp)
        return stored, comp
    raise QueryError(f"unknown plan node {tag!r}")


# ----------------------------------------------------------------------
# Cardinality-space execution (aggregates)
# ----------------------------------------------------------------------


def _is_full(stored: list[int], comp: bool, universe: int) -> bool:
    """Does this aware pair denote all of ``[0, universe)``?

    Two shapes mean "full": a complemented empty list, and — unlike the
    select path, which only recognizes the first — a *plain* list that
    has reached ``universe`` elements (positions are strictly
    increasing in ``[0, universe)``, so length is membership-complete).
    Counting folds check both, which is what lets a wide positive
    disjunction stop fetching the moment its union saturates.
    """
    return (not stored and comp) or (not comp and len(stored) == universe)


class _CardinalityFold:
    """Shared machinery of the counting executors.

    Folds interior subtrees with the aware *set* algebra (intermediates
    genuinely need elements) but combines at counting boundaries with
    the cardinality twins of :mod:`repro.bits.ops`, so the root-level
    result list — the one ``evaluate`` would hand back — is never
    built.  ``Not`` stays a flag flip (count = ``universe - child``),
    and the same lazy memoized fetch + ``And`` cost ordering as
    :func:`evaluate_fetch` applies, plus the stronger
    :func:`_is_full` saturation check on ``Or``.
    """

    def __init__(
        self,
        plan: Plan,
        fetch: Callable[[str, int, int], RangeResult],
        universe: int,
        leaf_costs: Sequence[float] | None,
    ) -> None:
        self.plan = plan
        self.fetch = fetch
        self.universe = universe
        self.leaf_costs = leaf_costs
        self.needs_universe = plan.needs_universe
        self.memo: dict[int, tuple[list[int], bool]] = {}

    def leaf(self, index: int) -> tuple[list[int], bool]:
        if index not in self.memo:
            self.memo[index] = align_leaf(
                self.fetch(*self.plan.leaves[index]),
                self.universe,
                self.needs_universe,
            )
        return self.memo[index]

    def fold(self, node: tuple) -> tuple[list[int], bool]:
        """Materialize one subtree as an aware pair (with saturation)."""
        tag = node[0]
        if tag == ALL:
            return [], True
        if tag == EMPTY:
            return [], False
        if tag == LEAF:
            return self.leaf(node[1])
        if tag == NOT:
            stored, comp = self.fold(node[1])
            return stored, not comp
        if tag == AND:
            children = order_children(node[1], self.leaf_costs)
            stored, comp = self.fold(children[0])
            for child in children[1:]:
                if not stored and not comp:
                    break
                c_stored, c_comp = self.fold(child)
                stored, comp = intersect_aware(
                    stored, comp, c_stored, c_comp
                )
            return stored, comp
        if tag == OR:
            stored, comp = self.fold(node[1][0])
            for child in node[1][1:]:
                if _is_full(stored, comp, self.universe):
                    break
                c_stored, c_comp = self.fold(child)
                stored, comp = union_aware(stored, comp, c_stored, c_comp)
            return stored, comp
        raise QueryError(f"unknown plan node {tag!r}")

    def count(self, node: tuple) -> int:
        """Cardinality of one subtree without building its answer list."""
        universe = self.universe
        tag = node[0]
        if tag == ALL:
            return universe
        if tag == EMPTY:
            return 0
        if tag == LEAF:
            stored, comp = self.leaf(node[1])
            return count_aware(stored, comp, universe)
        if tag == NOT:
            return universe - self.count(node[1])
        if tag == AND:
            children = order_children(node[1], self.leaf_costs)
            stored, comp = self.fold(children[0])
            for child in children[1:-1]:
                if not stored and not comp:
                    return 0
                c_stored, c_comp = self.fold(child)
                stored, comp = intersect_aware(
                    stored, comp, c_stored, c_comp
                )
            if not stored and not comp:
                return 0
            c_stored, c_comp = self.fold(children[-1])
            return intersect_aware_count(
                stored, comp, c_stored, c_comp, universe
            )
        if tag == OR:
            children = node[1]
            stored, comp = self.fold(children[0])
            for child in children[1:-1]:
                if _is_full(stored, comp, universe):
                    return universe
                c_stored, c_comp = self.fold(child)
                stored, comp = union_aware(stored, comp, c_stored, c_comp)
            if _is_full(stored, comp, universe):
                return universe
            c_stored, c_comp = self.fold(children[-1])
            return union_aware_count(
                stored, comp, c_stored, c_comp, universe
            )
        raise QueryError(f"unknown plan node {tag!r}")

    def exists(self, node: tuple) -> bool:
        """Is the subtree non-empty, probing as few leaves as possible?

        ``Or`` recurses child-by-child — cheapest predicted subtree
        first — and stops at the first non-empty fold; everything else
        asks the counting fold (which carries its own short-circuits).
        """
        tag = node[0]
        if tag == ALL:
            return self.universe > 0
        if tag == EMPTY:
            return False
        if tag == OR:
            for child in order_children(node[1], self.leaf_costs):
                if self.exists(child):
                    return True
            return False
        return self.count(node) > 0


def evaluate_count(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> int:
    """Cardinality of a plan's answer, folded in counting space.

    Same fetch contract and short-circuits as :func:`evaluate_fetch`
    (plus :func:`_is_full` saturation on ``Or``), but the root-level
    combination uses the counting twins of the aware algebra, so the
    global answer list is never materialized.
    """
    return _CardinalityFold(plan, fetch, universe, leaf_costs).count(
        plan.root
    )


def evaluate_exists(
    plan: Plan,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    leaf_costs: Sequence[float] | None = None,
) -> bool:
    """Does the plan match at least one row?

    A top-level (or nested) ``Or`` stops at the first non-empty child
    fold — cost-ordered, so the cheapest disjunct is probed first —
    and other shapes reduce to ``count > 0`` with counting-fold
    short-circuits.
    """
    return _CardinalityFold(plan, fetch, universe, leaf_costs).exists(
        plan.root
    )


def evaluate_count_by(
    plan: Plan | None,
    fetch: Callable[[str, int, int], RangeResult],
    universe: int,
    group_codes: Sequence[int],
    group_fetch: Callable[[int], RangeResult],
    leaf_costs: Sequence[float] | None = None,
) -> dict[int, int]:
    """Per-group-code cardinalities of ``pred AND group == code``.

    The predicate folds *once* into an aware pair; each group code
    then costs one ``group_fetch(code)`` (the group column's
    equality leaf) plus a counting intersection — no per-group result
    lists, no re-evaluation of the predicate.  ``plan=None`` means no
    predicate (count every row by group).  Codes whose intersection is
    empty are omitted; an unsatisfiable predicate returns ``{}``
    without touching the group column at all.
    """
    if plan is None:
        stored: list[int] = []
        comp = True
    else:
        folder = _CardinalityFold(plan, fetch, universe, leaf_costs)
        stored, comp = folder.fold(plan.root)
        if not stored and not comp:
            return {}
    out: dict[int, int] = {}
    for code in group_codes:
        g_stored, g_comp = align_leaf(
            group_fetch(code), universe, needs_universe=False
        )
        n = intersect_aware_count(stored, comp, g_stored, g_comp, universe)
        if n:
            out[code] = n
    return out


def specialize(
    plan: Plan,
    translate: Callable[[str, int, int], tuple[int, int] | None],
) -> tuple[tuple[tuple[str, int, int], ...], tuple]:
    """Rewrite a compiled plan's leaves through a shard translator.

    ``translate(column, lo, hi)`` maps a global code interval onto one
    shard's local alphabet, or returns ``None`` when the shard holds
    nothing in the interval (pruned).  Pruned leaves become ``EMPTY``
    and the tree constant-folds — ``Not(EMPTY)`` is ``ALL``, an
    ``And`` with an ``EMPTY`` child collapses, an ``Or`` with an
    ``ALL`` child saturates — so a shard the predicate cannot touch
    reduces to an ``EMPTY`` root (skippable with no round trip) and a
    shard a complement fully covers reduces to ``ALL`` (answerable
    from the shard's row count alone).  Surviving leaves are compacted
    and renumbered; returns ``(leaves, root)`` as the plain picklable
    tuples a worker rebuilds a shard-local :class:`Plan` from.
    """
    local: list[tuple[str, int, int] | None] = []
    for col, lo, hi in plan.leaves:
        translated = translate(col, lo, hi)
        local.append(
            None if translated is None else (col, *translated)
        )

    root = _prune(plan.root, local)
    used: set[int] = set()
    _subtree_leaves(root, used)
    ordered = sorted(used)
    remap = {old: new for new, old in enumerate(ordered)}
    return tuple(local[old] for old in ordered), _renumber(root, remap)


def _prune(node: tuple, local: Sequence) -> tuple:
    """Constant-fold the tree once leaves with ``local[i] is None`` are
    ``EMPTY`` (see :func:`specialize`)."""
    tag = node[0]
    if tag == LEAF:
        return (EMPTY,) if local[node[1]] is None else node
    if tag == NOT:
        child = _prune(node[1], local)
        if child[0] == EMPTY:
            return (ALL,)
        if child[0] == ALL:
            return (EMPTY,)
        return (NOT, child)
    if tag in (AND, OR):
        absorb, identity = (EMPTY, ALL) if tag == AND else (ALL, EMPTY)
        children = []
        for part in node[1]:
            folded = _prune(part, local)
            if folded[0] == absorb:
                return (absorb,)
            if folded[0] == identity:
                continue
            children.append(folded)
        if not children:
            return (identity,)
        if len(children) == 1:
            return children[0]
        return (tag, tuple(children))
    return node


# ----------------------------------------------------------------------
# Streaming execution
# ----------------------------------------------------------------------


def evaluate_iter(
    plan: Plan,
    leaf_iter: Callable[[str, int, int], object],
    universe: int,
):
    """The streaming form of :func:`evaluate`.

    ``leaf_iter(column, lo, hi)`` returns a sorted position iterator
    for one leaf (e.g. ``QueryEngine.query_iter`` or the cluster's
    prefetching gather).  The operator tree becomes a pipeline of the
    combinators in :mod:`.stream`: positions are emitted one at a
    time, and an ``And`` whose positive side runs dry ends the whole
    select early.  Only a ``Not`` with no positive sibling walks the
    universe (that answer *is* O(universe) long).
    """

    return _build_iter(plan.root, plan, leaf_iter, universe)


def _build_iter(node: tuple, plan: Plan, leaf_iter, universe: int):
    """One subtree of :func:`evaluate_iter` as a lazy iterator."""
    tag = node[0]
    if tag == ALL:
        return iter(range(universe))
    if tag == EMPTY:
        return iter(())
    if tag == LEAF:
        col, lo, hi = plan.leaves[node[1]]
        return leaf_iter(col, lo, hi)

    def build(child: tuple):
        return _build_iter(child, plan, leaf_iter, universe)

    if tag == NOT:
        return stream.complement_iter(build(node[1]), universe)
    if tag == OR:
        return stream.union_iters([build(c) for c in node[1]])
    if tag == AND:
        positive = [c for c in node[1] if c[0] != NOT]
        negated = [c[1] for c in node[1] if c[0] == NOT]
        if not positive:
            return stream.complement_iter(
                stream.union_iters([build(c) for c in negated]),
                universe,
            )
        base = stream.intersect_iters([build(c) for c in positive])
        if negated:
            return stream.difference_iter(
                base, stream.union_iters([build(c) for c in negated])
            )
        return base
    raise QueryError(f"unknown plan node {tag!r}")


# ----------------------------------------------------------------------
# The typed plan report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardLeafPlan:
    """One shard's share of a leaf fetch (cluster fan-out entry)."""

    shard_id: int
    pruned: bool
    backend: str | None = None
    family: str | None = None
    estimated_cost_bits: float = 0.0
    cached: bool = False

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "pruned": self.pruned,
            "backend": self.backend,
            "family": self.family,
            "estimated_cost_bits": self.estimated_cost_bits,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardLeafPlan":
        return cls(
            shard_id=data["shard_id"],
            pruned=data["pruned"],
            backend=data.get("backend"),
            family=data.get("family"),
            estimated_cost_bits=data.get("estimated_cost_bits", 0.0),
            cached=data.get("cached", False),
        )


@dataclass(frozen=True)
class LeafPlan:
    """How one unique leaf interval will be served.

    Single-engine plans fill the backend verdict directly; cluster
    plans additionally carry the per-shard fan-out in ``shards`` (the
    top-level fields then aggregate: summed predicted bits, ``cached``
    iff every non-pruned shard is cached in the shared tier).
    """

    column: str
    char_lo: int
    char_hi: int
    backend: str | None
    family: str | None
    estimated_cost_bits: float
    cached: bool
    shards: tuple[ShardLeafPlan, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "column": self.column,
            "char_lo": self.char_lo,
            "char_hi": self.char_hi,
            "backend": self.backend,
            "family": self.family,
            "estimated_cost_bits": self.estimated_cost_bits,
            "cached": self.cached,
        }
        if self.shards is not None:
            out["shards"] = [s.to_dict() for s in self.shards]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LeafPlan":
        shards = data.get("shards")
        return cls(
            column=data["column"],
            char_lo=data["char_lo"],
            char_hi=data["char_hi"],
            backend=data.get("backend"),
            family=data.get("family"),
            estimated_cost_bits=data.get("estimated_cost_bits", 0.0),
            cached=data.get("cached", False),
            shards=(
                None
                if shards is None
                else tuple(ShardLeafPlan.from_dict(s) for s in shards)
            ),
        )

    def describe(self) -> str:
        if self.backend is not None:
            where = f"{self.backend}"
        elif self.shards is not None:
            live = sum(1 for s in self.shards if not s.pruned)
            where = "all shards pruned" if not live else f"{live} shard(s)"
        else:
            where = "?"
        state = "cached" if self.cached else "cold"
        return (
            f"{self.column}[{self.char_lo}..{self.char_hi}] via {where} "
            f"({state}, est {self.estimated_cost_bits:,.0f} bits)"
        )


@dataclass(frozen=True)
class PlanReport:
    """The typed answer of ``plan(pred)`` / ``explain(pred)``.

    One object for both serving layers: ``kind`` says which produced
    it, ``root`` is the operator tree over ``leaves`` (leaf nodes
    reference leaf indices), and every field round-trips through
    :meth:`to_dict` into plain JSON types.  ``str(report)`` renders
    the human-readable tree.
    """

    kind: str  # "engine" | "cluster"
    predicate: str
    universe: int
    root: tuple
    leaves: tuple[LeafPlan, ...]
    num_shards: int | None = None
    estimated_total_bits: float = field(default=0.0)

    def to_dict(self) -> dict:
        def node_to_dict(node: tuple):
            tag = node[0]
            if tag == LEAF:
                return {"op": LEAF, "leaf": node[1]}
            if tag == NOT:
                return {"op": NOT, "child": node_to_dict(node[1])}
            if tag in (AND, OR):
                return {
                    "op": tag,
                    "children": [node_to_dict(c) for c in node[1]],
                }
            return {"op": tag}

        return {
            "kind": self.kind,
            "predicate": self.predicate,
            "universe": self.universe,
            "num_shards": self.num_shards,
            "estimated_total_bits": self.estimated_total_bits,
            "root": node_to_dict(self.root),
            "leaves": [leaf.to_dict() for leaf in self.leaves],
        }

    def to_json(self) -> dict:
        """Alias of :meth:`to_dict`, matching ``Snapshot``/``GatherStats``."""
        return self.to_dict()

    @classmethod
    def from_json(cls, data: dict) -> "PlanReport":
        """Rebuild a report (operator tuples included) from its dict."""

        def node_from_dict(node: dict) -> tuple:
            op = node["op"]
            if op == LEAF:
                return (LEAF, node["leaf"])
            if op == NOT:
                return (NOT, node_from_dict(node["child"]))
            if op in (AND, OR):
                return (
                    op,
                    tuple(node_from_dict(c) for c in node["children"]),
                )
            return (op,)

        return cls(
            kind=data["kind"],
            predicate=data["predicate"],
            universe=data["universe"],
            root=node_from_dict(data["root"]),
            leaves=tuple(
                LeafPlan.from_dict(leaf) for leaf in data["leaves"]
            ),
            num_shards=data.get("num_shards"),
            estimated_total_bits=data.get("estimated_total_bits", 0.0),
        )

    def describe(self) -> str:
        lines = [
            f"{self.kind} plan over universe {self.universe}"
            + (
                f" ({self.num_shards} shard(s))"
                if self.num_shards is not None
                else ""
            )
            + f": {self.predicate}"
        ]

        def render(node: tuple, depth: int) -> None:
            pad = "  " * (depth + 1)
            tag = node[0]
            if tag == LEAF:
                lines.append(pad + self.leaves[node[1]].describe())
            elif tag == NOT:
                lines.append(pad + "not")
                render(node[1], depth + 1)
            elif tag in (AND, OR):
                lines.append(pad + tag)
                for child in node[1]:
                    render(child, depth + 1)
            elif tag == ALL:
                lines.append(pad + "all rows (no index bits)")
            else:
                lines.append(pad + "empty (no index bits)")

        render(self.root, 0)
        lines.append(
            f"  total: {len(self.leaves)} unique leaf fetch(es), "
            f"est {self.estimated_total_bits:,.0f} bits"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
