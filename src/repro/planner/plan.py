"""Join planning: plan trees, equi-join extraction, ordering, and strategies.

The engine used to execute every multi-table query as a chain of cross
products followed by a residual filter.  This module turns the FROM list and
WHERE clause into a proper plan tree instead:

* equi-join conjuncts (``a.x = b.y``) are lifted out of the residual WHERE
  and become join keys;
* the FROM-list relations are ordered greedily by estimated cardinality
  (smallest first, then whichever joinable relation minimises the estimated
  intermediate result);
* each join edge picks a physical strategy — an index-nested-loop join when a
  secondary index covers the join key on the lookup side, hash join for other
  equi-joins, sort-merge join when the build side is too large for hashing
  (or when forced), and nested-loop for everything else;
* scans pick an access path: a point ``index_lookup`` when a secondary index
  covers equality conjuncts pushed to that table, a sequential scan otherwise;
* residual WHERE conjuncts are pushed to the *lowest* plan node whose schema
  covers their column references (``JoinPlan.filters``), instead of one
  filter above the whole join tree.

Explicit ``JOIN ... ON`` clauses keep their syntactic order (LEFT joins are
order-sensitive) but still get equi-key extraction and strategy selection.

The planner never touches rows: it consumes cardinality and NDV estimates
(duck-typed, normally a :class:`repro.catalog.statistics.StatisticsManager`)
plus an index listing (normally ``IndexManager.indexes_for``) and produces
:class:`ScanPlan` / :class:`JoinPlan` nodes that the executor walks.
``format_plan`` / ``plan_to_dict`` render the tree — including pushed
predicates and chosen access paths — for EXPLAIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.errors import PlanningError
from repro.planner.planner import (
    combine_conjuncts,
    equality_lookups,
    lookup_value,
    referenced_columns,
    split_conjuncts,
)
from repro.sql import ast
from repro.types.datatypes import value_category
from repro.types.values import compare_values

#: Valid values of ``EngineConfig.join_strategy``.
JOIN_STRATEGIES = ("auto", "hash", "merge", "nested_loop", "index_nested_loop")

#: Strategy names as they appear in plan dumps.
STRATEGY_LABELS = {
    "hash": "HashJoin",
    "merge": "MergeJoin",
    "nested_loop": "NestedLoopJoin",
    "index_nested_loop": "IndexNestedLoopJoin",
    "cross": "CrossJoin",
}


@dataclass
class ScanPlan:
    """Leaf: a base-table access (with pushed-down conjuncts already applied).

    ``access_path`` is ``"seq"`` for a full scan, ``"index_lookup"`` when a
    secondary index covers equality conjuncts pushed to this table, or
    ``"index_range"`` when a B-tree serves an inequality/BETWEEN range (or a
    full key-order traversal chosen to make an ORDER BY free).  For lookups,
    ``index_name`` / ``index_columns`` / ``index_key`` describe the probe;
    for ranges, ``range_low`` / ``range_high`` (with their inclusivity flags)
    describe the bounds — ``None`` meaning unbounded.  The full pushed
    conjunct list is always re-applied on top, so consuming a conjunct into
    the access path never loses a filter.  ``ordered`` records that the scan
    delivers rows in ascending index-key order *and* that no qualifying row
    is missing from the index (the NULL/NaN completeness proof), which is
    what entitles the engine to elide a matching ORDER BY sort.
    """

    table: str
    qualifier: str
    estimated_rows: float = 0.0
    pushed: List[ast.Expression] = field(default_factory=list)
    access_path: str = "seq"
    index_name: Optional[str] = None
    index_columns: Tuple[str, ...] = ()
    index_key: Any = None
    range_low: Any = None
    range_high: Any = None
    range_include_low: bool = True
    range_include_high: bool = True
    ordered: bool = False
    #: Direction of an ordered delivery: descending index-key order (reverse
    #: B-tree traversal) when true.  Only meaningful with ``ordered``.
    descending: bool = False


@dataclass
class ForeignScanPlan(ScanPlan):
    """Leaf: a scan of an attached foreign table via its provider.

    Subclasses :class:`ScanPlan` so every leaf-shape check, the residual
    attach point, and plan binding treat it like any other scan;
    ``access_path`` is the fixed string ``"foreign"``.  ``projected`` is the
    column subset the query needs (empty tuple = all columns) and is pushed
    to the provider together with ``pushed``; ``pushdown`` records whether
    the provider is expected to apply the filters at the source (EXPLAIN
    surface — the executor re-checks the full list either way).
    """

    provider: str = ""
    projected: Tuple[str, ...] = ()
    pushdown: bool = True


@dataclass
class JoinPlan:
    """Inner node: a physical join between two sub-plans."""

    strategy: str  # "hash" | "merge" | "nested_loop" | "index_nested_loop" | "cross"
    join_type: str  # "INNER" | "LEFT" | "CROSS"
    left: "PlanNode"
    right: "PlanNode"
    left_keys: List[ast.ColumnRef] = field(default_factory=list)
    right_keys: List[ast.ColumnRef] = field(default_factory=list)
    #: Condition evaluated at the join on top of the key equalities (the
    #: non-equi part of an ON clause, or the full condition for nested loop).
    condition: Optional[ast.Expression] = None
    #: Residual WHERE conjuncts pushed down to this node: evaluated on the
    #: join *output* (after any LEFT padding), the lowest point whose schema
    #: covers their column references.
    filters: List[ast.Expression] = field(default_factory=list)
    #: Secondary index probed per left row (index-nested-loop joins only).
    index_name: Optional[str] = None
    estimated_rows: float = 0.0
    #: Cost-model spill expectation (hash joins under a memory budget): the
    #: Grace-partition fan-out the executor should use when the estimated
    #: build side exceeds ``EngineConfig.memory_budget_rows``; ``None`` when
    #: the build is expected to fit in memory.  Set by
    #: :func:`annotate_spill_expectations`, rendered by EXPLAIN.
    spill_partitions: Optional[int] = None


PlanNode = Union[ScanPlan, JoinPlan]


@dataclass
class JoinEdge:
    """One equi-join conjunct connecting two relations of the FROM list."""

    left_qualifier: str
    left_column: ast.ColumnRef
    right_qualifier: str
    right_column: ast.ColumnRef
    conjunct: ast.Expression

    def connects(self, inside: Set[str], outside: str) -> bool:
        return ((self.left_qualifier in inside and self.right_qualifier == outside)
                or (self.right_qualifier in inside and self.left_qualifier == outside))

    def oriented(self, inside: Set[str]) -> Tuple[ast.ColumnRef, ast.ColumnRef]:
        """(inside-side key, outside-side key) for the current join frontier."""
        if self.left_qualifier in inside:
            return self.left_column, self.right_column
        return self.right_column, self.left_column


#: Estimates a planner needs: ``rows(qualifier)`` and ``ndv(qualifier, column)``.
RowEstimator = Callable[[str], float]
NdvEstimator = Callable[[str, str], float]
#: Maps (qualifier, column) to a coarse type category ("num", "text", "time"),
#: or ``None`` when unknown.  Hash/merge/index joins only apply when both key
#: columns share a category, because the engine's three-valued comparison
#: falls back to string forms (non-transitive) across categories.
TypeCategory = Callable[[str, str], Optional[str]]
#: Lists the secondary indexes of a base table.  Each descriptor exposes
#: ``name``, ``columns`` (tuple of column names) and ``method`` — duck-typed,
#: normally :class:`repro.index.manager.SecondaryIndex`.
ListIndexes = Callable[[str], Sequence[Any]]

#: Access-path tie-break: the paper's workhorse is the B-tree, so it wins
#: over the hash index when both cover the same columns.
_METHOD_PREFERENCE = {"btree": 0, "hash": 1}


def resolve_column(ref: ast.ColumnRef,
                   resolvable: Dict[str, Set[str]]) -> Optional[str]:
    """The unique qualifier ``ref`` resolves against, or ``None``."""
    if ref.table is not None:
        qualifier = ref.table.lower()
        columns = resolvable.get(qualifier)
        if columns is not None and ref.name.lower() in columns:
            return qualifier
        return None
    homes = [qualifier for qualifier, columns in resolvable.items()
             if ref.name.lower() in columns]
    return homes[0] if len(homes) == 1 else None


def extract_equi_edges(conjuncts: Sequence[ast.Expression],
                       resolvable: Dict[str, Set[str]],
                       eligible: Set[str],
                       type_category: Optional[TypeCategory] = None,
                       ) -> Tuple[List[JoinEdge], List[ast.Expression]]:
    """Partition conjuncts into equi-join edges and everything else.

    An edge requires both sides to be plain column references resolving to
    two *different* qualifiers within ``eligible``, with compatible type
    categories (see :data:`TypeCategory`).
    """
    edges: List[JoinEdge] = []
    rest: List[ast.Expression] = []
    for conjunct in conjuncts:
        edge = _as_edge(conjunct, resolvable, eligible, type_category)
        if edge is not None:
            edges.append(edge)
        else:
            rest.append(conjunct)
    return edges, rest


def _as_edge(conjunct: ast.Expression, resolvable: Dict[str, Set[str]],
             eligible: Set[str],
             type_category: Optional[TypeCategory]) -> Optional[JoinEdge]:
    if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ast.ColumnRef) or not isinstance(right, ast.ColumnRef):
        return None
    left_home = resolve_column(left, resolvable)
    right_home = resolve_column(right, resolvable)
    if left_home is None or right_home is None or left_home == right_home:
        return None
    if left_home not in eligible or right_home not in eligible:
        return None
    if type_category is not None:
        left_category = type_category(left_home, left.name)
        right_category = type_category(right_home, right.name)
        if left_category is None or right_category is None \
                or left_category != right_category:
            return None
    return JoinEdge(left_home, left, right_home, right, conjunct)


# ---------------------------------------------------------------------------
# Access-path selection
# ---------------------------------------------------------------------------
_LOOKUP_MISSING = object()


def _index_preference(index: Any) -> Tuple[int, int, str]:
    return (_METHOD_PREFERENCE.get(getattr(index, "method", ""), 9),
            len(index.columns), index.name)


def choose_index_lookup(table: str, qualifier: str,
                        pushed_conjuncts: Sequence[ast.Expression],
                        list_indexes: Optional[ListIndexes],
                        type_category: Optional[TypeCategory] = None,
                        ) -> Optional[Tuple[Any, Tuple[Any, ...]]]:
    """Pick a secondary index whose columns are all equality-bound.

    Returns ``(index descriptor, key values in index-column order)`` when the
    conjuncts pushed down to this table pin every column of some index to a
    literal of a compatible type category, or ``None``.
    """
    if list_indexes is None:
        return None
    lookups = equality_lookups(pushed_conjuncts)
    if not lookups:
        return None
    candidates: List[Tuple[Any, Tuple[Any, ...]]] = []
    for index in list_indexes(table):
        key_values: List[Any] = []
        for column in index.columns:
            value = lookup_value(lookups, column, qualifier, _LOOKUP_MISSING)
            if value is _LOOKUP_MISSING or value is None:
                break
            if isinstance(value, ast.Parameter):
                # The key value arrives at bind time.  The plan-time category
                # check moves to execution (the engine falls back to a
                # sequential scan when the bound value's category does not
                # match the column's); here it is enough that the column is
                # of an indexable category at all.
                if type_category is not None \
                        and type_category(qualifier, column) not in ("num", "text"):
                    break
                key_values.append(value)
                continue
            category = value_category(value)
            if category is None:
                break
            if type_category is not None:
                column_category = type_category(qualifier, column)
                if column_category is None or column_category != category:
                    break
            key_values.append(value)
        else:
            candidates.append((index, tuple(key_values)))
    if not candidates:
        return None
    candidates.sort(key=lambda pair: _index_preference(pair[0]))
    return candidates[0]


def covering_join_index(table: str, right_keys: Sequence[ast.ColumnRef],
                        list_indexes: Optional[ListIndexes]) -> Optional[Any]:
    """An index of ``table`` whose column set equals the join-key columns."""
    if list_indexes is None or not right_keys:
        return None
    wanted = [ref.name.lower() for ref in right_keys]
    if len(set(wanted)) != len(wanted):
        # The same right column appears in several equi-conjuncts: the probe
        # key arity would exceed the index key arity, so no index covers it.
        return None
    matches = [
        index for index in list_indexes(table)
        if len(index.columns) == len(wanted)
        and {column.lower() for column in index.columns} == set(wanted)
    ]
    if not matches:
        return None
    matches.sort(key=_index_preference)
    return matches[0]


@dataclass
class RangeBounds:
    """The tightest [low, high] window implied by pushed range conjuncts."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    @property
    def bounded(self) -> bool:
        return self.low is not None or self.high is not None

    def tighten_low(self, value: Any, inclusive: bool) -> None:
        if self.low is None:
            self.low, self.include_low = value, inclusive
            return
        if isinstance(value, ast.Parameter) \
                or isinstance(self.low, ast.Parameter):
            # A placeholder bound has no plan-time value to compare against;
            # keep the first bound and leave the other conjunct to the
            # residual re-check.
            return
        cmp = compare_values(value, self.low)
        if cmp is None:
            return
        if cmp > 0:
            self.low, self.include_low = value, inclusive
        elif cmp == 0:
            self.include_low = self.include_low and inclusive

    def tighten_high(self, value: Any, inclusive: bool) -> None:
        if self.high is None:
            self.high, self.include_high = value, inclusive
            return
        if isinstance(value, ast.Parameter) \
                or isinstance(self.high, ast.Parameter):
            return
        cmp = compare_values(value, self.high)
        if cmp is None:
            return
        if cmp < 0:
            self.high, self.include_high = value, inclusive
        elif cmp == 0:
            self.include_high = self.include_high and inclusive


def extract_range_bounds(conjuncts: Sequence[ast.Expression], column: str,
                         qualifier: str,
                         literal_ok: Callable[[Any], bool]) -> RangeBounds:
    """Fold the ``column </<=/>/>=/BETWEEN literal`` conjuncts into bounds.

    Only conjuncts whose literal passes ``literal_ok`` (the type-category
    guard) participate; everything else is simply left for the residual
    re-check, which keeps the extraction conservative-but-correct.

    A bound may also be an :class:`ast.Parameter` placeholder: the bound
    value then arrives at bind time (:func:`repro.executor.prepared.bind_plan`
    substitutes it into ``range_low``/``range_high``), and the type-category
    guard moves to execution — the range operator falls back to a filtered
    sequential scan when the bound value cannot be compared against the
    index keys.
    """

    def bound_of(expr: ast.Expression) -> Tuple[Any, bool]:
        """(bound value or Parameter, usable) for one comparison operand."""
        if isinstance(expr, ast.Literal):
            return expr.value, literal_ok(expr.value)
        if isinstance(expr, ast.Parameter):
            return expr, True
        return None, False

    bounds = RangeBounds()
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.Between) and not conjunct.negated:
            if isinstance(conjunct.operand, ast.ColumnRef) \
                    and _ref_matches(conjunct.operand, column, qualifier):
                low, low_ok = bound_of(conjunct.low)
                high, high_ok = bound_of(conjunct.high)
                if low_ok and high_ok:
                    bounds.tighten_low(low, True)
                    bounds.tighten_high(high, True)
            continue
        if not isinstance(conjunct, ast.BinaryOp) \
                or conjunct.op not in ("<", "<=", ">", ">="):
            continue
        op = conjunct.op
        if isinstance(conjunct.left, ast.ColumnRef):
            ref, (literal, usable) = conjunct.left, bound_of(conjunct.right)
        elif isinstance(conjunct.right, ast.ColumnRef):
            ref, (literal, usable) = conjunct.right, bound_of(conjunct.left)
            op = flipped[op]
        else:
            continue
        if not usable or not _ref_matches(ref, column, qualifier):
            continue
        if op == ">":
            bounds.tighten_low(literal, False)
        elif op == ">=":
            bounds.tighten_low(literal, True)
        elif op == "<":
            bounds.tighten_high(literal, False)
        else:
            bounds.tighten_high(literal, True)
    return bounds


def _ref_matches(ref: ast.ColumnRef, column: str, qualifier: str) -> bool:
    if ref.name.lower() != column.lower():
        return False
    return ref.table is None or ref.table.lower() == qualifier.lower()


#: A bounded range scan must look at least this much more selective than the
#: sequential scan before it pays off (point fetches cost more per row than
#: the batched sequential reader).
RANGE_SCAN_MAX_FRACTION = 0.45

#: Below this many base rows a key-order scan is cheap in absolute terms, so
#: eliding the sort is worth the per-row point fetches even without a
#: selective range or a LIMIT.
ORDER_SCAN_SMALL_TABLE_ROWS = 2_000.0


def choose_index_range(node: ScanPlan,
                       list_indexes: Optional[ListIndexes],
                       type_category: Optional[TypeCategory],
                       order_column: Optional[str] = None,
                       base_rows: Optional[float] = None,
                       limit_hint: Optional[int] = None,
                       order_descending: bool = False) -> bool:
    """Pick a B-tree range scan (and/or key-order scan) for this leaf.

    Considers single-column B-tree indexes of the scanned table.  A
    candidate is taken when the pushed conjuncts bound its key column and the
    estimated selectivity clears :data:`RANGE_SCAN_MAX_FRACTION`, or when a
    key-order traversal makes a requested ``ORDER BY`` free *and* the
    per-row point fetches are worth it: the range is selective, the table is
    small (:data:`ORDER_SCAN_SMALL_TABLE_ROWS`), or the query carries a
    LIMIT (top-K: the lazy key-order stream stops after ~LIMIT fetches,
    where a sort would pay for every row).  An unselective ordered scan over
    a big, unlimited result would trade a fast batched scan + one sort for
    per-row heap fetches — measurably slower — so it is refused.

    Correctness gates (rows absent from the index must be provably
    non-qualifying): NULL keys fail every range predicate, so they only
    matter for the unbounded order scan, which requires ``null_keys == 0``;
    NaN keys order *above* every number, so they satisfy lower-bound-only
    ranges — those require ``nan_keys == 0``, while any upper bound excludes
    NaN by itself.  Returns True when the node was rewritten.
    """
    if list_indexes is None:
        return False
    candidates: List[Tuple[Tuple[int, int, int, str], Any, RangeBounds, bool]] = []
    for index in list_indexes(node.table):
        if getattr(index, "method", "") != "btree" or len(index.columns) != 1:
            continue
        column = index.columns[0]
        category = (type_category(node.qualifier, column)
                    if type_category is not None else None)
        if category not in ("num", "text"):
            continue

        def literal_ok(value: Any, _category: str = category) -> bool:
            return value_category(value) == _category

        bounds = extract_range_bounds(node.pushed, column, node.qualifier,
                                      literal_ok)
        null_keys = getattr(index, "null_keys", 0)
        nan_keys = getattr(index, "nan_keys", 0)
        if bounds.bounded and nan_keys > 0 and bounds.high is None:
            continue  # NaN rows would be wrongly excluded
        order_match = (order_column is not None
                       and column.lower() == order_column.lower())
        complete = bounds.bounded or (null_keys == 0 and nan_keys == 0)
        selective = bounds.bounded and (
            base_rows is None
            or node.estimated_rows <= RANGE_SCAN_MAX_FRACTION * base_rows)
        cheap = (base_rows is not None
                 and base_rows <= ORDER_SCAN_SMALL_TABLE_ROWS)
        ordered = (order_match and complete
                   and (selective or cheap or limit_hint is not None))
        if not ordered and not selective:
            continue
        rank = (0 if ordered else 1, 0 if bounds.bounded else 1,
                len(index.columns), index.name)
        candidates.append((rank, index, bounds, ordered))
    if not candidates:
        return False
    candidates.sort(key=lambda entry: entry[0])
    _, index, bounds, ordered = candidates[0]
    node.access_path = "index_range"
    node.index_name = index.name
    node.index_columns = tuple(index.columns)
    node.range_low = bounds.low
    node.range_high = bounds.high
    node.range_include_low = bounds.include_low
    node.range_include_high = bounds.include_high
    node.ordered = ordered
    # A descending ORDER BY is served by the same index traversed in
    # reverse; the completeness gates above are direction-independent.
    node.descending = ordered and order_descending
    return True


def _apply_index_access_path(node: ScanPlan,
                             list_indexes: Optional[ListIndexes],
                             type_category: Optional[TypeCategory],
                             order_column: Optional[str] = None,
                             base_rows: Optional[float] = None,
                             limit_hint: Optional[int] = None,
                             order_descending: bool = False) -> None:
    choice = choose_index_lookup(node.table, node.qualifier, node.pushed,
                                 list_indexes, type_category)
    if choice is not None:
        index, key_values = choice
        node.access_path = "index_lookup"
        node.index_name = index.name
        node.index_columns = tuple(index.columns)
        node.index_key = key_values[0] if len(key_values) == 1 else key_values
        return
    choose_index_range(node, list_indexes, type_category, order_column,
                       base_rows, limit_hint, order_descending)


def _order_keys_for_index(index: Any, left_keys: List[ast.ColumnRef],
                          right_keys: List[ast.ColumnRef],
                          ) -> Tuple[List[ast.ColumnRef], List[ast.ColumnRef]]:
    """Permute (left, right) key pairs into the index's column order."""
    position = {column.lower(): i for i, column in enumerate(index.columns)}
    pairs = sorted(zip(left_keys, right_keys),
                   key=lambda pair: position[pair[1].name.lower()])
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


# ---------------------------------------------------------------------------
# Strategy selection
# ---------------------------------------------------------------------------
#: In "auto" mode without a memory budget, prefer sort-merge over hash once
#: the estimated build side exceeds this many rows.
HASH_JOIN_MAX_BUILD_ROWS = 4_000_000


def choose_strategy(left_rows: float, right_rows: float, forced: str,
                    memory_budget_rows: Optional[int],
                    index_available: bool = False) -> str:
    """Pick the physical strategy for an equi-join edge.

    An index-nested-loop join is chosen when the lookup (right) side has a
    covering index and either the caller forces it or, in auto mode, the
    streamed probe side is estimated no larger than the lookup side (so per
    row lookups beat building a hash table over the bigger input).
    """
    if forced == "hash":
        return "hash"
    if forced == "merge":
        return "merge"
    if index_available:
        if forced == "index_nested_loop":
            return "index_nested_loop"
        if left_rows <= right_rows:
            return "index_nested_loop"
    # With a memory budget, huge builds are what the Grace hash join handles;
    # auto must not escape to merge join there.
    if memory_budget_rows is None \
            and min(left_rows, right_rows) > HASH_JOIN_MAX_BUILD_ROWS:
        return "merge"
    return "hash"


def _edge_cardinality(left_rows: float, right_rows: float,
                      key_ndvs: Sequence[float]) -> float:
    """Classic equi-join estimate: |L| * |R| / prod(max(NDV_l, NDV_r))."""
    result = left_rows * right_rows
    for ndv in key_ndvs:
        result /= max(1.0, ndv)
    return max(1.0, result)


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------
def plan_select_joins(from_refs: Sequence[ast.TableRef],
                      explicit_joins: Sequence[ast.Join],
                      residual: Sequence[ast.Expression],
                      resolvable: Dict[str, Set[str]],
                      pushed: Dict[str, List[ast.Expression]],
                      *,
                      row_estimate: RowEstimator,
                      ndv_estimate: NdvEstimator,
                      type_category: Optional[TypeCategory] = None,
                      list_indexes: Optional[ListIndexes] = None,
                      strategy: str = "auto",
                      order_hint: Optional[Tuple[str, ...]] = None,
                      base_row_estimate: Optional[RowEstimator] = None,
                      limit_hint: Optional[int] = None,
                      memory_budget_rows: Optional[int] = None,
                      foreign_info: Optional[Callable[[str], Optional[Dict[str, Any]]]] = None,
                      ) -> Tuple[PlanNode, List[ast.Expression]]:
    """Build a join plan for a SELECT; returns (root, remaining residual).

    ``residual`` are the WHERE conjuncts left over after pushdown; conjuncts
    this planner consumes — as join keys or as per-node ``filters`` pushed to
    the lowest covering join — are removed from the list it returns.
    ``pushed`` is recorded on scan nodes (the engine applies it there) and
    drives index access-path selection via ``list_indexes``.  ``order_hint``
    is the interesting order the engine would like delivered for free — the
    lower-cased ``(qualifier, column, direction)`` of a single plain-column
    ORDER BY key, direction ``"asc"`` or ``"desc"`` — and biases access-path
    selection toward ordered range scans; ``base_row_estimate`` supplies
    unfiltered table cardinalities for the range-vs-sequential selectivity
    gate, and ``limit_hint`` (the query's LIMIT, when present) marks top-K
    queries where key-order scans win regardless of selectivity.

    ``foreign_info``, when given, maps a *table name* to a descriptor dict
    (``provider``, ``projected``, ``pushdown``) for attached foreign tables
    (``None`` for base tables); matching leaves become
    :class:`ForeignScanPlan` nodes and skip index access-path selection.
    """
    if strategy not in JOIN_STRATEGIES:
        raise PlanningError(
            f"unknown join strategy {strategy!r}; expected one of {JOIN_STRATEGIES}")

    def scan_node(ref: ast.TableRef) -> ScanPlan:
        qualifier = ref.effective_name.lower()
        info = foreign_info(ref.name) if foreign_info is not None else None
        if info is not None:
            return ForeignScanPlan(
                table=ref.name, qualifier=qualifier,
                estimated_rows=row_estimate(qualifier),
                pushed=list(pushed.get(qualifier, [])),
                access_path="foreign",
                provider=info.get("provider", ""),
                projected=tuple(info.get("projected", ())),
                pushdown=bool(info.get("pushdown", True)))
        node = ScanPlan(table=ref.name, qualifier=qualifier,
                        estimated_rows=row_estimate(qualifier),
                        pushed=list(pushed.get(qualifier, [])))
        if strategy != "nested_loop":
            order_column = (order_hint[1]
                            if order_hint is not None and order_hint[0] == qualifier
                            else None)
            order_descending = (order_hint is not None and len(order_hint) > 2
                                and order_hint[2] == "desc")
            base = (base_row_estimate(qualifier)
                    if base_row_estimate is not None else None)
            _apply_index_access_path(node, list_indexes, type_category,
                                     order_column, base, limit_hint,
                                     order_descending)
        return node

    if strategy == "nested_loop":
        # Reproduce the naive pipeline exactly: cross products in FROM order,
        # explicit joins as nested loops, the whole residual evaluated on top,
        # sequential scans only.
        plan: PlanNode = scan_node(from_refs[0])
        for ref in from_refs[1:]:
            right = scan_node(ref)
            plan = JoinPlan("cross", "CROSS", plan, right,
                            estimated_rows=plan.estimated_rows * max(1.0, right.estimated_rows))
        for join in explicit_joins:
            plan = _nested_loop_node(plan, scan_node(join.table), join)
        return plan, list(residual)

    from_qualifiers = {ref.effective_name.lower() for ref in from_refs}
    edges, rest = extract_equi_edges(residual, resolvable, from_qualifiers,
                                     type_category)

    scans = {ref.effective_name.lower(): scan_node(ref) for ref in from_refs}
    order = [ref.effective_name.lower() for ref in from_refs]

    # Greedy ordering: start from the smallest relation, then repeatedly add
    # the connected relation with the smallest estimated join output
    # (falling back to the smallest remaining relation via a cross product).
    remaining = list(order)
    start = min(remaining, key=lambda q: (scans[q].estimated_rows, order.index(q)))
    remaining.remove(start)
    plan = scans[start]
    joined: Set[str] = {start}
    pending_edges = list(edges)

    while remaining:
        best: Optional[Tuple[float, int, str, List[JoinEdge]]] = None
        for qualifier in remaining:
            connecting = [e for e in pending_edges if e.connects(joined, qualifier)]
            if not connecting:
                continue
            ndvs = [_edge_ndv(e, joined, ndv_estimate) for e in connecting]
            estimate = _edge_cardinality(plan.estimated_rows,
                                         scans[qualifier].estimated_rows, ndvs)
            candidate = (estimate, order.index(qualifier), qualifier, connecting)
            if best is None or candidate[:2] < best[:2]:
                best = candidate
        if best is None:
            # No join edge reaches the remaining relations: cross product
            # with the smallest one.
            qualifier = min(remaining,
                            key=lambda q: (scans[q].estimated_rows, order.index(q)))
            right = scans[qualifier]
            plan = JoinPlan("cross", "CROSS", plan, right,
                            estimated_rows=plan.estimated_rows * max(1.0, right.estimated_rows))
            remaining.remove(qualifier)
            joined.add(qualifier)
            continue
        estimate, _, qualifier, connecting = best
        right = scans[qualifier]
        left_keys = []
        right_keys = []
        for edge in connecting:
            inside_key, outside_key = edge.oriented(joined)
            left_keys.append(inside_key)
            right_keys.append(outside_key)
            pending_edges.remove(edge)
        join_index = covering_join_index(right.table, right_keys, list_indexes)
        picked = choose_strategy(plan.estimated_rows, right.estimated_rows,
                                 strategy, memory_budget_rows,
                                 index_available=join_index is not None)
        if picked == "index_nested_loop":
            left_keys, right_keys = _order_keys_for_index(join_index, left_keys,
                                                          right_keys)
            plan = JoinPlan(picked, "INNER", plan, right,
                            left_keys=left_keys, right_keys=right_keys,
                            index_name=join_index.name,
                            estimated_rows=estimate)
        else:
            left, right_node = plan, right
            if picked == "hash" and right.estimated_rows > plan.estimated_rows:
                # Hash join builds on the right input: put the smaller side there.
                left, right_node = right, plan
                left_keys, right_keys = right_keys, left_keys
            plan = JoinPlan(picked, "INNER", left, right_node,
                            left_keys=left_keys, right_keys=right_keys,
                            estimated_rows=estimate)
        remaining.remove(qualifier)
        joined.add(qualifier)

    # Unconsumed edges (both endpoints already joined through another path)
    # go back into the residual pool; the tree pushdown below re-places them.
    rest = rest + [edge.conjunct for edge in pending_edges]

    for join in explicit_joins:
        right = scan_node(join.table)
        plan = _plan_explicit_join(plan, right, join, joined, resolvable,
                                   type_category, ndv_estimate, list_indexes,
                                   strategy, memory_budget_rows)
        joined.add(right.qualifier)

    # Residual pushdown into the tree: each remaining conjunct is attached to
    # the lowest join node whose schema covers it; only conjuncts that cannot
    # be placed (constant folding cases, unresolvable references) stay in the
    # top-level residual.
    rest = push_residual_into_plan(plan, rest, resolvable)
    return plan, rest


def _edge_ndv(edge: JoinEdge, joined: Set[str],
              ndv_estimate: NdvEstimator) -> float:
    inside_key, outside_key = edge.oriented(joined)
    inside_q = edge.left_qualifier if edge.left_qualifier in joined else edge.right_qualifier
    outside_q = edge.right_qualifier if inside_q == edge.left_qualifier else edge.left_qualifier
    return max(ndv_estimate(inside_q, inside_key.name),
               ndv_estimate(outside_q, outside_key.name))


def _nested_loop_node(left: PlanNode, right: ScanPlan, join: ast.Join) -> JoinPlan:
    strategy = "cross" if join.join_type == "CROSS" else "nested_loop"
    estimate = left.estimated_rows * max(1.0, right.estimated_rows)
    if join.condition is not None:
        estimate = max(1.0, estimate * (1.0 / 3.0))
    if join.join_type == "LEFT":
        estimate = max(estimate, left.estimated_rows)
    return JoinPlan(strategy, join.join_type, left, right,
                    condition=join.condition, estimated_rows=estimate)


def _plan_explicit_join(plan: PlanNode, right: ScanPlan, join: ast.Join,
                        joined: Set[str], resolvable: Dict[str, Set[str]],
                        type_category: Optional[TypeCategory],
                        ndv_estimate: NdvEstimator,
                        list_indexes: Optional[ListIndexes],
                        strategy: str,
                        memory_budget_rows: Optional[int] = None) -> JoinPlan:
    """Strategy selection for a JOIN ... ON clause (order is preserved)."""
    if join.join_type == "CROSS" or join.condition is None:
        return _nested_loop_node(plan, right, join)
    conjuncts = split_conjuncts(join.condition)
    eligible = joined | {right.qualifier}
    edges, rest = extract_equi_edges(conjuncts, resolvable, eligible,
                                     type_category)
    # Only edges between the existing plan and the new table are usable as
    # keys here; anything else stays in the join condition.
    usable = [e for e in edges if e.connects(joined, right.qualifier)]
    rest = rest + [e.conjunct for e in edges if e not in usable]
    if not usable:
        return _nested_loop_node(plan, right, join)
    left_keys = []
    right_keys = []
    ndvs = []
    for edge in usable:
        inside_key, outside_key = edge.oriented(joined)
        left_keys.append(inside_key)
        right_keys.append(outside_key)
        ndvs.append(_edge_ndv(edge, joined, ndv_estimate))
    join_index = covering_join_index(right.table, right_keys, list_indexes)
    picked = choose_strategy(plan.estimated_rows, right.estimated_rows,
                             strategy, memory_budget_rows,
                             index_available=join_index is not None)
    estimate = _edge_cardinality(plan.estimated_rows, right.estimated_rows, ndvs)
    if join.join_type == "LEFT":
        estimate = max(estimate, plan.estimated_rows)
    if picked == "index_nested_loop":
        left_keys, right_keys = _order_keys_for_index(join_index, left_keys,
                                                      right_keys)
        return JoinPlan(picked, join.join_type, plan, right,
                        left_keys=left_keys, right_keys=right_keys,
                        condition=combine_conjuncts(rest),
                        index_name=join_index.name,
                        estimated_rows=estimate)
    left_node: PlanNode = plan
    right_node: PlanNode = right
    if picked == "hash" and join.join_type == "INNER" \
            and memory_budget_rows is not None \
            and right.estimated_rows > memory_budget_rows \
            and plan.estimated_rows <= memory_budget_rows:
        # Spill-aware build choice: the hash join builds on its right input,
        # and with a memory budget an over-budget build means Grace
        # partitioning (one extra spill round trip for *both* sides).  When
        # the syntactic build side is expected to blow the budget but the
        # other input fits, swap them — legal for INNER joins only (LEFT
        # padding is tied to the probe side).  Column order is restored by
        # the engine's FROM-order permutation, like every other reordering.
        left_node, right_node = right, plan
        left_keys, right_keys = right_keys, left_keys
    return JoinPlan(picked, join.join_type, left_node, right_node,
                    left_keys=left_keys, right_keys=right_keys,
                    condition=combine_conjuncts(rest),
                    estimated_rows=estimate)


# ---------------------------------------------------------------------------
# Spill expectations (memory-budgeted pipeline breakers)
# ---------------------------------------------------------------------------
def estimated_spill_partitions(rows: float, budget_rows: int) -> int:
    """Expected Grace-partition fan-out for ``rows`` under a budget."""
    from repro.storage.spill import clamp_partitions
    return clamp_partitions(rows, budget_rows)


def estimated_sort_runs(rows: float, budget_rows: int) -> int:
    """Expected external-sort run count for ``rows`` under a budget."""
    if budget_rows <= 0:
        return 1
    return max(1, -(-int(rows) // budget_rows))


def annotate_spill_expectations(node: PlanNode,
                                budget_rows: Optional[int]) -> None:
    """Mark the hash joins whose build side is expected to exceed the memory
    budget with the partition fan-out the executor should use.

    This is the cost model's spill decision: EXPLAIN renders it
    (``HashJoin ... [spill: N partitions]``) and the engine passes the
    fan-out to the operator as its ``spill_partitions`` hint.  The executor
    still spills adaptively when estimates are wrong — the annotation is a
    prediction, actual activity lands in ``engine.last_spill``.
    """
    if isinstance(node, ScanPlan):
        return
    annotate_spill_expectations(node.left, budget_rows)
    annotate_spill_expectations(node.right, budget_rows)
    node.spill_partitions = None
    if budget_rows is not None and node.strategy == "hash" \
            and node.right.estimated_rows > budget_rows:
        node.spill_partitions = estimated_spill_partitions(
            node.right.estimated_rows, budget_rows)


# ---------------------------------------------------------------------------
# Interesting-order propagation
# ---------------------------------------------------------------------------
#: Join strategies whose output preserves the order of their *left* input:
#: the probe side of a hash join streams in order, nested-loop and
#: index-nested-loop iterate the outer side in order (LEFT padding is
#: emitted in place), and a cross product keeps the outer loop's order.
#: Merge joins re-sort both inputs, so they are excluded.
_LEFT_ORDER_PRESERVING = {"hash", "nested_loop", "index_nested_loop", "cross"}


def plan_delivered_order(node: PlanNode,
                         allow_spilling_hash: bool = True,
                         ) -> Optional[Tuple[str, str, str]]:
    """The ``(qualifier, column, direction)`` order the plan delivers.

    Direction is ``"asc"`` for an ascending key-order scan and ``"desc"``
    for a reverse B-tree traversal.

    An ordered range/key-order scan establishes the order at a leaf; it
    propagates to the root while that leaf stays on the left spine of
    order-preserving joins.  Per-node residual filters only drop rows, so
    they never disturb it.  ``None`` when no order is guaranteed.

    ``allow_spilling_hash=False`` (set by the engine whenever a memory
    budget is configured) refuses to propagate order through hash joins: a
    Grace spill emits rows partition-by-partition, not in probe order, and
    spilling is an *adaptive* runtime decision the estimates cannot rule
    out — so elision across a possibly-spilling hash join would silently
    return unsorted rows.
    """
    if isinstance(node, ScanPlan):
        if node.ordered and node.index_columns:
            return (node.qualifier, node.index_columns[0].lower(),
                    "desc" if node.descending else "asc")
        return None
    if node.strategy in _LEFT_ORDER_PRESERVING:
        if node.strategy == "hash" and not allow_spilling_hash:
            return None
        return plan_delivered_order(node.left, allow_spilling_hash)
    return None


# ---------------------------------------------------------------------------
# Residual pushdown into the plan tree
# ---------------------------------------------------------------------------
def plan_qualifiers(node: PlanNode) -> Set[str]:
    """All table qualifiers produced by a subtree."""
    if isinstance(node, ScanPlan):
        return {node.qualifier}
    return plan_qualifiers(node.left) | plan_qualifiers(node.right)


def _conjunct_homes(conjunct: ast.Expression,
                    resolvable: Dict[str, Set[str]]) -> Optional[Set[str]]:
    """The qualifiers a conjunct's columns resolve to; ``None`` if unknown."""
    refs = referenced_columns(conjunct)
    if not refs:
        return None
    homes: Set[str] = set()
    for ref in refs:
        home = resolve_column(ref, resolvable)
        if home is None:
            return None
        homes.add(home)
    return homes


def push_residual_into_plan(plan: PlanNode,
                            conjuncts: Sequence[ast.Expression],
                            resolvable: Dict[str, Set[str]],
                            ) -> List[ast.Expression]:
    """Attach residual conjuncts to the lowest join whose schema covers them.

    Filters attached to a join node are evaluated on that join's *output*, so
    attaching at (never below) a LEFT join preserves the standard semantics
    of WHERE predicates over the nullable side: NULL-padded rows reach the
    filter and fail it.  The walk therefore never descends into the right
    (nullable) child of a LEFT join.  Conjuncts that cannot be placed — no
    column references, unresolvable references, or a home set not covered by
    any join node — are returned for the engine's top-level residual filter.
    """
    remaining: List[ast.Expression] = []
    for conjunct in conjuncts:
        target = _attach_point(plan, conjunct, resolvable)
        if target is None:
            remaining.append(conjunct)
        else:
            target.filters.append(conjunct)
    return remaining


def _attach_point(plan: PlanNode, conjunct: ast.Expression,
                  resolvable: Dict[str, Set[str]]) -> Optional[JoinPlan]:
    homes = _conjunct_homes(conjunct, resolvable)
    if not homes or not homes <= plan_qualifiers(plan):
        return None
    node = plan
    while isinstance(node, JoinPlan):
        if homes <= plan_qualifiers(node.left):
            node = node.left
            continue
        if node.join_type != "LEFT" and homes <= plan_qualifiers(node.right):
            node = node.right
            continue
        break
    # Single-table conjuncts land on scans only when the per-table pushdown
    # could not claim them (ambiguous references); leave those at the top.
    if isinstance(node, ScanPlan):
        return None
    return node


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------
def format_expression(expr: ast.Expression) -> str:
    """Render an expression AST back to SQL-ish text (for EXPLAIN output)."""
    if isinstance(expr, ast.Literal):
        return _format_literal(expr.value)
    if isinstance(expr, ast.Parameter):
        return f"?{expr.index + 1}"
    if isinstance(expr, ast.ColumnRef):
        return expr.display()
    if isinstance(expr, ast.Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, ast.BinaryOp):
        left = format_expression(expr.left)
        right = format_expression(expr.right)
        if expr.op in ("AND", "OR"):
            if isinstance(expr.left, ast.BinaryOp) and expr.left.op in ("AND", "OR") \
                    and expr.left.op != expr.op:
                left = f"({left})"
            if isinstance(expr.right, ast.BinaryOp) and expr.right.op in ("AND", "OR") \
                    and expr.right.op != expr.op:
                right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, ast.UnaryOp):
        operand = format_expression(expr.operand)
        return f"NOT {operand}" if expr.op == "NOT" else f"{expr.op}{operand}"
    if isinstance(expr, ast.FunctionCall):
        args = ", ".join(format_expression(arg) for arg in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, ast.IsNull):
        return (f"{format_expression(expr.operand)} IS "
                f"{'NOT ' if expr.negated else ''}NULL")
    if isinstance(expr, ast.Like):
        return (f"{format_expression(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}LIKE "
                f"{format_expression(expr.pattern)}")
    if isinstance(expr, ast.InList):
        items = ", ".join(format_expression(item) for item in expr.items)
        return (f"{format_expression(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}IN ({items})")
    if isinstance(expr, ast.Between):
        return (f"{format_expression(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}BETWEEN "
                f"{format_expression(expr.low)} AND {format_expression(expr.high)}")
    return type(expr).__name__


def _format_literal(value: Any) -> str:
    if isinstance(value, ast.Parameter):
        # Index keys of a prepared plan hold the placeholder until bind time.
        return f"?{value.index + 1}"
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def _format_index_key(node: ScanPlan) -> str:
    values = node.index_key if isinstance(node.index_key, tuple) else (node.index_key,)
    return ", ".join(f"{column} = {_format_literal(value)}"
                     for column, value in zip(node.index_columns, values))


def format_range_bounds(node: ScanPlan) -> str:
    """Render a range scan's window, e.g. ``v > 5 AND v <= 9`` or ``full order``."""
    column = node.index_columns[0] if node.index_columns else "?"
    parts = []
    if node.range_low is not None:
        op = ">=" if node.range_include_low else ">"
        parts.append(f"{column} {op} {_format_literal(node.range_low)}")
    if node.range_high is not None:
        op = "<=" if node.range_include_high else "<"
        parts.append(f"{column} {op} {_format_literal(node.range_high)}")
    return " AND ".join(parts) if parts else f"{column}: full key order"


_SCAN_NODE_NAMES = {"seq": "Scan", "index_lookup": "IndexScan",
                    "index_range": "IndexRangeScan", "foreign": "ForeignScan"}


def plan_to_dict(node: PlanNode) -> Dict[str, Any]:
    """Plan tree as a nested dict (stable surface for tests and tooling)."""
    if isinstance(node, ScanPlan):
        result = {
            "node": _SCAN_NODE_NAMES[node.access_path],
            "table": node.table,
            "qualifier": node.qualifier,
            "estimated_rows": round(node.estimated_rows, 2),
            "access_path": node.access_path,
            "index": node.index_name,
            "pushed_conjuncts": len(node.pushed),
            "pushed": [format_expression(conjunct) for conjunct in node.pushed],
        }
        if node.access_path == "index_range":
            result["range"] = format_range_bounds(node)
            result["ordered"] = node.ordered
            if node.ordered:
                result["direction"] = "desc" if node.descending else "asc"
        if isinstance(node, ForeignScanPlan):
            result["provider"] = node.provider
            result["projected"] = list(node.projected)
            result["pushdown"] = node.pushdown
        return result
    result = {
        "node": STRATEGY_LABELS[node.strategy],
        "join_type": node.join_type,
        "keys": [f"{l.display()} = {r.display()}"
                 for l, r in zip(node.left_keys, node.right_keys)],
        "estimated_rows": round(node.estimated_rows, 2),
        "filters": [format_expression(conjunct) for conjunct in node.filters],
        "left": plan_to_dict(node.left),
        "right": plan_to_dict(node.right),
    }
    if node.index_name is not None:
        result["index"] = node.index_name
    if node.spill_partitions is not None:
        result["spill_partitions"] = node.spill_partitions
    return result


def format_plan(node: PlanNode, indent: int = 0) -> str:
    """Human-readable plan dump (the EXPLAIN text)."""
    pad = "  " * indent
    if isinstance(node, ScanPlan):
        label = node.table if node.qualifier == node.table.lower() \
            else f"{node.table} AS {node.qualifier}"
        suffix = ""
        if node.pushed:
            predicates = " AND ".join(format_expression(c) for c in node.pushed)
            suffix = f" [pushed: {predicates}]"
        if node.access_path == "index_lookup":
            return (f"{pad}IndexScan {label} using {node.index_name} "
                    f"({_format_index_key(node)}) "
                    f"(est. rows={node.estimated_rows:.0f}){suffix}")
        if node.access_path == "index_range":
            ordered = ""
            if node.ordered:
                ordered = " [ordered desc]" if node.descending else " [ordered]"
            return (f"{pad}IndexRangeScan {label} using {node.index_name} "
                    f"({format_range_bounds(node)}){ordered} "
                    f"(est. rows={node.estimated_rows:.0f}){suffix}")
        if isinstance(node, ForeignScanPlan):
            detail = f" [provider: {node.provider}]"
            if node.projected:
                detail += f" [columns: {', '.join(node.projected)}]"
            if node.pushed and not node.pushdown:
                detail += " [pushdown: off]"
            return (f"{pad}ForeignScan {label}{detail} "
                    f"(est. rows={node.estimated_rows:.0f}){suffix}")
        return (f"{pad}Scan {label} "
                f"(est. rows={node.estimated_rows:.0f}){suffix}")
    keys = ", ".join(f"{l.display()} = {r.display()}"
                     for l, r in zip(node.left_keys, node.right_keys))
    detail = f" on {keys}" if keys else ""
    if node.index_name is not None:
        detail += f" using {node.index_name}"
    if node.condition is not None:
        detail += " +condition"
    if node.filters:
        predicates = " AND ".join(format_expression(c) for c in node.filters)
        detail += f" [filter: {predicates}]"
    if node.spill_partitions is not None:
        detail += f" [spill: {node.spill_partitions} partitions]"
    header = (f"{pad}{STRATEGY_LABELS[node.strategy]} [{node.join_type}]{detail} "
              f"(est. rows={node.estimated_rows:.0f})")
    return "\n".join([header,
                      format_plan(node.left, indent + 1),
                      format_plan(node.right, indent + 1)])


def plan_strategies(node: PlanNode) -> List[str]:
    """Flat list of the join strategies used, outermost first."""
    if isinstance(node, ScanPlan):
        return []
    return ([node.strategy]
            + plan_strategies(node.left)
            + plan_strategies(node.right))


def plan_access_paths(node: PlanNode) -> List[str]:
    """Flat list of scan access paths, left-to-right (for tests/tooling)."""
    if isinstance(node, ScanPlan):
        return [node.access_path]
    return plan_access_paths(node.left) + plan_access_paths(node.right)
