"""Table and column statistics backing the cost-based join planner.

The statistics manager maintains, per table, the row count and per-column
summaries (number of distinct values, min/max, null fraction, and an
equi-width histogram for numeric columns).  Statistics are computed by an
``ANALYZE``-style full scan and kept approximately fresh: every DML statement
bumps a staleness counter and adjusts the cached row count, and once the
number of modifications since the last scan crosses a threshold the next
statistics access re-analyzes the table automatically.

Estimation follows the classic System-R rules: equality selects ``1/NDV``,
ranges interpolate between the column min and max (refined by the histogram
when one is available), and unknown predicates default to ``1/3``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sql import ast

#: Selectivity assumed for predicates the estimator cannot analyse.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Selectivity assumed for LIKE patterns.
LIKE_SELECTIVITY = 0.25
#: Number of buckets of the equi-width histograms on numeric columns.
HISTOGRAM_BUCKETS = 32
#: Re-analyze automatically once modifications exceed
#: ``max(AUTO_REFRESH_MIN_DML, AUTO_REFRESH_FRACTION * row_count)``.
AUTO_REFRESH_MIN_DML = 64
AUTO_REFRESH_FRACTION = 0.2


@dataclass
class Histogram:
    """Equi-width histogram over a numeric column."""

    low: float
    high: float
    counts: List[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of values strictly below ``value``."""
        if self.high <= self.low:
            return 0.0 if value <= self.low else 1.0
        if value <= self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        total = self.total
        if total == 0:
            return 0.0
        width = (self.high - self.low) / len(self.counts)
        bucket = min(int((value - self.low) / width), len(self.counts) - 1)
        below = sum(self.counts[:bucket])
        inside = self.counts[bucket] * ((value - (self.low + bucket * width)) / width)
        return (below + inside) / total


@dataclass
class ColumnStatistics:
    """Summary of one column, computed by :meth:`StatisticsManager.analyze`."""

    name: str
    distinct: int = 0
    null_count: int = 0
    minimum: Any = None
    maximum: Any = None
    histogram: Optional[Histogram] = None

    def null_fraction(self, row_count: int) -> float:
        return self.null_count / row_count if row_count else 0.0


@dataclass
class TableStatistics:
    """Statistics of one table as of the last ANALYZE."""

    table: str
    row_count: int
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)
    #: Incremented on every re-analysis, so plans can record stats versions.
    version: int = 1

    def column(self, name: str) -> Optional[ColumnStatistics]:
        return self.columns.get(name.lower())


class StatisticsManager:
    """Maintains and serves per-table statistics for the planner."""

    def __init__(self, catalog, auto_refresh: bool = True):
        self._catalog = catalog
        self._stats: Dict[str, TableStatistics] = {}
        self._dml_since_analyze: Dict[str, int] = {}
        self.auto_refresh = auto_refresh
        #: Guards the staleness counters: DML bookkeeping arrives on server
        #: worker threads (and on any threads sharing an embedded database),
        #: and ``dict.get`` + ``=`` is not atomic.
        self._dml_lock = threading.Lock()

    # ------------------------------------------------------------------
    # ANALYZE
    # ------------------------------------------------------------------
    def analyze(self, table_name: str) -> TableStatistics:
        """Full-scan ``table_name`` and rebuild its statistics."""
        table = self._catalog.table(table_name)
        key = table.name.lower()
        names = table.schema.column_names
        values_per_column: List[List[Any]] = [[] for _ in names]
        nulls = [0 for _ in names]
        row_count = 0
        for _, row in table.scan():
            row_count += 1
            for position, value in enumerate(row):
                if value is None:
                    nulls[position] += 1
                else:
                    values_per_column[position].append(value)
        previous = self._stats.get(key)
        stats = TableStatistics(table.name, row_count,
                                version=(previous.version + 1) if previous else 1)
        for position, name in enumerate(names):
            stats.columns[name.lower()] = self._column_statistics(
                name, values_per_column[position], nulls[position])
        self._stats[key] = stats
        self._dml_since_analyze[key] = 0
        # Fresh statistics change cardinality estimates, so any cached plan
        # built against the old numbers must be re-planned.
        self._catalog.bump_schema_version()
        return stats

    def analyze_all(self) -> Dict[str, TableStatistics]:
        return {name: self.analyze(name) for name in self._catalog.table_names()}

    @staticmethod
    def _column_statistics(name: str, values: List[Any], nulls: int) -> ColumnStatistics:
        stats = ColumnStatistics(name, null_count=nulls)
        if not values:
            return stats
        try:
            stats.distinct = len(set(values))
        except TypeError:
            stats.distinct = len(values)
        numeric = [v for v in values
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if len(numeric) == len(values):
            # NaN and +/-inf poison min/max bounds and int() bucket
            # arithmetic; keep them out of the summaries (they still count
            # towards NDV).
            finite = [v for v in numeric if math.isfinite(v)]
            if finite:
                stats.minimum, stats.maximum = min(finite), max(finite)
                stats.histogram = StatisticsManager._build_histogram(finite)
        else:
            try:
                stats.minimum, stats.maximum = min(values), max(values)
            except TypeError:
                pass
        return stats

    @staticmethod
    def _build_histogram(values: List[float]) -> Optional[Histogram]:
        low, high = float(min(values)), float(max(values))
        if high <= low:
            return Histogram(low, high, [len(values)])
        buckets = min(HISTOGRAM_BUCKETS, max(1, len(values) // 2))
        counts = [0] * buckets
        width = (high - low) / buckets
        for value in values:
            counts[min(int((value - low) / width), buckets - 1)] += 1
        return Histogram(low, high, counts)

    # ------------------------------------------------------------------
    # DML bookkeeping
    # ------------------------------------------------------------------
    def on_insert(self, table_name: str, count: int = 1) -> None:
        self._note_dml(table_name, count, row_delta=count)

    def on_delete(self, table_name: str, count: int = 1) -> None:
        self._note_dml(table_name, count, row_delta=-count)

    def on_update(self, table_name: str, count: int = 1) -> None:
        self._note_dml(table_name, count, row_delta=0)

    def _note_dml(self, table_name: str, count: int, row_delta: int) -> None:
        key = table_name.lower()
        stats = self._stats.get(key)
        if stats is None:
            return
        with self._dml_lock:
            stats.row_count = max(0, stats.row_count + row_delta)
            self._dml_since_analyze[key] = \
                self._dml_since_analyze.get(key, 0) + count

    def drop(self, table_name: str) -> None:
        self._stats.pop(table_name.lower(), None)
        self._dml_since_analyze.pop(table_name.lower(), None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def stats_for(self, table_name: str) -> Optional[TableStatistics]:
        """Statistics of a table, transparently re-analyzed when stale.

        Staleness combines the DML counter (engine statements) with the
        drift between the recorded and live row counts, so bulk loads that
        bypass the engine (direct ``Table.insert_row`` calls) still trigger
        a refresh.
        """
        key = table_name.lower()
        stats = self._stats.get(key)
        if stats is None:
            return None
        stale = self._dml_since_analyze.get(key, 0)
        drift = abs(len(self._catalog.table(table_name)) - stats.row_count)
        threshold = max(AUTO_REFRESH_MIN_DML,
                        AUTO_REFRESH_FRACTION * max(1, stats.row_count))
        if self.auto_refresh and max(stale, drift) > threshold:
            return self.analyze(table_name)
        return stats

    def row_count_estimate(self, table_name: str) -> int:
        """Live row count (O(1) from the table directory, always exact)."""
        return len(self._catalog.table(table_name))

    def distinct_estimate(self, table_name: str, column: str) -> int:
        """NDV of a column; falls back to ``max(1, rows / 10)`` without stats."""
        stats = self.stats_for(table_name)
        if stats is not None:
            cs = stats.column(column)
            if cs is not None and cs.distinct:
                return cs.distinct
        rows = self.row_count_estimate(table_name)
        return max(1, rows // 10)

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def estimate_scan_rows(self, table_name: str,
                           conjuncts: Sequence[ast.Expression],
                           qualifier: Optional[str] = None) -> float:
        """Estimated output rows of a scan after applying ``conjuncts``."""
        rows = self.row_count_estimate(table_name)
        if not conjuncts:
            return float(rows)
        # A primary-key equality pins the scan to at most one row regardless
        # of the per-conjunct estimates.
        if self._has_primary_key_lookup(table_name, conjuncts, qualifier):
            return min(1.0, float(rows))
        selectivity = self.selectivity(table_name, conjuncts, qualifier)
        return max(0.0, rows * selectivity)

    def _has_primary_key_lookup(self, table_name: str,
                                conjuncts: Sequence[ast.Expression],
                                qualifier: Optional[str]) -> bool:
        from repro.planner.planner import equality_lookups, lookup_value
        table = self._catalog.table(table_name)
        pk_columns = table.schema.primary_key_columns
        if not pk_columns:
            return False
        lookups = equality_lookups(conjuncts)
        sentinel = object()
        return all(
            lookup_value(lookups, column, qualifier, sentinel) is not sentinel
            for column in pk_columns
        )

    def selectivity(self, table_name: str,
                    conjuncts: Sequence[ast.Expression],
                    qualifier: Optional[str] = None) -> float:
        stats = self.stats_for(table_name)
        result = 1.0
        for conjunct in conjuncts:
            result *= self._conjunct_selectivity(table_name, stats, conjunct,
                                                 qualifier)
        return min(1.0, max(0.0, result))

    def _conjunct_selectivity(self, table_name: str,
                              stats: Optional[TableStatistics],
                              conjunct: ast.Expression,
                              qualifier: Optional[str]) -> float:
        column, op, literal = _column_literal_comparison(conjunct)
        if column is not None:
            if (qualifier is not None and column.table is not None
                    and column.table.lower() != qualifier.lower()):
                # The conjunct belongs to a different table of the join; it
                # cannot restrict this scan.
                return 1.0
            cs = stats.column(column.name) if stats is not None else None
            if op in ("=", "<>"):
                ndv = cs.distinct if cs is not None and cs.distinct else \
                    self.distinct_estimate(table_name, column.name)
                equal = 1.0 / max(1, ndv)
                return equal if op == "=" else 1.0 - equal
            if op in ("<", "<=", ">", ">=") and cs is not None:
                return _range_selectivity(cs, op, literal)
            return DEFAULT_SELECTIVITY
        if isinstance(conjunct, ast.Between):
            low = self._conjunct_selectivity(
                table_name, stats,
                ast.BinaryOp(">=", conjunct.operand, conjunct.low), qualifier)
            high = self._conjunct_selectivity(
                table_name, stats,
                ast.BinaryOp("<=", conjunct.operand, conjunct.high), qualifier)
            fraction = max(0.0, low + high - 1.0)
            return 1.0 - fraction if conjunct.negated else fraction
        if isinstance(conjunct, ast.InList) and isinstance(conjunct.operand, ast.ColumnRef):
            ndv = self.distinct_estimate(table_name, conjunct.operand.name)
            fraction = min(1.0, len(conjunct.items) / max(1, ndv))
            return 1.0 - fraction if conjunct.negated else fraction
        if isinstance(conjunct, ast.IsNull) and isinstance(conjunct.operand, ast.ColumnRef):
            if stats is not None:
                cs = stats.column(conjunct.operand.name)
                if cs is not None:
                    fraction = cs.null_fraction(stats.row_count)
                    return 1.0 - fraction if conjunct.negated else fraction
            return DEFAULT_SELECTIVITY
        if isinstance(conjunct, ast.Like):
            return LIKE_SELECTIVITY
        return DEFAULT_SELECTIVITY


#: Stand-in for the value of a parameter placeholder: the comparison shape is
#: known at plan time but the value is not, so equality still uses ``1/NDV``
#: (value-independent) while range estimates fall back to
#: :data:`DEFAULT_SELECTIVITY` (``_range_selectivity`` treats any non-numeric
#: "literal" that way).
UNKNOWN_VALUE = object()

_COMPARABLE_RHS = (ast.Literal, ast.Parameter)


def _comparable_value(expr: ast.Expression) -> Any:
    return expr.value if isinstance(expr, ast.Literal) else UNKNOWN_VALUE


def _column_literal_comparison(
    conjunct: ast.Expression,
) -> Tuple[Optional[ast.ColumnRef], Optional[str], Any]:
    """Decompose ``column <op> literal-or-parameter`` comparisons.

    A parameter placeholder yields :data:`UNKNOWN_VALUE` — the estimator
    then uses only value-independent rules (NDV for equality, defaults for
    ranges), which is the classic "generic plan" behaviour of prepared
    statements.
    """
    if not isinstance(conjunct, ast.BinaryOp):
        return None, None, None
    if conjunct.op not in ("=", "<>", "<", "<=", ">", ">="):
        return None, None, None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ast.ColumnRef) and isinstance(right, _COMPARABLE_RHS):
        return left, conjunct.op, _comparable_value(right)
    if isinstance(right, ast.ColumnRef) and isinstance(left, _COMPARABLE_RHS):
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return right, flipped.get(conjunct.op, conjunct.op), _comparable_value(left)
    return None, None, None


def _range_selectivity(cs: ColumnStatistics, op: str, literal: Any) -> float:
    if not isinstance(literal, (int, float)) or isinstance(literal, bool):
        return DEFAULT_SELECTIVITY
    if cs.histogram is not None:
        below = cs.histogram.fraction_below(float(literal))
    elif (isinstance(cs.minimum, (int, float)) and isinstance(cs.maximum, (int, float))
          and cs.maximum > cs.minimum):
        below = (float(literal) - cs.minimum) / (cs.maximum - cs.minimum)
        below = min(1.0, max(0.0, below))
    else:
        return DEFAULT_SELECTIVITY
    # ``below`` approximates the strictly-below mass; inclusive bounds add
    # one equality quantum so skewed low-NDV columns are not undercounted.
    equal = 1.0 / cs.distinct if cs.distinct else 0.0
    if op == "<":
        result = below
    elif op == "<=":
        result = below + equal
    elif op == ">=":
        result = 1.0 - below
    else:  # ">"
        result = 1.0 - below - equal
    return min(1.0, max(0.0, result))
