"""Expression evaluation: scalar expressions, predicates, and aggregates.

Expressions are compiled against an :class:`~repro.executor.row.OutputSchema`
once and then evaluated per row.  SQL three-valued logic is approximated by
treating NULL comparisons as unknown and unknown predicates as false.

Annotation predicates (A-SQL ``AWHERE``, ``AHAVING``, ``FILTER``) are
evaluated by :class:`AnnotationPredicate` against a single annotation.  The
pseudo-columns available inside those predicates are:

``annotation`` / ``annotation.value``
    the annotation body text,
``annotation.table``
    the annotation table the annotation belongs to,
``annotation.curator``
    the user or tool that added the annotation,
``annotation.created_at``
    the timestamp the annotation was added,
``annotation.archived``
    whether the annotation is archived.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.errors import ExecutionError, PlanningError
from repro.executor.row import OutputSchema, Row
from repro.sql import ast
from repro.types.values import compare_values, hash_key, values_equal

# ---------------------------------------------------------------------------
# Scalar functions available in expressions
# ---------------------------------------------------------------------------


def _sql_length(value: Any) -> Optional[int]:
    return None if value is None else len(str(value))


def _sql_upper(value: Any) -> Optional[str]:
    return None if value is None else str(value).upper()


def _sql_lower(value: Any) -> Optional[str]:
    return None if value is None else str(value).lower()


def _sql_abs(value: Any) -> Any:
    return None if value is None else abs(value)


def _sql_round(value: Any, digits: Any = 0) -> Any:
    if value is None:
        return None
    return round(float(value), int(digits or 0))


def _sql_substr(value: Any, start: Any, length: Any = None) -> Optional[str]:
    if value is None:
        return None
    text = str(value)
    begin = int(start) - 1
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


def _sql_coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "LENGTH": _sql_length,
    "LEN": _sql_length,
    "UPPER": _sql_upper,
    "LOWER": _sql_lower,
    "ABS": _sql_abs,
    "ROUND": _sql_round,
    "SUBSTR": _sql_substr,
    "SUBSTRING": _sql_substr,
    "COALESCE": _sql_coalesce,
}

AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (%, _) into a compiled regex.

    Cached: a LIKE predicate evaluated over a million rows compiles its
    pattern once, not once per row (dynamic patterns — ``x LIKE y || '%'`` —
    still hit the cache per distinct pattern string).
    """
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Compiled scalar expressions
# ---------------------------------------------------------------------------
class Evaluator:
    """Compiles an AST expression against a schema and evaluates it per row.

    Compilation resolves column references to positions once and builds a
    closure tree over plain *value tuples*; :meth:`compile` wraps that core in
    a ``Row`` adapter for the row-at-a-time operators, while
    :meth:`compile_values` exposes the core directly for the batched
    operators (no per-row ``Row`` allocation or attribute hop).
    """

    def __init__(self, schema: OutputSchema):
        self.schema = schema

    def compile(self, expr: ast.Expression) -> Callable[[Row], Any]:
        core = self._compile(expr)
        return lambda row: core(row.values)

    def compile_values(self, expr: ast.Expression) -> Callable[[Tuple[Any, ...]], Any]:
        """Compile to a callable over a bare value tuple (batch pipelines)."""
        return self._compile(expr)

    def evaluate(self, expr: ast.Expression, row: Row) -> Any:
        return self._compile(expr)(row.values)

    # -- compilation -----------------------------------------------------
    def _compile(self, expr: ast.Expression) -> Callable[[Tuple[Any, ...]], Any]:
        if isinstance(expr, ast.Literal):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ast.ColumnRef):
            position = self.schema.resolve(expr.name, expr.table)
            return lambda row: row[position]
        if isinstance(expr, ast.Parameter):
            raise PlanningError(
                f"unbound parameter placeholder ?{expr.index + 1}: "
                f"parameterized statements must be executed with bound "
                f"values through a prepared statement or cursor")
        if isinstance(expr, ast.Star):
            raise PlanningError("'*' is only valid in a projection list or COUNT(*)")
        if isinstance(expr, ast.UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, ast.FunctionCall):
            return self._compile_function(expr)
        if isinstance(expr, ast.IsNull):
            operand = self._compile(expr.operand)
            if expr.negated:
                return lambda row: operand(row) is not None
            return lambda row: operand(row) is None
        if isinstance(expr, ast.Like):
            return self._compile_like(expr)
        if isinstance(expr, ast.InList):
            return self._compile_in(expr)
        if isinstance(expr, ast.Between):
            return self._compile_between(expr)
        raise PlanningError(f"unsupported expression node {type(expr).__name__}")

    def _compile_unary(self, expr: ast.UnaryOp) -> Callable[[Row], Any]:
        operand = self._compile(expr.operand)
        if expr.op == "-":
            return lambda row: None if operand(row) is None else -operand(row)
        if expr.op == "+":
            return operand
        if expr.op == "NOT":
            def negate(row: Row) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                return not bool(value)
            return negate
        raise PlanningError(f"unsupported unary operator {expr.op!r}")

    def _compile_binary(self, expr: ast.BinaryOp) -> Callable[[Row], Any]:
        op = expr.op
        left = self._compile(expr.left)
        right = self._compile(expr.right)
        if op == "AND":
            def and_(row: Row) -> Optional[bool]:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    # unknown AND false == false; otherwise unknown
                    if lhs is False or rhs is False:
                        return False
                    return None
                return bool(lhs) and bool(rhs)
            return and_
        if op == "OR":
            def or_(row: Row) -> Optional[bool]:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    if lhs is True or rhs is True:
                        return True
                    return None
                return bool(lhs) or bool(rhs)
            return or_
        if op in ("=", "<>", "<", "<=", ">", ">="):
            def compare(row: Row) -> Optional[bool]:
                cmp = compare_values(left(row), right(row))
                if cmp is None:
                    return None
                if op == "=":
                    return cmp == 0
                if op == "<>":
                    return cmp != 0
                if op == "<":
                    return cmp < 0
                if op == "<=":
                    return cmp <= 0
                if op == ">":
                    return cmp > 0
                return cmp >= 0
            return compare
        if op in ("+", "-", "*", "/", "%"):
            def arithmetic(row: Row) -> Any:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    return None
                try:
                    if op == "+":
                        return lhs + rhs
                    if op == "-":
                        return lhs - rhs
                    if op == "*":
                        return lhs * rhs
                    if op == "/":
                        if rhs == 0:
                            raise ExecutionError("division by zero")
                        result = lhs / rhs
                        return result
                    return lhs % rhs
                except TypeError as exc:
                    raise ExecutionError(
                        f"invalid operands for {op!r}: {lhs!r}, {rhs!r}"
                    ) from exc
            return arithmetic
        if op == "||":
            def concat(row: Row) -> Optional[str]:
                lhs, rhs = left(row), right(row)
                if lhs is None or rhs is None:
                    return None
                return str(lhs) + str(rhs)
            return concat
        raise PlanningError(f"unsupported binary operator {op!r}")

    def _compile_function(self, expr: ast.FunctionCall) -> Callable[[Row], Any]:
        name = expr.name.upper()
        if name in AGGREGATE_FUNCTIONS:
            raise PlanningError(
                f"aggregate function {name} is not allowed in this context"
            )
        function = SCALAR_FUNCTIONS.get(name)
        if function is None:
            raise PlanningError(f"unknown function {name}")
        arg_evaluators = [self._compile(arg) for arg in expr.args]
        return lambda row: function(*[evaluate(row) for evaluate in arg_evaluators])

    def _compile_like(self, expr: ast.Like) -> Callable[[Row], Any]:
        operand = self._compile(expr.operand)
        negated = expr.negated
        if isinstance(expr.pattern, ast.Literal):
            # The common shape: the pattern is a constant, so its regex is
            # compiled exactly once, at expression-compile time.
            if expr.pattern.value is None:
                return lambda row: None
            regex = like_to_regex(str(expr.pattern.value))

            def like_constant(row: Row) -> Optional[bool]:
                value = operand(row)
                if value is None:
                    return None
                matched = regex.match(str(value)) is not None
                return (not matched) if negated else matched
            return like_constant
        pattern_eval = self._compile(expr.pattern)

        def like(row: Row) -> Optional[bool]:
            value, pattern = operand(row), pattern_eval(row)
            if value is None or pattern is None:
                return None
            matched = bool(like_to_regex(str(pattern)).match(str(value)))
            return (not matched) if negated else matched
        return like

    def _compile_in(self, expr: ast.InList) -> Callable[[Row], Any]:
        operand = self._compile(expr.operand)
        item_evaluators = [self._compile(item) for item in expr.items]
        negated = expr.negated

        def contains(row: Row) -> Optional[bool]:
            value = operand(row)
            if value is None:
                return None
            found = any(values_equal(value, evaluate(row)) for evaluate in item_evaluators)
            return (not found) if negated else found
        return contains

    def _compile_between(self, expr: ast.Between) -> Callable[[Row], Any]:
        operand = self._compile(expr.operand)
        low = self._compile(expr.low)
        high = self._compile(expr.high)
        negated = expr.negated

        def between(row: Row) -> Optional[bool]:
            value = operand(row)
            lo, hi = low(row), high(row)
            if value is None or lo is None or hi is None:
                return None
            cmp_low = compare_values(value, lo)
            cmp_high = compare_values(value, hi)
            if cmp_low is None or cmp_high is None:
                return None
            inside = cmp_low >= 0 and cmp_high <= 0
            return (not inside) if negated else inside
        return between


def predicate_is_true(value: Any) -> bool:
    """SQL predicate semantics: NULL/unknown counts as not satisfied."""
    return value is True or (value not in (None, False) and bool(value))


# ---------------------------------------------------------------------------
# Batch (vectorized) predicate compilation
# ---------------------------------------------------------------------------
#: ``type(v) in _NUM`` is the numeric fast-path guard: an exact type test, so
#: ``bool`` (whose comparisons against numbers must go through
#: ``compare_values``' bool-as-int rule only via the slow path... it actually
#: matches, but exactness keeps the proof trivial) and arbitrary subclasses
#: fall back to the slow, reference comparator.
_NUMERIC_TYPES = (int, float)

_COMPARE_OPS = ("=", "<>", "<", "<=", ">", ">=")
_PY_OP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _slow_compare(op: str, literal: Any) -> Callable[[Any], bool]:
    """Reference semantics for values the inline fast path does not cover."""
    def check(value: Any) -> bool:
        cmp = compare_values(value, literal)
        if cmp is None:
            return False
        if op == "=":
            return cmp == 0
        if op == "<>":
            return cmp != 0
        if op == "<":
            return cmp < 0
        if op == "<=":
            return cmp <= 0
        if op == ">":
            return cmp > 0
        return cmp >= 0
    return check


def _fragment_with_guard(ref: str, fast: str, guard: str, slow_name: str) -> str:
    """Type-guarded fragment: inline compare, NULL rejection, slow fallback."""
    return (f"(({fast}) if type({ref}) {guard} else "
            f"False if {ref} is None else {slow_name}({ref}))")


class BatchFilter:
    """A WHERE conjunct chain compiled to run over whole value batches.

    The fast path is *generated source code*: every conjunct that matches a
    supported shape (column-vs-literal comparison, BETWEEN, IN over literals,
    IS [NOT] NULL, LIKE with a constant pattern) contributes an inline,
    type-guarded fragment, and all fragments are fused into one list
    comprehension — one Python-level loop per batch instead of a closure-tree
    call per row per conjunct.  Unsupported conjuncts compile through
    :meth:`Evaluator.compile_values` and are evaluated as per-conjunct mask
    vectors, exactly like the row-at-a-time engine evaluates them (eagerly,
    with identical NULL/NaN and exception behaviour).

    The inline fragments reproduce ``compare_values`` semantics bit for bit
    on the types they claim (`type(v) is`-exact guards): NULL fails every
    predicate, NaN orders above every number (hence the ``or v != v`` arm on
    ``>``/``>=``), and any value outside the guard falls back to the shared
    slow comparator.
    """

    __slots__ = ("_slow_masks", "_env", "_condition", "_keep", "_mask")

    def __init__(self, schema: OutputSchema,
                 conjuncts: Sequence[ast.Expression]):
        evaluator = Evaluator(schema)
        env: Dict[str, Any] = {"_NUM": _NUMERIC_TYPES, "zip": zip}
        fragments: List[str] = []
        self._slow_masks: List[Callable[[List[Tuple[Any, ...]]], List[bool]]] = []
        for index, conjunct in enumerate(conjuncts):
            fragment = self._fast_fragment(conjunct, schema, env, index)
            if fragment is not None:
                fragments.append(fragment)
            else:
                core = evaluator.compile_values(conjunct)
                self._slow_masks.append(
                    lambda rows, _core=core:
                        [predicate_is_true(_core(r)) for r in rows])
        mask_names = [f"m{i}" for i in range(len(self._slow_masks))]
        self._env = env
        self._condition = " and ".join(mask_names + fragments) or "True"
        self._keep = self.compile_keep("r")
        self._mask = self.compile_keep(f"({self._condition})", unconditional=True)

    def compile_keep(self, element: str,
                     unconditional: bool = False) -> Callable[..., List[Any]]:
        """Generate ``rows -> [element for passing rows]`` over this filter.

        ``element`` is a source expression over the row tuple ``r`` — ``"r"``
        itself for plain filtering, or a projection like ``"(r[0], r[2])"``
        to fuse selection and projection into one comprehension pass.  With
        ``unconditional`` the comprehension emits ``element`` for *every*
        row (used to produce the boolean mask).
        """
        mask_names = [f"m{i}" for i in range(len(self._slow_masks))]
        suffix = "" if unconditional else f" if {self._condition}"
        if self._slow_masks:
            heads = ", ".join(["r"] + mask_names)
            zipped = "zip(rows, " + ", ".join(
                f"masks[{i}]" for i in range(len(mask_names))) + ")"
            source = f"lambda rows, masks: [{element} for {heads} in {zipped}{suffix}]"
        else:
            source = f"lambda rows: [{element} for r in rows{suffix}]"
        return eval(source, self._env)  # noqa: S307 - generated by us

    def run(self, compiled: Callable[..., List[Any]],
            rows: List[Tuple[Any, ...]]) -> List[Any]:
        """Invoke a ``compile_keep`` product, supplying slow masks if any."""
        if self._slow_masks:
            return compiled(rows, [mask(rows) for mask in self._slow_masks])
        return compiled(rows)

    # -- runtime ---------------------------------------------------------
    def keep_values(self, rows: List[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
        """The value tuples satisfying every conjunct (annotation-free path)."""
        return self.run(self._keep, rows)

    def mask(self, rows: List[Tuple[Any, ...]]) -> List[bool]:
        """Per-row keep decisions (used when annotations ride along)."""
        return self.run(self._mask, rows)

    # -- compilation of one conjunct -------------------------------------
    def _fast_fragment(self, conjunct: ast.Expression, schema: OutputSchema,
                       env: Dict[str, Any], index: int) -> Optional[str]:
        if isinstance(conjunct, ast.IsNull) and isinstance(conjunct.operand,
                                                           ast.ColumnRef):
            position = schema.resolve(conjunct.operand.name,
                                      conjunct.operand.table)
            return (f"(r[{position}] is not None)" if conjunct.negated
                    else f"(r[{position}] is None)")
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _COMPARE_OPS:
            return self._compare_fragment(conjunct, schema, env, index)
        if isinstance(conjunct, ast.Between):
            return self._between_fragment(conjunct, schema, env, index)
        if isinstance(conjunct, ast.InList):
            return self._in_fragment(conjunct, schema, env, index)
        if isinstance(conjunct, ast.Like):
            return self._like_fragment(conjunct, schema, env, index)
        return None

    @staticmethod
    def _column_and_literal(expr: ast.BinaryOp) -> Tuple[Optional[ast.ColumnRef],
                                                         Any, Optional[str]]:
        """Decompose ``col <op> literal`` in either orientation."""
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "=": "=", "<>": "<>"}
        if isinstance(expr.left, ast.ColumnRef) and isinstance(expr.right,
                                                               ast.Literal):
            return expr.left, expr.right.value, expr.op
        if isinstance(expr.right, ast.ColumnRef) and isinstance(expr.left,
                                                                ast.Literal):
            return expr.right, expr.left.value, flipped[expr.op]
        return None, None, None

    @staticmethod
    def _literal_kind(value: Any) -> Optional[str]:
        """"num" / "text" when the inline fast path supports the literal."""
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value != value:
                return None  # NaN literal: slow path keeps the total order
            return "num"
        if isinstance(value, str):
            return "text"
        return None

    def _compare_fragment(self, expr: ast.BinaryOp, schema: OutputSchema,
                          env: Dict[str, Any], index: int) -> Optional[str]:
        column, literal, op = self._column_and_literal(expr)
        if column is None:
            return None
        kind = self._literal_kind(literal)
        if kind is None:
            return None
        position = schema.resolve(column.name, column.table)
        ref = f"r[{position}]"
        constant, slow = f"_k{index}", f"_s{index}"
        env[constant] = literal
        env[slow] = _slow_compare(op, literal)
        fast = f"{ref} {_PY_OP[op]} {constant}"
        if kind == "num":
            if op in (">", ">="):
                # NaN sorts above every number: NaN > x and NaN >= x hold.
                fast = f"{fast} or {ref} != {ref}"
            return _fragment_with_guard(ref, fast, "in _NUM", slow)
        return _fragment_with_guard(ref, fast, "is str", slow)

    def _between_fragment(self, expr: ast.Between, schema: OutputSchema,
                          env: Dict[str, Any], index: int) -> Optional[str]:
        if not isinstance(expr.operand, ast.ColumnRef) \
                or not isinstance(expr.low, ast.Literal) \
                or not isinstance(expr.high, ast.Literal):
            return None
        low_kind = self._literal_kind(expr.low.value)
        high_kind = self._literal_kind(expr.high.value)
        if low_kind is None or low_kind != high_kind:
            return None
        position = schema.resolve(expr.operand.name, expr.operand.table)
        ref = f"r[{position}]"
        low_name, high_name, slow = f"_lo{index}", f"_hi{index}", f"_s{index}"
        env[low_name] = expr.low.value
        env[high_name] = expr.high.value
        low_check = _slow_compare(">=", expr.low.value)
        high_check = _slow_compare("<=", expr.high.value)
        if expr.negated:
            env[slow] = lambda value: not (low_check(value) and high_check(value))
            fast = f"not ({low_name} <= {ref} <= {high_name})"
        else:
            env[slow] = lambda value: low_check(value) and high_check(value)
            fast = f"{low_name} <= {ref} <= {high_name}"
        guard = "in _NUM" if low_kind == "num" else "is str"
        return _fragment_with_guard(ref, fast, guard, slow)

    def _in_fragment(self, expr: ast.InList, schema: OutputSchema,
                     env: Dict[str, Any], index: int) -> Optional[str]:
        if not isinstance(expr.operand, ast.ColumnRef):
            return None
        if not all(isinstance(item, ast.Literal) for item in expr.items):
            return None
        values = [item.value for item in expr.items]
        kinds = {self._literal_kind(value) for value in values
                 if value is not None}
        if len(kinds) != 1 or None in kinds:
            return None
        try:
            members = frozenset(value for value in values if value is not None)
        except TypeError:
            return None
        position = schema.resolve(expr.operand.name, expr.operand.table)
        ref = f"r[{position}]"
        set_name, slow = f"_set{index}", f"_s{index}"
        env[set_name] = members
        negated = expr.negated

        def slow_contains(value: Any) -> bool:
            found = any(values_equal(value, item) for item in values)
            return (not found) if negated else found
        env[slow] = slow_contains
        fast = (f"{ref} not in {set_name}" if negated
                else f"{ref} in {set_name}")
        guard = "in _NUM" if kinds == {"num"} else "is str"
        return _fragment_with_guard(ref, fast, guard, slow)

    def _like_fragment(self, expr: ast.Like, schema: OutputSchema,
                       env: Dict[str, Any], index: int) -> Optional[str]:
        if not isinstance(expr.operand, ast.ColumnRef) \
                or not isinstance(expr.pattern, ast.Literal):
            return None
        if expr.pattern.value is None:
            return None
        position = schema.resolve(expr.operand.name, expr.operand.table)
        ref = f"r[{position}]"
        regex_name, slow = f"_re{index}", f"_s{index}"
        regex = like_to_regex(str(expr.pattern.value))
        env[regex_name] = regex
        negated = expr.negated

        def slow_like(value: Any) -> bool:
            matched = regex.match(str(value)) is not None
            return (not matched) if negated else matched
        env[slow] = slow_like
        fast = (f"{regex_name}.match({ref}) is None" if negated
                else f"{regex_name}.match({ref}) is not None")
        return _fragment_with_guard(ref, fast, "is str", slow)


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
class AggregateState:
    """Accumulator for one aggregate call over the rows of a group.

    All accumulators are *running* — O(1) state per aggregate regardless of
    the group size, which is what lets the executor stream a global
    aggregate (no GROUP BY) over arbitrarily large inputs without buffering.
    The one exception is ``DISTINCT``, whose duplicate-detection set is
    inherently O(distinct values) — with a spill manager, a seen-set beyond
    ``spill.budget_rows`` freezes and later candidate values overflow to a
    temp file, deduplicated one partition at a time by
    :meth:`~repro.storage.spill.SpillManager.partitioned` when the result is
    computed.  Duplicates are detected on :func:`hash_key`, so every NaN
    counts once.  ``MIN``/``MAX`` ignore DISTINCT outright (duplicates
    cannot change the extremum), so they never build a seen-set at all.
    """

    def __init__(self, call: ast.FunctionCall, evaluator: Evaluator,
                 spill: Optional[Any] = None):
        self.name = call.name.upper()
        if self.name not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
            raise PlanningError(f"unknown aggregate {self.name}")
        self.distinct = call.distinct and self.name in ("COUNT", "SUM", "AVG")
        self.is_star = call.is_star
        if not self.is_star:
            if len(call.args) != 1:
                raise PlanningError(f"{self.name} takes exactly one argument")
            self._arg = evaluator.compile(call.args[0])
        self._count = 0
        self._sum: Any = 0
        self._min: Any = None
        self._max: Any = None
        self._seen: Set[Any] = set()
        self._spill = spill if self.distinct else None
        self._overflow: Optional[Any] = None

    def add(self, row: Row) -> None:
        if self.is_star:
            self._count += 1
            return
        value = self._arg(row)
        if value is None:
            return
        if self.distinct:
            key = hash_key(value)
            if key in self._seen:
                return
            if self._overflow is not None:
                # The seen-set is frozen at the budget: unseen candidates go
                # to disk (possibly duplicated) and accumulate on demand in
                # :meth:`result` after a partitioned dedup.
                self._overflow.append((value,))
                return
            self._seen.add(key)
            if self._spill is not None \
                    and len(self._seen) > self._spill.budget_rows:
                self._overflow = self._spill.new_file()
        self._accumulate(value)

    def _accumulate(self, value: Any) -> None:
        self._count += 1
        if self.name in ("SUM", "AVG"):
            self._sum = self._sum + value
        elif self.name == "MIN":
            if self._min is None or value < self._min:
                self._min = value
        elif self.name == "MAX":
            if self._max is None or value > self._max:
                self._max = value

    def result(self) -> Any:
        if self._overflow is not None:
            # Candidates already in the frozen seen-set were never written,
            # so each partition dedups against its own values only.
            overflow, self._overflow = self._overflow, None
            candidates = ((hash_key(values[0]), 0, values, None)
                          for values, _ in overflow.entries())
            for value in self._spill.partitioned(
                    "distinct_aggregate",
                    self._spill.partition_count(len(overflow)),
                    lambda values: hash_key(values[0]), [candidates],
                    _unique_values, ordered=False, max_depth=1):
                self._accumulate(value)
            overflow.close()
        if self.name == "COUNT":
            return self._count
        if self._count == 0:
            return None
        if self.name == "SUM":
            return self._sum
        if self.name == "AVG":
            return self._sum / self._count
        if self.name == "MIN":
            return self._min
        return self._max


def _unique_values(entries: Iterable[Tuple[int, Tuple[Any, ...], Any]]
                   ) -> Iterator[Any]:
    """One spilled partition of DISTINCT-aggregate candidates, deduplicated."""
    unique: Set[Any] = set()
    for _, (value,), _ in entries:
        key = hash_key(value)
        if key not in unique:
            unique.add(key)
            yield value


def find_aggregates(expr: ast.Expression) -> List[ast.FunctionCall]:
    """Collect aggregate function calls appearing anywhere in ``expr``."""
    found: List[ast.FunctionCall] = []

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.FunctionCall):
            if node.name.upper() in AGGREGATE_FUNCTIONS:
                found.append(node)
                return
            for arg in node.args:
                walk(arg)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.Like):
            walk(node.operand)
            walk(node.pattern)
        elif isinstance(node, ast.InList):
            walk(node.operand)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.Between):
            walk(node.operand)
            walk(node.low)
            walk(node.high)

    walk(expr)
    return found


def contains_aggregate(expr: ast.Expression) -> bool:
    return bool(find_aggregates(expr))


# ---------------------------------------------------------------------------
# Annotation predicates (AWHERE / AHAVING / FILTER)
# ---------------------------------------------------------------------------
class AnnotationPredicate:
    """Evaluates an A-SQL annotation condition against a single annotation."""

    _FIELDS = {"value", "body", "table", "curator", "created_at", "archived", "category"}

    def __init__(self, expr: ast.Expression):
        self._expr = expr

    def matches(self, annotation: Any) -> bool:
        value = self._evaluate(self._expr, annotation)
        return predicate_is_true(value)

    # -- recursive evaluation against one annotation ----------------------
    def _evaluate(self, expr: ast.Expression, annotation: Any) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ColumnRef):
            return self._field(expr, annotation)
        if isinstance(expr, ast.UnaryOp):
            operand = self._evaluate(expr.operand, annotation)
            if expr.op == "NOT":
                return None if operand is None else (not bool(operand))
            if expr.op == "-":
                return None if operand is None else -operand
            return operand
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, annotation)
        if isinstance(expr, ast.IsNull):
            value = self._evaluate(expr.operand, annotation)
            return (value is not None) if expr.negated else (value is None)
        if isinstance(expr, ast.Like):
            value = self._evaluate(expr.operand, annotation)
            pattern = self._evaluate(expr.pattern, annotation)
            if value is None or pattern is None:
                return None
            matched = bool(like_to_regex(str(pattern)).match(str(value)))
            return (not matched) if expr.negated else matched
        if isinstance(expr, ast.InList):
            value = self._evaluate(expr.operand, annotation)
            if value is None:
                return None
            items = [self._evaluate(item, annotation) for item in expr.items]
            found = any(values_equal(value, item) for item in items)
            return (not found) if expr.negated else found
        if isinstance(expr, ast.Between):
            value = self._evaluate(expr.operand, annotation)
            low = self._evaluate(expr.low, annotation)
            high = self._evaluate(expr.high, annotation)
            if value is None or low is None or high is None:
                return None
            cmp_low = compare_values(value, low)
            cmp_high = compare_values(value, high)
            if cmp_low is None or cmp_high is None:
                return None
            inside = cmp_low >= 0 and cmp_high <= 0
            return (not inside) if expr.negated else inside
        raise PlanningError(
            f"unsupported construct in annotation condition: {type(expr).__name__}"
        )

    def _binary(self, expr: ast.BinaryOp, annotation: Any) -> Any:
        op = expr.op
        left = self._evaluate(expr.left, annotation)
        right = self._evaluate(expr.right, annotation)
        if op == "AND":
            if left is False or right is False:
                return False
            if left is None or right is None:
                return None
            return bool(left) and bool(right)
        if op == "OR":
            if left is True or right is True:
                return True
            if left is None or right is None:
                return None
            return bool(left) or bool(right)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            cmp = compare_values(left, right)
            if cmp is None:
                return None
            return {
                "=": cmp == 0, "<>": cmp != 0, "<": cmp < 0,
                "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0,
            }[op]
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        raise PlanningError(f"unsupported operator in annotation condition: {op!r}")

    def _field(self, ref: ast.ColumnRef, annotation: Any) -> Any:
        # Accept both  annotation.field  and bare  field  references.
        field = ref.name.lower()
        qualifier = (ref.table or "").lower()
        if qualifier not in ("", "annotation", "ann", "a"):
            raise PlanningError(
                f"annotation conditions may only reference annotation fields, "
                f"not {ref.display()!r}"
            )
        if field in ("value", "body", "annotation"):
            return annotation.body
        if field == "table":
            return annotation.annotation_table
        if field == "curator":
            return annotation.curator
        if field == "created_at":
            return annotation.created_at
        if field == "archived":
            return annotation.archived
        if field == "category":
            return annotation.category
        raise PlanningError(f"unknown annotation field {field!r}")
