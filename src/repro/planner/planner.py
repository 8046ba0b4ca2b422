"""Light-weight planning utilities: conjunct analysis and predicate pushdown.

The engine evaluates queries with a straightforward pipeline (scan -> join ->
filter -> group -> project -> order).  To keep joins tractable, the planner
splits the WHERE clause into conjuncts, determines which tables each conjunct
references, and pushes single-table conjuncts down to the corresponding scan
— the classical selection-pushdown rewrite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.sql import ast


def split_conjuncts(expr: Optional[ast.Expression]) -> List[ast.Expression]:
    """Split an expression into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def combine_conjuncts(conjuncts: Sequence[ast.Expression]) -> Optional[ast.Expression]:
    """Re-assemble conjuncts into a single AND expression (or ``None``)."""
    result: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.BinaryOp("AND", result, conjunct)
    return result


def referenced_columns(expr: ast.Expression) -> List[ast.ColumnRef]:
    """Collect every column reference appearing in ``expr``."""
    found: List[ast.ColumnRef] = []

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.ColumnRef):
            found.append(node)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.FunctionCall):
            for arg in node.args:
                if not isinstance(arg, ast.Star):
                    walk(arg)
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


def push_down_conjuncts(
    where: Optional[ast.Expression],
    table_refs: Sequence[ast.TableRef],
    resolvable: Dict[str, Set[str]],
) -> Tuple[Dict[str, List[ast.Expression]], List[ast.Expression]]:
    """Partition WHERE conjuncts into per-table pushdowns and residual conjuncts.

    ``resolvable`` maps each table's effective (alias or real) lower-cased
    name to the set of lower-cased column names it exposes.  A conjunct is
    pushed to a table when every column it references resolves against that
    table alone; everything else (join predicates, multi-table conditions)
    stays in the residual list evaluated after the join.
    """
    pushed: Dict[str, List[ast.Expression]] = {name: [] for name in resolvable}
    residual: List[ast.Expression] = []
    for conjunct in split_conjuncts(where):
        refs = referenced_columns(conjunct)
        homes: Set[str] = set()
        resolvable_everywhere = True
        for ref in refs:
            candidates = []
            for table_name, columns in resolvable.items():
                if ref.table is not None:
                    if ref.table.lower() == table_name and ref.name.lower() in columns:
                        candidates.append(table_name)
                elif ref.name.lower() in columns:
                    candidates.append(table_name)
            if len(candidates) != 1:
                resolvable_everywhere = False
                break
            homes.add(candidates[0])
        if resolvable_everywhere and len(homes) == 1 and refs:
            pushed[next(iter(homes))].append(conjunct)
        else:
            residual.append(conjunct)
    return pushed, residual


#: Key of an equality lookup: (table qualifier or None, column name), both
#: lower-cased.  Keeping the qualifier prevents a lookup on ``a.id`` from
#: being misapplied to another joined table that also has an ``id`` column.
LookupKey = Tuple[Optional[str], str]


def equality_lookups(conjuncts: Sequence[ast.Expression]) -> Dict[LookupKey, Any]:
    """Extract ``column = literal`` equalities usable for index lookups.

    A ``column = ?`` equality participates too: its recorded value is the
    :class:`ast.Parameter` node itself, which the consumer resolves to the
    bound value at execution time (plan-time consumers that need a concrete
    value — primary-key detection, NDV-based selectivity — only care that
    the column *is* pinned, not what it is pinned to).
    """
    lookups: Dict[LookupKey, Any] = {}
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) \
                and isinstance(right, (ast.Literal, ast.Parameter)):
            lookups[_lookup_key(left)] = (
                right.value if isinstance(right, ast.Literal) else right)
        elif isinstance(right, ast.ColumnRef) \
                and isinstance(left, (ast.Literal, ast.Parameter)):
            lookups[_lookup_key(right)] = (
                left.value if isinstance(left, ast.Literal) else left)
    return lookups


def _lookup_key(ref: ast.ColumnRef) -> LookupKey:
    return (ref.table.lower() if ref.table else None, ref.name.lower())


def lookup_value(lookups: Dict[LookupKey, Any], column: str,
                 qualifier: Optional[str] = None, default: Any = None) -> Any:
    """Resolve a lookup for ``qualifier.column``.

    A lookup recorded with an explicit qualifier only applies to that table;
    an unqualified lookup applies to whichever table the caller asks about
    (the pushdown pass has already established it resolves there uniquely).
    """
    if qualifier is not None:
        key = (qualifier.lower(), column.lower())
        if key in lookups:
            return lookups[key]
    return lookups.get((None, column.lower()), default)
