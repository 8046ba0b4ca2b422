"""Parameter binding for prepared statements (qmark / PEP 249 style).

A prepared statement keeps its parsed AST — with :class:`ast.Parameter`
placeholders intact — for its whole lifetime, so the engine can cache the
plan built from it.  At execution time the bound values are *substituted*
into fresh expression trees (:func:`substitute_parameters`); subtrees without
placeholders are shared, not copied, so binding a typical statement touches a
handful of nodes.

Validation is eager (:func:`validate_parameters`): a wrong parameter count or
a value the storage layer cannot represent fails with the placeholder index
in the message before any planning or execution happens.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime
from typing import Any, Optional, Sequence, Tuple

from repro.core.errors import ProgrammingError
from repro.sql import ast

#: Python types the storage layer can represent (the SQL NULL plus the value
#: forms of INTEGER/FLOAT/BOOLEAN/TEXT-like/TIMESTAMP columns).
SUPPORTED_PARAMETER_TYPES = (type(None), bool, int, float, str, datetime)

_SUPPORTED_NAMES = "NULL, bool, int, float, str, datetime"


def validate_parameters(params: Any,
                        expected_count: Optional[int]) -> Tuple[Any, ...]:
    """Check count and types eagerly; return the parameters as a tuple.

    Raises :class:`ProgrammingError` naming the offending placeholder when a
    value's type has no SQL representation, or stating both counts when the
    arity is wrong.  ``None`` is accepted as "no parameters".  An
    ``expected_count`` of ``None`` skips the count check: a network client
    never parses the SQL, so only the server knows the placeholder count.
    """
    if params is None:
        params = ()
    if type(params) is not tuple:                  # fast path: already a tuple
        if isinstance(params, (str, bytes)) or not isinstance(params, Sequence):
            raise ProgrammingError(
                f"parameters must be given as a sequence (list or tuple), "
                f"got {type(params).__name__}: this dialect uses qmark ('?') "
                f"placeholders, not named ones")
        params = tuple(params)
    if expected_count is not None and len(params) != expected_count:
        raise ProgrammingError(
            f"statement expects {expected_count} parameter(s) "
            f"({expected_count} '?' placeholder(s)) but {len(params)} "
            f"value(s) were supplied")
    for position, value in enumerate(params):
        if not isinstance(value, SUPPORTED_PARAMETER_TYPES):
            raise ProgrammingError(
                f"parameter {position + 1} has unsupported type "
                f"{type(value).__name__!r}; supported types: {_SUPPORTED_NAMES}")
    return params


def substitute_parameters(expr: ast.Expression,
                          params: Sequence[Any]) -> ast.Expression:
    """Return ``expr`` with every :class:`ast.Parameter` replaced by a
    :class:`ast.Literal` of the bound value.

    Subtrees containing no placeholder are returned *by reference* (the
    common case — only the parameterized conjuncts of a WHERE clause are
    rebuilt), which also preserves literal identity for caches keyed on
    literal nodes (e.g. the constant-pattern LIKE fast path).
    """
    if isinstance(expr, ast.Parameter):
        return ast.Literal(params[expr.index])
    if isinstance(expr, ast.BinaryOp):
        left = substitute_parameters(expr.left, params)
        right = substitute_parameters(expr.right, params)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinaryOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = substitute_parameters(expr.operand, params)
        return expr if operand is expr.operand else ast.UnaryOp(expr.op, operand)
    if isinstance(expr, ast.FunctionCall):
        args = [substitute_parameters(arg, params) for arg in expr.args]
        if all(new is old for new, old in zip(args, expr.args)):
            return expr
        return ast.FunctionCall(expr.name, args, expr.distinct)
    if isinstance(expr, ast.IsNull):
        operand = substitute_parameters(expr.operand, params)
        if operand is expr.operand:
            return expr
        return ast.IsNull(operand, expr.negated)
    if isinstance(expr, ast.Like):
        operand = substitute_parameters(expr.operand, params)
        pattern = substitute_parameters(expr.pattern, params)
        if operand is expr.operand and pattern is expr.pattern:
            return expr
        return ast.Like(operand, pattern, expr.negated)
    if isinstance(expr, ast.InList):
        operand = substitute_parameters(expr.operand, params)
        items = [substitute_parameters(item, params) for item in expr.items]
        if operand is expr.operand \
                and all(new is old for new, old in zip(items, expr.items)):
            return expr
        return ast.InList(operand, items, expr.negated)
    if isinstance(expr, ast.Between):
        operand = substitute_parameters(expr.operand, params)
        low = substitute_parameters(expr.low, params)
        high = substitute_parameters(expr.high, params)
        if operand is expr.operand and low is expr.low and high is expr.high:
            return expr
        return ast.Between(operand, low, high, expr.negated)
    # Literal, ColumnRef, Star: no placeholders below.
    return expr


def _substitute_optional(expr: Optional[ast.Expression],
                         params: Sequence[Any]) -> Optional[ast.Expression]:
    return None if expr is None else substitute_parameters(expr, params)


def bind_select_clauses(select: ast.Select,
                        params: Sequence[Any]) -> ast.Select:
    """A shallow copy of ``select`` with the post-planning clauses bound.

    The engine plans against the *template* select (so the plan stays
    reusable) and executes projection/grouping/ordering/annotation clauses
    from this bound copy.  ``where``, ``from_tables`` and ``joins`` are left
    untouched — their parameterized conjuncts live on in the plan tree,
    which is bound separately (see ``repro.executor.prepared.bind_plan``).
    Identity-preserving: when no clause holds a placeholder (the common
    point-query shape, whose parameters all sit in WHERE), the original
    select is returned with zero allocation.
    """
    if not params:
        return select
    changed = False
    items = []
    for item in select.items:
        expr = substitute_parameters(item.expr, params)
        if expr is item.expr:
            items.append(item)
        else:
            changed = True
            items.append(ast.SelectItem(expr, item.alias, item.promote))
    group_by = [substitute_parameters(expr, params) for expr in select.group_by]
    changed = changed or any(new is not old
                             for new, old in zip(group_by, select.group_by))
    order_by = []
    for item in select.order_by:
        expr = substitute_parameters(item.expr, params)
        if expr is item.expr:
            order_by.append(item)
        else:
            changed = True
            order_by.append(ast.OrderItem(expr, item.ascending))
    having = _substitute_optional(select.having, params)
    ahaving = _substitute_optional(select.ahaving, params)
    awhere = _substitute_optional(select.awhere, params)
    filter_ = _substitute_optional(select.filter, params)
    changed = changed or having is not select.having \
        or ahaving is not select.ahaving or awhere is not select.awhere \
        or filter_ is not select.filter
    if not changed:
        return select
    return replace(select, items=items, group_by=group_by, having=having,
                   ahaving=ahaving, awhere=awhere, filter=filter_,
                   order_by=order_by)


def bind_statement(statement: Any, params: Sequence[Any]) -> Any:
    """Bind the parameters of a DML statement into a substituted copy.

    Queries are *not* bound here — the engine binds them after (cached)
    planning so the plan never bakes in one execution's values.  Statement
    types outside INSERT/UPDATE/DELETE cannot carry parameters at all.
    """
    if not params:
        return statement
    if isinstance(statement, ast.Insert):
        return ast.Insert(
            statement.table, statement.columns,
            [[substitute_parameters(expr, params) for expr in row]
             for row in statement.rows])
    if isinstance(statement, ast.Update):
        return ast.Update(
            statement.table,
            [(column, substitute_parameters(expr, params))
             for column, expr in statement.assignments],
            _substitute_optional(statement.where, params))
    if isinstance(statement, ast.Delete):
        return ast.Delete(statement.table,
                          _substitute_optional(statement.where, params))
    raise ProgrammingError(
        f"parameter placeholders are not supported in "
        f"{type(statement).__name__} statements")
