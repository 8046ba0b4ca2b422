"""PEP 249 (DB-API 2.0) connections and cursors over the bdbms engine.

One :class:`Connection` and one :class:`Cursor` serve both ways of reaching
the engine.  ``connect()`` opens a database in process;
:func:`repro.client.connect` returns a
:class:`~repro.client.NetworkConnection`, the same connection with its
transport hooks speaking the wire protocol.  Either way, cursors execute SQL
with qmark (``?``) parameter binding through the engine's prepared-statement
machinery:

* the SQL text is parsed once per connection (statement LRU);
* query plans are cached engine-wide per (SQL text, config fingerprint) and
  invalidated by the catalog schema version (DDL / ANALYZE), so re-executing
  a prepared query skips tokenize + parse + planning;
* SELECT results ride the lazy :class:`~repro.executor.row.StreamingResultSet`
  — ``fetchone``/iteration never materializes more rows than consumed.

Errors surface as the PEP 249 hierarchy (``repro.ProgrammingError``,
``repro.IntegrityError``, ...), every class of which still derives from
:class:`~repro.core.errors.BdbmsError`.

The cursor reaches its connection through *transport hooks* — ``_execute``,
``_executemany``, ``_executescript``, ``_commit``, ``_rollback`` and
``_close`` — and reads query results from a *row source*: an iterator of
:class:`~repro.executor.row.Row` with ``columns`` (the output names),
``fetchmany(n)`` and ``close()``, where ``iter()`` drains the rest.  In
process the row source is the engine's stream itself.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import (
    BdbmsError,
    Error,
    InterfaceError,
    ProgrammingError,
    map_error,
)
from repro.executor.prepared import PreparedStatement
from repro.executor.row import ColumnInfo, OutputSchema, Row, StreamingResultSet
from repro.sql import ast
from repro.sql.parameters import bind_statement, validate_parameters

#: Cursors with an open SELECT stream expose one 7-tuple per output column:
#: (name, type_code, display_size, internal_size, precision, scale, null_ok).
#: Only ``name`` is known in general; the rest are ``None`` as PEP 249 allows.
Description = Tuple[Tuple[Any, ...], ...]

#: Capacity of the per-connection SQL-text -> PreparedStatement LRU.
STATEMENT_CACHE_SIZE = 128


@contextmanager
def translate_errors():
    """Re-raise internal errors as their PEP 249 equivalents (chained)."""
    try:
        yield
    except Error:
        raise
    except BdbmsError as exc:
        raise map_error(exc) from exc


def _check_sql(sql: Any) -> None:
    if not isinstance(sql, str):
        raise InterfaceError(
            f"SQL must be a string, got {type(sql).__name__}")


def _last_tuple_id(summary: Any) -> Optional[int]:
    tuple_ids = summary.details.get("tuple_ids")
    return tuple_ids[-1] if tuple_ids else None


def connect(path: Optional[str] = None, *, user: str = "admin",
            **database_kwargs: Any) -> "Connection":
    """Open a database file (or an in-memory database) as a DB-API connection.

    ``path`` and the keyword arguments mirror
    :class:`repro.core.database.Database` (``page_size``, ``pool_size``,
    ``config``, ``batch_size``, ``memory_budget_rows``); ``user`` is the
    principal all statements of this connection run as.  Closing the
    connection closes the underlying database.

    >>> import repro
    >>> with repro.connect() as conn:
    ...     cur = conn.cursor()
    ...     cur.execute("CREATE TABLE g (id INTEGER PRIMARY KEY, name TEXT)")
    ...     cur.execute("INSERT INTO g VALUES (?, ?)", (1, "mraW"))
    ...     cur.execute("SELECT name FROM g WHERE id = ?", (1,))
    ...     cur.fetchone().values
    ('mraW',)
    """
    from repro.core.database import Database
    with translate_errors():
        database = Database(path, **database_kwargs)
    return Connection(database, user=user, owns_database=True)


class Connection:
    """A PEP 249 connection bound to one user identity.

    In process it wraps a :class:`~repro.core.database.Database` — either
    one it opened itself (module-level :func:`connect`) or a shared one
    (:meth:`Database.connect`); only an owning connection closes the
    database on :meth:`close`.  :class:`repro.client.NetworkConnection`
    overrides the transport hooks and has no ``database``.
    """

    #: PEP 249 optional extension: the exception classes as attributes, so
    #: code holding only a connection can catch ``conn.ProgrammingError``.
    from repro.core import errors as _errors
    Warning = _errors.Warning
    Error = _errors.Error
    InterfaceError = _errors.InterfaceError
    DatabaseError = _errors.DatabaseError
    DataError = _errors.DataError
    OperationalError = _errors.OperationalError
    IntegrityError = _errors.IntegrityError
    InternalError = _errors.InternalError
    ProgrammingError = _errors.ProgrammingError
    NotSupportedError = _errors.NotSupportedError
    del _errors

    def __init__(self, database: Any, *, user: str = "admin",
                 owns_database: bool = False):
        #: The underlying :class:`Database` (engine knobs, table access).
        self.database = database
        self._engine = database.engine
        self.user = user
        self._owns_database = owns_database
        self._closed = False
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()
        self._statements: "OrderedDict[str, PreparedStatement]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def _prepare(self, sql: str) -> PreparedStatement:
        """SQL text -> PreparedStatement, through the per-connection LRU."""
        prepared = self._statements.get(sql)
        if prepared is not None:
            self._statements.move_to_end(sql)
            return prepared
        with translate_errors():
            prepared = self._engine.prepare(sql)
        self._statements[sql] = prepared
        while len(self._statements) > STATEMENT_CACHE_SIZE:
            self._statements.popitem(last=False)
        return prepared

    # ------------------------------------------------------------------
    # PEP 249 interface
    # ------------------------------------------------------------------
    def cursor(self) -> "Cursor":
        self._check_open()
        cursor = Cursor(self)
        self._cursors.add(cursor)
        return cursor

    def commit(self) -> None:
        """Commit the open transaction; durable once this returns.

        An explicit transaction (``BEGIN`` on any cursor) is written to the
        write-ahead log and fsynced before this returns (under
        ``synchronous="full"``).  Without an open transaction every
        statement already committed itself, so this is just a durability
        point for the buffered pages — never an error, per PEP 249.
        """
        self._check_open()
        with translate_errors():
            self._commit()

    def rollback(self) -> None:
        """Undo the open transaction (rows, schema, and annotations are
        restored from before-images).  A no-op without an open transaction,
        matching sqlite3."""
        self._check_open()
        with translate_errors():
            self._rollback()

    def close(self) -> None:
        """Roll back any open transaction, close every cursor, and release
        the transport (an owning in-process connection closes its
        database).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for cursor in list(self._cursors):
            cursor.close()
        self._close()

    # -- conveniences (sqlite3-style shortcuts) -------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Shortcut: a fresh cursor with ``execute`` already called."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        return self.cursor().executemany(sql, seq_of_params)

    def executescript(self, script: str) -> "Cursor":
        return self.cursor().executescript(script)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Connection":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """sqlite3-style transaction semantics, plus close.

        A clean exit commits the open transaction; an exception rolls it
        back (and propagates).  The connection is then closed either way.
        """
        if not self._closed:
            try:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
            finally:
                self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"{type(self).__name__}(user={self.user!r}, {state})"

    # ------------------------------------------------------------------
    # Transport hooks (in process: straight into the engine)
    # ------------------------------------------------------------------
    def _execute(self, cursor: "Cursor", sql: str, params: Tuple[Any, ...]
                 ) -> Tuple[Optional[Any], int, Optional[int]]:
        """Run one statement: ``(row source or None, rowcount, lastrowid)``.

        ``cursor`` is the caller, for a row source that sizes its fetches
        by the cursor's ``arraysize``."""
        prepared = self._prepare(sql)
        if prepared.is_query:
            return (self._engine.stream_prepared(prepared, params,
                                                 user=self.user), -1, None)
        summary = self._engine.execute_prepared(prepared, params,
                                                user=self.user)
        statement = prepared.statement
        if isinstance(statement, ast.Explain):
            # EXPLAIN reads like a query: one "plan" row per line of the
            # plan dump (generic plans render ?N markers).
            rows = [Row((line,)) for line in summary.message.splitlines()]
            return (StreamingResultSet(OutputSchema([ColumnInfo("plan")]),
                                       rows), -1, None)
        lastrowid = _last_tuple_id(summary) \
            if isinstance(statement, ast.Insert) else None
        return None, summary.rows_affected, lastrowid

    def _executemany(self, sql: str, seq_of_params: List[Tuple[Any, ...]]
                     ) -> Tuple[int, Optional[int]]:
        """Run one DML statement per parameter set: ``(rowcount,
        lastrowid)``.

        INSERTs take the batched fast path: every bound VALUES row is
        collected into a *single* multi-row INSERT executed in one engine
        call (one pass through validation, index maintenance bookkeeping,
        and statistics), which is how bulk loads ride the vectorized
        pipeline instead of paying per-call dispatch.
        """
        prepared = self._prepare(sql)
        if prepared.is_query:
            raise ProgrammingError(
                "executemany() cannot be used with SELECT; iterate "
                "execute() instead")
        statement = prepared.statement
        if not isinstance(statement, ast.Insert):
            return sum(self._engine.execute_prepared(
                prepared, params, user=self.user).rows_affected
                for params in seq_of_params), None
        rows: List[List[ast.Expression]] = []
        for params in seq_of_params:
            bound = bind_statement(statement, validate_parameters(
                params, prepared.parameter_count))
            rows.extend(bound.rows)
        if not rows:
            return 0, None
        summary = self._engine.execute(
            ast.Insert(statement.table, statement.columns, rows),
            user=self.user)
        return summary.rows_affected, _last_tuple_id(summary)

    def _executescript(self, script: str) -> int:
        """Run a script; the rowcount summed over its statements."""
        results = self.database.execute_script(script, user=self.user)
        return sum(getattr(result, "rows_affected", 0) for result in results)

    def _commit(self) -> None:
        self.database.commit()

    def _rollback(self) -> None:
        self.database.rollback()

    def _close(self) -> None:
        self._statements.clear()
        if self._owns_database:
            self.database.close()
        else:
            # A shared database stays open, but this connection's
            # uncommitted work must not leak into it.
            self.database.rollback()


class Cursor:
    """A PEP 249 cursor: execute statements, fetch results, iterate lazily.

    Rows are :class:`~repro.executor.row.Row` objects — sequences (indexable,
    iterable, ``len()``-able) whose ``.values`` is the plain value tuple and
    whose ``.annotations`` carries the propagated A-SQL annotations, so the
    paper's annotation semantics survive the standard API.  The cursor
    checks the SQL and the parameter shape before its connection's
    transport sees them, so a malformed call never costs a round trip.
    """

    def __init__(self, connection: Connection):
        self.connection = connection
        #: Default ``fetchmany`` size (PEP 249; mutable per cursor).
        self.arraysize = 1
        self._closed = False
        self._rows: Optional[Any] = None
        self._rowcount = -1
        self._lastrowid: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def description(self) -> Optional[Description]:
        """Column descriptions of the last SELECT, ``None`` for DML.

        Built on demand from the row source: a tight execute/fetch loop
        that never reads it does not pay for the 7-tuples.
        """
        if self._rows is None:
            return None
        return tuple((name, None, None, None, None, None, None)
                     for name in self._rows.columns)

    @property
    def rowcount(self) -> int:
        """Rows affected by the last DML statement; ``-1`` for queries
        (the lazy stream's length is unknown until drained)."""
        return self._rowcount

    @property
    def lastrowid(self) -> Optional[int]:
        """Tuple id of the last row inserted by the last INSERT, if any."""
        return self._lastrowid

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        if self.connection.closed:
            raise InterfaceError("connection is closed")

    def _release_rows(self) -> None:
        rows, self._rows = self._rows, None
        if rows is not None:
            rows.close()

    def _reset_results(self) -> None:
        self._release_rows()
        self._rowcount = -1
        self._lastrowid = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> "Cursor":
        """Execute one statement with qmark parameters bound.

        Queries leave a lazy result stream on the cursor (``fetchone`` /
        ``fetchmany`` / ``fetchall`` / iteration); DML sets ``rowcount``
        and ``lastrowid``.  Returns the cursor (sqlite3-style chaining).
        """
        self._check_open()
        _check_sql(sql)
        params = validate_parameters(params, None)
        self._reset_results()
        with translate_errors():
            self._rows, self._rowcount, self._lastrowid = \
                self.connection._execute(self, sql, params)
        return self

    def executemany(self, sql: str,
                    seq_of_params: Iterable[Sequence[Any]]) -> "Cursor":
        """Execute one DML statement once per parameter set."""
        self._check_open()
        _check_sql(sql)
        seq_of_params = [validate_parameters(params, None)
                         for params in seq_of_params]
        self._reset_results()
        with translate_errors():
            self._rowcount, self._lastrowid = \
                self.connection._executemany(sql, seq_of_params)
        return self

    def executescript(self, script: str) -> "Cursor":
        """Execute a semicolon-separated, unparameterized script."""
        self._check_open()
        self._reset_results()
        with translate_errors():
            self._rowcount = self.connection._executescript(script)
        return self

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def _result_rows(self) -> Any:
        if self._rows is None:
            raise ProgrammingError(
                "no result set: execute a SELECT before fetching")
        return self._rows

    def fetchone(self) -> Optional[Row]:
        """The next row of the result, or ``None`` when exhausted."""
        self._check_open()
        rows = self._result_rows()
        with translate_errors():
            return next(rows, None)

    def fetchmany(self, size: Optional[int] = None) -> List[Row]:
        self._check_open()
        rows = self._result_rows()
        with translate_errors():
            return rows.fetchmany(self.arraysize if size is None else size)

    def fetchall(self) -> List[Row]:
        self._check_open()
        rows = self._result_rows()
        with translate_errors():
            return list(rows)

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> Row:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # ------------------------------------------------------------------
    def setinputsizes(self, sizes: Sequence[Any]) -> None:  # pragma: no cover
        """PEP 249 no-op: parameter types are inferred from the values."""

    def setoutputsize(self, size: int,
                      column: Optional[int] = None) -> None:  # pragma: no cover
        """PEP 249 no-op: values are never truncated."""

    def close(self) -> None:
        """Discard any pending result (a served one is released on the
        server).  Idempotent."""
        self._release_rows()
        self._closed = True

    def __enter__(self) -> "Cursor":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Cursor({state}, rowcount={self._rowcount})"
