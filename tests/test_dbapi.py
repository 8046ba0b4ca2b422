"""PEP 249 (DB-API 2.0) conformance-style tests for the ``repro`` module.

Modelled on the classic ``dbapi20`` compliance suite: module attributes,
the exception hierarchy, connection/cursor lifecycles, description and
rowcount semantics, fetch behaviour, parameter binding, and the optional
extensions this driver provides (``lastrowid``, ``executescript``,
``Connection.execute`` shortcuts, exception classes on the connection).

The ``conn`` fixture is parameterized over the two ways of reaching the
engine — in-process (``repro.connect``) and over the network
(``repro.client.connect`` against a live :class:`repro.server.DatabaseServer`)
— so every conformance case doubles as a wire-protocol parity check.  The
``connect_as`` fixture opens a second connection to the same engine as a
given user on either transport.  Cases that inherently need the in-process
``Database`` object call :func:`local_database`, which skips under the
network parameterization.
"""

from __future__ import annotations

import pytest

import repro
import repro.client
from repro.server import start_server


def _seed(connection):
    cur = connection.cursor()
    cur.execute("CREATE TABLE samples (id INTEGER PRIMARY KEY, name TEXT, "
                "score FLOAT)")
    cur.executemany("INSERT INTO samples VALUES (?, ?, ?)",
                    [(1, "alpha", 0.5), (2, "beta", 1.5), (3, "gamma", 2.5),
                     (4, "delta", 3.5), (5, "epsilon", 4.5)])


@pytest.fixture(params=["inprocess", "server"])
def transport(request):
    """``(connection, connect_as)``: a seeded admin connection, and a factory
    that opens another connection to the same engine as a given user."""
    opened = []
    server = None
    if request.param == "inprocess":
        connection = repro.connect()

        def open_as(user):
            return connection.database.connect(user=user)
    else:
        server = start_server()
        connection = repro.client.connect(port=server.port)

        def open_as(user):
            return repro.client.connect(port=server.port, user=user)

    def connect_as(user):
        opened.append(open_as(user))
        return opened[-1]

    try:
        _seed(connection)
        yield connection, connect_as
        for other in [*opened, connection]:
            other.close()
    finally:
        if server is not None:
            server.shutdown()


@pytest.fixture
def conn(transport):
    return transport[0]


@pytest.fixture
def connect_as(transport):
    return transport[1]


def local_database(conn):
    """The in-process ``Database`` behind ``conn``; skips for the network
    client, whose database lives in the server process."""
    if not hasattr(conn, "database"):
        pytest.skip("requires in-process access to the Database object")
    return conn.database


def _requests_served(conn):
    """The server's ``requests_served`` counter, or ``None`` in process."""
    if hasattr(conn, "database"):
        return None
    return conn.request({"op": "stats"})["stats"]["requests_served"]


# ---------------------------------------------------------------------------
# Module interface
# ---------------------------------------------------------------------------
class TestModuleInterface:
    def test_apilevel(self):
        assert repro.apilevel == "2.0"

    def test_threadsafety(self):
        assert repro.threadsafety in (0, 1, 2, 3)

    def test_paramstyle(self):
        assert repro.paramstyle == "qmark"

    def test_connect_returns_connection(self):
        connection = repro.connect()
        assert isinstance(connection, repro.Connection)
        connection.close()

    def test_exception_hierarchy(self):
        # PEP 249 mandates exactly this inheritance lattice.
        assert issubclass(repro.Warning, Exception)
        assert issubclass(repro.Error, Exception)
        assert issubclass(repro.InterfaceError, repro.Error)
        assert issubclass(repro.DatabaseError, repro.Error)
        assert issubclass(repro.DataError, repro.DatabaseError)
        assert issubclass(repro.OperationalError, repro.DatabaseError)
        assert issubclass(repro.IntegrityError, repro.DatabaseError)
        assert issubclass(repro.InternalError, repro.DatabaseError)
        assert issubclass(repro.ProgrammingError, repro.DatabaseError)
        assert issubclass(repro.NotSupportedError, repro.DatabaseError)

    def test_dbapi_errors_are_bdbms_errors(self):
        # Legacy callers catching the library base class keep working.
        assert issubclass(repro.Error, repro.BdbmsError)

    def test_exceptions_available_on_connection(self, conn):
        assert conn.ProgrammingError is repro.ProgrammingError
        assert conn.Error is repro.Error


# ---------------------------------------------------------------------------
# Connection lifecycle
# ---------------------------------------------------------------------------
class TestConnection:
    def test_one_connection_and_cursor_class_for_both_transports(self, conn):
        assert isinstance(conn, repro.Connection)
        assert type(conn.cursor()) is repro.Cursor

    def test_commit_is_allowed(self, conn):
        conn.commit()  # auto-commit engine: flushes, never raises

    def test_rollback_without_transaction_is_noop(self, conn):
        conn.rollback()  # sqlite3-style: no open transaction, no error

    def test_rollback_undoes_transaction(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE TABLE t_rb (id INTEGER PRIMARY KEY, v TEXT)")
        cur.execute("INSERT INTO t_rb VALUES (1, 'keep')")
        conn.commit()
        cur.execute("BEGIN")
        cur.execute("INSERT INTO t_rb VALUES (2, 'discard')")
        conn.rollback()
        cur.execute("SELECT id FROM t_rb")
        assert [row[0] for row in cur.fetchall()] == [1]

    def test_exit_with_exception_rolls_back(self):
        db = repro.Database()
        conn = db.connect()
        conn.execute("CREATE TABLE t_exc (id INTEGER PRIMARY KEY)")
        with pytest.raises(RuntimeError):
            with conn:
                conn.execute("BEGIN")
                conn.execute("INSERT INTO t_exc VALUES (1)")
                raise RuntimeError("boom")
        check = db.connect()
        assert check.execute("SELECT id FROM t_exc").fetchall() == []

    def test_non_string_sql_raises_interface_error(self, conn):
        with pytest.raises(repro.InterfaceError):
            conn.execute(42)
        with pytest.raises(repro.InterfaceError):
            conn.execute(b"SELECT 1")

    def test_close_is_idempotent(self, conn):
        conn.close()
        conn.close()

    def test_operations_on_closed_connection_raise(self, conn):
        conn.close()
        with pytest.raises(repro.Error):
            conn.cursor()
        with pytest.raises(repro.Error):
            conn.commit()

    def test_closing_connection_closes_cursors(self, conn):
        cur = conn.cursor()
        conn.close()
        with pytest.raises(repro.Error):
            cur.execute("SELECT 1")

    def test_context_manager_closes(self):
        with repro.connect() as connection:
            connection.cursor().execute("SELECT 1")
        assert connection.closed
        with pytest.raises(repro.Error):
            connection.cursor()

    def test_connect_on_disk(self, tmp_path):
        path = str(tmp_path / "genes.db")
        with repro.connect(path) as connection:
            cur = connection.cursor()
            cur.execute("CREATE TABLE g (id INTEGER PRIMARY KEY, name TEXT)")
            cur.execute("INSERT INTO g VALUES (?, ?)", (1, "mraW"))
            row = connection.execute("SELECT name FROM g WHERE id = ?",
                                     (1,)).fetchone()
            assert row.values == ("mraW",)
        # close() flushed the buffer pool into the file.
        import os
        assert os.path.getsize(path) > 0

    def test_database_connect_shares_database(self, conn, connect_as):
        other = connect_as("admin")
        row = other.execute("SELECT COUNT(*) FROM samples").fetchone()
        assert row[0] == 5
        other.close()           # non-owning close leaves the database open
        assert conn.execute("SELECT COUNT(*) FROM samples").fetchone()[0] == 5


# ---------------------------------------------------------------------------
# Cursor basics
# ---------------------------------------------------------------------------
class TestCursor:
    def test_execute_returns_cursor(self, conn):
        cur = conn.cursor()
        assert cur.execute("SELECT 1") is cur

    def test_description_for_query(self, conn):
        cur = conn.execute("SELECT id, name FROM samples")
        assert len(cur.description) == 2
        assert all(len(entry) == 7 for entry in cur.description)
        assert [entry[0] for entry in cur.description] == ["id", "name"]

    def test_description_none_for_dml(self, conn):
        cur = conn.execute("INSERT INTO samples VALUES (?, ?, ?)",
                           (10, "zeta", 9.0))
        assert cur.description is None

    def test_rowcount(self, conn):
        cur = conn.cursor()
        assert cur.rowcount == -1
        cur.execute("UPDATE samples SET score = score + 1 WHERE id <= ?", (3,))
        assert cur.rowcount == 3
        cur.execute("SELECT * FROM samples")
        assert cur.rowcount == -1   # lazy stream: length unknown

    def test_lastrowid_after_insert(self, conn):
        cur = conn.execute("INSERT INTO samples VALUES (?, ?, ?)",
                           (11, "eta", 1.0))
        assert cur.lastrowid is not None

    def test_fetchone_exhaustion(self, conn):
        cur = conn.execute("SELECT name FROM samples WHERE id = ?", (1,))
        assert cur.fetchone().values == ("alpha",)
        assert cur.fetchone() is None

    def test_fetchmany_uses_arraysize(self, conn):
        cur = conn.execute("SELECT id FROM samples ORDER BY id")
        assert cur.arraysize == 1
        assert [row[0] for row in cur.fetchmany()] == [1]
        cur.arraysize = 3
        assert [row[0] for row in cur.fetchmany()] == [2, 3, 4]
        assert [row[0] for row in cur.fetchmany(10)] == [5]

    def test_fetchall(self, conn):
        cur = conn.execute("SELECT id FROM samples ORDER BY id")
        assert [row[0] for row in cur.fetchall()] == [1, 2, 3, 4, 5]
        assert cur.fetchall() == []

    def test_fetch_without_result_set_raises(self, conn):
        cur = conn.cursor()
        with pytest.raises(repro.ProgrammingError):
            cur.fetchone()
        cur.execute("INSERT INTO samples VALUES (?, ?, ?)", (12, "t", 0.0))
        with pytest.raises(repro.ProgrammingError):
            cur.fetchall()

    def test_iteration_is_lazy(self, conn):
        cur = conn.execute("SELECT id FROM samples ORDER BY id")
        first = next(iter(cur))
        assert first[0] == 1
        assert [row[0] for row in cur] == [2, 3, 4, 5]

    def test_rows_are_sequences_with_annotations(self, conn):
        row = conn.execute("SELECT id, name FROM samples WHERE id = ?",
                           (2,)).fetchone()
        assert tuple(row) == (2, "beta")
        assert row[1] == "beta"
        assert len(row) == 2
        assert row.values == (2, "beta")
        assert [set()] * 2 == [set(anns) for anns in row.annotations]

    def test_closed_cursor_raises(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(repro.Error):
            cur.execute("SELECT 1")
        cur.close()  # idempotent

    def test_cursor_context_manager(self, conn):
        with conn.cursor() as cur:
            cur.execute("SELECT 1")
        with pytest.raises(repro.Error):
            cur.execute("SELECT 1")

    def test_setinputsizes_and_setoutputsize_are_noops(self, conn):
        cur = conn.cursor()
        cur.setinputsizes([None])
        cur.setoutputsize(100)
        cur.setoutputsize(100, 0)


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------
class TestParameters:
    def test_qmark_binding_all_clauses(self, conn):
        cur = conn.execute(
            "SELECT name, score + ? FROM samples "
            "WHERE score BETWEEN ? AND ? AND name LIKE ? AND id IN (?, ?, ?) "
            "ORDER BY id",
            (100, 0.0, 3.0, "%a%", 1, 2, 3))
        assert [tuple(row) for row in cur.fetchall()] == [
            ("alpha", 100.5), ("beta", 101.5), ("gamma", 102.5)]

    def test_null_parameter_never_matches_equality(self, conn):
        cur = conn.execute("SELECT * FROM samples WHERE name = ?", (None,))
        assert cur.fetchall() == []

    def test_wrong_parameter_count_fails_eagerly(self, conn):
        with pytest.raises(repro.ProgrammingError) as excinfo:
            conn.execute("SELECT * FROM samples WHERE id = ? AND name = ?",
                         (1,))
        assert "2 parameter(s)" in str(excinfo.value)
        assert "1 value(s)" in str(excinfo.value)

    def test_unsupported_type_names_placeholder(self, conn):
        with pytest.raises(repro.ProgrammingError) as excinfo:
            conn.execute("SELECT * FROM samples WHERE id = ? AND name = ?",
                         (1, ["not", "a", "scalar"]))
        assert "parameter 2" in str(excinfo.value)

    def test_mapping_parameters_rejected(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.execute("SELECT * FROM samples WHERE id = ?", {"id": 1})

    @pytest.mark.parametrize("params", [{"id": 1}, {1}, object()],
                             ids=["dict", "set", "object"])
    def test_non_sequence_parameters_fail_before_a_round_trip(self, conn,
                                                              params):
        served = _requests_served(conn)
        with pytest.raises(repro.ProgrammingError) as excinfo:
            conn.cursor().execute("SELECT * FROM samples WHERE id = ?", params)
        assert str(excinfo.value) == (
            f"parameters must be given as a sequence (list or tuple), got "
            f"{type(params).__name__}: this dialect uses qmark ('?') "
            f"placeholders, not named ones")
        if served is not None:
            # The only request since is the first stats request itself.
            assert _requests_served(conn) == served + 1

    def test_literal_question_mark_in_string_is_not_a_placeholder(self, conn):
        cur = conn.execute("SELECT name FROM samples WHERE name = 'a?b'")
        assert cur.fetchall() == []


# ---------------------------------------------------------------------------
# executemany / executescript
# ---------------------------------------------------------------------------
class TestExecuteMany:
    def test_executemany_insert_batches(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO samples VALUES (?, ?, ?)",
                        [(20 + i, f"bulk{i}", float(i)) for i in range(50)])
        assert cur.rowcount == 50
        count = conn.execute("SELECT COUNT(*) FROM samples").fetchone()[0]
        assert count == 55

    def test_executemany_update(self, conn):
        cur = conn.cursor()
        cur.executemany("UPDATE samples SET score = ? WHERE id = ?",
                        [(10.0, 1), (20.0, 2)])
        assert cur.rowcount == 2
        rows = conn.execute("SELECT score FROM samples WHERE id <= 2 "
                            "ORDER BY id").fetchall()
        assert [row[0] for row in rows] == [10.0, 20.0]

    def test_executemany_rejects_select(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.cursor().executemany("SELECT * FROM samples WHERE id = ?",
                                      [(1,), (2,)])

    def test_executemany_empty_sequence(self, conn):
        cur = conn.cursor()
        cur.executemany("INSERT INTO samples VALUES (?, ?, ?)", [])
        assert cur.rowcount == 0

    def test_executemany_validates_each_set(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.cursor().executemany("INSERT INTO samples VALUES (?, ?, ?)",
                                      [(30, "ok", 1.0), (31, "bad")])

    def test_executescript(self, conn):
        conn.executescript("""
            INSERT INTO samples VALUES (40, 'forty', 40.0);
            INSERT INTO samples VALUES (41, 'fortyone', 41.0);
        """)
        count = conn.execute("SELECT COUNT(*) FROM samples WHERE id >= ?",
                             (40,)).fetchone()[0]
        assert count == 2


# ---------------------------------------------------------------------------
# Error mapping
# ---------------------------------------------------------------------------
class TestErrorMapping:
    def test_syntax_error_is_programming_error(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.execute("SELEKT * FROM samples")

    def test_unknown_table_is_programming_error(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.execute("SELECT * FROM no_such_table")

    def test_unknown_column_is_programming_error(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.execute("SELECT nope FROM samples")

    def test_duplicate_primary_key_is_integrity_error(self, conn):
        with pytest.raises(repro.IntegrityError):
            conn.execute("INSERT INTO samples VALUES (?, ?, ?)",
                         (1, "dup", 0.0))

    def test_division_by_zero_is_database_error(self, conn):
        with pytest.raises(repro.DatabaseError):
            conn.execute("SELECT 1 / 0").fetchall()

    def test_authorization_error_is_operational(self, connect_as):
        restricted = connect_as("guest")
        with pytest.raises(repro.OperationalError):
            restricted.execute("DROP TABLE samples")

    def test_original_error_is_chained(self, conn):
        local_database(conn)  # chaining cannot survive the wire
        from repro.core.errors import SqlSyntaxError
        with pytest.raises(repro.ProgrammingError) as excinfo:
            conn.execute("SELEKT 1")
        assert isinstance(excinfo.value.__cause__, SqlSyntaxError)

    def test_multi_statement_points_at_executescript(self, conn):
        with pytest.raises(repro.ProgrammingError) as excinfo:
            conn.execute("SELECT 1; SELECT 2")
        assert "executescript" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Scripts and A-SQL through cursors
# ---------------------------------------------------------------------------
class TestScriptsAndAnnotations:
    def test_execute_script_rejects_placeholders(self, conn):
        with pytest.raises(repro.ProgrammingError):
            conn.executescript("INSERT INTO samples VALUES (?, 'x', 0.0);")

    def test_a_sql_annotations_flow_through_cursors(self, conn):
        cur = conn.cursor()
        cur.execute("CREATE ANNOTATION TABLE snote ON samples")
        cur.execute("ADD ANNOTATION TO samples.snote VALUE 'checked' "
                    "ON (SELECT s.name FROM samples s WHERE s.id = 2)")
        cur.execute("SELECT name FROM samples ANNOTATION(snote) "
                    "WHERE id = ?", (2,))
        row = cur.fetchone()
        assert row.values == ("beta",)
        assert any("checked" in a.body for a in row.annotations[0])
