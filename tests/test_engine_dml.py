"""Tests for DML execution, DDL, secondary indexes, and privilege checks."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.errors import (
    AuthorizationError,
    CatalogError,
    ConstraintViolationError,
    ExecutionError,
    IntegrityError,
    OperationalError,
    ProgrammingError,
)
from sql_helpers import fetch, run, values


class TestDdl:
    def test_create_and_drop_table(self, db):
        run(db, "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        assert "t" in db.table_names()
        run(db, "DROP TABLE t")
        assert "t" not in db.table_names()

    def test_drop_table_removes_annotation_tables(self, db):
        run(db, "CREATE TABLE t (a INTEGER)")
        run(db, "CREATE ANNOTATION TABLE notes ON t")
        run(db, "DROP TABLE t")
        assert not db.annotations.has("t", "notes")

    def test_create_table_requires_superuser(self, db):
        with pytest.raises(OperationalError) as info:
            run(db, "CREATE TABLE t (a INTEGER)", user="random_user")
        assert isinstance(info.value.__cause__, AuthorizationError)


class TestInsert:
    def test_positional_and_named_insert(self, db):
        run(db, "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c FLOAT)")
        summary = run(db, "INSERT INTO t VALUES (1, 'x', 0.5)")
        assert summary.rowcount == 1
        run(db, "INSERT INTO t (a, b) VALUES (2, 'y')")
        assert values(db, "SELECT c FROM t WHERE a = 2") == [(None,)]

    def test_multi_row_insert(self, db):
        run(db, "CREATE TABLE t (a INTEGER)")
        summary = run(db, "INSERT INTO t VALUES (1), (2), (3)")
        assert summary.rowcount == 3

    def test_primary_key_violation(self, db):
        run(db, "CREATE TABLE t (a INTEGER PRIMARY KEY)")
        run(db, "INSERT INTO t VALUES (1)")
        with pytest.raises(IntegrityError) as info:
            run(db, "INSERT INTO t VALUES (1)")
        assert isinstance(info.value.__cause__, ConstraintViolationError)

    def test_arity_mismatch(self, db):
        run(db, "CREATE TABLE t (a INTEGER, b TEXT)")
        with pytest.raises(OperationalError) as info:
            run(db, "INSERT INTO t (a, b) VALUES (1)")
        assert isinstance(info.value.__cause__, ExecutionError)


class TestUpdateDelete:
    def test_update_with_expression(self, simple_db):
        summary = run(simple_db, "UPDATE samples SET score = score + 10 WHERE category = 'control'")
        assert summary.rowcount == 2
        assert values(simple_db, "SELECT score FROM samples WHERE id = 1") == [(10.5,)]

    def test_update_all_rows(self, simple_db):
        summary = run(simple_db, "UPDATE samples SET category = 'all'")
        assert summary.rowcount == 5

    def test_delete_with_predicate(self, simple_db):
        summary = run(simple_db, "DELETE FROM samples WHERE score < 1")
        assert summary.rowcount == 1
        assert len(fetch(simple_db, "SELECT * FROM samples")) == 4

    def test_delete_everything(self, simple_db):
        run(simple_db, "DELETE FROM samples")
        assert len(fetch(simple_db, "SELECT * FROM samples")) == 0


class TestPrivileges:
    def test_dml_requires_grant(self, simple_db):
        with pytest.raises(OperationalError) as info:
            run(simple_db, "INSERT INTO samples VALUES (9, 'x', 0.0, 'c')",
                user="intruder")
        assert isinstance(info.value.__cause__, AuthorizationError)
        with pytest.raises(OperationalError) as info:
            fetch(simple_db, "SELECT * FROM samples", user="intruder")
        assert isinstance(info.value.__cause__, AuthorizationError)

    def test_grant_enables_and_revoke_disables(self, simple_db):
        run(simple_db, "GRANT SELECT, INSERT ON samples TO alice")
        alice = simple_db.connect(user="alice")
        alice.execute("INSERT INTO samples VALUES (10, 'zeta', 5.0, 'treated')")
        assert len(alice.execute("SELECT * FROM samples").fetchall()) == 6
        run(simple_db, "REVOKE INSERT ON samples FROM alice")
        with pytest.raises(OperationalError) as excinfo:
            alice.execute("INSERT INTO samples VALUES (11, 'eta', 6.0, 'treated')")
        assert isinstance(excinfo.value.__cause__, AuthorizationError)

    def test_grant_requires_superuser(self, simple_db):
        with pytest.raises(OperationalError) as info:
            run(simple_db, "GRANT SELECT ON samples TO bob", user="mallory")
        assert isinstance(info.value.__cause__, AuthorizationError)

    def test_checks_can_be_disabled(self):
        from repro import EngineConfig
        database = Database(config=EngineConfig(check_privileges=False))
        run(database, "CREATE TABLE t (a INTEGER)", user="anyone")
        run(database, "INSERT INTO t VALUES (1)", user="anyone")
        assert len(fetch(database, "SELECT * FROM t", user="anyone")) == 1


class TestSecondaryIndexes:
    def test_create_index_and_lookup(self, simple_db):
        run(simple_db, "CREATE INDEX idx_name ON samples (name) USING btree")
        tuple_ids = simple_db.indexes.lookup("idx_name", "gamma")
        assert len(tuple_ids) == 1
        assert simple_db.table("samples").read_cell(tuple_ids[0], "id") == 3

    def test_index_maintained_on_dml(self, simple_db):
        run(simple_db, "CREATE INDEX idx_name ON samples (name) USING hash")
        run(simple_db, "INSERT INTO samples VALUES (6, 'zeta', 9.9, 'treated')")
        assert len(simple_db.indexes.lookup("idx_name", "zeta")) == 1
        run(simple_db, "UPDATE samples SET name = 'omega' WHERE id = 6")
        assert simple_db.indexes.lookup("idx_name", "zeta") == []
        assert len(simple_db.indexes.lookup("idx_name", "omega")) == 1
        run(simple_db, "DELETE FROM samples WHERE id = 6")
        assert simple_db.indexes.lookup("idx_name", "omega") == []

    def test_drop_index(self, simple_db):
        run(simple_db, "CREATE INDEX idx_name ON samples (name)")
        run(simple_db, "DROP INDEX idx_name")
        assert simple_db.indexes.index_names() == []


class TestDatabaseFacade:
    def test_execute_script(self, db):
        cursor = db.connect().executescript(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); "
            "SELECT COUNT(*) FROM t"
        )
        assert cursor.rowcount == 2
        assert values(db, "SELECT COUNT(*) FROM t") == [(2,)]

    def test_fetch_rejects_non_queries(self, db):
        cursor = run(db, "CREATE TABLE t (a INTEGER)")
        with pytest.raises(ProgrammingError):
            cursor.fetchall()

    def test_unknown_table_error(self, db):
        with pytest.raises(ProgrammingError) as info:
            fetch(db, "SELECT * FROM missing")
        assert isinstance(info.value.__cause__, CatalogError)

    def test_file_backed_database(self, tmp_path):
        path = str(tmp_path / "bio.db")
        with Database(path) as database:
            run(database, "CREATE TABLE t (a INTEGER)")
            run(database, "INSERT INTO t VALUES (1)")
            assert database.io_statistics().page_writes >= 0

    def test_io_statistics_reset(self, simple_db):
        simple_db.reset_io_statistics()
        assert simple_db.io_statistics().total_io == 0
