"""Tests for DML execution, DDL, secondary indexes, and privilege checks."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.errors import (
    AuthorizationError,
    CatalogError,
    ConstraintViolationError,
    ExecutionError,
    OperationalError,
)


class TestDdl:
    def test_create_and_drop_table(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        assert "t" in db.table_names()
        db.execute("DROP TABLE t")
        assert "t" not in db.table_names()

    def test_drop_table_removes_annotation_tables(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE ANNOTATION TABLE notes ON t")
        db.execute("DROP TABLE t")
        assert not db.annotations.has("t", "notes")

    def test_create_table_requires_superuser(self, db):
        with pytest.raises(AuthorizationError):
            db.execute("CREATE TABLE t (a INTEGER)", user="random_user")


class TestInsert:
    def test_positional_and_named_insert(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c FLOAT)")
        summary = db.execute("INSERT INTO t VALUES (1, 'x', 0.5)")
        assert summary.rows_affected == 1
        db.execute("INSERT INTO t (a, b) VALUES (2, 'y')")
        assert db.query("SELECT c FROM t WHERE a = 2").values() == [(None,)]

    def test_multi_row_insert(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        summary = db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert summary.rows_affected == 3

    def test_primary_key_violation(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintViolationError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t (a, b) VALUES (1)")


class TestUpdateDelete:
    def test_update_with_expression(self, simple_db):
        summary = simple_db.execute("UPDATE samples SET score = score + 10 WHERE category = 'control'")
        assert summary.rows_affected == 2
        assert simple_db.query("SELECT score FROM samples WHERE id = 1").values() == [(10.5,)]

    def test_update_all_rows(self, simple_db):
        summary = simple_db.execute("UPDATE samples SET category = 'all'")
        assert summary.rows_affected == 5

    def test_delete_with_predicate(self, simple_db):
        summary = simple_db.execute("DELETE FROM samples WHERE score < 1")
        assert summary.rows_affected == 1
        assert len(simple_db.query("SELECT * FROM samples")) == 4

    def test_delete_everything(self, simple_db):
        simple_db.execute("DELETE FROM samples")
        assert len(simple_db.query("SELECT * FROM samples")) == 0


class TestPrivileges:
    def test_dml_requires_grant(self, simple_db):
        with pytest.raises(AuthorizationError):
            simple_db.execute("INSERT INTO samples VALUES (9, 'x', 0.0, 'c')",
                              user="intruder")
        with pytest.raises(AuthorizationError):
            simple_db.query("SELECT * FROM samples", user="intruder")

    def test_grant_enables_and_revoke_disables(self, simple_db):
        simple_db.execute("GRANT SELECT, INSERT ON samples TO alice")
        alice = simple_db.connect(user="alice")
        alice.execute("INSERT INTO samples VALUES (10, 'zeta', 5.0, 'treated')")
        assert len(alice.execute("SELECT * FROM samples").fetchall()) == 6
        simple_db.execute("REVOKE INSERT ON samples FROM alice")
        with pytest.raises(OperationalError) as excinfo:
            alice.execute("INSERT INTO samples VALUES (11, 'eta', 6.0, 'treated')")
        assert isinstance(excinfo.value.__cause__, AuthorizationError)

    def test_grant_requires_superuser(self, simple_db):
        with pytest.raises(AuthorizationError):
            simple_db.execute("GRANT SELECT ON samples TO bob", user="mallory")

    def test_checks_can_be_disabled(self):
        from repro import EngineConfig
        database = Database(config=EngineConfig(check_privileges=False))
        database.execute("CREATE TABLE t (a INTEGER)", user="anyone")
        database.execute("INSERT INTO t VALUES (1)", user="anyone")
        assert len(database.query("SELECT * FROM t", user="anyone")) == 1


class TestSecondaryIndexes:
    def test_create_index_and_lookup(self, simple_db):
        simple_db.execute("CREATE INDEX idx_name ON samples (name) USING btree")
        tuple_ids = simple_db.indexes.lookup("idx_name", "gamma")
        assert len(tuple_ids) == 1
        assert simple_db.table("samples").read_cell(tuple_ids[0], "id") == 3

    def test_index_maintained_on_dml(self, simple_db):
        simple_db.execute("CREATE INDEX idx_name ON samples (name) USING hash")
        simple_db.execute("INSERT INTO samples VALUES (6, 'zeta', 9.9, 'treated')")
        assert len(simple_db.indexes.lookup("idx_name", "zeta")) == 1
        simple_db.execute("UPDATE samples SET name = 'omega' WHERE id = 6")
        assert simple_db.indexes.lookup("idx_name", "zeta") == []
        assert len(simple_db.indexes.lookup("idx_name", "omega")) == 1
        simple_db.execute("DELETE FROM samples WHERE id = 6")
        assert simple_db.indexes.lookup("idx_name", "omega") == []

    def test_drop_index(self, simple_db):
        simple_db.execute("CREATE INDEX idx_name ON samples (name)")
        simple_db.execute("DROP INDEX idx_name")
        assert simple_db.indexes.index_names() == []


class TestDatabaseFacade:
    def test_execute_script(self, db):
        results = db.execute_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2); "
            "SELECT COUNT(*) FROM t"
        )
        assert len(results) == 3
        assert results[-1].values() == [(2,)]

    def test_query_rejects_non_queries(self, db):
        with pytest.raises(ExecutionError):
            db.query("CREATE TABLE t (a INTEGER)")

    def test_unknown_table_error(self, db):
        with pytest.raises(CatalogError):
            db.query("SELECT * FROM missing")

    def test_file_backed_database(self, tmp_path):
        path = str(tmp_path / "bio.db")
        with Database(path) as database:
            database.execute("CREATE TABLE t (a INTEGER)")
            database.execute("INSERT INTO t VALUES (1)")
            assert database.io_statistics().page_writes >= 0

    def test_io_statistics_reset(self, simple_db):
        simple_db.reset_io_statistics()
        assert simple_db.io_statistics().total_io == 0
