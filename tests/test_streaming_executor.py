"""Tests for the streaming (Volcano-style) executor and index access paths.

Covers the three PR-2 planner/executor features end to end:

* streaming iterators — ``Database.stream``, lazy pipelines and LIMIT
  short-circuiting;
* residual-conjunct pushdown to the lowest covering plan node;
* index access paths — point ``IndexScan`` leaves and index-nested-loop
  joins selected from the registered B-tree / hash indexes, surfaced through
  EXPLAIN.
"""

from __future__ import annotations

import pytest

from repro import Database, EngineConfig, ResultSet, StreamingResultSet
from repro.core.errors import ExecutionError
from repro.planner.plan import (
    format_expression,
    plan_access_paths,
    plan_strategies,
)
from repro.sql.parser import parse_expression
from repro.storage.heap_file import HeapFile


def build_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE gene (gid TEXT PRIMARY KEY, name TEXT, score FLOAT)")
    db.execute("CREATE TABLE protein (pid INTEGER PRIMARY KEY, gid TEXT, "
               "kind TEXT, score FLOAT)")
    for i in range(20):
        db.execute(f"INSERT INTO gene VALUES ('G{i}', 'gene{i}', {i * 1.5})")
    for i in range(60):
        gid = f"'G{i % 25}'" if i % 7 else "NULL"
        db.execute(f"INSERT INTO protein VALUES ({i}, {gid}, 'k{i % 3}', {i * 0.5})")
    return db


@pytest.fixture()
def db() -> Database:
    return build_db()


@pytest.fixture()
def indexed(db) -> Database:
    db.execute("CREATE INDEX ix_protein_gid ON protein (gid) USING btree")
    db.execute("CREATE INDEX ix_gene_gid ON gene (gid) USING hash")
    return db


# ---------------------------------------------------------------------------
# Streaming surface
# ---------------------------------------------------------------------------
class TestStreamingSurface:
    def test_stream_returns_streaming_result(self, db):
        stream = db.stream("SELECT gid FROM gene WHERE score > 3")
        assert isinstance(stream, StreamingResultSet)
        assert stream.columns == ["gid"]
        rows = list(stream)
        assert len(rows) == 17

    def test_stream_fetchmany_then_fetchall(self, db):
        stream = db.stream("SELECT gid FROM gene ORDER BY gid")
        assert stream.fetchmany(0) == []  # must not consume a row
        head = stream.fetchmany(2)
        assert [row.values[0] for row in head] == ["G0", "G1"]
        rest = stream.fetchall()
        assert isinstance(rest, ResultSet)
        assert len(rest) == 18

    def test_stream_rejects_non_queries(self, db):
        with pytest.raises(ExecutionError):
            db.stream("DELETE FROM gene WHERE score > 3")

    def test_stream_checks_privileges_eagerly(self, db):
        db.execute("GRANT SELECT ON protein TO alice")
        from repro.core.errors import AuthorizationError
        with pytest.raises(AuthorizationError):
            db.stream("SELECT gid FROM gene", user="alice")

    def test_group_by_matches_table_scan(self, db):
        query = ("SELECT kind, COUNT(*) AS n FROM protein WHERE pid < 40 "
                 "GROUP BY kind ORDER BY kind")
        counts = {}
        for _, (pid, _gid, kind, _score) in db.table("protein").scan():
            if pid < 40:
                counts[kind] = counts.get(kind, 0) + 1
        assert db.query(query).values() == sorted(counts.items())

    def test_set_operations_stream(self, db):
        stream = db.stream(
            "SELECT gid FROM gene INTERSECT SELECT gid FROM protein")
        values = sorted(row.values[0] for row in stream)
        assert values == sorted({f"G{i % 25}" for i in range(60)
                                 if i % 7 and i % 25 < 20})


# ---------------------------------------------------------------------------
# Residual pushdown to the lowest covering node
# ---------------------------------------------------------------------------
class TestResidualPushdown:
    def test_non_equi_conjunct_lands_on_join_node(self, db):
        db.explain("SELECT g.gid, p.pid FROM gene g, protein p "
                   "WHERE g.gid = p.gid AND g.score < p.score")
        plan = db.engine.last_plan
        assert plan.filters, "non-equi conjunct should attach to the join"
        assert [format_expression(c) for c in plan.filters] == \
            ["g.score < p.score"]

    def test_three_way_join_filter_attaches_below_root(self, db):
        db.execute("CREATE TABLE sample (sid INTEGER PRIMARY KEY, pid INTEGER)")
        for i in range(10):
            db.execute(f"INSERT INTO sample VALUES ({i}, {i * 2})")
        # The greedy order joins (protein, sample) first; a p/s comparison
        # must land on that lower join, not on the root above gene.
        query = ("SELECT g.gid FROM gene g, protein p, sample s "
                 "WHERE g.gid = p.gid AND p.pid = s.pid AND p.score < s.sid")
        explained = db.explain(query)
        assert "filter: p.score < s.sid" in explained.message
        from repro.planner.plan import JoinPlan, plan_qualifiers
        plan = db.engine.last_plan
        carriers = []

        def walk(node):
            if isinstance(node, JoinPlan):
                if node.filters:
                    carriers.append(node)
                walk(node.left)
                walk(node.right)
        walk(plan)
        assert len(carriers) == 1
        node = carriers[0]
        # The carrier is the *lowest* covering node: it covers {p, s} but
        # neither of its children does.
        assert plan_qualifiers(node) >= {"p", "s"}
        assert not plan_qualifiers(node.left) >= {"p", "s"}
        assert not plan_qualifiers(node.right) >= {"p", "s"}
        assert plan_qualifiers(plan) > plan_qualifiers(node)
        # And the filtered query agrees with the naive pipeline.
        db.config.join_strategy = "nested_loop"
        baseline = sorted(db.query(query).values())
        db.config.join_strategy = "auto"
        assert sorted(db.query(query).values()) == baseline

    def test_where_over_left_join_still_filters_padded_rows(self, db):
        # The conjunct references the nullable side: it attaches AT the LEFT
        # join (evaluated after padding), never below it.
        query = ("SELECT g.gid, p.pid FROM gene g "
                 "LEFT JOIN protein p ON g.gid = p.gid WHERE p.kind = 'k1'")
        db.config.join_strategy = "nested_loop"
        baseline = sorted(db.query(query).values())
        db.config.join_strategy = "auto"
        assert sorted(db.query(query).values()) == baseline
        plan = db.engine.last_plan
        assert [format_expression(c) for c in plan.filters] == ["p.kind = 'k1'"]
        assert not any(value is None for _, value in db.query(query).values())

    def test_unplaceable_conjunct_stays_in_top_residual(self, db):
        explained = db.explain(
            "SELECT g.gid FROM gene g, protein p WHERE g.gid = p.gid AND 1 = 1")
        assert "Residual filter: 1 conjunct(s)" in explained.message


# ---------------------------------------------------------------------------
# Index access paths
# ---------------------------------------------------------------------------
class TestIndexAccessPaths:
    def test_equality_lookup_uses_index_scan(self, indexed):
        explained = indexed.explain(
            "SELECT pid FROM protein WHERE gid = 'G3' AND kind = 'k1'")
        assert "IndexScan protein using ix_protein_gid (gid = 'G3')" \
            in explained.message
        assert "pushed: gid = 'G3' AND kind = 'k1'" in explained.message
        plan_dict = explained.details["plan"]
        assert plan_dict["node"] == "IndexScan"
        assert plan_dict["access_path"] == "index_lookup"
        assert plan_dict["index"] == "ix_protein_gid"

    def test_index_scan_results_match_seq_scan(self, indexed):
        query = "SELECT pid FROM protein WHERE gid = 'G3'"
        with_index = sorted(indexed.query(query).values())
        assert plan_access_paths(indexed.engine.last_plan) == ["index_lookup"]
        indexed.config.use_indexes = False
        try:
            without_index = sorted(indexed.query(query).values())
            assert plan_access_paths(indexed.engine.last_plan) == ["seq"]
        finally:
            indexed.config.use_indexes = True
        assert with_index == without_index
        assert with_index  # G3 matches at least one protein

    def test_cross_type_equality_never_picks_index(self, indexed):
        # gid is TEXT; an integer literal must not be probed into the B-tree.
        indexed.query("SELECT pid FROM protein WHERE gid = 3")
        assert plan_access_paths(indexed.engine.last_plan) == ["seq"]

    def test_null_equality_never_picks_index(self, indexed):
        result = indexed.query("SELECT pid FROM protein WHERE gid = NULL")
        assert plan_access_paths(indexed.engine.last_plan) == ["seq"]
        assert len(result) == 0

    def test_index_join_selected_and_reported(self, indexed):
        explained = indexed.explain(
            "SELECT g.gid, p.pid FROM gene g, protein p WHERE g.gid = p.gid")
        assert "IndexNestedLoopJoin [INNER] on g.gid = p.gid " \
               "using ix_protein_gid" in explained.message
        plan_dict = explained.details["plan"]
        assert plan_dict["node"] == "IndexNestedLoopJoin"
        assert plan_dict["index"] == "ix_protein_gid"

    def test_index_join_respects_pushed_right_filter(self, indexed):
        query = ("SELECT g.gid, p.pid FROM gene g, protein p "
                 "WHERE g.gid = p.gid AND p.kind = 'k1' AND g.score > 3")
        indexed.config.join_strategy = "nested_loop"
        baseline = sorted(indexed.query(query).values())
        indexed.config.join_strategy = "index_nested_loop"
        try:
            candidate = sorted(indexed.query(query).values())
            assert plan_strategies(indexed.engine.last_plan) == ["index_nested_loop"]
        finally:
            indexed.config.join_strategy = "auto"
        assert candidate == baseline

    def test_use_indexes_false_disables_index_paths(self, indexed):
        indexed.config.use_indexes = False
        try:
            indexed.query(
                "SELECT g.gid, p.pid FROM gene g, protein p WHERE g.gid = p.gid")
            assert "index_nested_loop" not in plan_strategies(indexed.engine.last_plan)
            assert set(plan_access_paths(indexed.engine.last_plan)) == {"seq"}
        finally:
            indexed.config.use_indexes = True

    def test_duplicate_key_column_never_picks_index_join(self, db):
        # Regression: two equi-conjuncts on the SAME right column would match
        # a one-column hash index by set-dedup but probe it with a two-value
        # key, silently returning no matches.  Such edges must not take the
        # index path, and results must agree with the naive pipeline.
        db.execute("INSERT INTO gene VALUES ('GX', 'GX', 1.0)")
        db.execute("INSERT INTO protein VALUES (900, 'GX', 'kx', 1.0)")
        db.execute("CREATE INDEX ix_hash_gid ON protein (gid) USING hash")
        query = ("SELECT g.gid, p.pid FROM gene g, protein p "
                 "WHERE g.gid = p.gid AND g.name = p.gid")
        db.config.join_strategy = "nested_loop"
        baseline = sorted(db.query(query).values())
        assert ("GX", 900) in baseline  # the shape must produce real matches
        for strategy in ("auto", "index_nested_loop"):
            db.config.join_strategy = strategy
            try:
                assert sorted(db.query(query).values()) == baseline
                assert "index_nested_loop" not in \
                    plan_strategies(db.engine.last_plan)
            finally:
                db.config.join_strategy = "auto"

    def test_dropped_index_falls_back_to_hash(self, indexed):
        indexed.execute("DROP INDEX ix_protein_gid")
        indexed.query(
            "SELECT g.gid, p.pid FROM gene g, protein p WHERE g.gid = p.gid")
        assert "index_nested_loop" not in plan_strategies(indexed.engine.last_plan)

    def test_index_join_after_dml_sees_fresh_rows(self, indexed):
        indexed.execute("INSERT INTO protein VALUES (990, 'G1', 'kz', 0.1)")
        indexed.execute("UPDATE protein SET gid = 'G2' WHERE pid = 990")
        indexed.execute("DELETE FROM protein WHERE pid = 8")
        query = "SELECT g.gid, p.pid FROM gene g, protein p WHERE g.gid = p.gid"
        indexed.config.join_strategy = "nested_loop"
        baseline = sorted(indexed.query(query).values())
        indexed.config.join_strategy = "index_nested_loop"
        try:
            assert sorted(indexed.query(query).values()) == baseline
        finally:
            indexed.config.join_strategy = "auto"
        assert ("G2", 990) in baseline
        assert all(pid != 8 for _, pid in baseline)


# ---------------------------------------------------------------------------
# LIMIT short-circuiting
# ---------------------------------------------------------------------------
class TestLimitShortCircuit:
    """The batched scan decodes whole heap pages, so LIMIT's early stop is
    pinned at page granularity: a satisfied LIMIT decodes a page or two of a
    table that spans many."""

    @pytest.fixture()
    def paged(self, db, monkeypatch):
        protein = db.table("protein")
        for i in range(60, 3_000):
            protein.insert_row({"pid": i, "gid": f"G{i % 25}",
                                "kind": f"k{i % 3}", "score": i * 0.5})
        assert protein.heap.num_pages() >= 20
        decoded = []
        original = HeapFile.scan_page_rows

        def counting(self, page_id, with_tuple_ids=True):
            decoded.append(page_id)
            return original(self, page_id, with_tuple_ids)

        monkeypatch.setattr(HeapFile, "scan_page_rows", counting)
        return db, decoded

    def test_limit_stops_the_scan(self, paged):
        db, decoded = paged
        result = db.query("SELECT pid FROM protein LIMIT 5")
        assert result.values() == [(i,) for i in range(5)]
        assert 0 < len(decoded) <= 2

    def test_limit_with_filter_scans_only_until_satisfied(self, paged):
        db, decoded = paged
        # kind = 'k2' matches every third row: 3 matches need ~9 scanned rows.
        result = db.query("SELECT pid FROM protein WHERE kind = 'k2' LIMIT 3")
        assert result.values() == [(2,), (5,), (8,)]
        assert 0 < len(decoded) <= 2

    def test_offset_and_limit_return_the_ordered_window(self, db):
        query = "SELECT pid FROM protein ORDER BY pid LIMIT 7 OFFSET 5"
        assert db.query(query).values() == [(i,) for i in range(5, 12)]


# ---------------------------------------------------------------------------
# format_expression (EXPLAIN rendering helper)
# ---------------------------------------------------------------------------
class TestFormatExpression:
    @pytest.mark.parametrize("sql, rendered", [
        ("a = 1", "a = 1"),
        ("g.score > 3.5", "g.score > 3.5"),
        ("name LIKE 'x%'", "name LIKE 'x%'"),
        ("a IS NOT NULL", "a IS NOT NULL"),
        ("a IN (1, 2)", "a IN (1, 2)"),
        ("a BETWEEN 1 AND 2", "a BETWEEN 1 AND 2"),
        ("NOT a = 1", "NOT a = 1"),
        ("a = 1 AND (b = 2 OR c = 3)", "a = 1 AND (b = 2 OR c = 3)"),
        ("LENGTH(name) = 4", "LENGTH(name) = 4"),
        ("v = 'it''s'", "v = 'it''s'"),
    ])
    def test_round_trips_readably(self, sql, rendered):
        assert format_expression(parse_expression(sql)) == rendered
