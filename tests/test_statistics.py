"""Unit tests for the statistics manager and the ANALYZE / EXPLAIN surface."""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.catalog.statistics import StatisticsManager
from repro.core.errors import AuthorizationError, OperationalError
from repro.sql.parser import parse_expression
from sql_helpers import details, run


@pytest.fixture
def stats_db() -> Database:
    db = Database()
    run(db, "CREATE TABLE items (id INTEGER PRIMARY KEY, grp TEXT, "
            "score FLOAT, note TEXT)")
    for i in range(40):
        note = "NULL" if i % 4 == 0 else f"'n{i}'"
        run(db, f"INSERT INTO items VALUES ({i}, 'g{i % 5}', {float(i)}, {note})")
    return db


class TestAnalyze:
    def test_analyze_computes_row_count_and_column_stats(self, stats_db):
        table = details(stats_db, "ANALYZE items")["tables"]["items"]
        assert table["row_count"] == 40
        assert table["columns"]["id"]["distinct"] == 40
        assert table["columns"]["grp"]["distinct"] == 5
        assert table["columns"]["note"]["null_count"] == 10
        assert table["columns"]["score"]["min"] == 0.0
        assert table["columns"]["score"]["max"] == 39.0

    def test_analyze_all_requires_superuser(self, stats_db):
        run(stats_db, "GRANT SELECT ON items TO carol")
        with pytest.raises(OperationalError) as info:
            run(stats_db, "ANALYZE", user="carol")
        assert isinstance(info.value.__cause__, AuthorizationError)
        # A single table only needs SELECT on that table.
        summary = run(stats_db, "ANALYZE items", user="carol")
        assert summary.rowcount == 1

    def test_analyze_versions_bump(self, stats_db):
        first = details(stats_db, "ANALYZE items")["tables"]["items"]
        second = details(stats_db, "ANALYZE items")["tables"]["items"]
        assert second["version"] == first["version"] + 1

    def test_dml_keeps_row_count_fresh(self, stats_db):
        run(stats_db, "ANALYZE items")
        run(stats_db, "DELETE FROM items WHERE id < 10")
        run(stats_db, "INSERT INTO items VALUES (100, 'g9', 1.0, 'x')")
        stats = stats_db.statistics.stats_for("items")
        assert stats.row_count == 31

    def test_auto_refresh_after_heavy_dml(self, stats_db):
        run(stats_db, "ANALYZE items")
        before = stats_db.statistics.stats_for("items").version
        for i in range(200, 270):
            run(stats_db, f"INSERT INTO items VALUES ({i}, 'g{i % 5}', 1.0, 'y')")
        refreshed = stats_db.statistics.stats_for("items")
        assert refreshed.version > before
        assert refreshed.row_count == 110

    def test_analyze_tolerates_nan_values(self):
        # NaN must not poison min/max bounds or crash histogram bucketing,
        # and the auto-refresh path (triggered from SELECT planning) must
        # survive NaN-containing FLOAT columns too.
        db = Database()
        run(db, "CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        values = [float("nan"), 1.0, 2.0, float("nan"), 3.0]
        for i, value in enumerate(values):
            db.table("t").insert_row({"id": i, "x": value})
        column = details(db, "ANALYZE t")["tables"]["t"]["columns"]["x"]
        assert column["min"] == 1.0
        assert column["max"] == 3.0
        estimate = db.statistics.estimate_scan_rows(
            "t", [parse_expression("x < 2.5")])
        assert 0 < estimate < 5

    def test_analyze_tolerates_infinite_values(self):
        # The tokenizer turns overlarge literals like 1e400 into inf; bounds
        # and histograms must survive that just like NaN.
        db = Database()
        run(db, "CREATE TABLE t (id INTEGER PRIMARY KEY, x FLOAT)")
        run(db, "INSERT INTO t VALUES (0, 1e400), (1, 1.0), (2, 2.0)")
        column = details(db, "ANALYZE t")["tables"]["t"]["columns"]["x"]
        assert column["min"] == 1.0
        assert column["max"] == 2.0

    def test_analyze_all_nan_column(self):
        db = Database()
        run(db, "CREATE TABLE t (x FLOAT)")
        db.table("t").insert_row({"x": float("nan")})
        db.table("t").insert_row({"x": float("nan")})
        column = details(db, "ANALYZE t")["tables"]["t"]["columns"]["x"]
        assert column["min"] is None and column["max"] is None

    def test_bulk_load_via_table_api_not_stale(self, stats_db):
        # Direct Table.insert_row calls bypass the engine's DML hooks; the
        # row-count estimate must stay live and drift must trigger refresh.
        run(stats_db, "ANALYZE items")
        table = stats_db.table("items")
        for i in range(1000, 1100):
            table.insert_row({"id": i, "grp": "bulk", "score": 1.0, "note": "x"})
        assert stats_db.statistics.row_count_estimate("items") == 140
        refreshed = stats_db.statistics.stats_for("items")
        assert refreshed.row_count == 140
        assert refreshed.column("grp").distinct == 6

    def test_drop_table_drops_statistics(self, stats_db):
        run(stats_db, "ANALYZE items")
        run(stats_db, "DROP TABLE items")
        assert stats_db.statistics.stats_for("items") is None


class TestEstimation:
    def test_row_count_estimate_without_stats_is_live(self, stats_db):
        assert stats_db.statistics.row_count_estimate("items") == 40

    def test_equality_selectivity_uses_ndv(self, stats_db):
        run(stats_db, "ANALYZE items")
        stats = stats_db.statistics
        conjuncts = [parse_expression("grp = 'g1'")]
        estimate = stats.estimate_scan_rows("items", conjuncts)
        assert estimate == pytest.approx(40 / 5)

    def test_primary_key_equality_pins_to_one_row(self, stats_db):
        run(stats_db, "ANALYZE items")
        estimate = stats_db.statistics.estimate_scan_rows(
            "items", [parse_expression("id = 7")])
        assert estimate == 1.0

    def test_qualified_lookup_not_misapplied(self, stats_db):
        # A conjunct pinned to another table's qualifier cannot make this
        # scan look like a single-row primary-key lookup.
        estimate = stats_db.statistics.estimate_scan_rows(
            "items", [parse_expression("other.id = 7")], qualifier="items")
        assert estimate > 1.0

    def test_range_selectivity_interpolates(self, stats_db):
        run(stats_db, "ANALYZE items")
        stats = stats_db.statistics
        half = stats.estimate_scan_rows("items", [parse_expression("score < 19.5")])
        assert 12 <= half <= 28  # roughly half of 40
        high = stats.estimate_scan_rows("items", [parse_expression("score > 35.0")])
        assert high < half

    def test_inclusive_bound_counts_dominant_value(self):
        # 90% of rows share one value: ``x <= 10`` must include that mass.
        db = Database()
        run(db, "CREATE TABLE skew (x INTEGER)")
        for _ in range(90):
            db.table("skew").insert_row({"x": 10})
        for i in range(11, 21):
            db.table("skew").insert_row({"x": i})
        run(db, "ANALYZE skew")
        stats = db.statistics
        inclusive = stats.estimate_scan_rows("skew", [parse_expression("x <= 10")])
        strict = stats.estimate_scan_rows("skew", [parse_expression("x < 10")])
        assert inclusive > strict
        assert inclusive >= 9  # at least one equality quantum of 100/11

    def test_conjuncts_multiply(self, stats_db):
        run(stats_db, "ANALYZE items")
        stats = stats_db.statistics
        one = stats.estimate_scan_rows("items", [parse_expression("grp = 'g1'")])
        both = stats.estimate_scan_rows(
            "items",
            [parse_expression("grp = 'g1'"), parse_expression("score < 19.5")])
        assert both < one

    def test_distinct_estimate_fallback_without_stats(self):
        db = Database()
        run(db, "CREATE TABLE t (a INTEGER)")
        for i in range(30):
            run(db, f"INSERT INTO t VALUES ({i % 3})")
        manager: StatisticsManager = db.statistics
        assert manager.stats_for("t") is None
        # Never analyzed: NDV falls back to rows/10.
        assert manager.distinct_estimate("t", "a") == 3
        run(db, "ANALYZE t")
        assert manager.distinct_estimate("t", "a") == 3  # now exact


class TestExplain:
    def test_explain_does_not_execute(self, stats_db):
        summary = stats_db.explain("SELECT * FROM items WHERE id = 1")
        assert summary.statement == "EXPLAIN"
        assert summary.details["plan"]["node"] == "Scan"
        assert "Scan items" in summary.message

    def test_explain_requires_select_privilege(self, stats_db):
        with pytest.raises(AuthorizationError):
            stats_db.explain("SELECT * FROM items", user="mallory")

    def test_explain_set_operation(self, stats_db):
        summary = stats_db.explain(
            "SELECT id FROM items UNION SELECT id FROM items")
        assert summary.details["plan"]["node"] == "UNION"
        assert summary.message.startswith("UNION")

    def test_explain_statement_via_sql(self, stats_db):
        cursor = run(stats_db, "EXPLAIN SELECT id FROM items WHERE id < 3")
        assert [column[0] for column in cursor.description] == ["plan"]
        assert "pushed" in "\n".join(row.values[0] for row in cursor)


def test_statistics_staleness_counters_are_exact_under_contention():
    """Server worker threads reach the DML hooks concurrently: no update to
    the staleness counters may be lost."""
    db = Database()
    run(db, "CREATE TABLE t (id INTEGER)")
    run(db, "INSERT INTO t VALUES (1)")
    run(db, "ANALYZE t")
    statistics = db.catalog.statistics
    statistics.auto_refresh = False
    threads, iterations = 8, 400
    barrier = threading.Barrier(threads)

    def worker():
        barrier.wait()
        for _ in range(iterations):
            statistics.on_insert("t", 1)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in pool)
    total = threads * iterations
    assert statistics._dml_since_analyze["t"] == total
    assert statistics._stats["t"].row_count == 1 + total
