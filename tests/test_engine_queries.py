"""End-to-end tests of plain SQL query execution through the engine."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.errors import (
    ExecutionError,
    OperationalError,
    PlanningError,
    ProgrammingError,
)
from sql_helpers import fetch, run, values


class TestBasicSelect:
    def test_select_star(self, simple_db):
        cursor = run(simple_db, "SELECT * FROM samples")
        assert [column[0] for column in cursor.description] == \
            ["id", "name", "score", "category"]
        assert len(cursor.fetchall()) == 5

    def test_projection_and_where(self, simple_db):
        result = values(simple_db, "SELECT name FROM samples WHERE score > 2")
        assert sorted(v[0] for v in result) == ["delta", "epsilon", "gamma"]

    def test_expression_projection_with_alias(self, simple_db):
        cursor = run(simple_db, "SELECT name, score * 2 AS doubled FROM samples WHERE id = 1")
        assert [column[0] for column in cursor.description] == ["name", "doubled"]
        assert cursor.fetchone().values == ("alpha", 1.0)

    def test_where_with_like_in_between(self, simple_db):
        like = values(simple_db, "SELECT id FROM samples WHERE name LIKE '%a'")
        assert {v[0] for v in like} == {1, 2, 3, 4}
        inlist = values(simple_db, "SELECT id FROM samples WHERE id IN (1, 3, 99)")
        assert {v[0] for v in inlist} == {1, 3}
        between = values(simple_db, "SELECT id FROM samples WHERE score BETWEEN 1 AND 3")
        assert {v[0] for v in between} == {2, 3}

    def test_is_null_handling(self, db):
        run(db, "CREATE TABLE t (a INTEGER, b TEXT)")
        run(db, "INSERT INTO t VALUES (1, NULL)")
        run(db, "INSERT INTO t VALUES (2, 'x')")
        assert values(db, "SELECT a FROM t WHERE b IS NULL") == [(1,)]
        assert values(db, "SELECT a FROM t WHERE b IS NOT NULL") == [(2,)]
        # NULL comparisons are unknown, hence filtered out
        assert values(db, "SELECT a FROM t WHERE b = 'x' OR b <> 'x'") == [(2,)]

    def test_order_by_limit_offset(self, simple_db):
        result = values(
            simple_db, "SELECT name FROM samples ORDER BY score DESC LIMIT 2 OFFSET 1"
        )
        assert [v[0] for v in result] == ["delta", "gamma"]

    def test_distinct(self, simple_db):
        result = values(simple_db, "SELECT DISTINCT category FROM samples")
        assert sorted(v[0] for v in result) == ["control", "treated"]

    def test_select_without_from(self, db):
        result = values(db, "SELECT 1 + 2 AS three, UPPER('abc') AS up")
        assert result == [(3, "ABC")]

    def test_scalar_functions(self, simple_db):
        result = values(
            simple_db, "SELECT LENGTH(name), SUBSTR(name, 1, 3) FROM samples WHERE id = 2"
        )
        assert result == [(4, "bet")]

    def test_division_by_zero(self, simple_db):
        with pytest.raises(OperationalError) as info:
            fetch(simple_db, "SELECT score / 0 FROM samples")
        assert isinstance(info.value.__cause__, ExecutionError)

    def test_unknown_column_raises(self, simple_db):
        with pytest.raises(ProgrammingError) as info:
            fetch(simple_db, "SELECT missing FROM samples")
        assert isinstance(info.value.__cause__, PlanningError)


class TestJoins:
    @pytest.fixture
    def join_db(self, db):
        run(db, "CREATE TABLE gene (gid TEXT PRIMARY KEY, name TEXT)")
        run(db, "CREATE TABLE protein (pid TEXT PRIMARY KEY, gid TEXT, func TEXT)")
        run(db, "INSERT INTO gene VALUES ('g1', 'mraW'), ('g2', 'ftsI'), ('g3', 'orphan')")
        run(db, "INSERT INTO protein VALUES ('p1', 'g1', 'methylase'), "
                "('p2', 'g2', 'wall'), ('p3', 'g2', 'other')")
        return db

    def test_inner_join(self, join_db):
        result = values(
            join_db, "SELECT g.name, p.func FROM gene g JOIN protein p ON g.gid = p.gid"
        )
        assert len(result) == 3
        assert ("ftsI", "wall") in result

    def test_left_join_pads_missing(self, join_db):
        result = values(
            join_db, "SELECT g.name, p.func FROM gene g LEFT JOIN protein p ON g.gid = p.gid"
        )
        assert ("orphan", None) in result
        assert len(result) == 4

    def test_implicit_join_with_where(self, join_db):
        result = values(
            join_db, "SELECT g.name, p.func FROM gene g, protein p "
            "WHERE g.gid = p.gid AND p.func = 'methylase'"
        )
        assert result == [("mraW", "methylase")]

    def test_self_join_with_aliases(self, join_db):
        result = fetch(
            join_db, "SELECT a.gid, b.gid FROM gene a, gene b WHERE a.gid < b.gid"
        )
        assert len(result) == 3


class TestAggregation:
    def test_global_aggregates(self, simple_db):
        result = values(
            simple_db, "SELECT COUNT(*), SUM(score), MIN(score), MAX(score), AVG(score) FROM samples"
        )
        count, total, low, high, mean = result[0]
        assert count == 5
        assert total == pytest.approx(12.5)
        assert (low, high) == (0.5, 4.5)
        assert mean == pytest.approx(2.5)

    def test_group_by_with_having(self, simple_db):
        result = values(
            simple_db, "SELECT category, COUNT(*) AS n, AVG(score) AS mean FROM samples "
            "GROUP BY category HAVING COUNT(*) >= 3"
        )
        assert result == [("treated", 3, pytest.approx(3.5))]

    def test_count_distinct(self, simple_db):
        result = values(simple_db, "SELECT COUNT(DISTINCT category) FROM samples")
        assert result == [(2,)]

    def test_aggregate_ignores_nulls(self, db):
        run(db, "CREATE TABLE t (v INTEGER)")
        run(db, "INSERT INTO t VALUES (1), (NULL), (3)")
        result = values(db, "SELECT COUNT(v), SUM(v), AVG(v) FROM t")
        assert result == [(2, 4, 2.0)]

    def test_group_by_ordering_of_output(self, simple_db):
        result = values(
            simple_db, "SELECT category, COUNT(*) FROM samples GROUP BY category ORDER BY category"
        )
        assert [v[0] for v in result] == ["control", "treated"]

    def test_having_without_group_by_rejected(self, simple_db):
        with pytest.raises(ProgrammingError) as info:
            fetch(simple_db, "SELECT name FROM samples HAVING name = 'alpha'")
        assert isinstance(info.value.__cause__, PlanningError)


class TestSetOperations:
    @pytest.fixture
    def two_tables(self, db):
        run(db, "CREATE TABLE a (v INTEGER)")
        run(db, "CREATE TABLE b (v INTEGER)")
        run(db, "INSERT INTO a VALUES (1), (2), (3), (3)")
        run(db, "INSERT INTO b VALUES (2), (3), (4)")
        return db

    def test_union_removes_duplicates(self, two_tables):
        result = values(two_tables, "SELECT v FROM a UNION SELECT v FROM b")
        assert sorted(v[0] for v in result) == [1, 2, 3, 4]

    def test_union_all_keeps_duplicates(self, two_tables):
        result = fetch(two_tables, "SELECT v FROM a UNION ALL SELECT v FROM b")
        assert len(result) == 7

    def test_intersect(self, two_tables):
        result = values(two_tables, "SELECT v FROM a INTERSECT SELECT v FROM b")
        assert sorted(v[0] for v in result) == [2, 3]

    def test_except(self, two_tables):
        result = values(two_tables, "SELECT v FROM a EXCEPT SELECT v FROM b")
        assert sorted(v[0] for v in result) == [1]

    def test_arity_mismatch_rejected(self, two_tables):
        with pytest.raises(OperationalError) as info:
            fetch(two_tables, "SELECT v FROM a UNION SELECT v, v FROM b")
        assert isinstance(info.value.__cause__, ExecutionError)
