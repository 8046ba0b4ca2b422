"""Disk-spilling pipeline breakers: unit tests and bounded-memory proofs.

Covers the spill-file round trip (values, NULLs, NaN, annotation identity),
Grace hash-join partition recursion (including single-key skew, where
rehashing cannot split and recursion must stop), GROUP BY partitioning,
external-sort edge cases (duplicate keys, NULL/NaN keys, descending and
multi-key orders, empty inputs), and the acceptance criterion: a join and a
GROUP BY over inputs larger than ``memory_budget_rows`` complete with
bounded peak memory (tracemalloc, the PR-2 LIMIT test pattern), return the
same answers as the in-memory path, and report the spill through EXPLAIN
and ``engine.last_spill``.

The differential matrix rows that force spilling across strategy × batch
size live in ``tests/test_join_differential.py``; the annotated query-shape
matrix below (every spilling breaker × strategy × result consumer against
the in-memory run) anchors values, order keys and annotation identity.
"""

from __future__ import annotations

import math
import tracemalloc

import pytest

from repro import Database, EngineConfig
from repro.annotations.model import Annotation
from repro.core.errors import PlanningError
from repro.executor import operators as ops
from repro.executor.row import ColumnInfo, OutputSchema, Row
from repro.sql import ast
from repro.storage.spill import SpillManager, SpillStats, clamp_partitions
from tests.test_join_differential import CONSUMERS, consume

NAN = float("nan")


# ---------------------------------------------------------------------------
# Spill file round trip
# ---------------------------------------------------------------------------
class TestSpillFile:
    def test_values_round_trip_including_null_nan_bool(self):
        manager = SpillManager(10)
        handle = manager.new_file()
        rows = [
            (1, "x", None, 2.5, True),
            (2, "", NAN, -7, False),
            (None, None, None, None, None),
            (3, "multi\nline 'quoted'", 0.0, 9, True),
        ]
        for values in rows:
            handle.append(values)
        out = [values for values, anns in handle.entries()]
        assert out[0] == rows[0]
        assert out[1][0] == 2 and out[1][1] == "" and math.isnan(out[1][2])
        assert out[2] == rows[2]
        assert out[3] == rows[3]
        assert all(anns is None for _, anns in [])
        assert manager.stats.spilled_rows == 4
        assert manager.stats.spilled_bytes == handle.bytes_written > 0
        handle.close()

    def test_annotation_identity_survives_round_trip(self):
        manager = SpillManager(10)
        handle = manager.new_file()
        first = Annotation(1, "notes", "curated")
        second = Annotation(2, "notes", "reviewed")
        handle.append(("a", 1), [{first, second}, set()])
        handle.append(("b", 2), None)
        handle.append(("c", 3), [set(), {first}])
        entries = list(handle.entries())
        assert entries[0][1] == [{first, second}, set()]
        # Interning hands back the very same objects, not copies.
        assert next(iter(entries[2][1][1])) is first
        assert entries[1][1] is None
        handle.close()

    def test_all_empty_annotation_vector_collapses_to_none(self):
        manager = SpillManager(10)
        handle = manager.new_file()
        handle.append((1,), [set()])
        assert list(handle.entries()) == [((1,), None)]
        handle.close()

    def test_empty_file_yields_nothing(self):
        manager = SpillManager(10)
        handle = manager.new_file()
        assert list(handle.entries()) == []
        handle.close()

    def test_clamp_partitions(self):
        assert clamp_partitions(10, 100) == 2
        assert clamp_partitions(1000, 100) == 10
        assert clamp_partitions(10_000_000, 100) == 32


# ---------------------------------------------------------------------------
# External sort
# ---------------------------------------------------------------------------
def _order_relation(rows):
    schema = OutputSchema([ColumnInfo("v"), ColumnInfo("id")])
    return schema, iter([Row(values) for values in rows])


def _sorted_values(rows, order_items, budget=None):
    spill = SpillManager(budget) if budget is not None else None
    schema, out = ops.order_by(_order_relation(rows), order_items, spill=spill)
    return [row.values for row in out]


class TestExternalSort:
    DATA = [(3.0, 1), (None, 2), (NAN, 3), (3.0, 4), (1.0, 5), (None, 6),
            (NAN, 7), (-2.0, 8), (3.0, 9), (0.0, 10)]
    ASC = [ast.OrderItem(ast.ColumnRef("v"), True)]
    DESC = [ast.OrderItem(ast.ColumnRef("v"), False)]
    MULTI = [ast.OrderItem(ast.ColumnRef("v"), False),
             ast.OrderItem(ast.ColumnRef("id"), True)]

    @pytest.mark.parametrize("budget", [1, 2, 3, 100])
    @pytest.mark.parametrize("items", [ASC, DESC, MULTI],
                             ids=["asc", "desc", "multi"])
    def test_matches_in_memory_sort_with_dup_null_nan_keys(self, budget, items):
        # repr-compare: NaN != NaN would fail tuple equality even for
        # identical orders.
        assert list(map(repr, _sorted_values(self.DATA, items, budget))) == \
            list(map(repr, _sorted_values(self.DATA, items)))

    def test_ties_preserve_input_order_across_runs(self):
        data = [(1.0, i) for i in range(10)]
        assert _sorted_values(data, self.ASC, budget=3) == data

    def test_empty_input(self):
        assert _sorted_values([], self.ASC, budget=1) == []

    def test_input_within_budget_does_not_spill(self):
        spill = SpillManager(100)
        schema, out = ops.order_by(_order_relation(self.DATA), self.ASC,
                                   spill=spill)
        list(out)
        assert not spill.stats.spilled

    def test_run_counts_recorded(self):
        spill = SpillManager(3)
        schema, out = ops.order_by(_order_relation(self.DATA), self.ASC,
                                   spill=spill)
        list(out)
        (event,) = spill.stats.events("sort")
        assert event["runs"] == 4  # 3 spilled runs of 3 + 1 in-memory run of 1
        assert event["spilled_rows"] == 9


# ---------------------------------------------------------------------------
# Partition recursion (hash join and GROUP BY)
# ---------------------------------------------------------------------------
def _paired_dbs(budget):
    spilling = Database(memory_budget_rows=budget)
    baseline = Database()
    for db in (spilling, baseline):
        db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, v FLOAT)")
        db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, k INTEGER, t TEXT)")
    return spilling, baseline


def _load(db, fact_rows, dim_rows):
    fact, dim = db.table("fact"), db.table("dim")
    for i, (k, v) in enumerate(fact_rows):
        fact.insert_row({"id": i, "k": k, "v": v})
    for i, (k, t) in enumerate(dim_rows):
        dim.insert_row({"id": i, "k": k, "t": t})


class TestPartitionRecursion:
    def test_oversized_partitions_recurse_and_match_baseline(self):
        spilling, baseline = _paired_dbs(4)
        fact = [(i % 40, i * 0.5) for i in range(160)]
        dim = [(i % 40, f"t{i}") for i in range(120)]
        for db in (spilling, baseline):
            _load(db, fact, dim)
        query = "SELECT fact.id, dim.id FROM fact, dim WHERE fact.k = dim.k"
        spilling.config.join_strategy = "hash"
        got = sorted(spilling.query(query).values())
        (event,) = spilling.engine.last_spill.events("hash_join")
        # 120 build rows over the default 8 partitions leaves ~15 rows per
        # partition, still over budget 4: recursion must have split again.
        assert event["recursive_splits"] > 0
        baseline.config.join_strategy = "nested_loop"
        assert got == sorted(baseline.query(query).values())

    def test_single_key_skew_stops_recursing_and_stays_correct(self):
        """Every build row shares one key: rehashing can never split the
        partition, so recursion must detect the dead end and join in memory."""
        spilling, baseline = _paired_dbs(3)
        fact = [(7, i * 1.0) for i in range(12)]
        dim = [(7, f"t{i}") for i in range(15)]
        for db in (spilling, baseline):
            _load(db, fact, dim)
        query = "SELECT fact.id, dim.id FROM fact, dim WHERE fact.k = dim.k"
        spilling.config.join_strategy = "hash"
        got = sorted(spilling.query(query).values())
        assert len(got) == 12 * 15
        baseline.config.join_strategy = "nested_loop"
        assert got == sorted(baseline.query(query).values())

    def test_group_by_partitions_recurse_on_skew(self):
        spilling, baseline = _paired_dbs(5)
        fact = [(1 if i < 90 else i % 7, float(i)) for i in range(120)]
        for db in (spilling, baseline):
            _load(db, fact, [])
        query = "SELECT k, COUNT(*), SUM(v), MIN(v) FROM fact GROUP BY k"
        got = sorted(spilling.query(query).values())
        assert spilling.engine.last_spill.events("group_by")
        assert got == sorted(baseline.query(query).values())

    def test_left_join_null_probe_keys_pad_without_spilling(self):
        spilling, baseline = _paired_dbs(2)
        for db in (spilling, baseline):
            db.execute("INSERT INTO fact VALUES (0, NULL, 1.0), (1, 3, 2.0), "
                       "(2, NULL, 3.0), (3, 4, 4.0), (4, 5, 5.0)")
            db.execute("INSERT INTO dim VALUES (0, 3, 'a'), (1, 3, 'b'), "
                       "(2, 9, 'c'), (3, 4, 'd'), (4, 6, 'e')")
        query = ("SELECT fact.id, dim.id FROM fact "
                 "LEFT JOIN dim ON fact.k = dim.k")
        spilling.config.join_strategy = "hash"
        baseline.config.join_strategy = "nested_loop"
        got = sorted(spilling.query(query).values(), key=repr)
        assert got == sorted(baseline.query(query).values(), key=repr)

    def test_nan_join_keys_bucket_together_through_spill(self):
        """NaN keys: all NaNs share one bucket (NaN = NaN, matching the
        in-memory hash join) and the canonical bucketing survives the
        serialize/deserialize round trip of the spill files."""
        spilling = Database(memory_budget_rows=2)
        baseline = Database()
        rows_a = [NAN, 1.0, 2.0, NAN, 3.0, None, 2.0]
        rows_b = [2.0, NAN, NAN, None, 5.0, 1.0]
        for db in (spilling, baseline):
            db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x FLOAT)")
            db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, y FLOAT)")
            for i, x in enumerate(rows_a):
                db.table("a").insert_row({"id": i, "x": x})
            for i, y in enumerate(rows_b):
                db.table("b").insert_row({"id": i, "y": y})
        query = "SELECT a.id, b.id FROM a, b WHERE a.x = b.y"
        spilling.config.join_strategy = "hash"
        baseline.config.join_strategy = "nested_loop"
        got = sorted(spilling.query(query).values())
        assert spilling.engine.last_spill.spilled
        assert got == sorted(baseline.query(query).values())


class TestSetOperationNaN:
    """INTERSECT and EXCEPT collapse NaNs like DISTINCT, UNION and the hash
    join do (NaN = NaN in the engine's value order) and keep NULL = NULL,
    in memory and through the spilled partitioning, where ``hash(nan)`` is
    per-object and must not scatter equal NaNs across partitions."""

    @pytest.fixture(params=[None, 2], ids=["in_memory", "spilled"])
    def db(self, request):
        db = Database(memory_budget_rows=request.param)
        tables = {"a": [NAN, 1.0, None, NAN, 2.0],
                  "b": [1.0, NAN, None, 3.0, NAN],
                  "c": [1.0, None]}
        for name, values in tables.items():
            db.execute(f"CREATE TABLE {name} (x FLOAT)")
            for value in values:
                db.table(name).insert_row({"x": value})
        return db

    def run(self, db, query):
        rows = [repr(row[0]) for row in db.query(query).values()]
        assert db.engine.last_spill.spilled == \
            (db.config.memory_budget_rows is not None)
        return rows

    def test_intersect_matches_nan_and_null(self, db):
        assert self.run(db, "SELECT x FROM a INTERSECT SELECT x FROM b") == \
            ["nan", "1.0", "None"]

    def test_except_removes_nan_present_on_the_right(self, db):
        assert self.run(db, "SELECT x FROM a EXCEPT SELECT x FROM b") == \
            ["2.0"]

    def test_except_keeps_one_nan_absent_from_the_right(self, db):
        assert self.run(db, "SELECT x FROM a EXCEPT SELECT x FROM c") == \
            ["nan", "2.0"]


@pytest.mark.parametrize("budget", [None, 1, 2],
                         ids=["in_memory", "nan_overflows", "nan_held"])
def test_distinct_aggregates_count_nan_once(budget):
    """COUNT/SUM(DISTINCT) skip NULL, drop duplicates and count every NaN
    once (NaN = NaN, as in DISTINCT and GROUP BY), whether the NaNs meet in
    the in-memory seen-set (budget 2) or only in the spilled overflow
    (budget 1 freezes the seen-set before the first NaN)."""
    db = Database(memory_budget_rows=budget)
    db.execute("CREATE TABLE t (x FLOAT, y INTEGER)")
    rows = [(1.0, 1), (2.0, 1), (None, None), (NAN, 2), (1.0, 5), (NAN, 2),
            (2.0, 5), (NAN, 1)]
    for x, y in rows:
        db.table("t").insert_row({"x": x, "y": y})
    ((count_x, sum_x, count_y, sum_y),) = db.query(
        "SELECT COUNT(DISTINCT x), SUM(DISTINCT x), COUNT(DISTINCT y), "
        "SUM(DISTINCT y) FROM t").values()
    assert (count_x, count_y, sum_y) == (3, 3, 8)
    assert math.isnan(sum_x)
    events = db.engine.last_spill.events("distinct_aggregate")
    assert len(events) == (0 if budget is None else 4)


# ---------------------------------------------------------------------------
# The acceptance proof: bounded memory, identical answers, reported spill
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_db() -> Database:
    """Inputs far larger than the budget used by the bounded-memory tests."""
    db = Database()
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, v FLOAT)")
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, k INTEGER)")
    big, dim = db.table("big"), db.table("dim")
    for i in range(20_000):
        big.insert_row({"id": i, "k": i % 50, "v": i * 0.5})
    for i in range(20_000):
        dim.insert_row({"id": i, "k": i})
    db.analyze()
    return db


def _drain_peak(db: Database, query: str, budget) -> tuple:
    """(row count, tracemalloc peak) of streaming ``query`` to exhaustion."""
    db.config.memory_budget_rows = budget
    db.config.join_strategy = "hash"
    try:
        tracemalloc.start()
        count = sum(1 for _ in db.stream(query))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        db.config.memory_budget_rows = None
        db.config.join_strategy = "auto"
    return count, peak


def test_join_larger_than_budget_has_bounded_peak_memory(large_db):
    """A 20k x 20k equi-join with a 2000-row budget must spill instead of
    holding the build side: far lower peak than the in-memory hash join,
    same row count, and the spill is visible in ``engine.last_spill``."""
    query = "SELECT big.id, dim.id FROM big, dim WHERE big.id = dim.k"
    in_memory_count, in_memory_peak = _drain_peak(large_db, query, None)
    assert not large_db.engine.last_spill.spilled
    spilled_count, spilled_peak = _drain_peak(large_db, query, 2_000)
    stats = large_db.engine.last_spill
    assert stats.spilled
    (event,) = stats.events("hash_join")
    assert event["partitions"] >= 2
    assert event["build_rows"] == 20_000
    assert spilled_count == in_memory_count == 20_000
    assert spilled_peak < in_memory_peak / 2.5


def test_group_by_larger_than_budget_has_bounded_peak_memory(large_db):
    query = "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k"
    in_memory_count, in_memory_peak = _drain_peak(large_db, query, None)
    spilled_count, spilled_peak = _drain_peak(large_db, query, 1_000)
    stats = large_db.engine.last_spill
    assert stats.events("group_by")
    assert spilled_count == in_memory_count == 50
    assert spilled_peak < in_memory_peak / 2
    # Same aggregates either way.
    large_db.config.memory_budget_rows = 1_000
    try:
        spilled = sorted(large_db.query(query).values())
    finally:
        large_db.config.memory_budget_rows = None
    assert spilled == sorted(large_db.query(query).values())


def test_global_aggregate_streams_without_buffering(large_db):
    """No GROUP BY: the single global group runs through *running*
    accumulators (O(1) state per aggregate, not a per-row value list) —
    tiny peak memory and no spill files at all."""
    query = "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM big"
    count, peak = _drain_peak(large_db, query, 1_000)
    assert count == 1
    assert not large_db.engine.last_spill.spilled
    # Peak is scan/page overhead, not per-row aggregate state.
    assert peak < 2 * 1024 * 1024
    result = large_db.query(query).values()[0]
    assert result[0] == 20_000 and result[2] == 0.0
    assert result[4] == pytest.approx(sum(i * 0.5 for i in range(20_000))
                                      / 20_000)


def test_spilled_distinct_output_is_disk_merged(large_db):
    """A mostly-distinct input: the merge phase must stream from the
    deduplicated partition files, not hold the whole output in memory."""
    query = "SELECT DISTINCT id FROM big"
    in_memory_count, in_memory_peak = _drain_peak(large_db, query, None)
    spilled_count, spilled_peak = _drain_peak(large_db, query, 1_000)
    assert spilled_count == in_memory_count == 20_000
    assert large_db.engine.last_spill.events("distinct")
    assert spilled_peak < in_memory_peak / 2


def test_spilled_distinct_recurses_on_high_cardinality(large_db):
    """An all-distinct input under a tiny budget: a fixed 8-way fan-out
    would leave 2500-entry per-partition dicts (25x the budget), so the
    oversized partitions must re-partition recursively — peak memory stays
    a small fraction of the in-memory path while the first-seen order
    still survives the multi-level merge."""
    query = "SELECT DISTINCT v FROM big"
    in_memory_count, in_memory_peak = _drain_peak(large_db, query, None)
    spilled_count, spilled_peak = _drain_peak(large_db, query, 100)
    assert spilled_count == in_memory_count == 20_000
    # ~2x at this size (the floor is the k-way merge's per-stream read
    # buffers plus scan overhead, not the distinct sets); the gap widens
    # with input size.  1.5 leaves noise margin.
    assert spilled_peak < in_memory_peak / 1.5
    # Order check at a size where the full comparison is cheap.
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(500):
        db.table("t").insert_row({"id": i, "v": i % 7 if i % 2 else i})
    baseline = [row.values for row in
                db.query("SELECT DISTINCT v FROM t ORDER BY v").rows]
    db.config.memory_budget_rows = 20
    got = [row.values for row in
           db.query("SELECT DISTINCT v FROM t ORDER BY v").rows]
    assert got == baseline


def test_external_sort_larger_than_budget(large_db):
    query = "SELECT id, v FROM big ORDER BY v DESC"
    large_db.config.memory_budget_rows = 2_000
    try:
        head = large_db.query(query + " LIMIT 3").values()
        (event,) = large_db.engine.last_spill.events("sort")
        assert event["runs"] == 10
    finally:
        large_db.config.memory_budget_rows = None
    assert head == large_db.query(query + " LIMIT 3").values()


# ---------------------------------------------------------------------------
# Planner / EXPLAIN / observability surface
# ---------------------------------------------------------------------------
class TestSpillSurface:
    def test_explain_surfaces_hash_join_spill_decision(self, large_db):
        query = "SELECT big.id FROM big, dim WHERE big.id = dim.k"
        large_db.config.memory_budget_rows = 2_000
        large_db.config.join_strategy = "hash"
        try:
            explained = large_db.explain(query)
        finally:
            large_db.config.memory_budget_rows = None
            large_db.config.join_strategy = "auto"
        assert "[spill:" in explained.message
        assert "partitions]" in explained.message
        plan = explained.details["plan"]
        assert plan["memory_budget_rows"] == 2_000
        assert plan["spill_partitions"] == 10

    def test_explain_surfaces_external_sort_and_aggregate_spill(self, large_db):
        large_db.config.memory_budget_rows = 2_000
        try:
            ordered = large_db.explain("SELECT id FROM big ORDER BY v")
            assert "Sort [external: 10 runs]" in ordered.message
            assert ordered.details["plan"]["sort"] == "external"
            grouped = large_db.explain(
                "SELECT k, COUNT(*) FROM big GROUP BY k")
            assert "Aggregate [spill:" in grouped.message
        finally:
            large_db.config.memory_budget_rows = None

    def test_explain_surfaces_external_sort_over_grouped_output(self, large_db):
        """ORDER BY over a GROUP BY sorts the *grouped* output: the external
        prediction must come from the estimated group count (50 here), not
        the 20k aggregation input."""
        large_db.config.memory_budget_rows = 2_000
        try:
            few_groups = large_db.explain(
                "SELECT k, COUNT(*) FROM big GROUP BY k ORDER BY k")
            # 50 groups fit the 2000-row budget: no external sort line.
            assert "Sort [external" not in few_groups.message
            large_db.config.memory_budget_rows = 10
            many = large_db.explain(
                "SELECT k, COUNT(*) FROM big GROUP BY k ORDER BY k")
            assert "Sort [external: 5 runs]" in many.message
            assert many.details["plan"]["sort"] == "external"
        finally:
            large_db.config.memory_budget_rows = None

    def test_explain_global_aggregate_predicts_no_spill(self, large_db):
        """No GROUP BY: the global group streams, so EXPLAIN must not
        predict an aggregate spill however large the input."""
        large_db.config.memory_budget_rows = 10
        try:
            explained = large_db.explain("SELECT COUNT(*), SUM(v) FROM big")
        finally:
            large_db.config.memory_budget_rows = None
        assert "Aggregate [spill" not in explained.message

    def test_no_budget_no_spill_annotations(self, large_db):
        explained = large_db.explain(
            "SELECT big.id FROM big, dim WHERE big.id = dim.k")
        assert "[spill:" not in explained.message
        assert "memory_budget_rows" not in explained.details["plan"]

    def test_planner_hint_sets_operator_fanout(self, large_db):
        """The executor uses the cost model's partition count, not a fixed
        default: the recorded event matches the plan annotation."""
        query = "SELECT big.id FROM big, dim WHERE big.id = dim.k"
        large_db.config.memory_budget_rows = 2_000
        large_db.config.join_strategy = "hash"
        try:
            large_db.query(query)
            plan = large_db.engine.last_plan
            (event,) = large_db.engine.last_spill.events("hash_join")
            assert plan.spill_partitions == event["partitions"] == 10
        finally:
            large_db.config.memory_budget_rows = None
            large_db.config.join_strategy = "auto"

    def test_sort_not_elided_through_possibly_spilling_hash_join(self):
        """PR-3 sort elision trusts the hash probe side's order, but a
        Grace spill emits partition order — and spilling is an adaptive
        runtime decision.  With a budget configured, order must therefore
        never propagate through a hash join: the rows stay sorted and
        ``last_sort_elided`` is False."""
        db = Database()
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, fk INTEGER)")
        for i in range(600):
            db.table("a").insert_row({"id": i, "v": (i * 389) % 600})
        for i in range(150):
            db.table("b").insert_row({"id": i, "fk": (i * 7) % 600})
        db.execute("CREATE INDEX ix_a_v ON a (v) USING btree")
        db.analyze()
        query = ("SELECT a.v, b.id FROM a, b WHERE a.id = b.fk "
                 "AND a.v > 5 AND a.v < 590 ORDER BY a.v LIMIT 50")
        db.config.join_strategy = "hash"
        baseline = db.query(query).values()
        db.config.memory_budget_rows = 50
        try:
            got = db.query(query).values()
            assert not db.engine.last_sort_elided
            assert db.engine.last_spill.events("hash_join")
        finally:
            db.config.memory_budget_rows = None
            db.config.join_strategy = "auto"
        assert got == baseline
        assert [v for v, _ in got] == sorted(v for v, _ in got)

    def test_groupby_spill_fanout_matches_explain_estimate(self, large_db):
        """The operator sizes its fan-out from the same input estimate
        EXPLAIN prints, not a fixed default."""
        query = "SELECT k, COUNT(*) FROM big GROUP BY k"
        large_db.config.memory_budget_rows = 1_000
        try:
            explained = large_db.explain(query)
            assert "Aggregate [spill: 20 partitions]" in explained.message
            large_db.query(query)
            (event,) = large_db.engine.last_spill.events("group_by")
            assert event["partitions"] == 20
        finally:
            large_db.config.memory_budget_rows = None

    def test_auto_keeps_spillable_hash_for_huge_builds_under_budget(
            self, monkeypatch):
        """Without a budget, auto escapes huge builds to merge join; with
        one, it must stay on hash — merge inputs cannot spill yet, so the
        escape would defeat the budget at exactly the scale it targets."""
        from repro.planner import plan as planlib
        from repro.planner.plan import plan_strategies
        db = Database()
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)")
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, fk INTEGER)")
        for i in range(50):
            db.table("a").insert_row({"id": i})
            db.table("b").insert_row({"id": i, "fk": i})
        db.analyze()
        # Both sides "huge".
        monkeypatch.setattr(planlib, "HASH_JOIN_MAX_BUILD_ROWS", 10)
        query = "SELECT a.id FROM a, b WHERE a.id = b.fk"
        try:
            db.query(query)
            assert plan_strategies(db.engine.last_plan) == ["merge"]
            db.config.memory_budget_rows = 20
            result = db.query(query)
            assert plan_strategies(db.engine.last_plan) == ["hash"]
            assert db.engine.last_spill.events("hash_join")
            assert len(result) == 50
        finally:
            db.config.memory_budget_rows = None

    def test_last_spill_resets_per_query(self, large_db):
        large_db.config.memory_budget_rows = 2_000
        try:
            large_db.query("SELECT k, COUNT(*) FROM big GROUP BY k")
            assert large_db.engine.last_spill.spilled
            large_db.query("SELECT id FROM big LIMIT 1")
            assert not large_db.engine.last_spill.spilled
        finally:
            large_db.config.memory_budget_rows = None


# ---------------------------------------------------------------------------
# The spilling query-shape matrix
# ---------------------------------------------------------------------------
def build_spill_db() -> Database:
    """Two annotated tables sized so every breaker spills under budget 48."""
    db = Database()
    db.execute("CREATE TABLE fact (id INTEGER, k INTEGER, v FLOAT, s TEXT)")
    db.execute("CREATE TABLE dim (k INTEGER, label TEXT)")
    db.execute("CREATE ANNOTATION TABLE fnote ON fact")
    db.execute("CREATE ANNOTATION TABLE dnote ON dim")
    for i in range(600):
        k = "NULL" if i % 13 == 0 else str(i % 40)
        db.execute(f"INSERT INTO fact VALUES ({i}, {k}, {(i * 37) % 100}.25, "
                   f"'s{i % 23}')")
    for i in range(90):
        k = "NULL" if i % 11 == 0 else str(i % 50)
        db.execute(f"INSERT INTO dim VALUES ({k}, 'd{i % 7}')")
    # NaN sort/group keys can't be written as SQL literals; plant them
    # through the catalog so the matrix covers NaN bucketing too.
    fact = db.catalog.table("fact")
    for tuple_id in range(0, 600, 17):
        fact.update_row(tuple_id, {"v": NAN})
    db.execute("ADD ANNOTATION TO fact.fnote VALUE 'hot row' "
               "ON (SELECT f.id FROM fact f WHERE f.id < 120)")
    db.execute("ADD ANNOTATION TO fact.fnote VALUE 'curated' "
               "ON (SELECT f.s FROM fact f WHERE f.k = 7)")
    db.execute("ADD ANNOTATION TO dim.dnote VALUE 'dimension' "
               "ON (SELECT d.label FROM dim d WHERE d.k < 25)")
    return db


#: Every spilling breaker: Grace/hybrid hash join, spilled GROUP BY,
#: spilled DISTINCT, external sort, merge-join duplicate groups,
#: INTERSECT/EXCEPT partitioning, and spilled DISTINCT-aggregate seen-sets.
SPILL_SHAPES = {
    "join_ordered": (
        "SELECT f.id, d.label FROM fact ANNOTATION(fnote) f, "
        "dim ANNOTATION(dnote) d WHERE f.k = d.k ORDER BY f.id, d.label"
    ),
    "join_streamed": (
        "SELECT f.id, d.label FROM fact ANNOTATION(fnote) f, "
        "dim ANNOTATION(dnote) d WHERE f.k = d.k"
    ),
    "left_join": (
        "SELECT f.id, d.label FROM fact ANNOTATION(fnote) f "
        "LEFT JOIN dim ANNOTATION(dnote) d ON f.k = d.k ORDER BY f.id, d.label"
    ),
    "group_by": (
        "SELECT k, COUNT(*), SUM(v) FROM fact ANNOTATION(fnote) GROUP BY k"
    ),
    "distinct": "SELECT DISTINCT k, s FROM fact ANNOTATION(fnote)",
    "order_by": "SELECT id, v FROM fact ANNOTATION(fnote) ORDER BY v",
    "distinct_aggregate": (
        "SELECT COUNT(DISTINCT id), COUNT(DISTINCT s), SUM(v) "
        "FROM fact ANNOTATION(fnote)"
    ),
    "intersect": "SELECT k FROM fact INTERSECT SELECT k FROM dim",
    "except": "SELECT k FROM fact EXCEPT SELECT k FROM dim",
}

STRATEGIES = ("auto", "hash", "merge")
BUDGET = 48


def ordered_snapshot(result):
    """Exact output: values, order, and annotation identity per column."""
    rows = []
    for row in result.rows:
        annotations = tuple(
            tuple(sorted((a.annotation_table, a.ann_id) for a in anns))
            for anns in row.annotations
        )
        rows.append((tuple(repr(v) for v in row.values), annotations))
    return rows


def run_shape(db: Database, query: str, budget, strategy: str = "auto",
              consumer: str = "drained"):
    db.config.memory_budget_rows = budget
    db.config.join_strategy = strategy
    try:
        return ordered_snapshot(consume(db, query, consumer))
    finally:
        db.config.memory_budget_rows = None
        db.config.join_strategy = "auto"


@pytest.fixture(scope="module")
def spill_db() -> Database:
    return build_spill_db()


@pytest.mark.parametrize("shape", sorted(SPILL_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_spilled_matches_in_memory(spill_db, shape, strategy, consumer):
    """The budgeted run agrees with the unbudgeted in-memory run under every
    strategy and result consumer — values and annotation identity.  The
    sequence-merging breakers (DISTINCT, INTERSECT, EXCEPT) must also keep
    the exact in-memory order; the other shapes compare as a multiset
    (a spilled join or GROUP BY emits in partition order)."""
    query = SPILL_SHAPES[shape]
    spilled = run_shape(spill_db, query, BUDGET, strategy, consumer)
    in_memory = run_shape(spill_db, query, None, strategy, consumer)
    if shape in ("distinct", "intersect", "except"):
        assert spilled == in_memory
    else:
        assert sorted(spilled, key=repr) == sorted(in_memory, key=repr)


def test_matrix_actually_spills(spill_db):
    """Guard against the matrix silently shrinking below the budget: the
    join, group-by, distinct, sort, set-op, and distinct-aggregate shapes
    must each report spill activity."""
    seen = set()
    for shape, query in SPILL_SHAPES.items():
        run_shape(spill_db, query, BUDGET,
                  "hash" if "join" in shape else "auto")
        seen |= {event["operator"]
                 for event in spill_db.engine.last_spill.operators}
    assert {"hash_join", "group_by", "distinct", "sort", "intersect",
            "except", "distinct_aggregate"} <= seen


def test_merge_join_spills_under_budget(spill_db):
    run_shape(spill_db, SPILL_SHAPES["join_streamed"], BUDGET, "merge")
    operators = {event["operator"]
                 for event in spill_db.engine.last_spill.operators}
    assert "merge_join" in operators


def test_repeated_spilled_queries_are_deterministic(spill_db):
    """The same spilled join, repeatedly, returns identical output (values,
    order, annotation identity) and identical spill totals each time."""
    runs = []
    for _ in range(5):
        rows = run_shape(spill_db, SPILL_SHAPES["join_ordered"], BUDGET, "hash")
        runs.append((rows, spill_db.engine.last_spill.spilled_rows))
    assert all(run == runs[0] for run in runs)


def test_every_spilling_operator_records_partition_timings(spill_db):
    """``engine.last_spill`` carries one ``partition_timings`` entry, with
    its wall-clock ``seconds``, per processed partition / spilled run."""
    events = {}
    for shape in ("join_streamed", "group_by", "distinct", "order_by",
                  "intersect", "except", "distinct_aggregate"):
        # A tight budget gives the join a wide fan-out beside its resident
        # (hybrid) partition 0.
        budget = 10 if shape == "join_streamed" else BUDGET
        run_shape(spill_db, SPILL_SHAPES[shape], budget, "hash")
        for event in spill_db.engine.last_spill.operators:
            events.setdefault(event["operator"], event)
    join = events["hash_join"]
    assert join["hybrid"] is True and join["partitions"] >= 4
    assert join["build_rows"] >= join["resident_build_rows"] > 0
    for operator in ("hash_join", "group_by", "distinct", "intersect",
                     "except", "distinct_aggregate"):
        event = events[operator]
        timings = event["partition_timings"]
        assert all(set(t) == {"partition", "rows", "seconds"} for t in timings)
        expected = list(range(event["partitions"]))
        if event.get("hybrid"):
            expected = expected[1:]  # partition 0 never left memory
        assert [t["partition"] for t in timings] == expected
        assert all(t["seconds"] >= 0 and t["rows"] >= 0 for t in timings)
    sort = events["sort"]
    timings = sort["partition_timings"]
    assert all(set(t) == {"run", "rows", "seconds"} for t in timings)
    # The last run may stay in memory (hybrid), so it is never timed.
    assert len(timings) in (sort["runs"], sort["runs"] - 1)
    assert [t["run"] for t in timings] == list(range(len(timings)))
    assert sum(t["rows"] for t in timings) == sort["spilled_rows"]
    assert all(t["seconds"] >= 0 for t in timings)


# ---------------------------------------------------------------------------
# Spill-aware build-side choice (explicit INNER JOIN)
# ---------------------------------------------------------------------------
class TestBuildSideSwap:
    def build_db(self):
        db = Database()
        db.execute("CREATE TABLE small (k INTEGER, a TEXT)")
        db.execute("CREATE TABLE big (k INTEGER, b TEXT)")
        for i in range(30):
            db.execute(f"INSERT INTO small VALUES ({i % 20}, 'a{i}')")
        for i in range(400):
            db.execute(f"INSERT INTO big VALUES ({i % 20}, 'b{i}')")
        db.execute("ANALYZE")
        return db

    QUERY = ("SELECT small.a, big.b FROM small JOIN big "
             "ON small.k = big.k")

    def test_under_budget_side_becomes_build(self):
        db = self.build_db()
        db.config.join_strategy = "hash"
        db.config.memory_budget_rows = 100
        db.query(self.QUERY)
        plan = db.engine.last_plan
        # big (400 rows) exceeds the budget, small (30) fits: the planner
        # must make small the build (right) side instead of spilling big.
        assert plan.right.table == "small" and plan.left.table == "big"
        assert not db.engine.last_spill.operators

    def test_no_swap_without_budget(self):
        db = self.build_db()
        db.config.join_strategy = "hash"
        db.query(self.QUERY)
        assert db.engine.last_plan.right.table == "big"

    def test_left_join_never_swaps(self):
        db = self.build_db()
        db.config.join_strategy = "hash"
        db.config.memory_budget_rows = 100
        db.query("SELECT small.a, big.b FROM small LEFT JOIN big "
                 "ON small.k = big.k")
        assert db.engine.last_plan.right.table == "big"

    def test_swapped_join_matches_unswapped_rows(self):
        db = self.build_db()
        db.config.join_strategy = "hash"
        baseline = sorted(tuple(r.values) for r in db.query(self.QUERY).rows)
        db.config.memory_budget_rows = 100
        swapped = sorted(tuple(r.values) for r in db.query(self.QUERY).rows)
        assert swapped == baseline


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize("bad", [0, -5, True, "lots", 2.5])
    def test_invalid_budget_rejected_eagerly(self, bad):
        with pytest.raises(PlanningError):
            EngineConfig(memory_budget_rows=bad)

    def test_database_kwarg_plumbs_through(self):
        db = Database(memory_budget_rows=123)
        assert db.config.memory_budget_rows == 123
        assert db.engine.config.memory_budget_rows == 123

    def test_stats_as_dict_shape(self):
        stats = SpillStats()
        stats.record("sort", runs=2)
        payload = stats.as_dict()
        assert payload["operators"] == [{"operator": "sort", "runs": 2}]
        assert payload["spill_files"] == 0
