"""Tests for the vectorized (batched) executor and range/order access paths.

Covers the PR-3 features end to end:

* ``RowBatch`` / ``BatchedRows`` containers and the batched operator paths
  (scan, fused filter, projection gather, LIMIT), including annotation
  propagation through every one of them;
* ``BatchFilter`` — the code-generated, conjunct-fused predicate compiler —
  checked differentially against the row-at-a-time evaluator over a
  mixed-type value domain (NULL, NaN, bool, cross-type);
* eager ``EngineConfig`` validation (join strategy, batch size, unknown
  field names);
* B-tree ``range_search`` / ``iter_range`` bound combinations and the
  planner's ``IndexRangeScan`` selection with its NULL/NaN safety gates;
* sort elision — ``ORDER BY`` on an index key order runs without a Sort
  operator, with ``EXPLAIN`` rendering ``[sort: elided]`` — including
  propagation through the left spine of order-preserving joins.
"""

from __future__ import annotations

import itertools

import pytest

from repro import Database, EngineConfig
from repro.annotations.xml_utils import annotation_text
from repro.core.errors import PlanningError, ProgrammingError
from repro.executor.row import BatchedRows, ColumnInfo, OutputSchema, Row, RowBatch
from repro.index.btree import BPlusTree
from repro.planner.expressions import BatchFilter, Evaluator, predicate_is_true
from repro.planner.plan import plan_access_paths
from repro.planner.planner import split_conjuncts
from repro.sql.parser import parse_expression
from sql_helpers import bodies_of, fetch, run, values


# ---------------------------------------------------------------------------
# RowBatch / BatchedRows containers
# ---------------------------------------------------------------------------
class TestRowBatch:
    def test_plain_batch_round_trips_lazy_rows(self):
        batch = RowBatch([(1, "a"), (2, "b")])
        rows = list(batch.to_rows())
        assert [row.values for row in rows] == [(1, "a"), (2, "b")]
        assert all(row._annotations is None for row in rows)
        assert rows[0].annotations == [set(), set()]  # materializes on demand

    def test_annotated_batch_round_trips_annotations(self):
        batch = RowBatch([(1,), (2,)], [[{"x"}], [{"y"}]])
        rows = list(batch.to_rows())
        assert rows[0].annotations == [{"x"}]
        rebuilt = RowBatch.from_rows(rows)
        assert rebuilt.annotations == [[{"x"}], [{"y"}]]

    def test_from_rows_keeps_annotation_free_batches_flat(self):
        rebuilt = RowBatch.from_rows([Row((1,)), Row((2,))])
        assert rebuilt.annotations is None

    def test_batched_rows_iterates_as_rows(self):
        stream = BatchedRows(iter([RowBatch([(1,)]), RowBatch([(2,), (3,)])]))
        assert [row.values for row in stream] == [(1,), (2,), (3,)]


# ---------------------------------------------------------------------------
# BatchFilter: differential against the row evaluator
# ---------------------------------------------------------------------------
BATCH_FILTER_PREDICATES = [
    "a >= 1", "a > 1", "a < 1", "a <= 1", "a = 1", "a <> 1",
    "1 > a", "2.5 <= a",
    "b = 'k1'", "b <> 'k4'", "b > 'k'",
    "a BETWEEN 0 AND 2", "a NOT BETWEEN 0 AND 2", "b BETWEEN 'a' AND 'k4'",
    "a IN (1, 2.5)", "a NOT IN (1, 2.5)", "b NOT IN ('k1', NULL)",
    "a IS NULL", "b IS NOT NULL",
    "b LIKE 'k%'", "b NOT LIKE 'k_'",
    "a >= 1 AND b <> 'k4'",
    "LENGTH(b) = 2 AND a < 3",   # slow conjunct mixed with fast ones
]


@pytest.mark.parametrize("sql", BATCH_FILTER_PREDICATES)
def test_batch_filter_matches_row_evaluator(sql):
    schema = OutputSchema([ColumnInfo("a"), ColumnInfo("b")])
    nan = float("nan")
    domain = [None, nan, -1, 0, 1, 2.5, True, False, "", "1", "k1", "k4"]
    rows = [(a, b) for a, b in itertools.product(domain, repeat=2)]
    conjuncts = split_conjuncts(parse_expression(sql))
    compiled = [Evaluator(schema).compile(c) for c in conjuncts]
    expected = [r for r in rows
                if all(predicate_is_true(f(Row(r))) for f in compiled)]
    batch_filter = BatchFilter(schema, conjuncts)
    kept = batch_filter.keep_values(list(rows))
    assert list(map(repr, kept)) == list(map(repr, expected))
    mask = batch_filter.mask(list(rows))
    assert [r for r, m in zip(rows, mask) if m] == kept


def test_batch_filter_fused_projection_agrees():
    schema = OutputSchema([ColumnInfo("a"), ColumnInfo("b")])
    batch_filter = BatchFilter(schema, split_conjuncts(parse_expression("a > 1")))
    rows = [(0, "x"), (2, "y"), (None, "z"), (5, "w")]
    fused = batch_filter.compile_keep("(r[1],)")
    assert batch_filter.run(fused, rows) == [("y",), ("w",)]


# ---------------------------------------------------------------------------
# EngineConfig validation
# ---------------------------------------------------------------------------
class TestConfigValidation:
    def test_unknown_field_names_are_rejected(self):
        # A misspelt or removed knob must fail, never be silently ignored.
        with pytest.raises(TypeError):
            EngineConfig(batchsize=1)
        config = EngineConfig()
        for name in ("batchsize", "join_stategy", "memory_budget"):
            with pytest.raises(AttributeError):
                setattr(config, name, 1)
        assert config == EngineConfig()

    def test_bad_join_strategy_rejected_at_construction(self):
        with pytest.raises(PlanningError, match="join strategy"):
            EngineConfig(join_strategy="quantum")

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, "big", True])
    def test_bad_batch_size_rejected_at_construction(self, batch_size):
        with pytest.raises(PlanningError, match="batch_size"):
            EngineConfig(batch_size=batch_size)

    def test_mutated_config_rejected_eagerly_at_query_time(self):
        db = Database()
        run(db, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
        for field, value in [("join_strategy", "quantum"),
                             ("batch_size", 0)]:
            fresh = Database()
            run(fresh, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
            setattr(fresh.config, field, value)
            with pytest.raises(ProgrammingError) as info:
                fetch(fresh, "SELECT id FROM t")
            assert isinstance(info.value.__cause__, PlanningError)

    def test_database_batch_size_override_validated(self):
        with pytest.raises(PlanningError):
            Database(batch_size=0)
        assert Database(batch_size=7).config.batch_size == 7


# ---------------------------------------------------------------------------
# B-tree range_search / iter_range bounds
# ---------------------------------------------------------------------------
class TestBTreeRanges:
    def build(self):
        tree = BPlusTree(order=4)
        for key in [5, 1, 9, 3, 7, 3, 11, 2]:  # 3 duplicated
            tree.insert(key, f"v{key}.{tree.stats.node_writes}")
        return tree

    def keys(self, pairs):
        return [key for key, _ in pairs]

    def test_closed_and_open_bounds(self):
        tree = self.build()
        assert self.keys(tree.range_search(3, 9)) == [3, 3, 5, 7, 9]
        assert self.keys(tree.range_search(3, 9, include_low=False)) == [5, 7, 9]
        assert self.keys(tree.range_search(3, 9, include_high=False)) == [3, 3, 5, 7]
        assert self.keys(tree.range_search(3, 9, False, False)) == [5, 7]

    def test_unbounded_sides(self):
        tree = self.build()
        assert self.keys(tree.range_search(None, 3)) == [1, 2, 3, 3]
        assert self.keys(tree.range_search(7, None)) == [7, 9, 11]
        assert self.keys(tree.range_search()) == [1, 2, 3, 3, 5, 7, 9, 11]

    def test_reversed_and_empty_ranges(self):
        tree = self.build()
        assert tree.range_search(9, 3) == []
        assert tree.range_search(4, 4) == []
        assert tree.range_search(3, 3, include_low=False, include_high=False) == []
        assert self.keys(tree.range_search(3, 3)) == [3, 3]

    def test_bounds_outside_key_domain(self):
        tree = self.build()
        assert self.keys(tree.range_search(-10, 0)) == []
        assert self.keys(tree.range_search(100, 200)) == []
        assert self.keys(tree.range_search(-10, 200)) == [1, 2, 3, 3, 5, 7, 9, 11]

    def test_iter_range_is_lazy(self):
        tree = BPlusTree(order=4)
        for i in range(1000):
            tree.insert(i, i)
        before = tree.stats.snapshot()
        iterator = tree.iter_range(10, None)
        first_three = [next(iterator) for _ in range(3)]
        assert [key for key, _ in first_three] == [10, 11, 12]
        # Far fewer node reads than draining the whole leaf chain would cost.
        assert tree.stats.diff(before).node_reads < 20


# ---------------------------------------------------------------------------
# IndexRangeScan planning and execution
# ---------------------------------------------------------------------------
def range_db(rows: int = 300) -> Database:
    db = Database()
    run(db, "CREATE TABLE m (id INTEGER PRIMARY KEY, v FLOAT, tag TEXT)")
    table = db.table("m")
    for i in range(rows):
        table.insert_row({"id": i, "v": i * 0.5, "tag": f"t{i % 7}"})
    run(db, "CREATE INDEX ix_m_v ON m (v) USING btree")
    db.analyze("m")
    return db


class TestIndexRangeScan:
    def assert_matches_seq(self, db, query):
        with_index = sorted(values(db, query))
        db.config.use_indexes = False
        try:
            without_index = sorted(values(db, query))
        finally:
            db.config.use_indexes = True
        assert with_index == without_index
        return with_index

    @pytest.mark.parametrize("predicate", [
        "v > 10 AND v < 30", "v >= 10 AND v <= 30", "v BETWEEN 10 AND 30",
        "v > 140", "v < 30", "v > 30 AND v < 10",       # reversed -> empty
        "v > 140 AND v BETWEEN 100 AND 141",              # tightened bounds
    ])
    def test_range_results_match_seq_scan(self, predicate):
        db = range_db()
        query = f"SELECT id FROM m WHERE {predicate}"
        fetch(db, query)
        assert plan_access_paths(db.engine.last_plan) == ["index_range"]
        self.assert_matches_seq(db, query)

    def test_explain_renders_range_bounds(self):
        db = range_db()
        explained = db.explain("SELECT id FROM m WHERE v > 10 AND v <= 30")
        assert "IndexRangeScan m using ix_m_v (v > 10 AND v <= 30)" \
            in explained.message
        plan = explained.details["plan"]
        assert plan["node"] == "IndexRangeScan"
        assert plan["access_path"] == "index_range"
        assert plan["range"] == "v > 10 AND v <= 30"

    def test_cross_type_bound_does_not_pick_range(self):
        db = range_db()
        fetch(db, "SELECT id FROM m WHERE v > 'abc'")
        assert plan_access_paths(db.engine.last_plan) == ["seq"]

    def test_unselective_range_stays_sequential(self):
        db = range_db()
        fetch(db, "SELECT id FROM m WHERE v >= 0")  # matches everything
        assert plan_access_paths(db.engine.last_plan) == ["seq"]

    def test_nan_rows_block_lower_bound_only_ranges(self):
        db = range_db(50)
        db.table("m").insert_row({"id": 999, "v": float("nan"), "tag": "t0"})
        db.indexes.on_insert("m", max(db.table("m").tuple_ids),
                             {"id": 999, "v": float("nan"), "tag": "t0"})
        index = db.indexes.get("ix_m_v")
        assert index.nan_keys == 1
        # Lower-bound-only: NaN sorts above every number, so the (incomplete)
        # index would lose the NaN row -> planner must refuse.
        fetch(db, "SELECT id FROM m WHERE v > 20")
        assert plan_access_paths(db.engine.last_plan) == ["seq"]
        result = self.assert_matches_seq(db, "SELECT id FROM m WHERE v > 20")
        assert (999,) in result
        # An upper bound excludes NaN by itself -> range path allowed.
        fetch(db, "SELECT id FROM m WHERE v > 20 AND v < 22")
        assert plan_access_paths(db.engine.last_plan) == ["index_range"]
        self.assert_matches_seq(db, "SELECT id FROM m WHERE v > 20 AND v < 22")

    def test_null_keys_allowed_for_bounded_ranges(self):
        db = range_db(50)
        run(db, "INSERT INTO m VALUES (998, NULL, 'tnull')")
        assert db.indexes.get("ix_m_v").null_keys == 1
        query = "SELECT id FROM m WHERE v > 20 AND v < 22"
        fetch(db, query)
        assert plan_access_paths(db.engine.last_plan) == ["index_range"]
        assert (998,) not in self.assert_matches_seq(db, query)

    def test_incomparable_bound_fallback_preserves_order_contract(self):
        """If a range bound turns out incomparable at runtime, the operator
        degrades to a full scan — re-sorted by the key column when the scan
        was feeding an elided ORDER BY, so the ordering contract survives."""
        from repro.executor import operators as ops
        db = range_db(30)
        source = ops.TableRowSource(db.table("m"), "m")
        structure = db.indexes.get("ix_m_v").structure
        position = source.schema.resolve("v")
        schema, rows = ops.index_range_scan(
            source, structure, low=object(), batch_size=4,
            order_position=position)
        values = [row.values[position] for row in rows]
        assert len(values) == 30
        assert values == sorted(values)
        # Without an order contract the fallback is a plain heap-order scan.
        _, rows = ops.index_range_scan(source, structure, low=object(),
                                       batch_size=4)
        assert len(list(rows)) == 30

    def test_range_scan_after_dml_sees_fresh_rows(self):
        db = range_db(60)
        run(db, "DELETE FROM m WHERE id = 25")
        run(db, "INSERT INTO m VALUES (500, 12.25, 'tx')")
        run(db, "UPDATE m SET v = 13.75 WHERE id = 20")
        query = "SELECT id, v FROM m WHERE v BETWEEN 10 AND 15"
        result = self.assert_matches_seq(db, query)
        ids = [row[0] for row in result]
        assert 500 in ids and 20 in ids and 25 not in ids


# ---------------------------------------------------------------------------
# Sort elision
# ---------------------------------------------------------------------------
class TestSortElision:
    def test_order_by_indexed_key_elides_sort(self):
        db = range_db()
        explained = db.explain("SELECT id, v FROM m WHERE v > 10 ORDER BY v")
        assert "[sort: elided]" in explained.message
        assert explained.details["plan"]["sort"] == "elided"
        rows = values(db, "SELECT id, v FROM m WHERE v > 10 ORDER BY v")
        assert db.engine.last_sort_elided
        assert rows == sorted(rows, key=lambda row: row[1])
        # Differential: identical to the explicit sort over a sequential scan.
        db.config.use_indexes = False
        try:
            baseline = values(db, "SELECT id, v FROM m WHERE v > 10 ORDER BY v")
            assert not db.engine.last_sort_elided
        finally:
            db.config.use_indexes = True
        assert rows == baseline

    def test_unbounded_order_scan_requires_complete_index(self):
        db = range_db()
        explained = db.explain("SELECT id FROM m ORDER BY v")
        assert "[sort: elided]" in explained.message
        # A NULL key makes the unbounded traversal incomplete -> no elision.
        run(db, "INSERT INTO m VALUES (997, NULL, 'tnull')")
        explained = db.explain("SELECT id FROM m ORDER BY v")
        assert "[sort: elided]" not in explained.message
        rows = values(db, "SELECT v FROM m ORDER BY v")
        assert rows[0] == (None,)  # NULLs first, like the explicit sort

    def test_descending_order_elides_via_reverse_traversal(self):
        db = range_db()
        explained = db.explain("SELECT id FROM m WHERE v > 10 ORDER BY v DESC")
        assert "[sort: elided]" in explained.message
        assert "[ordered desc]" in explained.message
        rows = values(db, "SELECT v FROM m WHERE v > 140 ORDER BY v DESC")
        assert db.engine.last_sort_elided
        assert rows == sorted(rows, reverse=True)

    def test_multi_key_orders_still_sort(self):
        db = range_db()
        assert "[sort: elided]" not in db.explain(
            "SELECT id FROM m WHERE v > 10 ORDER BY v, id").message
        rows = values(db, "SELECT v, id FROM m WHERE v > 140 ORDER BY v, id")
        assert rows == sorted(rows)

    def test_order_propagates_through_left_joins(self):
        db = Database()
        run(db, "CREATE TABLE g (gid INTEGER PRIMARY KEY, score FLOAT)")
        run(db, "CREATE TABLE p (pid INTEGER PRIMARY KEY, gid INTEGER)")
        for i in range(40):
            db.table("g").insert_row({"gid": i, "score": (40 - i) * 1.0})
        for i in range(120):
            db.table("p").insert_row({"pid": i, "gid": i % 50})
        run(db, "CREATE INDEX ix_g_score ON g (score) USING btree")
        db.analyze()
        query = ("SELECT g.gid, g.score, p.pid FROM g JOIN p ON g.gid = p.gid "
                 "WHERE g.score > 5 ORDER BY g.score")
        explained = db.explain(query)
        assert "[sort: elided]" in explained.message
        rows = values(db, query)
        assert db.engine.last_sort_elided
        scores = [row[1] for row in rows]
        assert scores == sorted(scores)
        db.config.join_strategy = "nested_loop"
        try:
            baseline = values(db, query)
        finally:
            db.config.join_strategy = "auto"
        assert sorted(rows) == sorted(baseline)

    def test_unselective_order_on_big_table_keeps_the_sort(self):
        """Eliding the sort is not free: a key-order scan pays a heap point
        fetch per row, so an unselective ORDER BY over a big table must stay
        on the batched sequential scan + explicit sort."""
        db = range_db(2_500)
        explained = db.explain("SELECT id FROM m ORDER BY v")
        assert "[sort: elided]" not in explained.message
        explained = db.explain("SELECT id FROM m WHERE v >= 0 ORDER BY v")
        assert "[sort: elided]" not in explained.message
        rows = values(db, "SELECT v FROM m WHERE v >= 0 ORDER BY v LIMIT 3")
        assert rows == [(0.0,), (0.5,), (1.0,)]

    def test_limit_turns_big_order_scan_into_top_k(self, monkeypatch):
        """With a LIMIT the lazy key-order stream stops after ~k fetches —
        the top-K case where elision beats sorting at any table size."""
        db = range_db(2_500)
        explained = db.explain("SELECT id, v FROM m ORDER BY v LIMIT 5")
        assert "[sort: elided]" in explained.message
        fetched = []
        original = type(db.table("m")).read_row

        def counting(self_table, tuple_id):
            fetched.append(tuple_id)
            return original(self_table, tuple_id)

        monkeypatch.setattr(type(db.table("m")), "read_row", counting)
        rows = values(db, "SELECT id, v FROM m ORDER BY v LIMIT 5")
        assert rows == [(i, i * 0.5) for i in range(5)]
        assert len(fetched) <= 8  # ~LIMIT fetches, not the whole table

    def test_aggregated_order_by_never_elides(self):
        db = range_db()
        explained = db.explain(
            "SELECT tag, COUNT(*) FROM m WHERE v > 10 GROUP BY tag ORDER BY tag")
        assert "[sort: elided]" not in explained.message


# ---------------------------------------------------------------------------
# Batched pipeline behaviour (laziness, annotations)
# ---------------------------------------------------------------------------
class TestBatchedPipeline:
    def test_scan_filter_project_limit_matches_table_scan(self):
        db = range_db(200)
        query = "SELECT id, tag FROM m WHERE v > 30 AND tag <> 't3' LIMIT 50"
        names = db.table("m").schema.column_names
        expected = []
        for _, stored in db.table("m").scan():
            row = dict(zip(names, stored))
            if row["v"] > 30 and row["tag"] != "t3":
                expected.append((row["id"], row["tag"]))
        assert len(expected) > 50
        assert values(db, query) == expected[:50]

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 1024])
    def test_batch_size_does_not_change_results(self, batch_size):
        db = range_db(150)
        db.config.batch_size = batch_size
        query = ("SELECT id, v FROM m WHERE v BETWEEN 5 AND 60 "
                 "ORDER BY id LIMIT 20 OFFSET 3")
        assert values(db, query) == [
            (i, i * 0.5) for i in range(13, 33)]

    def test_limit_decodes_only_leading_pages(self, monkeypatch):
        db = Database()
        run(db, "CREATE TABLE big (id INTEGER PRIMARY KEY, s TEXT)")
        table = db.table("big")
        for i in range(20_000):
            table.insert_row({"id": i, "s": f"row{i}"})
        from repro.storage.heap_file import HeapFile
        calls = []
        original = HeapFile.scan_page_rows

        def counting(self, page_id, with_tuple_ids=True):
            calls.append(page_id)
            return original(self, page_id, with_tuple_ids)

        monkeypatch.setattr(HeapFile, "scan_page_rows", counting)
        result = fetch(db, "SELECT id FROM big LIMIT 5")
        assert [row.values for row in result] == [((i,)) for i in range(5)]
        assert len(calls) <= 2
        assert len(calls) < db.table("big").heap.num_pages() / 10

    def test_stream_pulls_batches_lazily(self, monkeypatch):
        db = Database()
        run(db, "CREATE TABLE big (id INTEGER PRIMARY KEY)")
        table = db.table("big")
        for i in range(20_000):
            table.insert_row({"id": i})
        from repro.storage.heap_file import HeapFile
        calls = []
        original = HeapFile.scan_page_rows

        def counting(self, page_id, with_tuple_ids=True):
            calls.append(page_id)
            return original(self, page_id, with_tuple_ids)

        monkeypatch.setattr(HeapFile, "scan_page_rows", counting)
        stream = run(db, "SELECT id FROM big WHERE id >= 0")
        head = [next(stream) for _ in range(3)]
        assert [row.values for row in head] == [(0,), (1,), (2,)]
        assert len(calls) <= 2

    def test_annotations_propagate_through_batched_filter_and_project(self):
        db = Database()
        run(db, "CREATE TABLE gene (gid TEXT PRIMARY KEY, name TEXT, score FLOAT)")
        run(db, "CREATE ANNOTATION TABLE note ON gene")
        for i in range(30):
            run(db, f"INSERT INTO gene VALUES ('G{i}', 'n{i}', {i * 1.0})")
        run(db, "ADD ANNOTATION TO gene.note VALUE 'high scorer' "
                "ON (SELECT g.gid FROM gene g WHERE g.score > 20)")
        run(db, "ADD ANNOTATION TO gene.note VALUE 'name note' "
                "ON (SELECT g.name FROM gene g WHERE g.gid = 'G25')")
        query = ("SELECT gid, score FROM gene ANNOTATION(note) "
                 "WHERE score > 20 AND gid <> 'G29'")

        def canonical(batch_size):
            db.config.batch_size = batch_size
            try:
                result = fetch(db, query)
                return sorted(
                    (row.values,
                     tuple(tuple(sorted(annotation_text(a.body) for a in anns))
                           for anns in row.annotations))
                    for row in result)
            finally:
                db.config.batch_size = 1024

        # The gid column carries 'high scorer'; the projected score column
        # carries nothing (annotation granularity is per cell), whatever the
        # batch size.
        expected = [((f"G{i}", i * 1.0), (("high scorer",), ()))
                    for i in range(21, 29)]
        for batch_size in (1, 2, 1024):
            assert canonical(batch_size) == expected

    def test_annotations_propagate_through_range_scan(self):
        db = Database()
        run(db, "CREATE TABLE m (id INTEGER PRIMARY KEY, v FLOAT)")
        run(db, "CREATE ANNOTATION TABLE note ON m")
        for i in range(40):
            run(db, f"INSERT INTO m VALUES ({i}, {i * 1.0})")
        run(db, "ADD ANNOTATION TO m.note VALUE 'mid band' "
                "ON (SELECT t.id FROM m t WHERE t.v BETWEEN 10 AND 20)")
        run(db, "CREATE INDEX ix_m_v ON m (v) USING btree")
        db.analyze("m")
        query = "SELECT id FROM m ANNOTATION(note) WHERE v BETWEEN 12 AND 15"
        result = fetch(db, query)
        assert plan_access_paths(db.engine.last_plan) == ["index_range"]
        assert len(result) == 4
        for index in range(len(result)):
            bodies = [annotation_text(body)
                      for body in bodies_of(result[index].annotations[0])]
            assert bodies == ["mid band"]

    def test_promote_survives_batched_projection(self):
        db = Database()
        run(db, "CREATE TABLE g (gid TEXT PRIMARY KEY, seq TEXT)")
        run(db, "CREATE ANNOTATION TABLE note ON g")
        run(db, "INSERT INTO g VALUES ('a', 'ATG')")
        run(db, "ADD ANNOTATION TO g.note VALUE 'seq note' "
                "ON (SELECT x.seq FROM g x WHERE x.gid = 'a')")
        result = fetch(db, "SELECT gid PROMOTE (seq) FROM g ANNOTATION(note)")
        bodies = [annotation_text(body)
                  for body in bodies_of(result[0].annotations[0])]
        assert bodies == ["seq note"]
