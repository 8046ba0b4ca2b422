"""Tests for schemas, stored tables, and the system catalog."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import EngineConfig
from repro.catalog.catalog import SystemCatalog
from repro.catalog.schema import Column, TableSchema
from repro.core.errors import CatalogError, ConstraintViolationError, TypeMismatchError
from repro.index.manager import IndexManager
from repro.types.datatypes import DataType


def gene_schema() -> TableSchema:
    return TableSchema("Gene", [
        Column("GID", DataType.TEXT, primary_key=True),
        Column("GName", DataType.TEXT),
        Column("GSequence", DataType.SEQUENCE),
        Column("Length", DataType.INTEGER, default=0),
    ])


class TestTableSchema:
    def test_column_lookup_is_case_insensitive(self):
        schema = gene_schema()
        assert schema.column("gid").name == "GID"
        assert schema.column_position("gsequence") == 2
        assert "GNAME" in schema

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("T", [Column("a", DataType.TEXT), Column("A", DataType.TEXT)])

    def test_empty_schema_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("T", [])

    def test_primary_key_implies_not_null(self):
        assert gene_schema().column("GID").nullable is False

    def test_coerce_row_applies_defaults_and_types(self):
        schema = gene_schema()
        row = schema.coerce_row({"GID": "JW0001", "GName": "mraW",
                                 "GSequence": "ATG"})
        assert row == ("JW0001", "mraW", "ATG", 0)

    def test_coerce_row_unknown_column(self):
        with pytest.raises(CatalogError):
            gene_schema().coerce_row({"GID": "x", "bogus": 1})

    def test_coerce_positional_arity(self):
        with pytest.raises(TypeMismatchError):
            gene_schema().coerce_positional(("only", "three", "values"))

    def test_coerce_reports_offending_column(self):
        with pytest.raises(TypeMismatchError, match="Gene.Length"):
            gene_schema().coerce_row({"GID": "x", "Length": "not a number"})

    def test_serialization_roundtrip(self):
        schema = gene_schema()
        restored = TableSchema.from_dict(schema.to_dict())
        assert restored.column_names == schema.column_names
        assert restored.column("Length").default == 0
        assert restored.primary_key_columns == ["GID"]


class TestTable:
    def _table(self):
        catalog = SystemCatalog()
        return catalog.create_table(gene_schema())

    def test_insert_and_read(self):
        table = self._table()
        tid = table.insert_row({"GID": "JW0080", "GName": "mraW",
                                "GSequence": "ATGATG", "Length": 6})
        assert table.read_row(tid) == ("JW0080", "mraW", "ATGATG", 6)
        assert table.read_cell(tid, "GName") == "mraW"

    def test_primary_key_uniqueness(self):
        table = self._table()
        table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        with pytest.raises(ConstraintViolationError):
            table.insert_row({"GID": "JW0001", "GName": "b", "GSequence": "C"})

    def test_primary_key_lookup(self):
        table = self._table()
        tid = table.insert_row({"GID": "JW0007", "GName": "x", "GSequence": "A"})
        assert table.lookup_primary_key(("JW0007",)) == tid
        assert table.lookup_primary_key(("missing",)) is None

    def test_update_changes_values_and_pk_index(self):
        table = self._table()
        tid = table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        table.update_row(tid, {"GID": "JW0002", "GSequence": "ATG"})
        assert table.lookup_primary_key(("JW0002",)) == tid
        assert table.lookup_primary_key(("JW0001",)) is None
        assert table.read_cell(tid, "GSequence") == "ATG"

    def test_update_into_existing_pk_rejected(self):
        table = self._table()
        table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        tid = table.insert_row({"GID": "JW0002", "GName": "b", "GSequence": "C"})
        with pytest.raises(ConstraintViolationError):
            table.update_row(tid, {"GID": "JW0001"})

    def test_delete_removes_tuple(self):
        table = self._table()
        tid = table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        table.delete_row(tid)
        assert not table.has_tuple(tid)
        with pytest.raises(CatalogError):
            table.read_row(tid)

    def test_tuple_ids_survive_other_deletes(self):
        table = self._table()
        first = table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        second = table.insert_row({"GID": "JW0002", "GName": "b", "GSequence": "C"})
        table.delete_row(first)
        assert table.read_cell(second, "GID") == "JW0002"
        third = table.insert_row({"GID": "JW0003", "GName": "c", "GSequence": "G"})
        assert third > second

    def test_find_tuples(self):
        """Equality lookup on a non-key column, by scan and by index probe."""
        catalog = SystemCatalog()
        table = catalog.create_table(gene_schema())
        first = table.insert_row({"GID": "JW0001", "GName": "dup", "GSequence": "A"})
        second = table.insert_row({"GID": "JW0002", "GName": "dup", "GSequence": "C"})
        table.insert_row({"GID": "JW0003", "GName": "other", "GSequence": "G"})
        indexes = IndexManager(catalog)
        assert indexes.find_tuples("Gene", "GName", "dup") == [first, second]
        indexes.create_index("gene_name", "Gene", ["GName"])
        assert indexes.find_tuples("Gene", "GName", "dup") == [first, second]

    def test_rows_as_dicts(self):
        table = self._table()
        table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        rows = table.rows_as_dicts()
        assert rows[0]["GID"] == "JW0001"


class TestSystemCatalog:
    def test_create_and_drop(self):
        catalog = SystemCatalog()
        catalog.create_table(gene_schema())
        assert catalog.has_table("gene")
        assert catalog.table_names() == ["Gene"]
        catalog.drop_table("GENE")
        assert not catalog.has_table("Gene")

    def test_duplicate_table_rejected(self):
        catalog = SystemCatalog()
        catalog.create_table(gene_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(gene_schema())

    def test_unknown_table_raises(self):
        catalog = SystemCatalog()
        with pytest.raises(CatalogError):
            catalog.table("nope")
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")

    def test_resolve_column(self):
        catalog = SystemCatalog()
        catalog.create_table(gene_schema())
        assert catalog.resolve_column("Gene", "gid").name == "GID"

    def test_io_statistics_exposed(self):
        catalog = SystemCatalog()
        table = catalog.create_table(gene_schema())
        table.insert_row({"GID": "JW0001", "GName": "a", "GSequence": "A"})
        assert catalog.io_statistics().pages_allocated >= 1


# ---------------------------------------------------------------------------
# Batched scans: every page decoded as fetched, equal to the row-at-a-time scan
# ---------------------------------------------------------------------------
def note_schema() -> TableSchema:
    return TableSchema("Note", [Column("n", DataType.INTEGER),
                                Column("body", DataType.TEXT)])


def note_table(rows: int, pool_size: int = 4):
    table = SystemCatalog(pool_size=pool_size).create_table(note_schema())
    for n in range(rows):
        table.insert_row({"n": n, "body": "x" * 100})
    return table


def assert_batches_match_scan(table) -> None:
    expected = list(table.scan())
    for with_tuple_ids in (True, False):
        batched = [row for batch in table.scan_batches(with_tuple_ids)
                   for row in batch]
        assert batched == (expected if with_tuple_ids
                           else [values for _, values in expected])


def apply_step(table, step) -> None:
    """Run one ``(kind, position, body length)`` DML step; ``position``
    picks a live row by index into the sorted tuple ids."""
    kind, position, length = step
    if kind == "insert":
        table.insert_row({"n": position, "body": "i" * length})
        return
    tuple_ids = table.tuple_ids
    if not tuple_ids:
        return
    tuple_id = tuple_ids[position % len(tuple_ids)]
    if kind == "update":
        table.update_row(tuple_id, {"body": "u" * length})
    else:
        table.delete_row(tuple_id)


def dml_steps(max_body: int, max_size: int):
    return st.lists(st.tuples(st.sampled_from(["insert", "update", "delete"]),
                              st.integers(0, 1000), st.integers(0, max_body)),
                    max_size=max_size)


def fetch_all(cur, sql):
    cur.execute(sql)
    return [tuple(row.values) for row in cur.fetchall()]


#: Degenerate one-row batches, a size that splits pages unevenly, the default.
SQL_BATCH_SIZES = (1, 7, 1024)


class TestScanBatches:
    @settings(max_examples=40, deadline=None)
    @given(in_place=dml_steps(max_body=100, max_size=10),
           relocating=dml_steps(max_body=1500, max_size=20))
    def test_random_dml_keeps_batched_scan_equal_to_scan(self, in_place,
                                                         relocating):
        # 60 seeded rows span two pages of a four-page pool.  Updates in the
        # first phase never grow a row, so pages stay in tuple-id order.
        table = note_table(rows=60)
        for step in in_place:
            apply_step(table, step)
            assert_batches_match_scan(table)
        # At most ten steps cannot empty the first page, so growing its
        # lowest row past a page's worth of free space moves the record to
        # the tail: scans now walk the tuple-id directory instead.
        table.update_row(min(table.tuple_ids), {"body": "g" * 3500})
        assert not table._page_order_is_tid_order
        assert_batches_match_scan(table)
        for step in relocating:
            apply_step(table, step)
            assert_batches_match_scan(table)

    def test_scan_after_raw_page_eviction_equals_scan(self):
        table = note_table(rows=200, pool_size=2)
        assert table.num_pages() > table.pool.capacity
        evictions = table.pool.stats.evictions
        assert_batches_match_scan(table)
        assert table.pool.stats.evictions > evictions
        assert_batches_match_scan(table)

    def test_update_dirties_only_the_touched_page(self):
        table = note_table(rows=60, pool_size=8)
        assert table.num_pages() > 1
        table.pool.flush_all()
        target = table.tuple_ids[-1]
        table.update_row(target, {"body": "y" * 100})
        dirty = [page_id for page_id, page in table.pool._frames.items()
                 if page.dirty]
        assert dirty == [table._directory[target].page_id]
        assert_batches_match_scan(table)

    def test_batched_scans_stay_within_pool_capacity(self):
        table = note_table(rows=200, pool_size=2)
        assert table.num_pages() > table.pool.capacity
        table.update_row(min(table.tuple_ids), {"body": "g" * 3500})
        for order_is_tid_order in (False, True):
            table._page_order_is_tid_order = order_is_tid_order
            for with_tuple_ids in (True, False):
                for _ in table.scan_batches(with_tuple_ids):
                    assert len(table.pool._frames) <= table.pool.capacity

    @pytest.mark.parametrize("batch_size", SQL_BATCH_SIZES)
    def test_rescans_match_table_scan_warm_and_cold(self, batch_size):
        config = EngineConfig(batch_size=batch_size)
        with repro.connect(pool_size=8, config=config) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE t (id INTEGER, v FLOAT, s TEXT)")
            cur.executemany("INSERT INTO t VALUES (?, ?, ?)",
                            [(i, i * 0.5, f"name{i % 100}")
                             for i in range(1000)])
            catalog = conn.database.catalog
            table = catalog.table("t")
            assert table.num_pages() > catalog.pool.capacity
            expected = [values[:2] for _, values in table.scan()
                        if values[1] >= 50.0]
            query = "SELECT id, v FROM t WHERE v >= 50.0"
            assert fetch_all(cur, query) == expected
            assert fetch_all(cur, query) == expected
            catalog.pool.clear()
            assert fetch_all(cur, query) == expected

    @pytest.mark.parametrize("batch_size", SQL_BATCH_SIZES)
    def test_batched_scans_reflect_insert_update_delete(self, batch_size):
        with repro.connect(config=EngineConfig(batch_size=batch_size)) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE t (id INTEGER, s TEXT)")
            cur.executemany("INSERT INTO t VALUES (?, ?)",
                            [(i, f"name{i}") for i in range(1000)])
            assert len(fetch_all(cur, "SELECT id FROM t")) == 1000
            cur.execute("INSERT INTO t VALUES (5000, 'new')")
            assert fetch_all(cur, "SELECT id FROM t")[-1] == (5000,)
            cur.execute("DELETE FROM t WHERE id < 10")
            assert fetch_all(cur, "SELECT id FROM t")[0] == (10,)
            cur.execute("UPDATE t SET s = 'renamed' WHERE id = 5000")
            assert fetch_all(cur, "SELECT s FROM t")[-1] == ("renamed",)

    @pytest.mark.parametrize("batch_size", SQL_BATCH_SIZES)
    def test_drop_and_recreate_table_returns_only_new_rows(self, batch_size):
        with repro.connect(config=EngineConfig(batch_size=batch_size)) as conn:
            cur = conn.cursor()
            cur.execute("CREATE TABLE t (id INTEGER, s TEXT)")
            cur.executemany("INSERT INTO t VALUES (?, ?)",
                            [(i, "old") for i in range(300)])
            fetch_all(cur, "SELECT * FROM t")
            cur.execute("DROP TABLE t")
            cur.execute("CREATE TABLE t (id INTEGER)")
            cur.execute("INSERT INTO t VALUES (42)")
            assert fetch_all(cur, "SELECT * FROM t") == [(42,)]
