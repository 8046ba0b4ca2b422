"""Tests for schemas, stored tables, and the system catalog."""

from __future__ import annotations

import pytest

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
