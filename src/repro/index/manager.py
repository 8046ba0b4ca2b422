"""Secondary-index registry used by the engine for CREATE INDEX / DROP INDEX.

Indexes map a column value (or tuple of column values) to tuple ids of the
indexed table.  The engine keeps them synchronised on INSERT/UPDATE/DELETE;
applications and benchmarks use :meth:`IndexManager.lookup` for point queries
and :meth:`IndexManager.get` for direct access to the underlying structure;
the dependency tracker finds a rule's target tuples through
:meth:`IndexManager.find_tuples`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.catalog.catalog import SystemCatalog
from repro.catalog.table import Table
from repro.core.errors import IndexError_
from repro.index.btree import BPlusTree
from repro.index.hash_index import HashIndex
from repro.types.datatypes import TYPE_CATEGORIES, value_category
from repro.types.values import values_equal

#: Index methods accepted by CREATE INDEX ... USING <method>.
SUPPORTED_METHODS = ("btree", "hash")


@dataclass
class SecondaryIndex:
    """A named secondary index over one or more columns of a table.

    Rows whose key contains NULL or NaN are *not* inserted into the ordered
    structure: SQL equality never matches NULL, and NaN compares unordered
    under Python's ``<`` so it would silently corrupt the B-tree's bisect
    invariants.  The ``null_keys`` / ``nan_keys`` counters record how many
    live rows are missing from the structure for each reason, so the planner
    can tell when an index-order or range scan would drop rows (NULLs fail
    every range predicate, but NaN rows satisfy lower-bound-only ranges —
    ``compare_values`` orders NaN above every number).
    """

    name: str
    table: str
    columns: Tuple[str, ...]
    method: str
    structure: Any
    null_keys: int = 0
    nan_keys: int = 0

    def key_of(self, row: Dict[str, Any]) -> Any:
        values = tuple(row[column] for column in self.columns)
        return values[0] if len(values) == 1 else values

    def key_is_null(self, key: Any) -> bool:
        """NULL key columns are not indexed: SQL equality never matches NULL,
        and B-tree ordering cannot compare None against real values."""
        if isinstance(key, tuple):
            return any(value is None for value in key)
        return key is None

    def key_has_nan(self, key: Any) -> bool:
        """NaN key columns are not indexed (unordered under ``<``)."""
        if isinstance(key, tuple):
            return any(isinstance(value, float) and value != value
                       for value in key)
        return isinstance(key, float) and key != key

    # -- maintenance (keeps the skip counters in lock-step) -------------
    def add_entry(self, key: Any, tuple_id: int) -> None:
        if self.key_is_null(key):
            self.null_keys += 1
        elif self.key_has_nan(key):
            self.nan_keys += 1
        else:
            self.structure.insert(key, tuple_id)

    def remove_entry(self, key: Any, tuple_id: int) -> None:
        if self.key_is_null(key):
            self.null_keys -= 1
        elif self.key_has_nan(key):
            self.nan_keys -= 1
        else:
            self.structure.delete(key, tuple_id)


class IndexManager:
    """Creates, maintains, and answers lookups on secondary indexes."""

    def __init__(self, catalog: SystemCatalog):
        self.catalog = catalog
        self._indexes: Dict[str, SecondaryIndex] = {}

    # ------------------------------------------------------------------
    def create_index(self, name: str, table: str, columns: Sequence[str],
                     method: str = "btree") -> SecondaryIndex:
        key = name.lower()
        if key in self._indexes:
            raise IndexError_(f"index {name!r} already exists")
        method = method.lower()
        if method not in SUPPORTED_METHODS:
            raise IndexError_(
                f"unsupported index method {method!r}; supported: "
                f"{', '.join(SUPPORTED_METHODS)}"
            )
        catalog_table = self.catalog.table(table)
        resolved = [catalog_table.schema.column(column).name for column in columns]
        structure = BPlusTree() if method == "btree" else HashIndex()
        index = SecondaryIndex(name, catalog_table.name, tuple(resolved), method, structure)
        # Bulk-build from the current contents (NULL/NaN keys stay unindexed
        # and are counted so the planner knows the structure is incomplete).
        names = catalog_table.schema.column_names
        for tuple_id, row in catalog_table.scan():
            index.add_entry(index.key_of(dict(zip(names, row))), tuple_id)
        self._indexes[key] = index
        # A new access path changes what the planner would choose: cached
        # plans built without this index must be re-planned.
        self.catalog.bump_schema_version()
        journal = getattr(self.catalog, "journal", None)
        if journal is not None:
            journal.note_create_index(index.name, index.table, index.columns,
                                      method)
        return index

    def drop_index(self, name: str) -> None:
        key = name.lower()
        if key not in self._indexes:
            raise IndexError_(f"index {name!r} does not exist")
        del self._indexes[key]
        self.catalog.bump_schema_version()
        journal = getattr(self.catalog, "journal", None)
        if journal is not None:
            journal.note_drop_index(name)

    def drop_indexes_for(self, table: str) -> None:
        doomed = [name for name, index in self._indexes.items()
                  if index.table.lower() == table.lower()]
        for name in doomed:
            del self._indexes[name]
        if doomed:
            self.catalog.bump_schema_version()

    def get(self, name: str) -> SecondaryIndex:
        try:
            return self._indexes[name.lower()]
        except KeyError as exc:
            raise IndexError_(f"index {name!r} does not exist") from exc

    def indexes_for(self, table: str) -> List[SecondaryIndex]:
        return [index for index in self._indexes.values()
                if index.table.lower() == table.lower()]

    def index_names(self) -> List[str]:
        return sorted(index.name for index in self._indexes.values())

    # ------------------------------------------------------------------
    # Maintenance hooks called by the engine
    # ------------------------------------------------------------------
    def on_insert(self, table: str, tuple_id: int, row: Dict[str, Any]) -> None:
        for index in self.indexes_for(table):
            index.add_entry(index.key_of(row), tuple_id)

    def on_delete(self, table: str, tuple_id: int, row: Dict[str, Any]) -> None:
        for index in self.indexes_for(table):
            index.remove_entry(index.key_of(row), tuple_id)

    def on_update(self, table: str, tuple_id: int, old_row: Dict[str, Any],
                  new_row: Dict[str, Any]) -> None:
        for index in self.indexes_for(table):
            old_key, new_key = index.key_of(old_row), index.key_of(new_row)
            if old_key != new_key:
                index.remove_entry(old_key, tuple_id)
                index.add_entry(new_key, tuple_id)

    # ------------------------------------------------------------------
    def lookup(self, index_name: str, key: Any) -> List[int]:
        """Tuple ids whose indexed key equals ``key``."""
        return list(self.get(index_name).structure.search(key))

    def find_tuples(self, table: str, column: str, value: Any,
                    use_index: bool = True) -> List[int]:
        """Tuple ids of ``table`` whose ``column`` equals ``value``, ascending.

        Probes a single-column index on ``column`` (B-tree preferred) and
        re-checks every hit with ``values_equal``.  Falls back to a
        page-at-a-time scan when ``use_index`` is off, when no such index
        exists, and for keys the structure cannot answer: NaN (NaN rows are
        left out of the structure, yet ``values_equal`` matches NaN to NaN)
        and a value of another type category than the column's (``'5'``
        equals ``5`` by string form).  A NULL key matches nothing.
        """
        catalog_table = self.catalog.table(table)
        position = catalog_table.schema.column_position(column)
        if value is None:
            return []
        index = (self._equality_index(catalog_table, column, value)
                 if use_index else None)
        if index is None:
            return [tuple_id
                    for page in catalog_table.scan_batches(with_tuple_ids=True)
                    for tuple_id, row in page
                    if values_equal(row[position], value)]
        return sorted(
            tuple_id for tuple_id in index.structure.search(value)
            if catalog_table.has_tuple(tuple_id)
            and values_equal(catalog_table.read_row(tuple_id)[position], value))

    def _equality_index(self, table: Table, column: str,
                        value: Any) -> Optional[SecondaryIndex]:
        """The single-column index able to answer ``column = value``."""
        category = value_category(value)
        if category is None or (isinstance(value, float) and value != value):
            return None
        if category != TYPE_CATEGORIES.get(table.schema.column(column).dtype):
            return None
        candidates = [index for index in self.indexes_for(table.name)
                      if len(index.columns) == 1
                      and index.columns[0].lower() == column.lower()]
        if not candidates:
            return None
        return min(candidates, key=lambda index: index.method != "btree")
