"""The Table object: schema + heap file + primary-key directory.

A table keeps a logical *tuple id* for every row.  Tuple ids are the stable
handles used across the system:

* the annotation manager addresses cells as ``(table, tuple_id, column)``,
* the dependency tracker's outdated bitmaps are keyed by tuple id,
* the approval log records inverse statements against tuple ids,
* provenance records reference tuple ids.

Physically, rows live in a heap file addressed by record ids; the table keeps
the tuple-id -> record-id directory and an optional unique index on the
primary key.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import TableSchema
from repro.core.errors import CatalogError, ConstraintViolationError
from repro.storage.buffer_pool import BufferPool
from repro.storage.heap_file import HeapFile
from repro.storage.page import RecordId

#: Process-wide source of ``Table.data_version`` stamps.  One counter for
#: every table means a table dropped and recreated under the same name can
#: never repeat a stamp an earlier incarnation handed out.
_DATA_VERSIONS = itertools.count()


class Table:
    """A stored user relation."""

    def __init__(self, schema: TableSchema, pool: BufferPool,
                 journal: Optional[Any] = None,
                 version_source: Optional[Callable[[], int]] = None):
        self.schema = schema
        self.pool = pool
        self.heap = HeapFile(pool)
        #: Supplies the catalog's ``schema_version`` for decoded-page cache
        #: keys; a standalone table pins version 0 (still correct — DML
        #: invalidation goes through the page-dirty path, not the version).
        self._version_source = version_source
        #: The transaction manager acting as mutation journal (see
        #: :mod:`repro.core.transactions`), or ``None`` for a standalone
        #: table.  Every committed-path mutation reports its after-image
        #: (redo) and before-image (undo) through it.
        self.journal = journal
        #: tuple_id -> record id in the heap file
        self._directory: Dict[int, RecordId] = {}
        #: primary key value(s) -> tuple_id, maintained when a PK is declared
        self._pk_index: Dict[Tuple[Any, ...], int] = {}
        #: names of secondary indexes attached to this table (managed elsewhere)
        self.secondary_indexes: List[str] = []
        #: While True, physical (page, slot) order equals tuple-id order:
        #: inserts append monotonically increasing tuple ids at the heap tail
        #: and deletes only remove rows.  Only an UPDATE that relocates a
        #: record (grown row moved to the tail) breaks the invariant; batched
        #: scans then fall back to the directory-ordered path.
        self._page_order_is_tid_order = True
        #: Changes after every row mutation (insert, update, delete, and
        #: their raw undo / replay appliers), so a structure derived from the
        #: rows stays valid exactly while the stamp it recorded still
        #: matches.  Taken after the mutation lands: a reader that records
        #: the stamp before deriving never labels stale data as current.
        self.data_version = next(_DATA_VERSIONS)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._directory)

    @property
    def tuple_ids(self) -> List[int]:
        return sorted(self._directory)

    def _pk_value(self, row: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        pk_columns = self.schema.primary_key_columns
        if not pk_columns:
            return None
        return tuple(row[self.schema.column_position(c)] for c in pk_columns)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert_row(self, values: Dict[str, Any]) -> int:
        """Insert a row given as a column->value mapping; returns the tuple id."""
        row = self.schema.coerce_row(values)
        return self._insert_coerced(row)

    def insert_positional(self, values: Sequence[Any]) -> int:
        row = self.schema.coerce_positional(values)
        return self._insert_coerced(row)

    def _insert_coerced(self, row: Tuple[Any, ...]) -> int:
        pk = self._pk_value(row)
        if pk is not None:
            if pk in self._pk_index:
                raise ConstraintViolationError(
                    f"duplicate primary key {pk!r} in table {self.name!r}"
                )
        tuple_id, record_id = self.heap.insert(row)
        self._directory[tuple_id] = record_id
        if pk is not None:
            self._pk_index[pk] = tuple_id
        self.data_version = next(_DATA_VERSIONS)
        if self.journal is not None:
            self.journal.note_row_insert(self, tuple_id, row)
        return tuple_id

    def update_row(self, tuple_id: int, changes: Dict[str, Any]) -> Tuple[Any, ...]:
        """Apply ``changes`` to the row with ``tuple_id``; returns the new row."""
        old_row = self.read_row(tuple_id)
        new_values = dict(zip(self.schema.column_names, old_row))
        for key, value in changes.items():
            self.schema.column(key)  # validates the column exists
            new_values[key] = value
        new_row = self.schema.coerce_row(new_values)
        old_pk, new_pk = self._pk_value(old_row), self._pk_value(new_row)
        if new_pk is not None and new_pk != old_pk and new_pk in self._pk_index:
            raise ConstraintViolationError(
                f"duplicate primary key {new_pk!r} in table {self.name!r}"
            )
        self._store_update(tuple_id, old_pk, new_pk, new_row)
        if self.journal is not None:
            self.journal.note_row_update(self, tuple_id, old_row, new_row)
        return new_row

    def delete_row(self, tuple_id: int) -> Tuple[Any, ...]:
        """Delete the row with ``tuple_id``; returns the deleted row."""
        row = self.read_row(tuple_id)
        record_id = self._directory.pop(tuple_id)
        self.heap.delete(record_id)
        pk = self._pk_value(row)
        if pk is not None:
            self._pk_index.pop(pk, None)
        self.data_version = next(_DATA_VERSIONS)
        if self.journal is not None:
            self.journal.note_row_delete(self, tuple_id, row)
        return row

    def _store_update(self, tuple_id: int, old_pk, new_pk,
                      new_row: Tuple[Any, ...]) -> None:
        record_id = self._directory[tuple_id]
        new_record_id = self.heap.update(record_id, new_row, tuple_id)
        if new_record_id != record_id:
            self._page_order_is_tid_order = False
        self._directory[tuple_id] = new_record_id
        if old_pk != new_pk:
            if old_pk is not None:
                self._pk_index.pop(old_pk, None)
            if new_pk is not None:
                self._pk_index[new_pk] = tuple_id
        self.data_version = next(_DATA_VERSIONS)

    # ------------------------------------------------------------------
    # Raw appliers (transaction undo and WAL replay)
    # ------------------------------------------------------------------
    # These re-apply already-validated images: no coercion, no constraint
    # checks, and no journaling (the transaction manager suppresses its
    # hooks while using them), but full directory / primary-key upkeep.
    def apply_insert(self, tuple_id: int, row: Sequence[Any]) -> None:
        """Insert ``row`` under a forced ``tuple_id`` (replay / undo-delete)."""
        row = tuple(row)
        _, record_id = self.heap.insert(row, tuple_id)
        self._directory[tuple_id] = record_id
        pk = self._pk_value(row)
        if pk is not None:
            self._pk_index[pk] = tuple_id
        self.data_version = next(_DATA_VERSIONS)

    def apply_update(self, tuple_id: int, new_row: Sequence[Any]) -> None:
        """Overwrite the stored image of ``tuple_id`` with ``new_row``."""
        new_row = tuple(new_row)
        old_row = self.read_row(tuple_id)
        self._store_update(tuple_id, self._pk_value(old_row),
                           self._pk_value(new_row), new_row)

    def apply_delete(self, tuple_id: int) -> None:
        """Remove ``tuple_id`` physically (replay / undo-insert)."""
        row = self.read_row(tuple_id)
        self.heap.delete(self._directory.pop(tuple_id))
        pk = self._pk_value(row)
        if pk is not None:
            self._pk_index.pop(pk, None)
        self.data_version = next(_DATA_VERSIONS)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_row(self, tuple_id: int) -> Tuple[Any, ...]:
        if tuple_id not in self._directory:
            raise CatalogError(f"table {self.name!r} has no tuple {tuple_id}")
        stored_id, values = self.heap.read(self._directory[tuple_id])
        if stored_id != tuple_id:
            raise CatalogError(
                f"directory corruption in table {self.name!r}: expected tuple "
                f"{tuple_id}, found {stored_id}"
            )
        return values

    def has_tuple(self, tuple_id: int) -> bool:
        return tuple_id in self._directory

    def read_cell(self, tuple_id: int, column: str) -> Any:
        row = self.read_row(tuple_id)
        return row[self.schema.column_position(column)]

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield ``(tuple_id, row)`` in tuple-id order."""
        for tuple_id in sorted(self._directory):
            yield tuple_id, self.read_row(tuple_id)

    def scan_batches(self, with_tuple_ids: bool = True) -> Iterator[List[Any]]:
        """Yield row lists in tuple-id order, page at a time.

        Observationally equivalent to :meth:`scan` (same rows, same order)
        but decodes whole pages with the vectorized record decoder, which is
        the storage half of the batched executor's speedup.  Elements are
        ``(tuple_id, values)`` pairs, or bare value tuples when
        ``with_tuple_ids`` is False.  While the physical order still matches
        tuple-id order (the common, append-only case) pages stream straight
        through; after a record relocation the scan falls back to directory
        order with a per-page decode cache.
        """
        if self._page_order_is_tid_order:
            cache = self.pool.decoded
            version = (self._version_source()
                       if self._version_source is not None else 0)
            name = self.name
            for page_id in self.heap.page_ids:
                decoded = cache.get(name, page_id, version, with_tuple_ids)
                if decoded is None:
                    decoded = self.heap.scan_page_rows(page_id, with_tuple_ids)
                    cache.put(name, page_id, version, with_tuple_ids, decoded)
                if decoded:
                    yield decoded
            return
        cached_page_id: Optional[int] = None
        cached: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        batch: List[Any] = []
        for tuple_id in sorted(self._directory):
            record_id = self._directory[tuple_id]
            if record_id.page_id != cached_page_id:
                cached = {slot: (stored_id, values)
                          for slot, stored_id, values
                          in self.heap.scan_page(record_id.page_id)}
                cached_page_id = record_id.page_id
            entry = cached[record_id.slot]
            batch.append(entry if with_tuple_ids else entry[1])
            if len(batch) >= 256:
                yield batch
                batch = []
        if batch:
            yield batch

    def lookup_primary_key(self, key: Sequence[Any]) -> Optional[int]:
        """Return the tuple id of the row with the given primary key, if any."""
        if not self.schema.primary_key_columns:
            return None
        return self._pk_index.get(tuple(key))

    def rows_as_dicts(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for _, row in self.scan()]

    def num_pages(self) -> int:
        return self.heap.num_pages()
