"""Heap files: unordered collections of rows stored in slotted pages.

A heap file owns a list of page ids and supports insert, point read/update/
delete by :class:`RecordId`, and full scans.  Rows are serialized with the
tagged binary codec from :mod:`repro.types.values`; each stored row is
prefixed with a monotonically increasing *tuple id* so that higher layers
(annotations, dependency bitmaps, the approval log) can address tuples by a
stable logical identifier that survives page reorganisation.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import PageFullError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import RecordId
from repro.types.values import deserialize_records, deserialize_row, serialize_row


class HeapFile:
    """An unordered file of rows, one per user relation."""

    def __init__(self, pool: BufferPool, page_ids: Optional[List[int]] = None,
                 next_tuple_id: int = 0):
        self.pool = pool
        self.page_ids: List[int] = list(page_ids or [])
        self.next_tuple_id = next_tuple_id

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[Any], tuple_id: Optional[int] = None) -> Tuple[int, RecordId]:
        """Insert a row; returns ``(tuple_id, record_id)``."""
        if tuple_id is None:
            tuple_id = self.next_tuple_id
            self.next_tuple_id += 1
        else:
            self.next_tuple_id = max(self.next_tuple_id, tuple_id + 1)
        record = serialize_row((tuple_id,) + tuple(values))
        record_id = self._place_record(record)
        return tuple_id, record_id

    def _place_record(self, record: bytes) -> RecordId:
        # Try the last page first; heap files grow at the tail.
        if self.page_ids:
            page = self.pool.fetch_page(self.page_ids[-1])
            try:
                slot = page.insert(record)
                return RecordId(page.page_id, slot)
            except PageFullError:
                pass
        page = self.pool.new_page()
        self.page_ids.append(page.page_id)
        slot = page.insert(record)
        return RecordId(page.page_id, slot)

    def update(self, record_id: RecordId, values: Sequence[Any], tuple_id: int) -> RecordId:
        """Update the row at ``record_id``; may move it to another page."""
        record = serialize_row((tuple_id,) + tuple(values))
        page = self.pool.fetch_page(record_id.page_id)
        if page.update(record_id.slot, record):
            return record_id
        # The record no longer fits: delete and re-insert elsewhere.
        page.delete(record_id.slot)
        return self._place_record(record)

    def delete(self, record_id: RecordId) -> None:
        page = self.pool.fetch_page(record_id.page_id)
        page.delete(record_id.slot)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, record_id: RecordId) -> Tuple[int, Tuple[Any, ...]]:
        """Return ``(tuple_id, values)`` for the row at ``record_id``."""
        page = self.pool.fetch_page(record_id.page_id)
        stored = deserialize_row(page.read(record_id.slot))
        if not stored:
            raise StorageError("corrupt record: missing tuple id")
        return int(stored[0]), tuple(stored[1:])

    def scan(self) -> Iterator[Tuple[RecordId, int, Tuple[Any, ...]]]:
        """Yield ``(record_id, tuple_id, values)`` for every live row."""
        for page_id in self.page_ids:
            page = self.pool.fetch_page(page_id)
            for slot, record in page.records():
                stored = deserialize_row(record)
                yield RecordId(page_id, slot), int(stored[0]), tuple(stored[1:])

    def scan_page(self, page_id: int) -> List[Tuple[int, int, Tuple[Any, ...]]]:
        """Decode every live row of one page: ``(slot, tuple_id, values)``.

        This is the batched read path: one buffer-pool fetch and one
        vectorized decode call per page instead of one of each per row.
        """
        page = self.pool.fetch_page(page_id)
        pairs = list(page.records())
        decoded = deserialize_records([record for _, record in pairs])
        return [(slot, tuple_id, values)
                for (slot, _), (tuple_id, values) in zip(pairs, decoded)]

    def scan_page_rows(self, page_id: int,
                       with_tuple_ids: bool = True) -> List[Any]:
        """Decode one page's live rows in slot order, without slot bookkeeping.

        Returns ``(tuple_id, values)`` pairs, or bare value tuples when
        ``with_tuple_ids`` is False — the no-overhead path for scans that
        neither attach annotations nor address cells.
        """
        page = self.pool.fetch_page(page_id)
        return deserialize_records(page.live_records(), with_tuple_ids)

    def count(self) -> int:
        return sum(1 for _ in self.scan())

    def num_pages(self) -> int:
        return len(self.page_ids)
