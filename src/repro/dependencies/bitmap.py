"""Outdated-cell bitmaps with run-length-encoded compression (Figure 10).

The paper associates a bitmap with each table: a cell of the bitmap is 1 when
the corresponding data cell is outdated and needs re-verification, 0
otherwise, and suggests Run-Length-Encoding to compress the bitmaps.  The
reproduction keeps the bitmap as a per-column set of outdated tuple ids and
can materialise the dense bit matrix and its RLE form for measurement.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.index.sbc.rle import rle_encode_bits


class OutdatedBitmap:
    """Tracks which (tuple id, column) cells of one table are outdated."""

    def __init__(self, table: str, column_names: List[str]):
        self.table = table
        self.column_names = list(column_names)
        self._outdated: Dict[str, Set[int]] = {name.lower(): set() for name in column_names}

    # ------------------------------------------------------------------
    def _column(self, column: str) -> Set[int]:
        key = column.lower()
        if key not in self._outdated:
            raise KeyError(f"table {self.table!r} has no column {column!r}")
        return self._outdated[key]

    def mark(self, tuple_id: int, column: str) -> None:
        self._column(column).add(tuple_id)

    def clear(self, tuple_id: int, column: str) -> None:
        self._column(column).discard(tuple_id)

    def clear_tuple(self, tuple_id: int) -> None:
        for cells in self._outdated.values():
            cells.discard(tuple_id)

    def is_outdated(self, tuple_id: int, column: str) -> bool:
        return tuple_id in self._column(column)

    # -- transaction support --------------------------------------------
    def snapshot(self) -> Dict[str, Set[int]]:
        """A deep copy of the outdated sets (taken at transaction BEGIN)."""
        return {column: set(ids) for column, ids in self._outdated.items()}

    def restore(self, snapshot: Dict[str, Set[int]]) -> None:
        """Reset the outdated sets to a previously taken :meth:`snapshot`."""
        self._outdated = {column: set(ids) for column, ids in snapshot.items()}

    def outdated_cells(self) -> List[Tuple[int, str]]:
        cells = []
        for name in self.column_names:
            for tuple_id in sorted(self._outdated[name.lower()]):
                cells.append((tuple_id, name))
        return cells

    def outdated_count(self) -> int:
        return sum(len(cells) for cells in self._outdated.values())

    def outdated_columns_of(self, tuple_id: int) -> List[str]:
        return [
            name for name in self.column_names
            if tuple_id in self._outdated[name.lower()]
        ]

    # ------------------------------------------------------------------
    # Dense matrix and compression (for measurement / Figure 10)
    # ------------------------------------------------------------------
    def dense_rows(self, tuple_ids: Iterable[int]) -> List[List[int]]:
        """Materialise the bitmap as rows of 0/1 in schema column order."""
        rows = []
        for tuple_id in tuple_ids:
            rows.append([
                1 if tuple_id in self._outdated[name.lower()] else 0
                for name in self.column_names
            ])
        return rows

    def raw_size_bits(self, num_tuples: int) -> int:
        """Size of the uncompressed bitmap in bits."""
        return num_tuples * len(self.column_names)

    def rle_size_bits(self, tuple_ids: Iterable[int]) -> int:
        """Size of the RLE-compressed bitmap in bits.

        Each column's bit vector (in tuple-id order) is RLE-encoded
        independently; a run is charged 1 bit for the symbol plus 32 bits for
        the run length, the encoding the paper's Figure 10 discussion implies.
        """
        ordered = list(tuple_ids)
        total_bits = 0
        for name in self.column_names:
            outdated = self._outdated[name.lower()]
            bits = [1 if tuple_id in outdated else 0 for tuple_id in ordered]
            runs = rle_encode_bits(bits)
            total_bits += sum(1 + 32 for _ in runs)
        return total_bits

    def compression_ratio(self, tuple_ids: Iterable[int]) -> float:
        ordered = list(tuple_ids)
        raw = self.raw_size_bits(len(ordered))
        if raw == 0:
            return 1.0
        compressed = self.rle_size_bits(ordered)
        return raw / compressed if compressed else float("inf")
