"""Annotation linkage storage schemes.

The paper contrasts two ways of recording *which cells an annotation is
attached to*:

* the **naive per-cell scheme** (Figure 3): conceptually one annotation
  column per data column; here realised as one linkage record per
  (tuple, column, annotation) triple, so an annotation over an entire column
  of N tuples costs N records;
* the **compact region scheme** (Figure 5): the table is viewed as a
  two-dimensional space and each annotation stores a small set of rectangles,
  so coarse-granularity annotations cost a single record.

Both schemes persist their linkage records in ordinary heap-backed tables so
that storage size and retrieval I/O are measured through the same buffer-pool
machinery as user data — that is what benchmark E2 compares.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.annotations.model import Cell, Region, decompose_cells
from repro.catalog.catalog import SystemCatalog
from repro.catalog.schema import Column, TableSchema
from repro.catalog.table import Table
from repro.core.errors import AnnotationError
from repro.types.datatypes import DataType

#: Scheme identifiers accepted by CREATE ANNOTATION TABLE.
SCHEME_NAIVE = "naive"
SCHEME_COMPACT = "compact"


class AnnotationLinkageStore:
    """Interface of a linkage store: maps annotations to the cells they cover."""

    #: subclasses set this to SCHEME_NAIVE or SCHEME_COMPACT
    scheme_name = "abstract"

    def __init__(self, backing: Table):
        self.backing = backing

    # -- writes ------------------------------------------------------------
    def attach(self, ann_id: int, cells: Iterable[Cell]) -> int:
        """Record that annotation ``ann_id`` covers ``cells``.

        Returns the number of linkage records written.
        """
        raise NotImplementedError

    def detach(self, ann_id: int) -> int:
        """Remove every linkage record of ``ann_id``; returns how many."""
        removed = 0
        doomed = [tid for tid, row in self.backing.scan() if row[0] == ann_id]
        for tid in doomed:
            self.backing.delete_row(tid)
            removed += 1
        return removed

    # -- reads -------------------------------------------------------------
    def load_index(self) -> "LinkageIndex":
        """Scan the backing table and build an in-memory lookup index.

        The scan is what costs I/O; the returned index is then probed once
        per tuple during annotation propagation.
        """
        raise NotImplementedError

    def cells_of(self, ann_id: int) -> Set[Cell]:
        """Return every cell covered by ``ann_id`` (a full scan of the store)."""
        raise NotImplementedError

    # -- measurement ---------------------------------------------------------
    def record_count(self) -> int:
        return len(self.backing)

    def num_pages(self) -> int:
        return self.backing.num_pages()


#: One linkage entry active on a tuple: ``(col_start, col_end, ann_id)``,
#: inclusive column bounds.
Entry = Tuple[int, int, int]


class LinkageIndex:
    """In-memory probe structure built by :meth:`AnnotationLinkageStore.load_index`.

    An index is immutable once built: it may be shared by every statement
    (and thread) reading the same data version, so probes hand out fresh or
    frozen results, never internal state.
    """

    def covering(self, tuple_id: int) -> Sequence[Entry]:
        """Every linkage entry on ``tuple_id``, as ``(col_start, col_end, ann_id)``."""
        raise NotImplementedError

    def lookup(self, tuple_id: int, column: int) -> FrozenSet[int]:
        return frozenset(ann_id for col_start, col_end, ann_id
                         in self.covering(tuple_id)
                         if col_start <= column <= col_end)

    def annotated_tuple_ids(self) -> Set[int]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Naive per-cell scheme (Figure 3)
# ---------------------------------------------------------------------------
class _CellIndex(LinkageIndex):
    def __init__(self, by_tuple: Dict[int, Tuple[Entry, ...]]):
        self._by_tuple = by_tuple

    def covering(self, tuple_id: int) -> Sequence[Entry]:
        return self._by_tuple.get(tuple_id, ())

    def annotated_tuple_ids(self) -> Set[int]:
        return set(self._by_tuple)


class NaiveCellStore(AnnotationLinkageStore):
    """One linkage record per (annotation, tuple, column) triple."""

    scheme_name = SCHEME_NAIVE

    @staticmethod
    def backing_schema(name: str) -> TableSchema:
        return TableSchema(name, [
            Column("ann_id", DataType.INTEGER, nullable=False),
            Column("tuple_id", DataType.INTEGER, nullable=False),
            Column("column_pos", DataType.INTEGER, nullable=False),
        ])

    def attach(self, ann_id: int, cells: Iterable[Cell]) -> int:
        written = 0
        for tuple_id, column in sorted(set(cells)):
            self.backing.insert_positional((ann_id, tuple_id, column))
            written += 1
        return written

    def load_index(self) -> _CellIndex:
        by_tuple: Dict[int, List[Entry]] = {}
        for _, (ann_id, tuple_id, column) in self.backing.scan():
            by_tuple.setdefault(tuple_id, []).append((column, column, ann_id))
        return _CellIndex({tuple_id: tuple(entries)
                           for tuple_id, entries in by_tuple.items()})

    def cells_of(self, ann_id: int) -> Set[Cell]:
        return {
            (tuple_id, column)
            for _, (aid, tuple_id, column) in self.backing.scan()
            if aid == ann_id
        }


# ---------------------------------------------------------------------------
# Compact rectangle scheme (Figure 5)
# ---------------------------------------------------------------------------
class _RegionIndex(LinkageIndex):
    """The tuple-id axis cut into elementary segments.

    Every region's ``tid_start`` and ``tid_end + 1`` is a cut; between two
    consecutive cuts the set of regions covering a tuple is constant, so
    ``_segments[i]`` holds the entries active on ``[_cuts[i], _cuts[i + 1])``
    and a probe is one ``bisect``.  The last segment is always empty.
    """

    def __init__(self, regions: List[Tuple[Region, int]]):
        opening: Dict[int, List[int]] = {}
        closing: Dict[int, List[int]] = {}
        for position, (region, _) in enumerate(regions):
            opening.setdefault(region.tid_start, []).append(position)
            closing.setdefault(region.tid_end + 1, []).append(position)
        self._cuts = sorted(opening.keys() | closing.keys())
        self._segments: List[Tuple[Entry, ...]] = []
        active: Dict[int, Entry] = {}
        for cut in self._cuts:
            for position in closing.get(cut, ()):
                del active[position]
            for position in opening.get(cut, ()):
                region, ann_id = regions[position]
                active[position] = (region.col_start, region.col_end, ann_id)
            self._segments.append(tuple(active.values()))

    def covering(self, tuple_id: int) -> Sequence[Entry]:
        segment = bisect_right(self._cuts, tuple_id) - 1
        return self._segments[segment] if segment >= 0 else ()

    def annotated_tuple_ids(self) -> Set[int]:
        tuple_ids: Set[int] = set()
        for start, end, entries in zip(self._cuts, self._cuts[1:], self._segments):
            if entries:
                tuple_ids.update(range(start, end))
        return tuple_ids


class CompactRegionStore(AnnotationLinkageStore):
    """One linkage record per rectangular region of the annotation's extent."""

    scheme_name = SCHEME_COMPACT

    @staticmethod
    def backing_schema(name: str) -> TableSchema:
        return TableSchema(name, [
            Column("ann_id", DataType.INTEGER, nullable=False),
            Column("col_start", DataType.INTEGER, nullable=False),
            Column("col_end", DataType.INTEGER, nullable=False),
            Column("tid_start", DataType.INTEGER, nullable=False),
            Column("tid_end", DataType.INTEGER, nullable=False),
        ])

    def attach(self, ann_id: int, cells: Iterable[Cell]) -> int:
        regions = decompose_cells(set(cells))
        for region in regions:
            self.backing.insert_positional((
                ann_id, region.col_start, region.col_end,
                region.tid_start, region.tid_end,
            ))
        return len(regions)

    def load_index(self) -> _RegionIndex:
        regions: List[Tuple[Region, int]] = []
        for _, (ann_id, col_start, col_end, tid_start, tid_end) in self.backing.scan():
            regions.append((Region(col_start, col_end, tid_start, tid_end), ann_id))
        return _RegionIndex(regions)

    def cells_of(self, ann_id: int) -> Set[Cell]:
        cells: Set[Cell] = set()
        for _, (aid, col_start, col_end, tid_start, tid_end) in self.backing.scan():
            if aid != ann_id:
                continue
            cells.update(Region(col_start, col_end, tid_start, tid_end).cells())
        return cells


_SCHEMES = {
    SCHEME_NAIVE: NaiveCellStore,
    SCHEME_COMPACT: CompactRegionStore,
}


def linkage_store_class(scheme: str):
    """The linkage-store class for ``scheme`` (creating no backing table)."""
    try:
        return _SCHEMES[scheme.lower()]
    except KeyError as exc:
        raise AnnotationError(
            f"unknown annotation storage scheme {scheme!r}; expected one of "
            f"{sorted(_SCHEMES)}"
        ) from exc


def create_linkage_store(scheme: str, catalog: SystemCatalog, backing_name: str) -> AnnotationLinkageStore:
    """Create the backing table for ``scheme`` and return its linkage store."""
    store_cls = linkage_store_class(scheme)
    backing = catalog.create_table(store_cls.backing_schema(backing_name))
    return store_cls(backing)
