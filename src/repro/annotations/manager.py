"""The annotation manager: bdbms's first-class treatment of annotations.

Responsibilities (paper Sections 3.1–3.4):

* ``CREATE / DROP ANNOTATION TABLE`` — a user relation may have several
  annotation tables attached to it (e.g. one for provenance, one for user
  comments), which is how annotations are *categorized at the storage level*;
* ``ADD ANNOTATION`` at any granularity (cell, group of cells, tuple, column,
  table) with either the naive or the compact storage scheme;
* ``ARCHIVE / RESTORE ANNOTATION`` with an optional time range — archived
  annotations are retained but excluded from propagation;
* building the propagation index used by the annotated query operators.
"""

from __future__ import annotations

from datetime import datetime
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.annotations.model import (
    Annotation,
    CATEGORY_COMMENT,
    Cell,
    cells_for_columns,
    cells_for_tuples,
)
from repro.annotations.storage import (
    SCHEME_COMPACT,
    AnnotationLinkageStore,
    LinkageIndex,
    create_linkage_store,
    linkage_store_class,
)
from repro.annotations.xml_utils import wrap_annotation, is_xml
from repro.catalog.catalog import SystemCatalog
from repro.catalog.schema import Column, TableSchema
from repro.catalog.table import Table
from repro.core.errors import AnnotationError
from repro.types.datatypes import DataType

#: What a propagation probe reads from one annotation table: its linkage
#: index and the ``{ann_id: Annotation}`` bodies that may propagate.
ProbeEntry = Tuple[LinkageIndex, Dict[int, Annotation]]


def _bodies_schema(name: str) -> TableSchema:
    return TableSchema(name, [
        Column("ann_id", DataType.INTEGER, primary_key=True),
        Column("body", DataType.XML, nullable=False),
        Column("curator", DataType.TEXT, nullable=False),
        Column("created_at", DataType.TIMESTAMP, nullable=False),
        Column("archived", DataType.BOOLEAN, nullable=False, default=False),
        Column("category", DataType.TEXT, nullable=False, default=CATEGORY_COMMENT),
    ])


class AnnotationTable:
    """One annotation table attached to a user relation."""

    def __init__(self, name: str, user_table: str, bodies: Table,
                 linkage: AnnotationLinkageStore, category: str = CATEGORY_COMMENT):
        self.name = name
        self.user_table = user_table
        self.bodies = bodies
        self.linkage = linkage
        self.default_category = category
        self._next_ann_id = 0
        #: ``(include_archived, categories) -> (stamp, (index, annotations))``;
        #: see :meth:`probe_index`.
        self._probes: Dict[Tuple[bool, Optional[FrozenSet[str]]],
                           Tuple[Tuple[int, int], ProbeEntry]] = {}

    @property
    def qualified_name(self) -> str:
        return f"{self.user_table}.{self.name}"

    @property
    def scheme(self) -> str:
        return self.linkage.scheme_name

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add(self, body: str, cells: Iterable[Cell], curator: str = "unknown",
            category: Optional[str] = None,
            created_at: Optional[datetime] = None) -> Annotation:
        cells = set(cells)
        if not cells:
            raise AnnotationError(
                f"annotation on {self.qualified_name} targets no cells"
            )
        if not is_xml(body):
            body = wrap_annotation(body)
        ann_id = self._next_ann_id
        self._next_ann_id += 1
        created = created_at or datetime.now()
        chosen_category = category or self.default_category
        self.bodies.insert_positional(
            (ann_id, body, curator, created, False, chosen_category)
        )
        self.linkage.attach(ann_id, cells)
        return Annotation(
            ann_id=ann_id,
            annotation_table=self.qualified_name,
            body=body,
            curator=curator,
            created_at=created,
            archived=False,
            category=chosen_category,
        )

    def set_archived(self, ann_id: int, archived: bool) -> None:
        tuple_id = self._tuple_id_of(ann_id)
        self.bodies.update_row(tuple_id, {"archived": archived})

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, ann_id: int) -> Annotation:
        tuple_id = self._tuple_id_of(ann_id)
        return self._annotation_from_row(self.bodies.read_row(tuple_id))

    def annotations(self, include_archived: bool = False) -> List[Annotation]:
        result = []
        for _, row in self.bodies.scan():
            annotation = self._annotation_from_row(row)
            if annotation.archived and not include_archived:
                continue
            result.append(annotation)
        return result

    def probe_index(self, include_archived: bool = False,
                    categories: Optional[Set[str]] = None) -> ProbeEntry:
        """The linkage index plus ``{ann_id: Annotation}`` that probes read.

        Built once per data version, not once per statement: each entry is
        stamped with the bodies and linkage tables' ``data_version`` and
        reused only while both stamps still match, so every write path —
        ADD / ARCHIVE / RESTORE, rollback undo, WAL replay — invalidates it
        without a hook.  A published entry is never mutated (a new version
        builds a new one), so concurrent readers can share it unlocked.
        """
        key = (include_archived,
               None if categories is None else frozenset(categories))
        stamp = (self.bodies.data_version, self.linkage.backing.data_version)
        cached = self._probes.get(key)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        annotations = {
            annotation.ann_id: annotation
            for annotation in self.annotations(include_archived)
            if categories is None or annotation.category in categories
        }
        entry = (self.linkage.load_index(), annotations)
        self._probes[key] = (stamp, entry)
        return entry

    def annotation_count(self, include_archived: bool = True) -> int:
        if include_archived:
            return len(self.bodies)
        return len(self.annotations(include_archived=False))

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def linkage_record_count(self) -> int:
        return self.linkage.record_count()

    def storage_pages(self) -> int:
        return self.bodies.num_pages() + self.linkage.num_pages()

    # ------------------------------------------------------------------
    def _tuple_id_of(self, ann_id: int) -> int:
        tuple_id = self.bodies.lookup_primary_key((ann_id,))
        if tuple_id is None:
            raise AnnotationError(
                f"annotation table {self.qualified_name} has no annotation {ann_id}"
            )
        return tuple_id

    def _annotation_from_row(self, row: Sequence) -> Annotation:
        ann_id, body, curator, created_at, archived, category = row
        return Annotation(
            ann_id=ann_id,
            annotation_table=self.qualified_name,
            body=body,
            curator=curator,
            created_at=created_at,
            archived=bool(archived),
            category=category,
        )


class PropagationIndex:
    """Probe structure used by annotated scans.

    Combines, for one user table, the cached :meth:`AnnotationTable.probe_index`
    entry of every requested annotation table.  ``vector`` returns the live
    (non-archived unless requested) annotations on every column of one tuple.
    """

    def __init__(self, entries: Sequence[ProbeEntry]):
        self._entries = list(entries)

    def vector(self, tuple_id: int, arity: int) -> List[Set[Annotation]]:
        """One fresh annotation set per column of ``tuple_id``.

        Resolves one linkage segment per annotation table; the sets belong
        to the caller (downstream operators merge into them).
        """
        vector: List[Set[Annotation]] = [set() for _ in range(arity)]
        for linkage_index, annotations in self._entries:
            for col_start, col_end, ann_id in linkage_index.covering(tuple_id):
                annotation = annotations.get(ann_id)
                if annotation is None:
                    continue
                for column in range(col_start, min(col_end + 1, arity)):
                    vector[column].add(annotation)
        return vector

    def lookup(self, tuple_id: int, column: int) -> Set[Annotation]:
        return self.vector(tuple_id, column + 1)[column]

    def is_empty(self) -> bool:
        return not self._entries


class AnnotationManager:
    """Registry and operations over every annotation table in the database."""

    def __init__(self, catalog: SystemCatalog):
        self.catalog = catalog
        self._tables: Dict[Tuple[str, str], AnnotationTable] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_annotation_table(self, user_table: str, name: str,
                                scheme: str = SCHEME_COMPACT,
                                category: str = CATEGORY_COMMENT) -> AnnotationTable:
        if not self.catalog.has_table(user_table):
            raise AnnotationError(
                f"cannot annotate unknown table {user_table!r}"
            )
        key = (user_table.lower(), name.lower())
        if key in self._tables:
            raise AnnotationError(
                f"annotation table {user_table}.{name} already exists"
            )
        bodies_name = f"__ann_{user_table}_{name}".lower()
        linkage_name = f"__annlink_{user_table}_{name}".lower()
        bodies = self.catalog.create_table(_bodies_schema(bodies_name))
        linkage = create_linkage_store(scheme, self.catalog, linkage_name)
        table = AnnotationTable(name, self.catalog.table(user_table).name,
                                bodies, linkage, category)
        self._tables[key] = table
        journal = getattr(self.catalog, "journal", None)
        if journal is not None:
            journal.note_ann_create(table.user_table, name,
                                    linkage.scheme_name, category)
        return table

    def drop_annotation_table(self, user_table: str, name: str) -> None:
        key = (user_table.lower(), name.lower())
        if key not in self._tables:
            raise AnnotationError(
                f"annotation table {user_table}.{name} does not exist"
            )
        table = self._tables.pop(key)
        journal = getattr(self.catalog, "journal", None)
        if journal is not None:
            journal.note_ann_drop(user_table, name)
        self.catalog.drop_table(table.bodies.name)
        self.catalog.drop_table(table.linkage.backing.name)

    def drop_all_for(self, user_table: str) -> None:
        """Drop every annotation table attached to ``user_table`` (DROP TABLE)."""
        for table in list(self.tables_for(user_table)):
            self.drop_annotation_table(user_table, table.name)

    # ------------------------------------------------------------------
    # Crash recovery (see repro.core.transactions)
    # ------------------------------------------------------------------
    def register_recovered(self, user_table: str, name: str, scheme: str,
                           category: str = CATEGORY_COMMENT) -> AnnotationTable:
        """Re-attach an annotation table whose backing tables already exist.

        WAL replay recreates the bodies and linkage tables through their own
        ``create_table`` / ``row_insert`` records; this rebuilds only the
        registry entry on top of them (the inverse of what
        :meth:`create_annotation_table` would do, which would try — and fail
        — to create the backing tables again).
        """
        bodies_name = f"__ann_{user_table}_{name}".lower()
        linkage_name = f"__annlink_{user_table}_{name}".lower()
        linkage = linkage_store_class(scheme)(self.catalog.table(linkage_name))
        table = AnnotationTable(name, self.catalog.table(user_table).name,
                                self.catalog.table(bodies_name), linkage,
                                category)
        self._tables[(user_table.lower(), name.lower())] = table
        return table

    def forget(self, user_table: str, name: str) -> None:
        """Drop only the registry entry (undo/replay of DDL); tolerant."""
        self._tables.pop((user_table.lower(), name.lower()), None)

    def finish_recovery(self) -> None:
        """Fix up per-table annotation-id counters after a WAL replay.

        Annotation rows are replayed record-by-record after the registry
        entry is re-attached, so the next-id watermark must be derived from
        the recovered bodies once the whole log has been applied.
        """
        for table in self._tables.values():
            ids = [row[0] for _, row in table.bodies.scan()]
            table._next_ann_id = max(ids) + 1 if ids else 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def has(self, user_table: str, name: str) -> bool:
        return (user_table.lower(), name.lower()) in self._tables

    def get(self, user_table: str, name: str) -> AnnotationTable:
        key = (user_table.lower(), name.lower())
        try:
            return self._tables[key]
        except KeyError as exc:
            raise AnnotationError(
                f"annotation table {user_table}.{name} does not exist"
            ) from exc

    def tables_for(self, user_table: str) -> List[AnnotationTable]:
        return [
            table for (owner, _), table in sorted(self._tables.items())
            if owner == user_table.lower()
        ]

    def resolve(self, spec: str, default_user_table: Optional[str] = None) -> AnnotationTable:
        """Resolve ``User.Ann`` or bare ``Ann`` (relative to a user table)."""
        if "." in spec:
            user_table, name = spec.split(".", 1)
            return self.get(user_table, name)
        if default_user_table is not None and self.has(default_user_table, spec):
            return self.get(default_user_table, spec)
        # Fall back to a unique match across all user tables.
        matches = [
            table for (_, ann_name), table in self._tables.items()
            if ann_name == spec.lower()
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise AnnotationError(f"annotation table {spec!r} does not exist")
        raise AnnotationError(
            f"annotation table name {spec!r} is ambiguous; qualify it as "
            f"UserTable.{spec}"
        )

    # ------------------------------------------------------------------
    # Cell helpers (granularities)
    # ------------------------------------------------------------------
    def cells_for(self, user_table: str, tuple_ids: Optional[Iterable[int]] = None,
                  columns: Optional[Iterable[str]] = None) -> Set[Cell]:
        """Build a cell set at the requested granularity.

        * both ``tuple_ids`` and ``columns`` given — a block of cells,
        * only ``tuple_ids`` — whole tuples,
        * only ``columns`` — whole columns (over all current tuples),
        * neither — the whole table.
        """
        table = self.catalog.table(user_table)
        schema = table.schema
        all_tuple_ids = table.tuple_ids
        if tuple_ids is None:
            tuple_ids = all_tuple_ids
        tuple_ids = list(tuple_ids)
        if columns is None:
            return cells_for_tuples(tuple_ids, len(schema))
        positions = [schema.column_position(column) for column in columns]
        return cells_for_columns(positions, tuple_ids)

    # ------------------------------------------------------------------
    # DML-level operations
    # ------------------------------------------------------------------
    def add_annotation(self, annotation_tables: Sequence[str], body: str,
                       cells: Iterable[Cell], curator: str = "unknown",
                       category: Optional[str] = None,
                       user_table: Optional[str] = None,
                       created_at: Optional[datetime] = None) -> List[Annotation]:
        """Add one annotation value to every named annotation table."""
        added = []
        cells = set(cells)
        for spec in annotation_tables:
            table = self.resolve(spec, user_table)
            added.append(table.add(body, cells, curator, category, created_at))
        return added

    def archive(self, annotation_tables: Sequence[str], cells: Iterable[Cell],
                time_from: Optional[datetime] = None,
                time_to: Optional[datetime] = None,
                user_table: Optional[str] = None) -> List[Annotation]:
        """Archive annotations intersecting ``cells`` within the time range."""
        return self._set_archived(annotation_tables, cells, time_from, time_to,
                                  user_table, archived=True)

    def restore(self, annotation_tables: Sequence[str], cells: Iterable[Cell],
                time_from: Optional[datetime] = None,
                time_to: Optional[datetime] = None,
                user_table: Optional[str] = None) -> List[Annotation]:
        """Restore previously archived annotations intersecting ``cells``."""
        return self._set_archived(annotation_tables, cells, time_from, time_to,
                                  user_table, archived=False)

    def _set_archived(self, annotation_tables: Sequence[str], cells: Iterable[Cell],
                      time_from: Optional[datetime], time_to: Optional[datetime],
                      user_table: Optional[str], archived: bool) -> List[Annotation]:
        target_cells = set(cells)
        changed: List[Annotation] = []
        for spec in annotation_tables:
            table = self.resolve(spec, user_table)
            index, annotations = table.probe_index(include_archived=True)
            touched: Set[int] = set()
            for tuple_id, column in target_cells:
                touched |= index.lookup(tuple_id, column)
            for annotation in annotations.values():
                if annotation.archived == archived:
                    continue
                if time_from is not None and annotation.created_at < time_from:
                    continue
                if time_to is not None and annotation.created_at > time_to:
                    continue
                if target_cells and annotation.ann_id not in touched:
                    continue
                table.set_archived(annotation.ann_id, archived)
                changed.append(annotation.with_archived(archived))
        return changed

    # ------------------------------------------------------------------
    # Propagation support
    # ------------------------------------------------------------------
    def propagation_index(self, user_table: str,
                          annotation_tables: Optional[Sequence[str]] = None,
                          include_archived: bool = False,
                          categories: Optional[Set[str]] = None) -> PropagationIndex:
        """Build the probe index used by an annotated scan of ``user_table``.

        ``annotation_tables`` of ``None`` selects every annotation table
        attached to the user table; an explicit list selects only those (the
        A-SQL ``ANNOTATION(S1, S2, ...)`` clause).  ``categories`` optionally
        restricts propagation to annotation categories (e.g. only provenance).
        """
        if annotation_tables is None:
            tables = self.tables_for(user_table)
        else:
            tables = [self.resolve(spec, user_table) for spec in annotation_tables]
        return PropagationIndex([table.probe_index(include_archived, categories)
                                 for table in tables])
