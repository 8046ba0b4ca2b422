"""The dependency manager: tracking, invalidation, and re-execution.

When a database item is modified, bdbms uses the dependency rules and the
instance-level dependency graph to work out which other items are affected
(paper Section 5).  Items derived through *executable* procedures are
re-computed automatically; items derived through non-executable procedures
(lab experiments) are *marked outdated* in the table's bitmap until a user
revalidates them.  Outdated items can be reported and can be propagated as
status annotations with query answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.annotations.model import Annotation, CATEGORY_STATUS
from repro.catalog.catalog import SystemCatalog
from repro.catalog.table import Table
from repro.core.errors import DependencyError
from repro.dependencies.bitmap import OutdatedBitmap
from repro.dependencies.graph import CellKey, DependencyGraph, cell_key
from repro.dependencies.rules import DependencyRule, Procedure, RuleSet
from repro.index.manager import IndexManager

#: Annotation-table pseudo-name used for system-generated outdated markers.
OUTDATED_ANNOTATION_TABLE = "__outdated__"


@dataclass
class UpdateImpact:
    """What happened as a consequence of one modification."""

    recomputed: List[CellKey] = field(default_factory=list)
    marked_outdated: List[CellKey] = field(default_factory=list)

    def merge(self, other: "UpdateImpact") -> None:
        self.recomputed.extend(other.recomputed)
        self.marked_outdated.extend(other.marked_outdated)

    @property
    def total_affected(self) -> int:
        return len(self.recomputed) + len(self.marked_outdated)


class DependencyTracker:
    """Schema rules + instance graph + outdated bitmaps for every table.

    ``indexes`` resolves a cross-table rule's target tuples by equality
    probe on ``target_key`` (and is kept current when a rule re-computes a
    cell); ``use_indexes`` is consulted per probe, so the engine's
    ``use_indexes`` switch governs dependency targets as it does queries.
    """

    def __init__(self, catalog: SystemCatalog,
                 indexes: Optional[IndexManager] = None,
                 use_indexes: Callable[[], bool] = lambda: True):
        self.catalog = catalog
        self.indexes = indexes if indexes is not None else IndexManager(catalog)
        self.use_indexes = use_indexes
        self.rules = RuleSet()
        self.graph = DependencyGraph()
        self._bitmaps: Dict[str, OutdatedBitmap] = {}
        self._next_status_id = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_rule(self, rule: DependencyRule, check_cycles: bool = False) -> DependencyRule:
        """Register a schema-level procedural dependency after validating it."""
        for table, column in list(rule.sources) + list(rule.targets):
            self.catalog.table(table).schema.column(column)
        if rule.is_cross_table() and (rule.source_key is None or rule.target_key is None):
            raise DependencyError(
                f"cross-table rule {rule.name!r} needs source_key/target_key to "
                f"link source rows to dependent target rows"
            )
        return self.rules.add(rule, check_cycles=check_cycles)

    def register_instance_dependency(self, source: Tuple[str, int, str],
                                     target: Tuple[str, int, str],
                                     procedure: str,
                                     executable: bool = False) -> None:
        """Register a cell-by-cell dependency edge."""
        src = cell_key(*source)
        dst = cell_key(*target)
        for table, tuple_id, column in (src, dst):
            catalog_table = self.catalog.table(table)
            catalog_table.schema.column(column)
            if not catalog_table.has_tuple(tuple_id):
                raise DependencyError(
                    f"table {table!r} has no tuple {tuple_id} for instance dependency"
                )
        self.graph.add_edge(src, dst, procedure, executable)

    # ------------------------------------------------------------------
    # Bitmaps
    # ------------------------------------------------------------------
    def bitmap_for(self, table: str) -> OutdatedBitmap:
        key = table.lower()
        if key not in self._bitmaps:
            schema = self.catalog.table(table).schema
            self._bitmaps[key] = OutdatedBitmap(schema.name, schema.column_names)
        return self._bitmaps[key]

    def is_outdated(self, table: str, tuple_id: int, column: str) -> bool:
        return self.bitmap_for(table).is_outdated(tuple_id, column)

    def outdated_cells(self, table: str) -> List[Tuple[int, str]]:
        return self.bitmap_for(table).outdated_cells()

    def outdated_report(self) -> Dict[str, List[Tuple[int, str]]]:
        """Outdated cells of every table that has any (Section 5, reporting)."""
        report = {}
        for key, bitmap in sorted(self._bitmaps.items()):
            cells = bitmap.outdated_cells()
            if cells:
                report[bitmap.table] = cells
        return report

    # ------------------------------------------------------------------
    # Transaction support
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Tuple[Any, ...]:
        """Capture the mutable tracking state at transaction BEGIN.

        Covers the outdated bitmaps, the instance-dependency adjacency (a
        DELETE prunes edges of the deleted cells), and the status-annotation
        id counter — everything ROLLBACK must rewind so that post-rollback
        query answers (including outdated-status annotations) match the
        pre-transaction ones.
        """
        graph = self.graph
        return (
            {key: bitmap.snapshot() for key, bitmap in self._bitmaps.items()},
            {cell: list(edges) for cell, edges in graph._forward.items()},
            {cell: list(edges) for cell, edges in graph._reverse.items()},
            graph._edge_count,
            self._next_status_id,
        )

    def restore_state(self, state: Tuple[Any, ...]) -> None:
        """Reset the tracking state to a :meth:`snapshot_state` capture."""
        bitmaps, forward, reverse, edge_count, next_status_id = state
        for key in list(self._bitmaps):
            if key not in bitmaps:
                del self._bitmaps[key]
        for key, snapshot in bitmaps.items():
            bitmap = self._bitmaps.get(key)
            if bitmap is not None:
                bitmap.restore(snapshot)
        self.graph._forward = {cell: list(edges)
                               for cell, edges in forward.items()}
        self.graph._reverse = {cell: list(edges)
                               for cell, edges in reverse.items()}
        self.graph._edge_count = edge_count
        self._next_status_id = next_status_id

    # ------------------------------------------------------------------
    # Modification handling
    # ------------------------------------------------------------------
    def handle_update(self, table: str, tuple_id: int,
                      changed_columns: Iterable[str]) -> UpdateImpact:
        """Propagate the effects of updating ``changed_columns`` of one tuple."""
        impact = UpdateImpact()
        visited: Set[CellKey] = set()
        for column in changed_columns:
            start = cell_key(table, tuple_id, column)
            # The modified cell itself is now current.
            self.bitmap_for(table).clear(tuple_id, column)
            self._propagate(start, impact, visited, allow_recompute=True)
        return impact

    def handle_delete(self, table: str, tuple_id: int) -> UpdateImpact:
        """Mark everything derived from a deleted tuple as outdated."""
        impact = UpdateImpact()
        visited: Set[CellKey] = set()
        schema = self.catalog.table(table).schema
        for column in schema.column_names:
            start = cell_key(table, tuple_id, column)
            self._propagate(start, impact, visited, allow_recompute=False)
            self.graph.remove_cell(start)
        self.bitmap_for(table).clear_tuple(tuple_id)
        return impact

    def procedure_changed(self, procedure_name: str) -> UpdateImpact:
        """A procedure changed (e.g. new BLAST version): refresh its closure.

        Targets of executable rules with an implementation are re-computed for
        every row; targets of non-executable rules are marked outdated.
        """
        impact = UpdateImpact()
        visited: Set[CellKey] = set()
        for rule in self.rules:
            if rule.procedure.name != procedure_name:
                continue
            source_table = next(iter(rule.source_tables))
            for source_tuple_id in self.catalog.table(source_table).tuple_ids:
                for target_table, target_column in rule.targets:
                    for target_tuple_id in self._target_tuples(rule, source_table,
                                                               source_tuple_id,
                                                               target_table):
                        cell = cell_key(target_table, target_tuple_id, target_column)
                        if cell in visited:
                            continue
                        visited.add(cell)
                        if rule.procedure.can_recompute():
                            self._recompute(rule, source_table, source_tuple_id,
                                            target_table, target_tuple_id,
                                            target_column, impact, visited)
                        else:
                            self._mark_outdated(cell, impact, visited)
        return impact

    def revalidate(self, table: str, tuple_id: int, column: str,
                   new_value: Any = None) -> None:
        """A user verified an outdated item (optionally supplying a new value)."""
        if new_value is not None:
            self._update_cell(self.catalog.table(table), tuple_id, column,
                              new_value)
        self.bitmap_for(table).clear(tuple_id, column)

    # ------------------------------------------------------------------
    # Propagation internals
    # ------------------------------------------------------------------
    def _propagate(self, source_cell: CellKey, impact: UpdateImpact,
                   visited: Set[CellKey], allow_recompute: bool) -> None:
        # ``visited`` tracks *target* cells that have already been handled;
        # the source itself is not short-circuited so that a freshly
        # re-computed cell cascades to its own dependents.
        source_table, source_tuple_id, source_column = source_cell
        # Schema-level rules.
        for rule in self.rules.rules_with_source(source_table, source_column):
            if rule.derived:
                continue
            for target_table, target_column in rule.targets:
                for target_tuple_id in self._target_tuples(rule, source_table,
                                                           source_tuple_id,
                                                           target_table):
                    cell = cell_key(target_table, target_tuple_id, target_column)
                    if cell in visited:
                        continue
                    if allow_recompute and rule.procedure.can_recompute():
                        self._recompute(rule, source_table, source_tuple_id,
                                        target_table, target_tuple_id,
                                        target_column, impact, visited)
                    else:
                        self._mark_outdated(cell, impact, visited)
        # Instance-level edges.
        for edge in self.graph.dependents_of(source_cell):
            if edge.target in visited:
                continue
            self._mark_outdated(edge.target, impact, visited)

    def _recompute(self, rule: DependencyRule, source_table: str,
                   source_tuple_id: int, target_table: str, target_tuple_id: int,
                   target_column: str, impact: UpdateImpact,
                   visited: Set[CellKey]) -> None:
        source = self.catalog.table(source_table)
        target = self.catalog.table(target_table)
        source_row = dict(zip(source.schema.column_names,
                              source.read_row(source_tuple_id)))
        target_row = dict(zip(target.schema.column_names,
                              target.read_row(target_tuple_id)))
        new_value = rule.procedure.implementation(source_row, target_row)
        self._update_cell(target, target_tuple_id, target_column, new_value,
                          old_row=target_row)
        cell = cell_key(target_table, target_tuple_id, target_column)
        visited.add(cell)
        self.bitmap_for(target_table).clear(target_tuple_id, target_column)
        impact.recomputed.append(cell)
        # The re-computed value is itself a modification: cascade from it.
        self._propagate(cell, impact, visited, allow_recompute=True)

    def _mark_outdated(self, cell: CellKey, impact: UpdateImpact,
                       visited: Set[CellKey]) -> None:
        table, tuple_id, column = cell
        visited.add(cell)
        catalog_table = self.catalog.table(table)
        if not catalog_table.has_tuple(tuple_id):
            return
        self.bitmap_for(table).mark(tuple_id, column)
        impact.marked_outdated.append(cell)
        # Everything derived from an outdated value is itself outdated; since
        # the outdated value was not re-verified we never recompute downstream.
        self._propagate(cell, impact, visited, allow_recompute=False)

    def _target_tuples(self, rule: DependencyRule, source_table: str,
                       source_tuple_id: int, target_table: str) -> List[int]:
        if source_table.lower() == target_table.lower():
            return [source_tuple_id]
        source = self.catalog.table(source_table)
        if not source.has_tuple(source_tuple_id):
            return []
        if rule.source_key is None or rule.target_key is None:
            return []
        key_value = source.read_cell(source_tuple_id, rule.source_key)
        return self.indexes.find_tuples(target_table, rule.target_key,
                                        key_value,
                                        use_index=self.use_indexes())

    def _update_cell(self, table: Table, tuple_id: int, column: str, value: Any,
                     old_row: Optional[Dict[str, Any]] = None) -> None:
        """Write one cell and keep the table's secondary indexes current."""
        names = table.schema.column_names
        if old_row is None:
            old_row = dict(zip(names, table.read_row(tuple_id)))
        new_row = table.update_row(tuple_id, {column: value})
        self.indexes.on_update(table.name, tuple_id, old_row,
                               dict(zip(names, new_row)))

    # ------------------------------------------------------------------
    # Status annotations (Section 5, "Reporting and annotating outdated data")
    # ------------------------------------------------------------------
    def status_annotations(self, table: str) -> Dict[Tuple[int, int], Annotation]:
        """Synthetic annotations for outdated cells, keyed by (tuple id, col pos).

        Annotated scans attach these so that query answers involving outdated
        items carry a warning annotation, as Section 5 requires.
        """
        schema = self.catalog.table(table).schema
        bitmap = self.bitmap_for(table)
        annotations: Dict[Tuple[int, int], Annotation] = {}
        for tuple_id, column in bitmap.outdated_cells():
            position = schema.column_position(column)
            self._next_status_id += 1
            annotations[(tuple_id, position)] = Annotation(
                ann_id=self._next_status_id,
                annotation_table=OUTDATED_ANNOTATION_TABLE,
                body=(f"<Annotation>OUTDATED: {schema.name}.{column} of tuple "
                      f"{tuple_id} may be invalid and needs re-verification"
                      f"</Annotation>"),
                curator="system",
                created_at=datetime.now(),
                archived=False,
                category=CATEGORY_STATUS,
            )
        return annotations
