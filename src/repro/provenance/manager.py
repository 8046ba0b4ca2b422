"""Provenance management (paper Section 4).

Provenance (lineage) is treated as a *category of annotations* with two extra
requirements the paper calls out:

* **structure** — provenance records follow a predefined XML schema (source,
  operation, time, optional program/user/notes) that the manager enforces;
* **authorization** — end-users cannot insert or update provenance; only the
  system and registered integration tools may write it, while everyone may
  query and propagate it.

The manager also answers the Figure 8 question: "what is the source of this
value at time T?" by replaying the provenance records attached to a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.annotations.manager import AnnotationManager
from repro.annotations.model import Annotation, CATEGORY_PROVENANCE, Cell
from repro.annotations.storage import SCHEME_COMPACT
from repro.annotations.xml_utils import XmlSchema, body_fields
from repro.authorization.grants import AccessControl
from repro.core.errors import ProvenanceError
from repro.types.datatypes import TIMESTAMP_FORMAT, parse_timestamp

#: Name of the annotation table used for provenance on each user table.
PROVENANCE_TABLE_NAME = "provenance"

#: The XML schema every provenance record must follow.
PROVENANCE_SCHEMA = XmlSchema(
    root_tag="Provenance",
    required=["source", "operation", "time"],
    optional=["program", "user", "notes"],
)


@dataclass(frozen=True)
class ProvenanceRecord:
    """A parsed provenance record attached to a set of cells."""

    source: str
    operation: str
    time: datetime
    program: Optional[str] = None
    user: Optional[str] = None
    notes: Optional[str] = None
    annotation: Optional[Annotation] = None

    @classmethod
    def from_annotation(cls, annotation: Annotation) -> "ProvenanceRecord":
        fields = body_fields(annotation.body)
        if "source" not in fields or "operation" not in fields:
            raise ProvenanceError(
                f"annotation {annotation.ann_id} of {annotation.annotation_table} "
                f"is not a valid provenance record"
            )
        time_text = fields.get("time", "")
        try:
            time = parse_timestamp(time_text)
        except Exception:
            time = annotation.created_at
        return cls(
            source=fields["source"],
            operation=fields["operation"],
            time=time,
            program=fields.get("program") or None,
            user=fields.get("user") or None,
            notes=fields.get("notes") or None,
            annotation=annotation,
        )


class ProvenanceManager:
    """Writes and queries provenance records through the annotation manager."""

    def __init__(self, annotations: AnnotationManager, access: AccessControl):
        self.annotations = annotations
        self.access = access
        #: integration tools allowed to write provenance (besides superusers).
        self._registered_tools: Set[str] = {"system"}

    # ------------------------------------------------------------------
    # Authorization over provenance data
    # ------------------------------------------------------------------
    def register_tool(self, name: str) -> None:
        """Register an integration tool that may write provenance records."""
        self._registered_tools.add(name.lower())

    def unregister_tool(self, name: str) -> None:
        self._registered_tools.discard(name.lower())

    def can_write(self, agent: str, table: str) -> bool:
        if agent.lower() in self._registered_tools:
            return True
        if self.access.is_superuser(agent):
            return True
        return self.access.has_privilege(agent, "PROVENANCE", table)

    # ------------------------------------------------------------------
    # Writing provenance
    # ------------------------------------------------------------------
    def ensure_provenance_table(self, user_table: str):
        """Create the per-table provenance annotation table if missing."""
        if not self.annotations.has(user_table, PROVENANCE_TABLE_NAME):
            self.annotations.create_annotation_table(
                user_table, PROVENANCE_TABLE_NAME,
                scheme=SCHEME_COMPACT, category=CATEGORY_PROVENANCE,
            )
        return self.annotations.get(user_table, PROVENANCE_TABLE_NAME)

    def record(self, user_table: str, cells: Iterable[Cell], source: str,
               operation: str, agent: str = "system",
               time: Optional[datetime] = None, program: Optional[str] = None,
               user: Optional[str] = None, notes: Optional[str] = None) -> Annotation:
        """Attach a provenance record to ``cells`` of ``user_table``."""
        if not self.can_write(agent, user_table):
            raise ProvenanceError(
                f"agent {agent!r} is not allowed to write provenance for "
                f"table {user_table!r}; provenance is system-maintained"
            )
        when = time or datetime.now()
        fields = {
            "source": source,
            "operation": operation,
            "time": when.strftime(TIMESTAMP_FORMAT),
        }
        if program:
            fields["program"] = program
        if user:
            fields["user"] = user
        if notes:
            fields["notes"] = notes
        body = PROVENANCE_SCHEMA.build(**fields)
        PROVENANCE_SCHEMA.validate(body)
        table = self.ensure_provenance_table(user_table)
        return table.add(body, cells, curator=agent,
                         category=CATEGORY_PROVENANCE, created_at=when)

    # ------------------------------------------------------------------
    # Querying provenance
    # ------------------------------------------------------------------
    def records_for_cell(self, user_table: str, tuple_id: int, column: str,
                         include_archived: bool = False) -> List[ProvenanceRecord]:
        """Every provenance record attached to one cell, oldest first."""
        if not self.annotations.has(user_table, PROVENANCE_TABLE_NAME):
            return []
        table = self.annotations.get(user_table, PROVENANCE_TABLE_NAME)
        schema = self.annotations.catalog.table(user_table).schema
        position = schema.column_position(column)
        index, annotations = table.probe_index(include_archived,
                                               {CATEGORY_PROVENANCE})
        # ann_id order is the bodies' insertion order, which the stable sort
        # below keeps for records with equal times.
        records = [ProvenanceRecord.from_annotation(annotations[ann_id])
                   for ann_id in sorted(index.lookup(tuple_id, position))
                   if ann_id in annotations]
        records.sort(key=lambda record: record.time)
        return records

    def source_at(self, user_table: str, tuple_id: int, column: str,
                  at_time: Optional[datetime] = None) -> Optional[ProvenanceRecord]:
        """The provenance record in effect for a cell at ``at_time`` (Figure 8).

        This is the most recent record whose time is not after ``at_time``;
        with no time given, the most recent record overall.
        """
        records = self.records_for_cell(user_table, tuple_id, column)
        if at_time is not None:
            records = [record for record in records if record.time <= at_time]
        return records[-1] if records else None

    def history(self, user_table: str, tuple_id: int, column: str) -> List[ProvenanceRecord]:
        """The full provenance history of a cell, oldest first."""
        return self.records_for_cell(user_table, tuple_id, column)

    def sources_of_table(self, user_table: str) -> Dict[str, int]:
        """How many provenance records each source contributed to a table."""
        if not self.annotations.has(user_table, PROVENANCE_TABLE_NAME):
            return {}
        table = self.annotations.get(user_table, PROVENANCE_TABLE_NAME)
        counts: Dict[str, int] = {}
        for annotation in table.annotations(include_archived=True):
            record = ProvenanceRecord.from_annotation(annotation)
            counts[record.source] = counts.get(record.source, 0) + 1
        return counts
