"""Content-based approval (paper Section 6, Figure 11).

With content-based approval turned ON for a table (or specific columns), every
INSERT/UPDATE/DELETE is recorded in an update log together with an
automatically generated *inverse statement* that negates its effect:

* INSERT  -> a DELETE of the inserted tuple,
* DELETE  -> an INSERT restoring the deleted values,
* UPDATE  -> an UPDATE restoring the old values.

The designated approver reviews the log and approves or disapproves each
operation *based on its content*; disapproval executes the inverse statement,
and the dependency tracker is informed so that items derived from the undone
values are invalidated.  Data changed by pending operations remains visible
(the paper's "users may be allowed to view the data pending its approval").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.authorization.grants import AccessControl
from repro.catalog.catalog import SystemCatalog
from repro.core.errors import ApprovalError, AuthorizationError
from repro.dependencies.tracker import DependencyTracker, UpdateImpact
from repro.index.manager import IndexManager


class OperationType(enum.Enum):
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"


class OperationStatus(enum.Enum):
    PENDING = "PENDING"
    APPROVED = "APPROVED"
    DISAPPROVED = "DISAPPROVED"


@dataclass
class InverseStatement:
    """The automatically generated statement that undoes a logged operation."""

    op_type: OperationType
    table: str
    tuple_id: Optional[int] = None
    #: values needed to undo: old column values for UPDATE, the full row for
    #: DELETE (restore), nothing extra for INSERT (just delete the tuple).
    values: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        if self.op_type is OperationType.DELETE:
            return f"DELETE FROM {self.table} WHERE tuple_id = {self.tuple_id}"
        if self.op_type is OperationType.INSERT:
            cols = ", ".join(self.values)
            return f"INSERT INTO {self.table}({cols}) VALUES (...)"
        assignments = ", ".join(f"{col} = {value!r}" for col, value in self.values.items())
        return f"UPDATE {self.table} SET {assignments} WHERE tuple_id = {self.tuple_id}"


@dataclass
class LoggedOperation:
    """One entry of the content-approval update log."""

    op_id: int
    user: str
    table: str
    op_type: OperationType
    tuple_id: int
    issued_at: datetime
    #: column -> new value for INSERT/UPDATE; column -> old value for DELETE
    changes: Dict[str, Any]
    inverse: InverseStatement
    status: OperationStatus = OperationStatus.PENDING
    reviewed_by: Optional[str] = None
    reviewed_at: Optional[datetime] = None

    @property
    def is_pending(self) -> bool:
        return self.status is OperationStatus.PENDING


@dataclass
class ApprovalConfig:
    """Content approval switched ON for a table (optionally specific columns)."""

    table: str
    approver: str
    columns: Tuple[str, ...] = ()

    def monitors(self, columns: Optional[Sequence[str]] = None) -> bool:
        """True when an operation touching ``columns`` must be logged."""
        if not self.columns:
            return True
        if columns is None:
            return True
        monitored = {column.lower() for column in self.columns}
        return any(column.lower() in monitored for column in columns)


class ApprovalManager:
    """Maintains approval configurations and the update log."""

    def __init__(self, catalog: SystemCatalog, access: AccessControl,
                 tracker: Optional[DependencyTracker] = None,
                 indexes: Optional[IndexManager] = None):
        self.catalog = catalog
        self.access = access
        self.tracker = tracker
        #: Kept current by the inverse statements a disapproval executes.
        self.indexes = indexes if indexes is not None else IndexManager(catalog)
        self._configs: Dict[str, ApprovalConfig] = {}
        self._log: List[LoggedOperation] = []
        self._next_op_id = 1

    # ------------------------------------------------------------------
    # Configuration (START / STOP CONTENT APPROVAL)
    # ------------------------------------------------------------------
    def start_approval(self, table: str, approver: str,
                       columns: Optional[Sequence[str]] = None) -> ApprovalConfig:
        catalog_table = self.catalog.table(table)
        for column in columns or []:
            catalog_table.schema.column(column)
        config = ApprovalConfig(
            table=catalog_table.name,
            approver=approver,
            columns=tuple(columns or ()),
        )
        self._configs[catalog_table.name.lower()] = config
        return config

    def stop_approval(self, table: str,
                      columns: Optional[Sequence[str]] = None) -> None:
        key = table.lower()
        config = self._configs.get(key)
        if config is None:
            raise ApprovalError(f"content approval is not active on table {table!r}")
        if not columns:
            del self._configs[key]
            return
        remaining = tuple(
            column for column in config.columns
            if column.lower() not in {c.lower() for c in columns}
        )
        if config.columns and remaining:
            self._configs[key] = ApprovalConfig(config.table, config.approver, remaining)
        else:
            del self._configs[key]

    def config_for(self, table: str) -> Optional[ApprovalConfig]:
        return self._configs.get(table.lower())

    def is_monitored(self, table: str,
                     columns: Optional[Sequence[str]] = None) -> bool:
        config = self.config_for(table)
        return config is not None and config.monitors(columns)

    # ------------------------------------------------------------------
    # Logging (called by the engine after it applies a DML statement)
    # ------------------------------------------------------------------
    def log_insert(self, user: str, table: str, tuple_id: int,
                   row: Dict[str, Any]) -> Optional[LoggedOperation]:
        if not self.is_monitored(table, list(row)):
            return None
        inverse = InverseStatement(OperationType.DELETE, table, tuple_id)
        return self._append(user, table, OperationType.INSERT, tuple_id, dict(row), inverse)

    def log_update(self, user: str, table: str, tuple_id: int,
                   old_values: Dict[str, Any],
                   new_values: Dict[str, Any]) -> Optional[LoggedOperation]:
        if not self.is_monitored(table, list(new_values)):
            return None
        inverse = InverseStatement(OperationType.UPDATE, table, tuple_id, dict(old_values))
        return self._append(user, table, OperationType.UPDATE, tuple_id, dict(new_values), inverse)

    def log_delete(self, user: str, table: str, tuple_id: int,
                   old_row: Dict[str, Any]) -> Optional[LoggedOperation]:
        if not self.is_monitored(table):
            return None
        inverse = InverseStatement(OperationType.INSERT, table, tuple_id, dict(old_row))
        return self._append(user, table, OperationType.DELETE, tuple_id, dict(old_row), inverse)

    def _append(self, user: str, table: str, op_type: OperationType, tuple_id: int,
                changes: Dict[str, Any], inverse: InverseStatement) -> LoggedOperation:
        operation = LoggedOperation(
            op_id=self._next_op_id,
            user=user,
            table=self.catalog.table(table).name,
            op_type=op_type,
            tuple_id=tuple_id,
            issued_at=datetime.now(),
            changes=changes,
            inverse=inverse,
        )
        self._next_op_id += 1
        self._log.append(operation)
        return operation

    # ------------------------------------------------------------------
    # Review
    # ------------------------------------------------------------------
    def log_entries(self, table: Optional[str] = None,
                    status: Optional[OperationStatus] = None) -> List[LoggedOperation]:
        entries = self._log
        if table is not None:
            entries = [op for op in entries if op.table.lower() == table.lower()]
        if status is not None:
            entries = [op for op in entries if op.status is status]
        return list(entries)

    def pending_operations(self, table: Optional[str] = None) -> List[LoggedOperation]:
        return self.log_entries(table, OperationStatus.PENDING)

    def operation(self, op_id: int) -> LoggedOperation:
        for operation in self._log:
            if operation.op_id == op_id:
                return operation
        raise ApprovalError(f"no logged operation with id {op_id}")

    def _check_reviewer(self, operation: LoggedOperation, reviewer: str) -> None:
        config = self.config_for(operation.table)
        approver = config.approver if config else None
        if approver is not None and self.access.is_member(reviewer, approver):
            return
        if self.access.is_superuser(reviewer):
            return
        if self.access.has_privilege(reviewer, "APPROVE", operation.table):
            return
        raise AuthorizationError(
            f"user {reviewer!r} is not authorized to review operations on "
            f"table {operation.table!r}"
        )

    def approve(self, op_id: int, reviewer: str) -> LoggedOperation:
        operation = self.operation(op_id)
        if not operation.is_pending:
            raise ApprovalError(f"operation {op_id} has already been reviewed")
        self._check_reviewer(operation, reviewer)
        operation.status = OperationStatus.APPROVED
        operation.reviewed_by = reviewer
        operation.reviewed_at = datetime.now()
        return operation

    def disapprove(self, op_id: int, reviewer: str) -> Tuple[LoggedOperation, UpdateImpact]:
        """Disapprove an operation: execute its inverse and invalidate dependents."""
        operation = self.operation(op_id)
        if not operation.is_pending:
            raise ApprovalError(f"operation {op_id} has already been reviewed")
        self._check_reviewer(operation, reviewer)
        impact = self._execute_inverse(operation)
        operation.status = OperationStatus.DISAPPROVED
        operation.reviewed_by = reviewer
        operation.reviewed_at = datetime.now()
        return operation, impact

    def _execute_inverse(self, operation: LoggedOperation) -> UpdateImpact:
        inverse = operation.inverse
        table = self.catalog.table(inverse.table)
        names = table.schema.column_names
        impact = UpdateImpact()
        if inverse.op_type is OperationType.DELETE:
            # Undo an INSERT: remove the inserted tuple if it still exists.
            if table.has_tuple(inverse.tuple_id):
                row = table.delete_row(inverse.tuple_id)
                self.indexes.on_delete(table.name, inverse.tuple_id,
                                       dict(zip(names, row)))
                if self.tracker is not None:
                    impact = self.tracker.handle_delete(table.name, inverse.tuple_id)
        elif inverse.op_type is OperationType.INSERT:
            # Undo a DELETE: restore the old row (a new tuple id is assigned).
            tuple_id = table.insert_row(inverse.values)
            self.indexes.on_insert(table.name, tuple_id,
                                   dict(zip(names, table.read_row(tuple_id))))
        else:
            # Undo an UPDATE: restore the old values.
            if table.has_tuple(inverse.tuple_id):
                old_row = table.read_row(inverse.tuple_id)
                new_row = table.update_row(inverse.tuple_id, inverse.values)
                self.indexes.on_update(table.name, inverse.tuple_id,
                                       dict(zip(names, old_row)),
                                       dict(zip(names, new_row)))
                if self.tracker is not None:
                    impact = self.tracker.handle_update(
                        table.name, inverse.tuple_id, list(inverse.values)
                    )
        return impact

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def log_size(self) -> int:
        return len(self._log)

    def statistics(self) -> Dict[str, int]:
        counts = {status.value: 0 for status in OperationStatus}
        for operation in self._log:
            counts[operation.status.value] += 1
        counts["TOTAL"] = len(self._log)
        return counts
