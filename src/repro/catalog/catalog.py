"""System catalog: the directory of user tables and their physical objects.

The catalog owns the buffer pool and hands out :class:`Table` objects.  The
annotation, provenance, dependency, and authorization managers register their
metadata with their own managers but use the catalog to resolve table and
column names, which keeps name resolution in a single place.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.catalog.schema import Column, TableSchema
from repro.catalog.statistics import StatisticsManager
from repro.catalog.table import Table
from repro.core.errors import CatalogError
from repro.storage.buffer_pool import BufferPool, DEFAULT_POOL_SIZE
from repro.storage.disk import DiskManager, InMemoryDiskManager


class SystemCatalog:
    """Name -> table directory plus the shared storage objects."""

    def __init__(self, disk: Optional[DiskManager] = None,
                 pool_size: int = DEFAULT_POOL_SIZE):
        self.disk = disk or InMemoryDiskManager()
        self.pool = BufferPool(self.disk, pool_size)
        self._tables: Dict[str, Table] = {}
        #: Monotone counter bumped by everything that can change what a
        #: *plan* means: table DDL, index DDL (via :class:`IndexManager`),
        #: and statistics refreshes (ANALYZE, including auto-refresh).  The
        #: engine's plan cache records the version each plan was built under
        #: and drops entries whose version no longer matches, so a cached
        #: plan can never survive a dropped index or refreshed statistics.
        self.schema_version = 0
        #: Planner statistics (row counts, NDV, histograms); see ANALYZE.
        self.statistics = StatisticsManager(self)
        #: The transaction manager acting as DDL/DML journal (attached by
        #: ``Database``/``Engine``; ``None`` for a standalone catalog).
        #: Tables capture it at creation so their row mutations report redo
        #: and undo images; CREATE/DROP TABLE report here directly.
        self.journal = None

    def bump_schema_version(self) -> int:
        """Invalidate cached plans (called on DDL and statistics changes)."""
        self.schema_version += 1
        return self.schema_version

    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema, self.pool, journal=self.journal)
        self._tables[key] = table
        self.bump_schema_version()
        if self.journal is not None:
            self.journal.note_create_table(schema)
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.statistics.drop(name)
        self.bump_schema_version()
        if self.journal is not None:
            self.journal.note_drop_table(name)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def table_names(self) -> List[str]:
        return sorted(table.name for table in self._tables.values())

    def tables(self) -> Iterator[Table]:
        for name in sorted(self._tables):
            yield self._tables[name]

    # ------------------------------------------------------------------
    def resolve_column(self, table_name: str, column_name: str) -> Column:
        return self.table(table_name).schema.column(column_name)

    def io_statistics(self):
        """Convenience accessor for the disk manager's I/O counters."""
        return self.disk.stats
