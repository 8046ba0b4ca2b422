"""The bdbms facade: one object wiring every subsystem together.

:class:`Database` owns the storage engine, the catalog, and the four bdbms
managers (annotations, provenance, dependencies, authorization).  Its SQL
surface is the PEP 249 one — ``repro.connect(path)`` or
:meth:`Database.connect(user=...) <Database.connect>` hand out DB-API
connections whose cursors bind ``?`` parameters and reuse cached plans; a
connection is also how statements run as a given user.  Every statement
reaches the engine through such a cursor; the facade itself only adds
``explain``/``analyze``, table access and the transaction controls.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional

from repro.annotations.manager import AnnotationManager
from repro.authorization.approval import ApprovalManager
from repro.authorization.grants import AccessControl
from repro.catalog.catalog import SystemCatalog
from repro.core.transactions import TransactionManager
from repro.dbapi.connection import Connection
from repro.dependencies.tracker import DependencyTracker
from repro.executor.engine import Engine, EngineConfig, ExecutionSummary
from repro.index.manager import IndexManager
from repro.provenance.manager import ProvenanceManager
from repro.providers.manager import ForeignTableManager
from repro.sql.parser import parse_prepared
from repro.storage.buffer_pool import DEFAULT_POOL_SIZE
from repro.storage.disk import IoStatistics, open_disk_manager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.wal import FileWAL, wal_path_for


class Database:
    """A bdbms database instance.

    Parameters
    ----------
    path:
        Path of the database file, or ``None`` / ``":memory:"`` for an
        in-memory database (the default, used by tests and benchmarks).
    page_size, pool_size:
        Storage engine knobs: page size in bytes and buffer-pool capacity in
        pages.
    config:
        Engine behaviour switches (see :class:`EngineConfig`): join
        strategy, index usage, batch size, memory budget.
    batch_size:
        Convenience override for ``config.batch_size`` (rows per batch of
        the vectorized executor); validated eagerly.
    memory_budget_rows:
        Convenience override for ``config.memory_budget_rows``: the maximum
        rows a pipeline breaker (hash-join build, GROUP BY, DISTINCT, sort)
        buffers in memory before spilling to temp files.  ``None`` (default)
        disables spilling.
    """

    def __init__(self, path: Optional[str] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 config: Optional[EngineConfig] = None,
                 batch_size: Optional[int] = None,
                 memory_budget_rows: Optional[int] = None):
        wal_path = None
        if path is not None and path != ":memory:":
            wal_path = wal_path_for(path)
        # A crash mid page write can leave the data file torn (size not a
        # page multiple).  With a WAL present that is recoverable — the log
        # is the authority and the data file gets rebuilt — so only then is
        # a torn file tolerated.
        self.disk = open_disk_manager(
            path, page_size,
            tolerate_torn=bool(wal_path and os.path.exists(wal_path)))
        self.catalog = SystemCatalog(self.disk, pool_size)
        self.access = AccessControl()
        self.annotations = AnnotationManager(self.catalog)
        self.indexes = IndexManager(self.catalog)
        # Rule targets are probed through the indexes under the engine's
        # live ``use_indexes`` switch (read per probe: the config is mutable).
        self.tracker = DependencyTracker(
            self.catalog, self.indexes,
            use_indexes=lambda: self.engine.config.use_indexes)
        self.provenance = ProvenanceManager(self.annotations, self.access)
        self.approval = ApprovalManager(self.catalog, self.access, self.tracker,
                                        self.indexes)
        self.foreign = ForeignTableManager(self.catalog)
        self.config = config or EngineConfig()
        if batch_size is not None:
            # Copy before overriding: the caller's config object may be
            # shared with other Database instances.
            self.config = replace(self.config, batch_size=batch_size)
        if memory_budget_rows is not None:
            self.config = replace(self.config,
                                  memory_budget_rows=memory_budget_rows)
        synchronous = self.config.synchronous == "full"
        self.disk.synchronous = synchronous
        #: The write-ahead log, or ``None`` for in-memory databases.
        self.wal: Optional[FileWAL] = None
        if wal_path is not None:
            self.wal = FileWAL(wal_path, synchronous=synchronous,
                               group_commit=self.config.group_commit)
        self.transactions = TransactionManager(
            catalog=self.catalog,
            annotations=self.annotations,
            indexes=self.indexes,
            tracker=self.tracker,
            access=self.access,
            pool=self.catalog.pool,
            wal=self.wal,
            foreign=self.foreign,
        )
        self.catalog.journal = self.transactions
        self.foreign.journal = self.transactions
        self.engine = Engine(
            catalog=self.catalog,
            annotations=self.annotations,
            provenance=self.provenance,
            tracker=self.tracker,
            approval=self.approval,
            access=self.access,
            indexes=self.indexes,
            config=self.config,
            transactions=self.transactions,
            foreign=self.foreign,
        )
        if self.wal is not None:
            self._recover()

    def _recover(self) -> None:
        """Rebuild state from the WAL on open (crash recovery).

        The catalog and the bdbms registries live in memory, so the WAL is
        the complete logical history of the database: every committed
        transaction since creation is one frame.  Recovery therefore resets
        the page store and replays the whole log through the normal storage
        paths; incomplete frames at the tail (a crash mid append) fail their
        length or checksum and are truncated away by ``read_frames``, which
        is exactly transaction atomicity.  The rebuilt pages are flushed so
        the data file again materializes the log's final state.
        """
        frames = self.wal.read_frames()
        if not frames:
            return
        self.disk.reset()
        self.transactions.replay(frames)
        self.flush()
        self.disk.sync()

    # ------------------------------------------------------------------
    # DB-API surface
    # ------------------------------------------------------------------
    def connect(self, user: str = "admin") -> Connection:
        """A PEP 249 connection over this database, bound to ``user``.

        Cursors of the connection execute SQL with qmark (``?``) parameter
        binding, reuse prepared statements and cached plans, and stream
        SELECT results lazily.  The connection does not own the database:
        closing it leaves the database open (module-level
        :func:`repro.connect` opens and owns one instead).
        """
        return Connection(self, user=user, owns_database=False)

    def analyze(self, table: Optional[str] = None,
                user: str = "admin") -> ExecutionSummary:
        """Recompute planner statistics for one table (or all of them)."""
        from repro.sql import ast
        result = self.engine.execute(ast.Analyze(table), user=user)
        assert isinstance(result, ExecutionSummary)
        return result

    def explain(self, sql: str, user: str = "admin") -> ExecutionSummary:
        """Plan a query without executing it; the summary holds the plan dump.

        Parameter placeholders are allowed: the generic plan is rendered
        with ``?N`` markers where bound values would go.
        """
        from repro.sql import ast
        statement, _ = parse_prepared(sql)
        if not isinstance(statement, ast.Explain):
            statement = ast.Explain(statement)
        result = self.engine.execute(statement, user=user)
        assert isinstance(result, ExecutionSummary)
        return result

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def statistics(self):
        """The planner statistics manager (see :mod:`repro.catalog.statistics`)."""
        return self.catalog.statistics

    def table(self, name: str):
        return self.catalog.table(name)

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def foreign_table_names(self) -> List[str]:
        """Names of the attached foreign tables (ATTACH ... AS name)."""
        return self.foreign.names()

    def io_statistics(self) -> IoStatistics:
        return self.disk.stats

    def reset_io_statistics(self) -> None:
        self.disk.stats.reset()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        """True while the calling thread has an explicit transaction open."""
        return self.transactions.in_transaction()

    def begin(self) -> None:
        """Open an explicit transaction (as the SQL ``BEGIN`` statement)."""
        self.transactions.begin()

    def commit(self) -> None:
        """Commit the open transaction; durable once this returns.

        Without an open transaction this is an autocommit durability point:
        every statement already committed itself through the WAL, so only
        the buffered pages are pushed to the data file — unless another
        thread holds a transaction open (its uncommitted pages must not
        reach disk).
        """
        if not self.transactions.commit():
            if not self.catalog.pool.no_steal_active:
                self.flush()
                self.disk.sync()

    def rollback(self) -> bool:
        """Undo the open transaction; returns False when none is open."""
        return self.transactions.rollback()

    def flush(self) -> None:
        """Write every dirty buffered page back to the disk manager."""
        self.catalog.pool.flush_all()

    def close(self) -> None:
        self.transactions.rollback()
        self.foreign.close()
        self.flush()
        if self.wal is not None:
            self.wal.close()
        self.disk.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Database(tables={self.table_names()})"

