"""The statement execution engine.

The engine dispatches parsed SQL / A-SQL statements to the storage layer and
the bdbms managers:

* queries run through the annotation-aware operator pipeline of
  :mod:`repro.executor.operators`;
* DML statements pass authorization checks, are logged by the content-based
  approval manager when monitoring is active, and trigger the dependency
  tracker;
* A-SQL annotation statements (CREATE/DROP ANNOTATION TABLE, ADD, ARCHIVE,
  RESTORE) are forwarded to the annotation manager after resolving which
  cells the enclosed statement identifies;
* authorization statements maintain GRANT/REVOKE state and the content
  approval configurations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.annotations.manager import AnnotationManager
from repro.annotations.model import Cell
from repro.authorization.approval import ApprovalManager
from repro.authorization.grants import AccessControl
from repro.catalog.catalog import SystemCatalog
from repro.catalog.schema import Column, TableSchema
from repro.core.errors import (
    AnnotationError,
    AuthorizationError,
    CatalogError,
    ExecutionError,
    OperationalError,
    PlanningError,
    ProgrammingError,
    TransactionError,
)
from repro.core.transactions import TransactionManager
from repro.dependencies.tracker import DependencyTracker, UpdateImpact
from repro.executor import operators as ops
from repro.executor.row import (
    ColumnInfo,
    OutputSchema,
    ResultSet,
    Row,
    StreamingResultSet,
)
from repro.executor.prepared import (
    CachedPlan,
    PlanCache,
    PreparedStatement,
    bind_plan,
)
from repro.index.manager import IndexManager
from repro.planner import plan as planlib
from repro.providers.manager import ForeignTableManager
from repro.storage.buffer_pool import DecodedCacheView
from repro.storage.spill import SpillManager, SpillStats
from repro.catalog.statistics import DEFAULT_SELECTIVITY
from repro.planner.expressions import (
    Evaluator,
    contains_aggregate,
    predicate_is_true,
)
from repro.planner.planner import (
    combine_conjuncts,
    push_down_conjuncts,
    referenced_columns,
)
from repro.providers.base import option_bool
from repro.provenance.manager import ProvenanceManager
from repro.sql import ast
from repro.sql.parameters import (
    bind_select_clauses,
    bind_statement,
    substitute_parameters,
    validate_parameters,
)
from repro.sql.parser import parse_prepared
from repro.types.datatypes import (
    TYPE_CATEGORIES,
    DataType,
    parse_timestamp,
    value_category,
)


#: Valid values of ``EngineConfig.execution_mode``: "streaming" is the
#: batched (vectorized) pipeline, "row" the row-at-a-time Volcano pipeline,
#: and "materialized" drains every operator output into a list (the memory
#: and differential baseline).
EXECUTION_MODES = ("streaming", "row", "materialized")

#: Valid values of ``EngineConfig.synchronous``: "full" fsyncs the WAL before
#: a commit is acknowledged (and the data file at sync points); "off" leaves
#: durability to the OS page cache (fast, loses recent commits on power loss).
SYNCHRONOUS_MODES = ("full", "off")


@dataclass
class EngineConfig:
    """Behavioural switches of the engine.

    The mode/strategy/batch knobs are validated eagerly at construction and
    re-validated at the start of every query (they are plain mutable fields),
    so a typo fails with a clear error instead of surfacing halfway through
    an operator pipeline.
    """

    #: Attach system "outdated" annotations to scans of tables that have
    #: outdated cells (Section 5, reporting outdated data in query answers).
    propagate_outdated: bool = True
    #: Enforce GRANT/REVOKE privileges on every statement.
    check_privileges: bool = True
    #: Storage scheme used by CREATE ANNOTATION TABLE ("compact" or "naive").
    default_annotation_scheme: str = "compact"
    #: Automatically record provenance for INSERT statements.
    auto_provenance: bool = False
    #: Join planning mode: "auto" picks per-edge via statistics and available
    #: indexes; "hash", "merge" and "index_nested_loop" force that strategy
    #: where applicable; "nested_loop" reproduces the naive cross-product
    #: pipeline and is the differential baseline.
    join_strategy: str = "auto"
    #: Operator pipeline mode: "streaming" (batched vectorized iterators —
    #: the default), "row" (row-at-a-time iterators, the pre-batching
    #: pipeline kept as the streaming baseline), or "materialized" (every
    #: operator output drained into a list — the memory-profile baseline for
    #: benchmarks and differential tests).  LIMIT short-circuits the scan in
    #: both streaming modes.
    execution_mode: str = "streaming"
    #: Let the planner pick index access paths (index point scans, B-tree
    #: range scans, and index-nested-loop joins) from the registered
    #: secondary indexes.
    use_indexes: bool = True
    #: Rows per batch in the vectorized pipeline.  Batches ramp up from one
    #: row to this size so early-stopping consumers stay cheap; 1 degrades
    #: to per-row batches (useful for differential testing).
    batch_size: int = 1024
    #: Maximum rows a pipeline breaker (hash-join build, GROUP BY, DISTINCT,
    #: sort) may buffer in memory before spilling to temp files.  ``None``
    #: (the default) keeps every breaker fully in memory.  The budget is
    #: per-operator and approximate: it may be overshot by up to one batch,
    #: and a single over-represented key's rows must still fit in memory.
    memory_budget_rows: Optional[int] = None
    #: Directory for spill temp files (``None`` = the platform temp dir).
    spill_directory: Optional[str] = None
    #: Capacity of the engine's prepared-plan cache (entries; one entry per
    #: SELECT block of a prepared statement under one config fingerprint).
    #: ``0`` disables plan caching — prepared statements then still skip
    #: tokenize + parse but re-plan on every execution.
    plan_cache_size: int = 128
    #: Durability mode of file-backed databases: "full" fsyncs the WAL before
    #: acknowledging a commit, "off" trusts the OS page cache.  Ignored (no
    #: WAL) for in-memory databases.
    synchronous: str = "full"
    #: Batch concurrent committers into one WAL fsync (group commit).  With
    #: it off every commit pays its own fsync.
    group_commit: bool = True
    #: Pages held by the buffer pool's decoded-record cache (decoded tuple
    #: lists keyed by ``(table, page, schema version)``), letting repeated
    #: scans skip record deserialization.  ``0`` (the default) disables the
    #: cache.
    decoded_page_cache_pages: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def fingerprint(self) -> Tuple[Any, ...]:
        """All config values, as the plan-cache key component.

        Any field may influence planning or staging (join strategy, index
        usage, memory budget, batch size...), so the whole config
        participates: executing the same SQL under a different configuration
        plans afresh instead of reusing a plan built for other knobs.
        """
        return tuple(getattr(self, name) for name in _CONFIG_FIELD_NAMES)

    def validate(self) -> None:
        """Reject unknown modes/strategies and bad batch sizes eagerly."""
        if self.execution_mode not in EXECUTION_MODES:
            raise PlanningError(
                f"unknown execution mode {self.execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}")
        if self.join_strategy not in planlib.JOIN_STRATEGIES:
            raise PlanningError(
                f"unknown join strategy {self.join_strategy!r}; "
                f"expected one of {planlib.JOIN_STRATEGIES}")
        if not isinstance(self.batch_size, int) or isinstance(self.batch_size, bool) \
                or self.batch_size <= 0:
            raise PlanningError(
                f"batch_size must be a positive integer, got {self.batch_size!r}")
        if self.memory_budget_rows is not None and (
                not isinstance(self.memory_budget_rows, int)
                or isinstance(self.memory_budget_rows, bool)
                or self.memory_budget_rows <= 0):
            raise PlanningError(
                f"memory_budget_rows must be a positive integer or None, "
                f"got {self.memory_budget_rows!r}")
        if not isinstance(self.plan_cache_size, int) \
                or isinstance(self.plan_cache_size, bool) \
                or self.plan_cache_size < 0:
            raise PlanningError(
                f"plan_cache_size must be a non-negative integer, "
                f"got {self.plan_cache_size!r}")
        if self.synchronous not in SYNCHRONOUS_MODES:
            raise PlanningError(
                f"unknown synchronous mode {self.synchronous!r}; "
                f"expected one of {SYNCHRONOUS_MODES}")
        if not isinstance(self.decoded_page_cache_pages, int) \
                or isinstance(self.decoded_page_cache_pages, bool) \
                or self.decoded_page_cache_pages < 0:
            raise PlanningError(
                f"decoded_page_cache_pages must be a non-negative integer, "
                f"got {self.decoded_page_cache_pages!r}")


#: Field names of :class:`EngineConfig`, resolved once — ``fingerprint()``
#: runs per prepared execution and must not pay dataclass reflection.
_CONFIG_FIELD_NAMES = tuple(f.name for f in fields(EngineConfig))


@dataclass
class ExecutionSummary:
    """Result of a non-query statement."""

    statement: str
    rows_affected: int = 0
    message: str = ""
    details: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ExecutionSummary({self.statement}, rows={self.rows_affected})"


ExecutionResult = Union[ResultSet, ExecutionSummary]

#: Statements the engine wraps in a transaction scope: inside an explicit
#: transaction their effects buffer until COMMIT; otherwise each one runs as
#: an autocommitted transaction of its own (atomic, immediately durable).
_MUTATING_STATEMENTS = (
    ast.CreateTable, ast.DropTable, ast.CreateIndex, ast.DropIndex,
    ast.Insert, ast.Update, ast.Delete,
    ast.CreateAnnotationTable, ast.DropAnnotationTable,
    ast.AddAnnotation, ast.ArchiveAnnotation, ast.RestoreAnnotation,
    ast.Grant, ast.Revoke,
    ast.StartContentApproval, ast.StopContentApproval,
    ast.Attach, ast.Detach,
)


class _PreparedContext:
    """Per-execution state of a prepared run: bound values + cache keying."""

    __slots__ = ("sql", "params", "fingerprint", "_block")

    def __init__(self, sql: str, params: Tuple[Any, ...],
                 fingerprint: Tuple[Any, ...]):
        self.sql = sql
        self.params = params
        self.fingerprint = fingerprint
        self._block = 0

    def next_block(self) -> int:
        """Ordinal of the next SELECT block (compound queries plan several
        blocks per statement; recursion order is deterministic, so the
        ordinal disambiguates them within one SQL text)."""
        block = self._block
        self._block += 1
        return block


class _QueryLocal(threading.local):
    """Per-thread query state: the ``last_*`` observability fields plus the
    prepared-execution context.  ``threading.local`` re-runs ``__init__`` in
    every thread that first touches an attribute, so each worker starts from
    clean defaults instead of inheriting another thread's query."""

    def __init__(self) -> None:
        self.last_plan: Optional[planlib.PlanNode] = None
        self.last_sort_elided = False
        self.last_spill = SpillStats()
        #: Built lazily by the engine property (needs the catalog's pool).
        self.last_cache: Optional[DecodedCacheView] = None
        self.last_plan_cached = False
        self.prepared_context: Optional[_PreparedContext] = None


class Engine:
    """Executes AST statements against the catalog and the bdbms managers."""

    def __init__(self, catalog: SystemCatalog, annotations: AnnotationManager,
                 provenance: ProvenanceManager, tracker: DependencyTracker,
                 approval: ApprovalManager, access: AccessControl,
                 indexes: Optional[IndexManager] = None,
                 config: Optional[EngineConfig] = None,
                 transactions: Optional[TransactionManager] = None,
                 foreign: Optional[ForeignTableManager] = None):
        self.catalog = catalog
        self.annotations = annotations
        self.provenance = provenance
        self.tracker = tracker
        self.approval = approval
        self.access = access
        self.indexes = indexes or IndexManager(catalog)
        self.config = config or EngineConfig()
        self.transactions = transactions or TransactionManager(
            catalog=catalog, annotations=annotations, indexes=self.indexes,
            tracker=tracker, access=access, pool=catalog.pool, wal=None)
        if catalog.journal is None:
            catalog.journal = self.transactions
        #: Attached foreign tables (ATTACH/DETACH); journaled through the
        #: transaction manager so they redo from the WAL like DDL.
        self.foreign = foreign or ForeignTableManager(catalog)
        if self.transactions.foreign is None:
            self.transactions.foreign = self.foreign
        if self.foreign.journal is None:
            self.foreign.journal = self.transactions
        #: Per-thread observability surfaces (``last_plan`` and friends) plus
        #: the prepared-execution context.  Thread-local because the network
        #: server runs concurrent statements on pooled worker threads over
        #: one shared engine: without isolation, thread A's EXPLAIN could
        #: read the plan of thread B's query, and worse, B's bound
        #: parameters could leak into A's statement.
        self._query_local = _QueryLocal()
        #: Prepared-plan cache keyed on (SQL text, SELECT-block ordinal,
        #: EngineConfig fingerprint), invalidated by the catalog schema
        #: version (see :class:`~repro.executor.prepared.PlanCache`).
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        #: Serializes the prepared planning/binding window.  The operator
        #: pipeline itself runs outside this lock; planning touches shared
        #: mutable state (plan cache validation against statistics, which may
        #: auto-ANALYZE and bump the schema version), so concurrent prepared
        #: executions take turns through the planner only.
        self._prepared_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Per-thread observability surface.
    #
    # ``last_plan`` — plan tree of this thread's most recently planned
    # SELECT (used by EXPLAIN, tests, and benchmarks).
    # ``last_sort_elided`` — whether its ORDER BY was satisfied by index
    # order (sort elision) instead of an explicit sort.
    # ``last_spill`` — spill activity (partition/run counts, row/byte
    # counters); updated while rows drain, so a streaming consumer sees
    # final numbers once the stream is exhausted.
    # ``last_cache`` — per-query window over the buffer pool's decoded-page
    # cache statistics; also counts while a stream drains.
    # ``last_plan_cached`` — whether the most recent SELECT reused a cached
    # plan (``last_plan`` then *is* the identity-stable cached template).
    # ------------------------------------------------------------------
    @property
    def last_plan(self) -> Optional[planlib.PlanNode]:
        return self._query_local.last_plan

    @last_plan.setter
    def last_plan(self, value: Optional[planlib.PlanNode]) -> None:
        self._query_local.last_plan = value

    @property
    def last_sort_elided(self) -> bool:
        return self._query_local.last_sort_elided

    @last_sort_elided.setter
    def last_sort_elided(self, value: bool) -> None:
        self._query_local.last_sort_elided = value

    @property
    def last_spill(self) -> SpillStats:
        return self._query_local.last_spill

    @last_spill.setter
    def last_spill(self, value: SpillStats) -> None:
        self._query_local.last_spill = value

    @property
    def last_cache(self) -> DecodedCacheView:
        view = self._query_local.last_cache
        if view is None:
            view = DecodedCacheView(self.catalog.pool.decoded.stats)
            self._query_local.last_cache = view
        return view

    @last_cache.setter
    def last_cache(self, value: DecodedCacheView) -> None:
        self._query_local.last_cache = value

    @property
    def last_plan_cached(self) -> bool:
        return self._query_local.last_plan_cached

    @last_plan_cached.setter
    def last_plan_cached(self, value: bool) -> None:
        self._query_local.last_plan_cached = value

    @property
    def _prepared_context(self) -> Optional["_PreparedContext"]:
        return self._query_local.prepared_context

    @_prepared_context.setter
    def _prepared_context(self, value: Optional["_PreparedContext"]) -> None:
        self._query_local.prepared_context = value

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def execute(self, statement: Any, user: str = "admin") -> ExecutionResult:
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self.execute_query(statement, user)
        if isinstance(statement, ast.Begin):
            self.transactions.begin()
            return ExecutionSummary("BEGIN", message="transaction started")
        if isinstance(statement, ast.Commit):
            if not self.transactions.commit():
                raise TransactionError("COMMIT: no transaction is active")
            return ExecutionSummary("COMMIT", message="transaction committed")
        if isinstance(statement, ast.Rollback):
            if not self.transactions.rollback():
                raise TransactionError("ROLLBACK: no transaction is active")
            return ExecutionSummary("ROLLBACK", message="transaction rolled back")
        if isinstance(statement, _MUTATING_STATEMENTS):
            with self.transactions.statement(statement):
                return self._dispatch(statement, user)
        return self._dispatch(statement, user)

    def _dispatch(self, statement: Any, user: str) -> ExecutionResult:
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement, user)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement, user)
        if isinstance(statement, ast.CreateIndex):
            return self._create_index(statement, user)
        if isinstance(statement, ast.DropIndex):
            return self._drop_index(statement, user)
        if isinstance(statement, ast.Insert):
            return self._insert(statement, user)
        if isinstance(statement, ast.Update):
            return self._update(statement, user)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, user)
        if isinstance(statement, ast.CreateAnnotationTable):
            return self._create_annotation_table(statement, user)
        if isinstance(statement, ast.DropAnnotationTable):
            return self._drop_annotation_table(statement, user)
        if isinstance(statement, ast.AddAnnotation):
            return self._add_annotation(statement, user)
        if isinstance(statement, ast.ArchiveAnnotation):
            return self._archive_restore(statement, user, archive=True)
        if isinstance(statement, ast.RestoreAnnotation):
            return self._archive_restore(statement, user, archive=False)
        if isinstance(statement, ast.Grant):
            return self._grant(statement, user)
        if isinstance(statement, ast.Revoke):
            return self._revoke(statement, user)
        if isinstance(statement, ast.StartContentApproval):
            return self._start_approval(statement, user)
        if isinstance(statement, ast.StopContentApproval):
            return self._stop_approval(statement, user)
        if isinstance(statement, ast.Attach):
            return self._attach(statement, user)
        if isinstance(statement, ast.Detach):
            return self._detach(statement, user)
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement, user)
        if isinstance(statement, ast.Explain):
            return self._explain(statement, user)
        raise ExecutionError(f"cannot execute statement of type {type(statement).__name__}")

    # ------------------------------------------------------------------
    # Privileges
    # ------------------------------------------------------------------
    def _check(self, user: str, privilege: str, table: str) -> None:
        if self.config.check_privileges:
            self.access.check(user, privilege, table)

    def _check_admin(self, user: str, action: str) -> None:
        if self.config.check_privileges and not self.access.is_superuser(user):
            raise AuthorizationError(f"only a superuser may {action}")

    # ------------------------------------------------------------------
    # Prepared statements
    # ------------------------------------------------------------------
    def prepare(self, sql: str) -> PreparedStatement:
        """Parse ``sql`` once into a reusable :class:`PreparedStatement`.

        Counts the qmark placeholders and rejects statement types that
        cannot carry parameters; a multi-statement string raises
        :class:`ProgrammingError` (from the parser) pointing at scripts.
        """
        if not isinstance(sql, str):
            raise ProgrammingError(
                f"SQL must be a string, got {type(sql).__name__}")
        statement, parameter_count = parse_prepared(sql)
        if parameter_count and not isinstance(
                statement, (ast.Select, ast.SetOperation, ast.Insert,
                            ast.Update, ast.Delete, ast.Explain)):
            raise ProgrammingError(
                f"parameter placeholders are not supported in "
                f"{type(statement).__name__} statements")
        return PreparedStatement(sql, statement, parameter_count)

    def execute_prepared(self, prepared: PreparedStatement,
                         params: Sequence[Any] = (),
                         user: str = "admin") -> ExecutionResult:
        """Execute a prepared statement with ``params`` bound.

        Parameter count and types are validated eagerly.  Queries run with
        the plan cache engaged (plan once per SQL text + config fingerprint,
        rebind values per execution); DML binds the values into the
        statement and executes directly.
        """
        if isinstance(prepared.statement, ast.Explain):
            # Generic-plan EXPLAIN: the statement is planned, never executed,
            # so placeholders stay unbound and render as ?N markers.  Bound
            # values, when supplied, are validated but unused.
            if params:
                validate_parameters(params, prepared.parameter_count)
            return self.execute(prepared.statement, user=user)
        bound_params = validate_parameters(params, prepared.parameter_count)
        if not prepared.is_query:
            return self.execute(bind_statement(prepared.statement, bound_params),
                                user=user)
        with self._prepared_lock:
            previous = self._prepared_context
            self._prepared_context = _PreparedContext(
                prepared.sql, bound_params, self.config.fingerprint())
            try:
                return self.execute_query(prepared.statement, user)
            finally:
                self._prepared_context = previous

    def stream_prepared(self, prepared: PreparedStatement,
                        params: Sequence[Any] = (),
                        user: str = "admin") -> StreamingResultSet:
        """Like :meth:`execute_prepared` but returns a lazy row stream.

        Planning (or a plan-cache hit), privilege checks, and parameter
        binding all happen eagerly; only row production is deferred.
        """
        bound_params = validate_parameters(params, prepared.parameter_count)
        if not prepared.is_query:
            raise ProgrammingError(
                f"statement is not a query: {prepared.sql!r}")
        # Planning + binding happen eagerly inside the lock; the returned
        # stream produces rows lazily outside it.
        with self._prepared_lock:
            previous = self._prepared_context
            self._prepared_context = _PreparedContext(
                prepared.sql, bound_params, self.config.fingerprint())
            try:
                return self.stream_query(prepared.statement, user)
            finally:
                self._prepared_context = previous

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def execute_query(self, node: Any, user: str = "admin") -> ResultSet:
        self._begin_query()
        schema, rows = ops.materialize(self._evaluate_query(node, user))
        return ResultSet(schema, rows)

    def stream_query(self, node: Any, user: str = "admin") -> StreamingResultSet:
        """Build the operator pipeline but defer row production to the caller.

        Planning, privilege checks, and expression compilation happen
        eagerly; rows are computed only as the returned stream is consumed,
        so an early-stopping consumer never pays for the full scan.
        """
        self._begin_query()
        schema, rows = self._evaluate_query(node, user)
        return StreamingResultSet(schema, rows)

    def _begin_query(self) -> None:
        """Reset the per-query observability surfaces and sync the decoded
        cache capacity with the (mutable) config knob."""
        self.last_spill = SpillStats()
        decoded = self.catalog.pool.decoded
        decoded.set_capacity(self.config.decoded_page_cache_pages)
        self.last_cache = DecodedCacheView(decoded.stats)

    def _spill_manager(self) -> Optional[SpillManager]:
        """A spill coordinator, or ``None`` without a budget.

        One manager is created per SELECT block (and per set operation in a
        compound query) — each with its own annotation registry, which is
        fine because spill files only ever read through the manager that
        wrote them.  What *is* shared query-wide is the stats object,
        ``self.last_spill``: every manager reports into it.
        """
        budget = self.config.memory_budget_rows
        if budget is None:
            return None
        return SpillManager(budget, stats=self.last_spill,
                            directory=self.config.spill_directory)

    def _stage(self, relation: ops.Relation) -> ops.Relation:
        """Adapt one pipeline stage's output to the configured execution mode.

        ``materialized`` drains the stage into a list; ``streaming`` (the
        batched mode) re-chunks row-producing stages into batches so that
        pipeline breakers *produce* batches at their boundary and downstream
        vectorized operators stay on the batch path; ``row`` passes the lazy
        row iterator through untouched.
        """
        mode = self.config.execution_mode
        if mode == "materialized":
            return ops.materialize(relation)
        if mode == "streaming":
            return ops.ensure_batched(relation, self.config.batch_size)
        return relation

    def _evaluate_query(self, node: Any, user: str) -> ops.Relation:
        if isinstance(node, ast.SetOperation):
            left = self._evaluate_query(node.left, user)
            right = self._evaluate_query(node.right, user)
            if node.op == "UNION":
                return ops.union(left, right, keep_all=node.all,
                                 spill=self._spill_manager())
            if node.op == "INTERSECT":
                return ops.intersect(left, right,
                                     spill=self._spill_manager())
            return ops.except_(left, right, spill=self._spill_manager())
        if isinstance(node, ast.Select):
            return self._evaluate_select(node, user)
        raise ExecutionError(f"not a query: {type(node).__name__}")

    @staticmethod
    def _select_has_aggregates(select: ast.Select) -> bool:
        return bool(select.group_by) or any(
            not isinstance(item.expr, ast.Star) and contains_aggregate(item.expr)
            for item in select.items
        )

    def _evaluate_select(self, select: ast.Select, user: str) -> ops.Relation:
        self.config.validate()
        stage = self._stage
        # SELECT without FROM: evaluate the items against a single empty row
        # (binding parameters first — ``SELECT ?`` is a legitimate probe).
        if not select.from_tables:
            self.last_plan_cached = False   # no plan involved at all
            context = self._prepared_context
            if context is not None and context.params:
                select = bind_select_clauses(select, context.params)
            relation: ops.Relation = (OutputSchema([]), [Row(())])
            return ops.project(relation, select.items)

        table_refs = list(select.from_tables) + [join.table for join in select.joins]
        for ref in table_refs:
            self._check(user, "SELECT", ref.name)

        plan, _pushed, remaining, order_hint = self._plan_with_cache(select,
                                                                     table_refs)
        # ``last_plan`` is the (possibly cached) template: identity-stable
        # across cached executions, with parameter placeholders intact.
        self.last_plan = plan
        context = self._prepared_context
        if context is not None and context.params:
            # Bind this execution's values: a substituted copy of the plan
            # tree and of the post-planning clauses.  The cached template is
            # never mutated, so the next execution rebinds from it.
            plan = bind_plan(plan, context.params)
            remaining = [substitute_parameters(conjunct, context.params)
                         for conjunct in remaining]
            select = bind_select_clauses(select, context.params)
        has_aggregates = self._select_has_aggregates(select)
        # Sort elision: the plan already delivers rows in the requested
        # order (an ordered index scan surviving the left spine of
        # order-preserving joins), so ORDER BY needs no sort operator.
        # With a memory budget, hash joins may spill adaptively — which
        # reorders the probe side — so order never propagates through them.
        elide_sort = (bool(select.order_by) and not has_aggregates
                      and order_hint is not None
                      and planlib.plan_delivered_order(
                          plan, self._order_through_hash()) == order_hint)
        self.last_sort_elided = elide_sort

        refs = {ref.effective_name.lower(): ref for ref in table_refs}
        spill = self._spill_manager()
        relation = self._execute_plan(plan, refs,
                                      scan_cap=self._scan_cap(select, plan,
                                                              remaining),
                                      spill=spill)
        # Join reordering may have permuted the column blocks; restore the
        # syntactic FROM order so SELECT * stays deterministic.
        relation = self._restore_from_order(relation, table_refs)

        residual_expr = combine_conjuncts(remaining)
        if residual_expr is not None:
            relation = stage(ops.filter_rows(relation, residual_expr))
        if select.awhere is not None:
            relation = stage(ops.awhere_filter(relation, select.awhere))

        input_rows_hint = plan.estimated_rows
        if has_aggregates:
            relation = stage(ops.group_and_aggregate(
                relation, select.group_by, select.items, select.having,
                select.ahaving, spill=spill, input_rows_hint=input_rows_hint))
            if select.filter is not None:
                relation = stage(ops.filter_annotations(relation, select.filter))
        else:
            if select.having is not None or select.ahaving is not None:
                raise PlanningError("HAVING/AHAVING require GROUP BY or aggregates")
            if select.filter is not None:
                relation = stage(ops.filter_annotations(relation, select.filter))
            # ORDER BY may reference columns that are not projected (e.g.
            # ``SELECT name ... ORDER BY score``): sort before projecting when
            # the sort keys resolve against the full relation, and fall back
            # to sorting the projected output (for aliases) otherwise.
            ordered_early = False
            if select.order_by and not elide_sort:
                try:
                    relation = stage(ops.order_by(relation, select.order_by,
                                                  spill=spill))
                    ordered_early = True
                except PlanningError:
                    ordered_early = False
            relation = stage(ops.project(relation, select.items))
            if select.order_by and not ordered_early and not elide_sort:
                relation = stage(ops.order_by(relation, select.order_by,
                                              spill=spill))
            if select.distinct:
                relation = stage(ops.distinct(relation, spill=spill,
                                              input_rows_hint=input_rows_hint))
            if select.limit is not None or select.offset is not None:
                relation = stage(ops.limit_offset(relation, select.limit,
                                                  select.offset))
            return relation

        if select.distinct:
            relation = stage(ops.distinct(
                relation, spill=spill,
                input_rows_hint=self._estimated_group_rows(select, plan,
                                                           table_refs)))
        if select.order_by:
            relation = stage(ops.order_by(relation, select.order_by, spill=spill))
        if select.limit is not None or select.offset is not None:
            relation = stage(ops.limit_offset(relation, select.limit, select.offset))
        return relation

    def _plan_with_cache(self, select: ast.Select,
                         table_refs: Sequence[ast.TableRef],
                         ) -> Tuple[planlib.PlanNode,
                                    Dict[str, List[ast.Expression]],
                                    List[ast.Expression],
                                    Optional[Tuple[str, str, str]]]:
        """:meth:`_plan_select`, memoized for prepared executions.

        Outside a prepared run (or with ``plan_cache_size = 0``) this is a
        plain pass-through.  Within one, the result is cached per (SQL text,
        SELECT-block ordinal, config fingerprint) and validated against the
        catalog schema version; on a hit the plan's base tables are poked
        for statistics staleness first, so enough DML since planning
        triggers auto-ANALYZE — which bumps the version and forces a
        re-plan instead of trusting stale estimates forever.
        """
        context = self._prepared_context
        cache = self.plan_cache
        cache.capacity = self.config.plan_cache_size
        if context is None or self.config.plan_cache_size <= 0:
            self.last_plan_cached = False
            return self._plan_select(select, table_refs)
        key = (context.sql, context.next_block(), context.fingerprint)
        entry = cache.lookup(key, self.catalog.schema_version)
        if entry is not None:
            statistics = self.catalog.statistics
            for table in entry.tables:
                if self.catalog.has_table(table):
                    statistics.stats_for(table)
            if self.catalog.schema_version == entry.schema_version \
                    and self._range_scan_gates_hold(entry.plan):
                cache.note_hit()
                self.last_plan_cached = True
                return (entry.plan, entry.pushed, list(entry.remaining),
                        entry.order_hint)
            cache.discard(key)
        cache.note_miss()
        self.last_plan_cached = False
        plan, pushed, remaining, order_hint = self._plan_select(select,
                                                                table_refs)
        cache.store(key, CachedPlan(
            self.catalog.schema_version, plan, pushed, list(remaining),
            order_hint, tables=tuple(sorted({ref.name for ref in table_refs}))))
        return plan, pushed, remaining, order_hint

    def _range_scan_gates_hold(self, plan: planlib.PlanNode) -> bool:
        """Re-check a cached plan's index-range completeness proofs.

        ``choose_index_range`` only picks an ordered/unbounded key-order
        scan (and lower-bound-only ranges) after proving no qualifying row
        is missing from the index (``null_keys``/``nan_keys`` gates).  That
        proof is *data*-dependent: a later INSERT of a NULL- or NaN-keyed
        row breaks it without any schema change, and DML deliberately does
        not bump the schema version.  So a cache hit re-validates the gates
        against the live counters and forces a re-plan when they no longer
        hold — otherwise the cached scan would silently drop those rows.
        Index lookups need no re-check: an equality probe can never match a
        NULL row, and a non-NaN key can never match a NaN row.
        """
        if isinstance(plan, planlib.JoinPlan):
            return (self._range_scan_gates_hold(plan.left)
                    and self._range_scan_gates_hold(plan.right))
        if plan.access_path != "index_range" or plan.index_name is None:
            return True
        try:
            index = self.indexes.get(plan.index_name)
        except Exception:
            return False
        bounded = plan.range_low is not None or plan.range_high is not None
        if bounded and plan.range_high is None and index.nan_keys > 0:
            return False  # NaN rows satisfy a lower-bound-only range
        if not bounded and (index.null_keys > 0 or index.nan_keys > 0):
            return False  # full key-order scan must cover every row
        return True

    def _scan_cap(self, select: ast.Select, plan: planlib.PlanNode,
                  remaining: Sequence[ast.Expression]) -> Optional[int]:
        """Limit pushdown: cap a bare single-table scan at LIMIT+OFFSET rows.

        Only safe when nothing between the scan and the LIMIT can drop,
        reorder, or group rows: no joins, no pushed or residual predicates,
        no annotation predicates, no aggregation/DISTINCT, and no ORDER BY.
        The batched scan then never reads past the cap, keeping LIMIT's
        scanned-row guarantee exact even at full batch size.
        """
        if select.limit is None or select.joins or len(select.from_tables) != 1:
            return None
        if remaining or select.awhere is not None or select.filter is not None:
            return None
        if select.order_by or select.distinct or self._select_has_aggregates(select):
            return None
        if not isinstance(plan, planlib.ScanPlan) or plan.pushed:
            return None
        return select.limit + (select.offset or 0)

    def _row_source(self, ref: ast.TableRef,
                    include_tuple_id: bool = False) -> ops.TableRowSource:
        """Annotation-attaching row access for one FROM-list table."""
        table = self.catalog.table(ref.name)
        propagation_index = None
        if ref.annotation_tables:
            propagation_index = self.annotations.propagation_index(
                table.name, ref.annotation_tables
            )
        status = None
        if self.config.propagate_outdated:
            status_map = self.tracker.status_annotations(table.name)
            status = status_map if status_map else None
        return ops.TableRowSource(table, ref.effective_name, propagation_index,
                                  status, include_tuple_id)

    def _scan(self, ref: ast.TableRef, node: planlib.ScanPlan,
              scan_cap: Optional[int] = None) -> ops.Relation:
        """Execute one scan leaf along its planned access path."""
        if isinstance(node, planlib.ForeignScanPlan):
            return self._foreign_scan(ref, node, scan_cap)
        relation = self._leaf_relation(
            self._row_source(ref), node,
            batched=self.config.execution_mode == "streaming",
            scan_cap=scan_cap)
        # The full pushed-conjunct list is applied even on an index access
        # path: the index only pins the key columns (and a range scan may be
        # wider than the predicate), everything else filters on top.
        pushdown = combine_conjuncts(node.pushed)
        if pushdown is not None:
            relation = ops.filter_rows(relation, pushdown)
        return self._stage(relation)

    def _leaf_relation(self, source: ops.TableRowSource,
                       node: planlib.ScanPlan, batched: bool,
                       scan_cap: Optional[int] = None) -> ops.Relation:
        """Rows of one base-table scan leaf along its planned access path,
        before any filter: SELECT scans and DML target selection share it."""
        if node.access_path == "index_lookup" and node.index_name is not None \
                and self._index_key_safe(node):
            index = self.indexes.get(node.index_name)
            return ops.index_scan(source, index.structure, node.index_key)
        if node.access_path == "index_range" and node.index_name is not None:
            index = self.indexes.get(node.index_name)
            order_position = None
            if node.ordered and node.index_columns:
                order_position = source.schema.try_resolve(node.index_columns[0])
            return ops.index_range_scan(
                source, index.structure, node.range_low, node.range_high,
                node.range_include_low, node.range_include_high,
                batch_size=self.config.batch_size if batched else None,
                order_position=order_position,
                descending=node.descending)
        if batched:
            return source.batched_relation(self.config.batch_size, scan_cap)
        return source.relation()

    def _foreign_scan(self, ref: ast.TableRef, node: planlib.ForeignScanPlan,
                      scan_cap: Optional[int] = None) -> ops.Relation:
        """Execute a foreign-table scan leaf through its provider.

        The provider receives the projected columns and (when pushdown is
        on) the pushed conjuncts, but the pushdown contract is advisory: the
        engine re-applies the full conjunct list on top, so a provider that
        filters lazily — or not at all — stays correct, just slower.
        ``scan_cap`` is only ever non-None for plans without pushed
        conjuncts (see :meth:`_scan_cap`), so capping at the source is safe.
        """
        relation = self.foreign.scan(
            node.table, ref.effective_name,
            columns=list(node.projected) or None,
            pushed=list(node.pushed) if node.pushdown else [],
            limit=scan_cap,
            batch_size=self.config.batch_size)
        pushdown = combine_conjuncts(node.pushed)
        if pushdown is not None:
            relation = ops.filter_rows(relation, pushdown)
        return self._stage(relation)

    def _foreign_projection(self, select: ast.Select, table: str,
                            qualifiers: Sequence[str]) -> Tuple[str, ...]:
        """Columns of foreign ``table`` this query can touch (``()`` = all).

        Over-inclusion is safe (extra transfer); under-inclusion would break
        the engine-side re-check of pushed filters, so anything that cannot
        be proven column-precise — ``SELECT *``, annotation predicates whose
        column coverage the walker cannot see — projects every column.
        """
        if select.filter is not None or select.awhere is not None \
                or select.ahaving is not None:
            return ()
        columns = {name.lower() for name in self.foreign.column_names(table)}
        qualifier_set = {qualifier.lower() for qualifier in qualifiers}
        needed: Set[str] = set()

        def note(expr: Optional[ast.Expression]) -> bool:
            """Collect refs; False when a Star makes the set unprovable."""
            if expr is None:
                return True
            if isinstance(expr, ast.Star):
                return False
            for column_ref in referenced_columns(expr):
                name = column_ref.name.lower()
                if column_ref.table is not None:
                    if column_ref.table.lower() in qualifier_set:
                        needed.add(name)
                elif name in columns:
                    # Unqualified: it *could* resolve here — include it.
                    needed.add(name)
            return True

        exprs: List[Optional[ast.Expression]] = [select.where, select.having]
        exprs.extend(item.expr for item in select.items)
        exprs.extend(column_ref for item in select.items
                     for column_ref in item.promote)
        exprs.extend(join.condition for join in select.joins)
        exprs.extend(item.expr for item in select.order_by)
        exprs.extend(select.group_by)
        for expr in exprs:
            if not note(expr):
                return ()
        projected = tuple(sorted(needed & columns))
        if not projected or len(projected) == len(columns):
            return ()
        return projected

    def _index_key_safe(self, node: planlib.ScanPlan) -> bool:
        """Whether an index-lookup key may be probed into the structure.

        Bind-time keys (from parameters) can hold values a plan-time literal
        never could: NULL (equality never matches, and the B-tree cannot
        compare it), NaN (excluded from the structure at insert), or a value
        whose type category differs from the indexed column's (the B-tree
        bisect would compare across categories).  Any of those falls back to
        a sequential scan — the full pushed conjunct list is re-applied on
        top of every access path, so the fallback stays correct.
        """
        key = node.index_key
        components = key if isinstance(key, tuple) else (key,)
        for column, value in zip(node.index_columns, components):
            if value is None:
                return False
            if isinstance(value, float) and value != value:
                return False
            category = value_category(value)
            if category is None:
                return False
            expected = self._column_category(node.table, column)
            if expected is not None and expected != category:
                return False
        return True

    def _column_category(self, table_name: str,
                         column: str) -> Optional[str]:
        """Coarse type category ("num"/"text"/"time") of a column (base or
        attached foreign)."""
        try:
            if self.foreign.has(table_name):
                schema = self.foreign.table(table_name).schema
            else:
                schema = self.catalog.table(table_name).schema
            dtype = schema.column(column).dtype
        except Exception:
            return None
        return TYPE_CATEGORIES.get(dtype)

    # ------------------------------------------------------------------
    # Join planning and plan execution
    # ------------------------------------------------------------------
    def _resolvable_columns(self, table_refs: Sequence[ast.TableRef],
                            ) -> Dict[str, Set[str]]:
        """Lower-cased column names per qualifier, base or foreign."""
        resolvable: Dict[str, Set[str]] = {}
        for ref in table_refs:
            if self.foreign.has(ref.name):
                names = self.foreign.column_names(ref.name)
            else:
                names = self.catalog.table(ref.name).schema.column_names
            resolvable[ref.effective_name.lower()] = {
                name.lower() for name in names}
        return resolvable

    def _plan_select(self, select: ast.Select, table_refs: Sequence[ast.TableRef],
                     ) -> Tuple[planlib.PlanNode, Dict[str, List[ast.Expression]],
                                List[ast.Expression],
                                Optional[Tuple[str, str, str]]]:
        """Pushdown + cost-based join planning for one SELECT block.

        Returns the plan tree, the per-qualifier pushed conjuncts, the
        residual conjuncts still to be filtered after the joins, and the
        interesting order (lower-cased ``(qualifier, column, direction)`` of
        a single ORDER BY key) the planner was asked to deliver.
        """
        resolvable = self._resolvable_columns(table_refs)
        pushed, residual = push_down_conjuncts(select.where, table_refs, resolvable)
        # Standard SQL: a WHERE predicate on the nullable side of a LEFT JOIN
        # is evaluated after the join (NULL-padded rows fail it).  Pushing it
        # below the join would wrongly keep the padded rows, so those
        # conjuncts go back into the residual filter.
        nullable_sides = {join.table.effective_name.lower()
                          for join in select.joins if join.join_type == "LEFT"}
        for qualifier in nullable_sides:
            if pushed.get(qualifier):
                residual.extend(pushed[qualifier])
                pushed[qualifier] = []

        table_of = {ref.effective_name.lower(): ref.name for ref in table_refs}
        statistics = self.catalog.statistics
        foreign_names = {ref.name for ref in table_refs
                         if self.foreign.has(ref.name)}

        def row_estimate(qualifier: str) -> float:
            table = table_of[qualifier]
            if table in foreign_names:
                # Provider-reported cardinality (or the default), degraded
                # by the textbook selectivity per pushed conjunct — foreign
                # sources have no ANALYZE histograms to consult.
                selectivity = DEFAULT_SELECTIVITY ** len(pushed.get(qualifier, []))
                return max(1.0, self.foreign.row_estimate(table) * selectivity)
            return statistics.estimate_scan_rows(
                table, pushed.get(qualifier, []), qualifier)

        def ndv_estimate(qualifier: str, column: str) -> float:
            table = table_of[qualifier]
            if table in foreign_names:
                distinct = self.foreign.distinct_estimate(table, column)
                if distinct is None:
                    distinct = max(1.0, self.foreign.row_estimate(table) ** 0.5)
                return float(distinct)
            return float(statistics.distinct_estimate(table, column))

        def type_category(qualifier: str, column: str) -> Optional[str]:
            return self._column_category(table_of[qualifier], column)

        def foreign_info(table: str) -> Optional[Dict[str, Any]]:
            if table not in foreign_names:
                return None
            entry = self.foreign.table(table)
            qualifiers = [ref.effective_name.lower() for ref in table_refs
                          if ref.name == table]
            try:
                pushdown = option_bool(entry.options, "pushdown", True)
            except OperationalError:
                pushdown = True
            return {
                "provider": entry.provider_type,
                # ``pushdown false`` means full transfer: no provider-side
                # filtering *or* projection — the engine does all the work.
                "projected": (self._foreign_projection(select, table,
                                                       qualifiers)
                              if pushdown else ()),
                "pushdown": pushdown,
            }

        list_indexes = self.indexes.indexes_for if self.config.use_indexes else None
        order_hint = self._interesting_order(select, resolvable)
        plan, remaining = planlib.plan_select_joins(
            select.from_tables, select.joins, residual, resolvable, pushed,
            row_estimate=row_estimate, ndv_estimate=ndv_estimate,
            type_category=type_category,
            list_indexes=list_indexes,
            foreign_info=foreign_info if foreign_names else None,
            strategy=self.config.join_strategy,
            order_hint=order_hint,
            base_row_estimate=lambda qualifier: float(
                statistics.row_count_estimate(table_of[qualifier])),
            limit_hint=select.limit if order_hint is not None else None,
            memory_budget_rows=self.config.memory_budget_rows,
        )
        planlib.annotate_spill_expectations(plan, self.config.memory_budget_rows)
        return plan, pushed, remaining, order_hint

    def _order_through_hash(self) -> bool:
        """Whether hash joins may be trusted to preserve probe-side order.

        Only without a memory budget: a Grace spill (an adaptive runtime
        decision) emits partition order, so sort elision must not reach
        through a hash join that could spill.
        """
        return self.config.memory_budget_rows is None

    def _interesting_order(self, select: ast.Select,
                           resolvable: Dict[str, Any],
                           ) -> Optional[Tuple[str, str, str]]:
        """The (qualifier, column, direction) an index-ordered scan could
        deliver.

        Only a single ORDER BY key that is a plain column reference resolving
        to one base table qualifies (and never under aggregation, where ORDER
        BY applies to the grouped output).  DESC keys are served by reverse
        B-tree traversal.
        """
        if len(select.order_by) != 1 or self._select_has_aggregates(select):
            return None
        item = select.order_by[0]
        if not isinstance(item.expr, ast.ColumnRef):
            return None
        qualifier = planlib.resolve_column(item.expr, resolvable)
        if qualifier is None:
            return None
        return (qualifier, item.expr.name.lower(),
                "asc" if item.ascending else "desc")

    def _execute_plan(self, node: planlib.PlanNode,
                      refs: Dict[str, ast.TableRef],
                      scan_cap: Optional[int] = None,
                      spill=None) -> ops.Relation:
        """Walk a plan tree bottom-up, joining with the planned strategies."""
        if isinstance(node, planlib.ScanPlan):
            return self._scan(refs[node.qualifier], node, scan_cap)
        if node.strategy == "index_nested_loop":
            left = self._execute_plan(node.left, refs, spill=spill)
            relation = self._index_join(left, node, refs)
        else:
            left = self._execute_plan(node.left, refs, spill=spill)
            right = self._execute_plan(node.right, refs, spill=spill)
            if node.strategy == "hash":
                relation = ops.hash_join(left, right, node.left_keys,
                                         node.right_keys, node.join_type,
                                         node.condition, spill=spill,
                                         spill_partitions=node.spill_partitions)
            elif node.strategy == "merge":
                relation = ops.merge_join(left, right, node.left_keys,
                                          node.right_keys, node.join_type,
                                          node.condition, spill=spill)
            else:
                join_type = "CROSS" if node.strategy == "cross" else node.join_type
                relation = ops.nested_loop_join(left, right, node.condition,
                                                join_type)
        # Residual conjuncts pushed down to this node filter the join output
        # (after any LEFT padding, preserving WHERE-over-LEFT-JOIN semantics).
        node_filter = combine_conjuncts(node.filters)
        if node_filter is not None:
            relation = ops.filter_rows(relation, node_filter)
        return self._stage(relation)

    def _index_join(self, left: ops.Relation, node: planlib.JoinPlan,
                    refs: Dict[str, ast.TableRef]) -> ops.Relation:
        """Index-nested-loop join: the right child must be a base-table scan."""
        right = node.right
        if not isinstance(right, planlib.ScanPlan):
            raise ExecutionError(
                "index-nested-loop join requires a base-table lookup side")
        source = self._row_source(refs[right.qualifier])
        index = self.indexes.get(node.index_name)
        right_filter = combine_conjuncts(right.pushed)
        return ops.index_nested_loop_join(
            left, source, index.structure, node.left_keys, node.right_keys,
            join_type=node.join_type, condition=node.condition,
            right_filter=right_filter,
        )

    @staticmethod
    def _restore_from_order(relation: ops.Relation,
                            table_refs: Sequence[ast.TableRef]) -> ops.Relation:
        """Permute the joined columns back into FROM-list order (streaming)."""
        schema, rows = relation
        permutation: List[int] = []
        for ref in table_refs:
            permutation.extend(schema.positions_for_qualifier(ref.effective_name))
        if len(permutation) != len(schema) \
                or permutation == list(range(len(schema))):
            return relation
        new_schema = OutputSchema([schema.columns[p] for p in permutation])

        def permuted():
            for row in rows:
                yield Row(tuple(row.values[p] for p in permutation),
                          [row.annotations[p] for p in permutation])
        return new_schema, permuted()

    # ------------------------------------------------------------------
    # ANALYZE / EXPLAIN
    # ------------------------------------------------------------------
    def _analyze(self, statement: ast.Analyze, user: str) -> ExecutionSummary:
        statistics = self.catalog.statistics
        if statement.table is not None:
            self._check(user, "SELECT", statement.table)
            tables = [self.catalog.table(statement.table).name]
        else:
            self._check_admin(user, "analyze all tables")
            tables = self.catalog.table_names()
        analyzed: Dict[str, Any] = {}
        for name in tables:
            stats = statistics.analyze(name)
            analyzed[name] = {
                "row_count": stats.row_count,
                "columns": {
                    column.name: {
                        "distinct": column.distinct,
                        "null_count": column.null_count,
                        "min": column.minimum,
                        "max": column.maximum,
                    }
                    for column in stats.columns.values()
                },
                "version": stats.version,
            }
        return ExecutionSummary(
            "ANALYZE", rows_affected=len(analyzed),
            message=f"analyzed {len(analyzed)} table(s)",
            details={"tables": analyzed},
        )

    def _explain(self, statement: ast.Explain, user: str) -> ExecutionSummary:
        plan_dict, text = self._explain_node(statement.target, user)
        return ExecutionSummary(
            "EXPLAIN", message=text, details={"plan": plan_dict, "text": text},
        )

    def _explain_node(self, node: Any, user: str) -> Tuple[Dict[str, Any], str]:
        if isinstance(node, ast.SetOperation):
            left_dict, left_text = self._explain_node(node.left, user)
            right_dict, right_text = self._explain_node(node.right, user)
            label = node.op + (" ALL" if node.all else "")
            text = "\n".join([label,
                              *("  " + line for line in left_text.splitlines()),
                              *("  " + line for line in right_text.splitlines())])
            return {"node": label, "left": left_dict, "right": right_dict}, text
        if isinstance(node, (ast.Update, ast.Delete)):
            return self._explain_dml(node, user)
        if not isinstance(node, ast.Select):
            raise PlanningError(
                f"EXPLAIN requires a query, UPDATE or DELETE, "
                f"got {type(node).__name__}")
        if not node.from_tables:
            return {"node": "Result"}, "Result (constant SELECT)"
        table_refs = list(node.from_tables) + [join.table for join in node.joins]
        for ref in table_refs:
            self._check(user, "SELECT", ref.name)
        plan, _, remaining, order_hint = self._plan_select(node, table_refs)
        self.last_plan = plan
        self.last_sort_elided = False
        text = planlib.format_plan(plan)
        plan_dict = planlib.plan_to_dict(plan)
        if remaining:
            text += f"\nResidual filter: {len(remaining)} conjunct(s)"
        budget = self.config.memory_budget_rows
        has_aggregates = self._select_has_aggregates(node)
        if budget is not None:
            plan_dict["memory_budget_rows"] = budget
            if has_aggregates and node.group_by \
                    and plan.estimated_rows > budget:
                partitions = planlib.estimated_spill_partitions(
                    plan.estimated_rows, budget)
                text += f"\nAggregate [spill: {partitions} partitions]"
                plan_dict["aggregate_spill_partitions"] = partitions
            if has_aggregates and node.order_by:
                # The sort runs over the *grouped* output, so its spill
                # expectation uses the estimated group count, not the
                # aggregation input.
                grouped = self._estimated_group_rows(node, plan, table_refs)
                if grouped > budget:
                    runs = planlib.estimated_sort_runs(grouped, budget)
                    text += f"\nSort [external: {runs} runs]"
                    plan_dict["sort"] = "external"
        if node.order_by and not has_aggregates:
            elided = (order_hint is not None
                      and planlib.plan_delivered_order(
                          plan, self._order_through_hash()) == order_hint)
            self.last_sort_elided = elided
            if elided:
                qualifier, column, direction = order_hint
                text += (f"\nOrder: {qualifier}.{column} {direction.upper()}"
                         f" [sort: elided]")
                plan_dict["sort"] = "elided"
            elif budget is not None and plan.estimated_rows > budget:
                runs = planlib.estimated_sort_runs(plan.estimated_rows, budget)
                text += f"\nSort [external: {runs} runs]"
                plan_dict["sort"] = "external"
        return plan_dict, text

    def _explain_dml(self, statement: Union[ast.Update, ast.Delete],
                     user: str) -> Tuple[Dict[str, Any], str]:
        """``Update <table>`` / ``Delete <table>`` over the scan leaf that
        selects the statement's target rows — the very plan it executes."""
        verb = "UPDATE" if isinstance(statement, ast.Update) else "DELETE"
        self._reject_foreign_dml(statement.table, verb)
        self._check(user, verb, statement.table)
        table = self.catalog.table(statement.table)
        plan, remaining = self._plan_dml_target(ast.TableRef(statement.table),
                                                statement.where)
        label = verb.capitalize()
        text = f"{label} {table.name}\n{planlib.format_plan(plan, 1)}"
        if remaining:
            text += f"\nResidual filter: {len(remaining)} conjunct(s)"
        return {"node": label, "table": table.name,
                "input": planlib.plan_to_dict(plan)}, text

    def _estimated_group_rows(self, select: ast.Select,
                              plan: planlib.PlanNode,
                              table_refs: Sequence[ast.TableRef]) -> float:
        """Estimated cardinality of the grouped output of ``select``.

        The product of the group-key NDVs when every key is a plain column
        reference (capped at the input estimate); the input estimate when a
        key is an arbitrary expression; 1 for a global aggregate.
        """
        if not select.group_by:
            return 1.0
        statistics = self.catalog.statistics
        table_of = {ref.effective_name.lower(): ref.name for ref in table_refs}
        resolvable = self._resolvable_columns(table_refs)
        input_rows = max(plan.estimated_rows, 1.0)
        estimate = 1.0
        for expr in select.group_by:
            if not isinstance(expr, ast.ColumnRef):
                return input_rows
            qualifier = planlib.resolve_column(expr, resolvable)
            if qualifier is None:
                return input_rows
            table = table_of[qualifier]
            if self.foreign.has(table):
                distinct = self.foreign.distinct_estimate(table, expr.name)
                if distinct is None:
                    return input_rows
            else:
                distinct = statistics.distinct_estimate(table, expr.name)
            estimate *= max(1.0, float(distinct))
        return min(estimate, input_rows)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, statement: ast.CreateTable, user: str) -> ExecutionSummary:
        self._check_admin(user, "create tables")
        if self.foreign.has(statement.name):
            raise CatalogError(
                f"cannot create table {statement.name!r}: an attached "
                f"foreign table with that name exists")
        columns = [
            Column(
                name=definition.name,
                dtype=DataType.from_name(definition.type_name),
                nullable=definition.nullable,
                primary_key=definition.primary_key,
                default=definition.default,
            )
            for definition in statement.columns
        ]
        self.catalog.create_table(TableSchema(statement.name, columns))
        return ExecutionSummary("CREATE TABLE", message=f"table {statement.name} created")

    def _drop_table(self, statement: ast.DropTable, user: str) -> ExecutionSummary:
        self._check_admin(user, "drop tables")
        self.annotations.drop_all_for(statement.name)
        self.indexes.drop_indexes_for(statement.name)
        self.catalog.drop_table(statement.name)
        return ExecutionSummary("DROP TABLE", message=f"table {statement.name} dropped")

    def _create_index(self, statement: ast.CreateIndex, user: str) -> ExecutionSummary:
        self._check_admin(user, "create indexes")
        self.indexes.create_index(statement.name, statement.table,
                                  statement.columns, statement.method)
        return ExecutionSummary(
            "CREATE INDEX",
            message=f"index {statement.name} ({statement.method}) created on "
                    f"{statement.table}({', '.join(statement.columns)})",
        )

    def _drop_index(self, statement: ast.DropIndex, user: str) -> ExecutionSummary:
        self._check_admin(user, "drop indexes")
        self.indexes.drop_index(statement.name)
        return ExecutionSummary("DROP INDEX", message=f"index {statement.name} dropped")

    # ------------------------------------------------------------------
    # Foreign tables (ATTACH / DETACH)
    # ------------------------------------------------------------------
    def _attach(self, statement: ast.Attach, user: str) -> ExecutionSummary:
        self._check_admin(user, "attach foreign tables")
        entry = self.foreign.attach(statement.name, statement.uri,
                                    statement.provider_type, statement.options)
        return ExecutionSummary(
            "ATTACH",
            message=f"foreign table {entry.name} attached "
                    f"[provider: {entry.provider_type}] from {entry.uri}",
            details={"table": entry.describe()},
        )

    def _detach(self, statement: ast.Detach, user: str) -> ExecutionSummary:
        self._check_admin(user, "detach foreign tables")
        try:
            self.foreign.detach(statement.name)
        except CatalogError:
            if statement.if_exists:
                return ExecutionSummary(
                    "DETACH",
                    message=f"foreign table {statement.name} was not attached")
            raise
        return ExecutionSummary(
            "DETACH", message=f"foreign table {statement.name} detached")

    def _reject_foreign_dml(self, table: str, verb: str) -> None:
        """Foreign tables are read-only through SQL for now.

        Providers may advertise ``supports_write`` for direct API use; the
        DML path would additionally need journaling and index/annotation
        bookkeeping the foreign subsystem deliberately does not fake.
        """
        if self.foreign.has(table):
            raise OperationalError(
                f"{verb} on foreign table {table!r} is not supported; "
                f"attached foreign tables are read-only")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _literal_evaluator(self) -> Evaluator:
        return Evaluator(OutputSchema([]))

    def _insert(self, statement: ast.Insert, user: str) -> ExecutionSummary:
        self._reject_foreign_dml(statement.table, "INSERT")
        self._check(user, "INSERT", statement.table)
        table = self.catalog.table(statement.table)
        names = table.schema.column_names
        evaluator = self._literal_evaluator()
        empty = Row(())
        inserted: List[int] = []
        logged: List[int] = []
        for row_exprs in statement.rows:
            values = [evaluator.compile(expr)(empty) for expr in row_exprs]
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise ExecutionError(
                        "INSERT column list and VALUES arity do not match"
                    )
                row_dict = dict(zip(statement.columns, values))
                tuple_id = table.insert_row(row_dict)
                stored = dict(zip(names, table.read_row(tuple_id)))
            else:
                tuple_id = table.insert_positional(values)
                row_dict = stored = dict(zip(names, table.read_row(tuple_id)))
            inserted.append(tuple_id)
            self.indexes.on_insert(table.name, tuple_id, stored)
            operation = self.approval.log_insert(user, table.name, tuple_id, row_dict)
            if operation is not None:
                logged.append(operation.op_id)
            if self.config.auto_provenance:
                cells = {(tuple_id, pos) for pos in range(len(table.schema))}
                self.provenance.record(table.name, cells, source="local",
                                       operation="insert", agent="system", user=user)
        self.catalog.statistics.on_insert(table.name, len(inserted))
        return ExecutionSummary(
            "INSERT", rows_affected=len(inserted),
            details={"tuple_ids": inserted, "logged_operations": logged},
        )

    def _plan_dml_target(self, ref: ast.TableRef,
                         where: Optional[ast.Expression],
                         ) -> Tuple[planlib.ScanPlan, List[ast.Expression]]:
        """The scan leaf (and unpushed conjuncts) selecting a DML target.

        Plans ``SELECT * FROM ref WHERE where`` with the SELECT planner, so
        DML gets exactly the access path a query would.  The plan is not
        cached: a DML statement is bound before it executes, so its keys are
        literals that differ per execution, and a one-leaf plan is cheap.
        """
        select = ast.Select([ast.SelectItem(ast.Star())], [ref], where=where)
        plan, _pushed, remaining, _order = self._plan_select(select, [ref])
        return plan, remaining

    def _matching_tuples(self, ref: ast.TableRef,
                         where: Optional[ast.Expression],
                         ) -> Tuple[OutputSchema, List[Tuple[int, Row]]]:
        """The ``(tuple_id, row)`` pairs of ``ref``'s table matching ``where``.

        Rows come from the planned scan leaf (index lookup, index range, or
        a page-at-a-time sequential scan) with the full WHERE re-applied on
        top.  They are materialised and sorted by tuple id before the caller
        mutates anything: the statement's effects then run in the same order
        whatever the access path, and a SET that moves an indexed key cannot
        revisit a row (the Halloween problem).  Rows lead with the
        ``__tid__`` pseudo-column and carry no annotations; the returned
        schema describes them.
        """
        source = ops.TableRowSource(self.catalog.table(ref.name),
                                    ref.effective_name, include_tuple_id=True)
        keep = (Evaluator(source.schema).compile(where)
                if where is not None else None)
        plan, _ = self._plan_dml_target(ref, where)
        _, rows = ops.materialize(self._leaf_relation(source, plan,
                                                      batched=True))
        matches = [(row.values[0], row) for row in rows
                   if keep is None or predicate_is_true(keep(row))]
        matches.sort(key=itemgetter(0))
        return source.schema, matches

    def _update(self, statement: ast.Update, user: str) -> ExecutionSummary:
        self._reject_foreign_dml(statement.table, "UPDATE")
        self._check(user, "UPDATE", statement.table)
        table = self.catalog.table(statement.table)
        names = table.schema.column_names
        schema, matches = self._matching_tuples(ast.TableRef(statement.table),
                                                statement.where)
        evaluator = Evaluator(schema)
        compiled = [(column, evaluator.compile(expr))
                    for column, expr in statement.assignments]
        impact = UpdateImpact()
        logged: List[int] = []
        # A matched row's image is current until a dependency cascade writes
        # this table (a rule chain can lead back to a later target); from
        # then on the old image is re-read.
        cascaded = False
        for tuple_id, row in matches:
            old_row = dict(zip(names, table.read_row(tuple_id) if cascaded
                               else row.values[1:]))
            changes = {column: evaluate(row) for column, evaluate in compiled}
            new_values = table.update_row(tuple_id, changes)
            written = table.data_version
            self.indexes.on_update(table.name, tuple_id, old_row,
                                   dict(zip(names, new_values)))
            old_subset = {column: old_row[table.schema.column(column).name]
                          if table.schema.column(column).name in old_row
                          else old_row.get(column)
                          for column in changes}
            operation = self.approval.log_update(user, table.name, tuple_id,
                                                 old_subset, changes)
            if operation is not None:
                logged.append(operation.op_id)
            impact.merge(self.tracker.handle_update(table.name, tuple_id,
                                                    list(changes)))
            cascaded = cascaded or table.data_version != written
        self.catalog.statistics.on_update(table.name, len(matches))
        return ExecutionSummary(
            "UPDATE", rows_affected=len(matches),
            details={
                "tuple_ids": [tuple_id for tuple_id, _ in matches],
                "changed_columns": [column for column, _ in statement.assignments],
                "logged_operations": logged,
                "recomputed": impact.recomputed,
                "marked_outdated": impact.marked_outdated,
            },
        )

    def _delete(self, statement: ast.Delete, user: str) -> ExecutionSummary:
        self._reject_foreign_dml(statement.table, "DELETE")
        self._check(user, "DELETE", statement.table)
        table = self.catalog.table(statement.table)
        _, matches = self._matching_tuples(ast.TableRef(statement.table),
                                           statement.where)
        impact = UpdateImpact()
        logged: List[int] = []
        deleted_rows: List[Dict[str, Any]] = []
        for tuple_id, _ in matches:
            # Deletion cascades only mark cells outdated, so the row read by
            # delete_row is the one the statement matched.
            impact.merge(self.tracker.handle_delete(table.name, tuple_id))
            old_row = dict(zip(table.schema.column_names,
                               table.delete_row(tuple_id)))
            self.indexes.on_delete(table.name, tuple_id, old_row)
            deleted_rows.append(old_row)
            operation = self.approval.log_delete(user, table.name, tuple_id, old_row)
            if operation is not None:
                logged.append(operation.op_id)
        self.catalog.statistics.on_delete(table.name, len(matches))
        return ExecutionSummary(
            "DELETE", rows_affected=len(matches),
            details={
                "tuple_ids": [tuple_id for tuple_id, _ in matches],
                "deleted_rows": deleted_rows,
                "logged_operations": logged,
                "marked_outdated": impact.marked_outdated,
            },
        )

    # ------------------------------------------------------------------
    # A-SQL: annotation DDL and DML
    # ------------------------------------------------------------------
    def _create_annotation_table(self, statement: ast.CreateAnnotationTable,
                                 user: str) -> ExecutionSummary:
        self._check(user, "ANNOTATE", statement.on_table)
        self.annotations.create_annotation_table(
            statement.on_table, statement.annotation_table,
            scheme=self.config.default_annotation_scheme,
        )
        return ExecutionSummary(
            "CREATE ANNOTATION TABLE",
            message=f"annotation table {statement.on_table}.{statement.annotation_table} created",
        )

    def _drop_annotation_table(self, statement: ast.DropAnnotationTable,
                               user: str) -> ExecutionSummary:
        self._check(user, "ANNOTATE", statement.on_table)
        self.annotations.drop_annotation_table(statement.on_table,
                                               statement.annotation_table)
        return ExecutionSummary(
            "DROP ANNOTATION TABLE",
            message=f"annotation table {statement.on_table}.{statement.annotation_table} dropped",
        )

    def _target_cells_from_select(self, select: ast.Select) -> Tuple[str, Set[Cell]]:
        """Resolve the (user table, cells) an ADD/ARCHIVE/RESTORE target selects.

        The enclosed SELECT must reference a single user table; the projected
        columns determine the column granularity (``*`` selects whole tuples,
        an explicit list selects those columns only), and the WHERE clause
        determines which tuples are covered (no WHERE covers the whole table,
        as in the paper's GSequence-column example).
        """
        if len(select.from_tables) != 1 or select.joins:
            raise AnnotationError(
                "the ON <statement> of an annotation command must select from "
                "exactly one user table"
            )
        if select.group_by or select.having:
            raise AnnotationError(
                "the ON <statement> of an annotation command cannot use GROUP BY"
            )
        ref = select.from_tables[0]
        table = self.catalog.table(ref.name)
        schema = table.schema
        # Which columns does the projection cover?
        positions: List[int] = []
        for item in select.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                positions = list(range(len(schema)))
                break
            if isinstance(expr, ast.ColumnRef):
                positions.append(schema.column_position(expr.name))
            else:
                raise AnnotationError(
                    "annotation targets must project plain columns or *"
                )
        _, matches = self._matching_tuples(ref, select.where)
        cells = {(tuple_id, position) for tuple_id, _ in matches for position in positions}
        return table.name, cells

    def _add_annotation(self, statement: ast.AddAnnotation, user: str) -> ExecutionSummary:
        target = statement.target
        if isinstance(target, ast.Select):
            user_table, cells = self._target_cells_from_select(target)
            dml_summary = None
        elif isinstance(target, (ast.Insert, ast.Update)):
            dml_summary = self.execute(target, user)
            user_table = target.table
            table = self.catalog.table(user_table)
            tuple_ids = dml_summary.details.get("tuple_ids", [])
            if isinstance(target, ast.Update):
                columns = dml_summary.details.get("changed_columns", [])
                positions = [table.schema.column_position(c) for c in columns]
            else:
                positions = list(range(len(table.schema)))
            cells = {(tuple_id, position) for tuple_id in tuple_ids for position in positions}
        elif isinstance(target, ast.Delete):
            # Deleted tuples are preserved in a log table together with the
            # annotation explaining the deletion (paper Section 3.2).
            return self._annotate_delete(statement, target, user)
        else:
            raise AnnotationError(
                "ADD ANNOTATION requires a SELECT, INSERT, UPDATE or DELETE target"
            )
        self._check(user, "ANNOTATE", user_table)
        added = self.annotations.add_annotation(
            statement.annotation_tables, statement.body, cells,
            curator=user, user_table=user_table,
        )
        summary = ExecutionSummary(
            "ADD ANNOTATION", rows_affected=len(added),
            message=f"annotation added to {len(cells)} cell(s) of {user_table}",
            details={"annotations": added, "cells": sorted(cells)},
        )
        if dml_summary is not None:
            summary.details["dml"] = dml_summary
        return summary

    def _annotate_delete(self, statement: ast.AddAnnotation, target: ast.Delete,
                         user: str) -> ExecutionSummary:
        table = self.catalog.table(target.table)
        log_table_name = f"{table.name}__deleted"
        if not self.catalog.has_table(log_table_name):
            columns = [
                Column(column.name, column.dtype, nullable=True, primary_key=False)
                for column in table.schema.columns
            ]
            self.catalog.create_table(TableSchema(log_table_name, columns))
        log_table = self.catalog.table(log_table_name)
        summary = self._delete(target, user)
        new_tuple_ids = []
        for row in summary.details["deleted_rows"]:
            new_tuple_ids.append(log_table.insert_row(row))
        # The annotation explaining the deletion is attached to the logged rows.
        for spec in statement.annotation_tables:
            name = spec.split(".")[-1]
            if not self.annotations.has(log_table_name, name):
                self.annotations.create_annotation_table(
                    log_table_name, name,
                    scheme=self.config.default_annotation_scheme,
                )
        cells = {(tuple_id, position)
                 for tuple_id in new_tuple_ids
                 for position in range(len(log_table.schema))}
        added = []
        if cells:
            added = self.annotations.add_annotation(
                [spec.split(".")[-1] for spec in statement.annotation_tables],
                statement.body, cells, curator=user, user_table=log_table_name,
            )
        return ExecutionSummary(
            "ADD ANNOTATION", rows_affected=summary.rows_affected,
            message=(f"{summary.rows_affected} tuple(s) deleted from {table.name}; "
                     f"logged to {log_table_name} with annotation"),
            details={"dml": summary, "annotations": added,
                     "log_table": log_table_name},
        )

    def _archive_restore(self, statement: Any, user: str, archive: bool) -> ExecutionSummary:
        if not isinstance(statement.target, ast.Select):
            raise AnnotationError(
                "ARCHIVE/RESTORE ANNOTATION requires a SELECT target"
            )
        user_table, cells = self._target_cells_from_select(statement.target)
        self._check(user, "ANNOTATE", user_table)
        time_from = parse_timestamp(statement.time_from) if statement.time_from else None
        time_to = parse_timestamp(statement.time_to) if statement.time_to else None
        if archive:
            changed = self.annotations.archive(statement.annotation_tables, cells,
                                               time_from, time_to, user_table)
            verb = "archived"
        else:
            changed = self.annotations.restore(statement.annotation_tables, cells,
                                               time_from, time_to, user_table)
            verb = "restored"
        return ExecutionSummary(
            "ARCHIVE ANNOTATION" if archive else "RESTORE ANNOTATION",
            rows_affected=len(changed),
            message=f"{len(changed)} annotation(s) {verb}",
            details={"annotations": changed},
        )

    # ------------------------------------------------------------------
    # Authorization statements
    # ------------------------------------------------------------------
    def _grant(self, statement: ast.Grant, user: str) -> ExecutionSummary:
        self._check_admin(user, "grant privileges")
        records = self.access.grant(statement.privileges, statement.table,
                                    statement.grantee)
        self.transactions.note_grant(statement.privileges, statement.table,
                                     statement.grantee)
        return ExecutionSummary(
            "GRANT", rows_affected=len(records),
            message=f"granted {', '.join(statement.privileges)} on "
                    f"{statement.table} to {statement.grantee}",
        )

    def _revoke(self, statement: ast.Revoke, user: str) -> ExecutionSummary:
        self._check_admin(user, "revoke privileges")
        removed = self.access.revoke(statement.privileges, statement.table,
                                     statement.grantee)
        self.transactions.note_revoke(statement.privileges, statement.table,
                                      statement.grantee)
        return ExecutionSummary(
            "REVOKE", rows_affected=removed,
            message=f"revoked {', '.join(statement.privileges)} on "
                    f"{statement.table} from {statement.grantee}",
        )

    def _start_approval(self, statement: ast.StartContentApproval,
                        user: str) -> ExecutionSummary:
        self._check_admin(user, "start content approval")
        config = self.approval.start_approval(statement.table, statement.approver,
                                              statement.columns)
        scope = ", ".join(config.columns) if config.columns else "all columns"
        return ExecutionSummary(
            "START CONTENT APPROVAL",
            message=f"content approval ON for {config.table} ({scope}), "
                    f"approved by {config.approver}",
        )

    def _stop_approval(self, statement: ast.StopContentApproval,
                       user: str) -> ExecutionSummary:
        self._check_admin(user, "stop content approval")
        self.approval.stop_approval(statement.table, statement.columns)
        return ExecutionSummary(
            "STOP CONTENT APPROVAL",
            message=f"content approval OFF for {statement.table}",
        )
