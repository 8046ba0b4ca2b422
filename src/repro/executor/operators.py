"""Streaming physical operators with annotation-aware propagation semantics.

The executor is Volcano-style: every operator takes and returns a
``Relation = (OutputSchema, Iterable[Row])`` pair whose row part is a *lazy*
iterator.  Operators do their setup work (schema derivation, expression
compilation, error checking) eagerly when called, but only touch rows when the
consumer pulls them, so a ``LIMIT`` above a pipeline of streaming operators
stops pulling — and therefore stops scanning — as soon as it is satisfied.

Pipeline breakers (sort, GROUP BY/aggregation, duplicate elimination, the
build side of hash joins, both inputs of a merge join, the inner side of a
nested loop, and the set operations) materialize *internally* but still expose
the iterator interface.  ``materialize`` converts any relation back to the
``(schema, list[Row])`` form for callers that need random access.

The propagation rules follow Section 3.4 of the paper:

* **scan** attaches to each column the annotations of that cell (from the
  propagation index of the requested annotation tables) plus any system
  status annotations for outdated cells;
* **selection** (WHERE/HAVING) passes qualifying tuples *with all their
  annotations*;
* **projection** passes only the annotations attached to the projected
  attributes; the ``PROMOTE`` clause additionally copies annotations from
  other columns onto a projected column;
* **duplicate elimination, GROUP BY, UNION, INTERSECT, EXCEPT** union the
  annotations of the tuples they combine and attach them to the output tuple;
* **AWHERE / AHAVING** pass a tuple only if some annotation satisfies the
  condition; **FILTER** keeps all tuples but drops non-matching annotations.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.catalog.table import Table
from repro.core.errors import ExecutionError, PlanningError
from repro.executor.row import (
    BatchedRows,
    ColumnInfo,
    OutputSchema,
    Row,
    RowBatch,
    batch_from_entries,
    concat_annotation_vectors,
    merge_annotation_vectors,
)
from repro.storage.spill import MAX_SPILL_DEPTH, SpillFile, SpillManager
from repro.planner.expressions import (
    AggregateState,
    AnnotationPredicate,
    BatchFilter,
    Evaluator,
    find_aggregates,
    predicate_is_true,
)
from repro.planner.planner import referenced_columns, split_conjuncts
from repro.sql import ast
from repro.types.values import ReverseSortKey, SortKey

#: A relation flowing between operators: an output schema plus a row
#: iterable.  Streaming operators produce one-shot generators; consumers that
#: need to iterate twice must ``materialize`` first.
Relation = Tuple[OutputSchema, Iterable[Row]]


def materialize(relation: Relation) -> Tuple[OutputSchema, List[Row]]:
    """Drain a relation's iterator into a concrete ``(schema, list)`` pair."""
    schema, rows = relation
    if isinstance(rows, BatchedRows):
        out: List[Row] = []
        for batch in rows.batches:
            out.extend(batch.to_rows())
        return schema, out
    return schema, rows if isinstance(rows, list) else list(rows)


def _as_list(rows: Iterable[Row]) -> List[Row]:
    return rows if isinstance(rows, list) else list(rows)


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------
class TableRowSource:
    """Annotation-attaching access to one stored table.

    Encapsulates the per-cell annotation machinery shared by full scans and
    by point fetches (index scans and the lookup side of index-nested-loop
    joins): ``propagation_index`` is a
    :class:`~repro.annotations.manager.PropagationIndex` (or ``None`` for an
    unannotated scan); ``status_annotations`` maps (tuple id, column position)
    to the synthetic outdated-status annotations from the dependency tracker.
    ``include_tuple_id`` exposes the tuple id as a leading pseudo-column named
    ``__tid__`` (used internally by DML and ADD ANNOTATION target resolution).
    """

    def __init__(self, table: Table, qualifier: str,
                 propagation_index=None,
                 status_annotations: Optional[Dict[Tuple[int, int], Any]] = None,
                 include_tuple_id: bool = False):
        self.table = table
        self.qualifier = qualifier
        self.propagation_index = propagation_index
        self.status_annotations = status_annotations
        self.include_tuple_id = include_tuple_id
        self._names = table.schema.column_names
        columns = [ColumnInfo(name, qualifier) for name in self._names]
        if include_tuple_id:
            columns = [ColumnInfo("__tid__", qualifier)] + columns
        self.schema = OutputSchema(columns)

    def make_row(self, tuple_id: int, values: Sequence[Any]) -> Row:
        if not self.attaches_annotations():
            if self.include_tuple_id:
                return Row((tuple_id,) + tuple(values))
            return Row(tuple(values))
        annotations = self.annotation_vector(tuple_id, len(self._names))
        if self.include_tuple_id:
            values = (tuple_id,) + tuple(values)
            annotations = [set()] + annotations
        return Row(tuple(values), annotations)

    def fetch(self, tuple_id: int) -> Optional[Row]:
        """The annotated row with this tuple id, or ``None`` if it is gone."""
        if not self.table.has_tuple(tuple_id):
            return None
        return self.make_row(tuple_id, self.table.read_row(tuple_id))

    def iter_rows(self) -> Iterator[Row]:
        for tuple_id, values in self.table.scan():
            yield self.make_row(tuple_id, values)

    def relation(self) -> Relation:
        return self.schema, self.iter_rows()

    # -- batched access -------------------------------------------------
    def attaches_annotations(self) -> bool:
        """True when scans must build per-cell annotation vectors."""
        return ((self.propagation_index is not None
                 and not self.propagation_index.is_empty())
                or bool(self.status_annotations))

    def annotation_vector(self, tuple_id: int, arity: int) -> List[Set[Any]]:
        if self.propagation_index is not None:
            annotations = self.propagation_index.vector(tuple_id, arity)
        else:
            annotations = [set() for _ in range(arity)]
        if self.status_annotations:
            for position in range(arity):
                status = self.status_annotations.get((tuple_id, position))
                if status is not None:
                    annotations[position].add(status)
        return annotations

    def iter_batches(self, batch_size: int,
                     max_rows: Optional[int] = None) -> Iterator[RowBatch]:
        """RowBatch stream in tuple-id order with a progressive size ramp.

        Batches start at one row and double up to ``batch_size`` (capped in
        steady state at the decoded page size, which lets whole pages flow
        through without a re-chunking copy), so an early-stopping consumer
        (LIMIT, ``Database.stream``) over-scans at most one row beyond what
        it pulls at the start of the ramp, while a full scan amortizes
        per-batch costs across the whole page.  ``max_rows`` is the engine's
        limit pushdown: production stops for good once that many rows have
        been emitted.
        """
        annotated = self.attaches_annotations()
        with_tid = self.include_tuple_id
        arity = len(self._names)
        target = 1
        produced = 0

        def emit(rows: List[Any]) -> RowBatch:
            if with_tid:
                values = [(tuple_id,) + row for tuple_id, row in rows]
                if not annotated:
                    return RowBatch(values)
                return RowBatch(values,
                                [[set()] + self.annotation_vector(tuple_id, arity)
                                 for tuple_id, _ in rows])
            if annotated:
                return RowBatch([values for _, values in rows],
                                [self.annotation_vector(tuple_id, arity)
                                 for tuple_id, _ in rows])
            return RowBatch(rows)

        for page_rows in self.table.scan_batches(
                with_tuple_ids=annotated or with_tid):
            if max_rows is not None:
                budget = max_rows - produced
                if budget <= 0:
                    return
                if len(page_rows) > budget:
                    page_rows = page_rows[:budget]
            start = 0
            total = len(page_rows)
            while start < total:
                if start == 0 and target >= total:
                    # Whole decoded page passes through as one batch — the
                    # steady state, with no re-chunking copy at all.
                    chunk = page_rows
                    start = total
                else:
                    chunk = page_rows[start:start + target]
                    start += len(chunk)
                yield emit(chunk)
                produced += len(chunk)
                target = min(target * 2, batch_size)
            if max_rows is not None and produced >= max_rows:
                return

    def batched_relation(self, batch_size: int,
                         max_rows: Optional[int] = None) -> Relation:
        return self.schema, BatchedRows(self.iter_batches(batch_size, max_rows))


def index_scan(source: TableRowSource, index: Any, key: Any) -> Relation:
    """Index-backed scan: fetch only the tuples whose indexed key equals ``key``.

    ``index`` is any structure with ``search(key) -> list[tuple_id]`` (B+-tree
    or hash index).  When the key is incomparable with the indexed values
    (cross-type literal), the scan degrades to a full sequential scan so that
    the pushed predicate — which the engine always applies on top — decides.
    """
    def rows() -> Iterator[Row]:
        try:
            tuple_ids = list(index.search(key))
        except TypeError:
            yield from source.iter_rows()
            return
        for tuple_id in tuple_ids:
            row = source.fetch(tuple_id)
            if row is not None:
                yield row
    return source.schema, rows()


def index_range_scan(source: TableRowSource, index: Any,
                     low: Any = None, high: Any = None,
                     include_low: bool = True, include_high: bool = True,
                     batch_size: Optional[int] = None,
                     order_position: Optional[int] = None,
                     descending: bool = False) -> Relation:
    """B-tree range scan: fetch tuples whose key falls inside [low, high].

    Rows come back in *index-key order* — the property the planner's sort
    elision relies on; ``descending`` traverses the tree in reverse for
    ``ORDER BY ... DESC``.  The bounds are advisory for correctness: the
    engine always re-applies the full pushed conjunct list on top, so a wider
    range never produces wrong answers.  When the bounds cannot be compared
    with the indexed keys (cross-type value that slipped past planning, a
    NULL or NaN bound arriving from a parameter at bind time) the scan
    degrades to a full sequential scan before yielding anything, and the
    pushed predicate decides; ``order_position`` — the key column's position,
    supplied when the engine elided a sort against this scan — makes that
    fallback re-sort, so the ordering contract survives degradation.  With
    ``batch_size`` the fetched rows are chunked into a :class:`RowBatch`
    stream for the vectorized pipeline.
    """
    def fallback_rows() -> Iterator[Row]:
        if order_position is None:
            yield from source.iter_rows()
            return
        rows = list(source.iter_rows())
        rows.sort(key=lambda row: SortKey(row.values[order_position]),
                  reverse=descending)
        yield from rows

    def unsafe_bound(value: Any) -> bool:
        # NULL and NaN bounds never reach the B-tree bisect: NULL cannot be
        # compared, and NaN-keyed rows are excluded from the structure while
        # the engine's comparison semantics may still match them — the
        # filtered sequential fallback keeps both consistent.
        return value is not None and isinstance(value, float) and value != value

    def fetched() -> Iterator[Row]:
        if unsafe_bound(low) or unsafe_bound(high):
            yield from fallback_rows()
            return
        iterator = (index.iter_range_desc(low, high, include_low, include_high)
                    if descending
                    else index.iter_range(low, high, include_low, include_high))
        try:
            first = next(iterator)
        except StopIteration:
            return
        except TypeError:
            yield from fallback_rows()
            return
        for _key, tuple_id in chain([first], iterator):
            row = source.fetch(tuple_id)
            if row is not None:
                yield row

    if batch_size is None:
        return source.schema, fetched()
    return source.schema, BatchedRows(rebatch(fetched(), batch_size))


# ---------------------------------------------------------------------------
# Batching adapters
# ---------------------------------------------------------------------------
def rebatch(rows: Iterable[Row], batch_size: int) -> Iterator[RowBatch]:
    """Chunk a row stream into progressively growing batches (lazy)."""
    iterator = iter(rows)
    target = 1
    while True:
        buffered = list(islice(iterator, target))
        if not buffered:
            return
        yield RowBatch.from_rows(buffered)
        target = min(target * 2, batch_size)


def ensure_batched(relation: Relation, batch_size: int) -> Relation:
    """Wrap a row relation in batches; no-op when it already flows batched.

    This is how pipeline breakers *produce* batches at their boundary: their
    row output is re-chunked so downstream vectorized operators (filters over
    join outputs, projections, LIMIT) stay on the batch path.
    """
    schema, rows = relation
    if isinstance(rows, BatchedRows):
        return relation
    return schema, BatchedRows(rebatch(rows, batch_size))


# ---------------------------------------------------------------------------
# Selection (data predicates)
# ---------------------------------------------------------------------------
def filter_rows(relation: Relation, predicate: ast.Expression) -> Relation:
    schema, rows = relation
    if isinstance(rows, BatchedRows):
        return _filter_batches(schema, rows, predicate)
    evaluate = Evaluator(schema).compile(predicate)

    def kept() -> Iterator[Row]:
        for row in rows:
            if predicate_is_true(evaluate(row)):
                yield row
    return schema, kept()


class FilteredBatchedRows(BatchedRows):
    """A lazily filtered batch stream that downstream operators can fuse.

    Iterating (or reading ``.batches``) applies the filter batch by batch,
    so any consumer sees the filtered relation.  A vectorized projection
    directly above instead grabs ``source``/``batch_filter`` and compiles
    filter + projection into a *single* generated comprehension — one pass
    over the batch, no intermediate kept-row list.
    """

    __slots__ = ("source", "batch_filter")

    def __init__(self, source: BatchedRows, batch_filter: BatchFilter):
        self.source = source
        self.batch_filter = batch_filter
        super().__init__(self._filtered())

    def _filtered(self) -> Iterator[RowBatch]:
        batch_filter = self.batch_filter
        for batch in self.source.batches:
            if batch.annotations is None:
                kept = batch_filter.keep_values(batch.values)
                if kept:
                    yield RowBatch(kept)
                continue
            filtered = _apply_mask(batch, batch_filter.mask(batch.values))
            if filtered is not None:
                yield filtered


def _apply_mask(batch: RowBatch, mask: List[bool]) -> Optional[RowBatch]:
    values = [v for v, keep in zip(batch.values, mask) if keep]
    if not values:
        return None
    annotations = None
    if batch.annotations is not None:
        annotations = [a for a, keep in zip(batch.annotations, mask) if keep]
    return RowBatch(values, annotations)


def _filter_batches(schema: OutputSchema, rows: BatchedRows,
                    predicate: ast.Expression) -> Relation:
    """Vectorized selection: one fused predicate pass per batch."""
    batch_filter = BatchFilter(schema, split_conjuncts(predicate))
    return schema, FilteredBatchedRows(rows, batch_filter)


# ---------------------------------------------------------------------------
# Annotation predicates (AWHERE / FILTER)
# ---------------------------------------------------------------------------
def awhere_filter(relation: Relation, condition: ast.Expression) -> Relation:
    """Pass a tuple (with all its annotations) when any annotation matches."""
    schema, rows = relation
    predicate = AnnotationPredicate(condition)

    def kept() -> Iterator[Row]:
        for row in rows:
            if any(predicate.matches(annotation)
                   for annotation in row.all_annotations()):
                yield row
    return schema, kept()


def filter_annotations(relation: Relation, condition: ast.Expression) -> Relation:
    """Keep every tuple but drop annotations that do not match the condition."""
    schema, rows = relation
    predicate = AnnotationPredicate(condition)

    def filtered() -> Iterator[Row]:
        for row in rows:
            new_annotations = [
                {annotation for annotation in anns if predicate.matches(annotation)}
                for anns in row.annotations
            ]
            yield Row(row.values, new_annotations)
    return schema, filtered()


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------
def cross_join(left: Relation, right: Relation) -> Relation:
    left_schema, left_rows = left
    right_schema, right_rows = right
    schema = left_schema.concat(right_schema)

    def rows() -> Iterator[Row]:
        inner = _as_list(right_rows)
        for left_row in left_rows:
            for right_row in inner:
                yield left_row.concat(right_row)
    return schema, rows()


def nested_loop_join(left: Relation, right: Relation,
                     condition: Optional[ast.Expression],
                     join_type: str = "INNER") -> Relation:
    """Nested-loop join; supports INNER, CROSS, and LEFT outer joins.

    The inner (right) side is materialized internally and re-iterated per
    outer row; the outer side streams.
    """
    left_schema, left_rows = left
    right_schema, right_rows = right
    schema = left_schema.concat(right_schema)
    evaluate = None
    if condition is not None:
        evaluate = Evaluator(schema).compile(condition)
    right_arity = len(right_schema)

    def rows() -> Iterator[Row]:
        inner = _as_list(right_rows)
        for left_row in left_rows:
            matched = False
            for right_row in inner:
                combined = left_row.concat(right_row)
                if evaluate is None or predicate_is_true(evaluate(combined)):
                    yield combined
                    matched = True
            if join_type == "LEFT" and not matched:
                yield left_row.concat(Row(tuple([None] * right_arity)))
    return schema, rows()


def _compile_keys(schema: OutputSchema,
                  keys: Sequence[ast.ColumnRef]) -> List[Callable[[Row], Any]]:
    evaluator = Evaluator(schema)
    return [evaluator.compile(key) for key in keys]


#: Canonical stand-in for NaN hash keys.  Python's ``dict`` treats distinct
#: NaN objects as unequal, but ``compare_values`` orders NaN equal to itself,
#: so the hash join must bucket all NaNs together to match the other
#: strategies.
_NAN_KEY = object()


def _hash_key(value: Any) -> Any:
    if isinstance(value, float) and value != value:
        return _NAN_KEY
    return value


#: Per-row entry flowing through the batched join internals: a value tuple
#: plus its annotation vector (or ``None`` — the unannotated fast path).
_Entry = Tuple[Tuple[Any, ...], Optional[List[Set[Any]]]]


#: Rows per chunk when adapting a row/entry stream to the batched shape.
_ENTRY_CHUNK_ROWS = 1024


def _chunk_entries(entries: Iterable[_Entry],
                   chunk_rows: int = _ENTRY_CHUNK_ROWS
                   ) -> Iterator[Tuple[List[Tuple[Any, ...]],
                                       Optional[List[Any]]]]:
    """Chunk an entry stream into ``(values_list, annotations_list | None)``
    pairs — the shape the batched build/probe loops consume.  Annotation
    lists may contain ``None`` entries for unannotated rows."""
    iterator = iter(entries)
    while True:
        chunk = list(islice(iterator, chunk_rows))
        if not chunk:
            return
        values = [entry[0] for entry in chunk]
        if any(entry[1] is not None for entry in chunk):
            yield values, [entry[1] for entry in chunk]
        else:
            yield values, None


def _as_entry_batches(rows: Iterable[Row]
                      ) -> Iterator[Tuple[List[Tuple[Any, ...]],
                                          Optional[List[Any]]]]:
    """``(values_list, annotations_list | None)`` chunks from any row input.

    Batched inputs pass their batches through untouched (no per-row ``Row``
    allocation); row iterators chunk through :func:`_chunk_entries`.
    """
    if isinstance(rows, BatchedRows):
        for batch in rows.batches:
            yield batch.values, batch.annotations
        return
    yield from _chunk_entries((row.values, row._annotations) for row in rows)


class _HashJoin:
    """Batched hash-join core with Grace-style spilling.

    The build side inserts per batch into ``{key: [(values, annotations)]}``;
    the probe side emits matched *batches*.  When a :class:`SpillManager`
    budget is exceeded during the build, both sides are partitioned on the
    key hash into temp files and each partition pair is joined independently
    (recursing with a re-salted hash on partitions that still exceed the
    budget, up to :data:`MAX_SPILL_DEPTH`).

    One refinement on the classic Grace scheme — **hybrid**: partition 0 of
    the build side stays resident in memory (it is already decoded when the
    spill triggers), so its probe rows join immediately instead of taking a
    disk round trip.  If partition 0 alone outgrows the budget it is demoted
    to disk like the others.
    """

    def __init__(self, left_schema: OutputSchema, right_schema: OutputSchema,
                 schema: OutputSchema,
                 left_keys: Sequence[ast.ColumnRef],
                 right_keys: Sequence[ast.ColumnRef],
                 join_type: str, condition: Optional[ast.Expression],
                 spill: Optional[SpillManager],
                 spill_partitions: Optional[int]):
        self.build_keys = [Evaluator(right_schema).compile_values(key)
                           for key in right_keys]
        self.probe_keys = [Evaluator(left_schema).compile_values(key)
                           for key in left_keys]
        self.residual = (Evaluator(schema).compile_values(condition)
                         if condition is not None else None)
        self.left_arity = len(left_schema)
        self.right_arity = len(right_schema)
        self.arity = self.left_arity + self.right_arity
        self.join_type = join_type
        self.spill = spill
        self.partitions = (spill_partitions if spill_partitions
                           else (spill.partition_count() if spill else 0))
        self._pad = (None,) * self.right_arity
        #: Hybrid hash join: build partition 0 kept in memory (``None`` once
        #: demoted to disk or before any spill happens).
        self.resident: Optional[Dict[Tuple[Any, ...], List[_Entry]]] = None
        self._resident_rows = 0
        self.event: Optional[Dict[str, Any]] = None

    # -- keys ------------------------------------------------------------
    def _key_of(self, getters, values) -> Optional[Tuple[Any, ...]]:
        """Normalized key tuple, or ``None`` when any component is NULL."""
        key = []
        for getter in getters:
            value = getter(values)
            if value is None:
                return None
            if value != value:  # NaN: canonical bucket, like compare_values
                value = _NAN_KEY
            key.append(value)
        return tuple(key)

    @staticmethod
    def _bucket(key: Tuple[Any, ...], salt: int, fanout: int) -> int:
        return hash((salt, key)) % fanout

    # -- build -----------------------------------------------------------
    def build(self, right_rows: Iterable[Row]
              ) -> Tuple[Optional[Dict], Optional[List[SpillFile]]]:
        """Consume the build input; returns ``(table, None)`` in memory or
        ``(None, partition files)`` once the budget forces a spill."""
        table: Dict[Tuple[Any, ...], List[_Entry]] = {}
        budget = self.spill.budget_rows if self.spill is not None else None
        count = 0
        batches = _as_entry_batches(right_rows)
        for values_list, anns_list in batches:
            self._insert_batch(table, values_list, anns_list)
            count += len(values_list)
            if budget is not None and count > budget:
                return None, self._spill_build(table, batches)
        return table, None

    def _insert_batch(self, table: Dict, values_list, anns_list) -> None:
        setdefault = table.setdefault
        getters = self.build_keys
        if len(getters) == 1 and anns_list is None:
            # The hot path: single join key, unannotated batch.
            get = getters[0]
            for values in values_list:
                key = get(values)
                if key is None:
                    continue
                if key != key:
                    key = _NAN_KEY
                setdefault((key,), []).append((values, None))
            return
        annotations = anns_list if anns_list is not None else (None,) * len(values_list)
        for values, anns in zip(values_list, annotations):
            key = self._key_of(getters, values)
            if key is not None:
                setdefault(key, []).append((values, anns))

    def _spill_build(self, table: Dict,
                     remaining_batches) -> List[Optional[SpillFile]]:
        """Grace partitioning: dump the in-memory table plus the rest of the
        build input into hash partitions on disk — except partition 0, which
        stays resident in memory (hybrid) unless it alone exceeds the
        budget, in which case :meth:`_demote_resident` pushes it to disk."""
        fanout = self.partitions
        budget = self.spill.budget_rows
        files: List[Optional[SpillFile]] = \
            [None] + [self.spill.new_file() for _ in range(fanout - 1)]
        self.resident = {}
        self._resident_rows = 0
        self.event = self.spill.stats.record("hash_join", partitions=fanout,
                                             recursive_splits=0, hybrid=True)

        def add(key: Tuple[Any, ...], values, anns) -> None:
            bucket = self._bucket(key, 0, fanout)
            if bucket == 0 and self.resident is not None:
                self.resident.setdefault(key, []).append((values, anns))
                self._resident_rows += 1
                if self._resident_rows > budget:
                    self._demote_resident(files)
                return
            files[bucket].append(values, anns)

        for key, bucket_rows in table.items():
            for values, anns in bucket_rows:
                add(key, values, anns)
        for values_list, anns_list in remaining_batches:
            annotations = (anns_list if anns_list is not None
                           else (None,) * len(values_list))
            for values, anns in zip(values_list, annotations):
                key = self._key_of(self.build_keys, values)
                if key is not None:
                    add(key, values, anns)
        resident_rows = self._resident_rows if self.resident is not None else 0
        self.event["build_rows"] = resident_rows + sum(
            f.rows_written for f in files if f is not None)
        self.event["resident_build_rows"] = resident_rows
        return files

    def _demote_resident(self, files: List[Optional[SpillFile]]) -> None:
        """Partition 0 outgrew the budget on its own: spill it after all."""
        handle = self.spill.new_file()
        for bucket_rows in self.resident.values():
            for values, anns in bucket_rows:
                handle.append(values, anns)
        files[0] = handle
        self.resident = None
        self._resident_rows = 0
        self.event["hybrid"] = False

    def _table_from_entries(self, entries: Iterable[_Entry]) -> Dict:
        table: Dict[Tuple[Any, ...], List[_Entry]] = {}
        setdefault = table.setdefault
        for values, anns in entries:
            key = self._key_of(self.build_keys, values)
            if key is not None:
                setdefault(key, []).append((values, anns))
        return table

    # -- probe (in-memory table) ----------------------------------------
    def _probe_one_batch(self, table: Dict, values_list,
                         anns_list) -> Optional[RowBatch]:
        """Probe one batch against the table, emitting one matched batch."""
        out_values: List[Tuple[Any, ...]] = []
        out_anns: List[Optional[List[Set[Any]]]] = []
        getters = self.probe_keys
        left_join = self.join_type == "LEFT"
        residual = self.residual
        pad = self._pad
        get_single = getters[0] if len(getters) == 1 else None
        for index, values in enumerate(values_list):
            lann = anns_list[index] if anns_list is not None else None
            if get_single is not None:
                key = get_single(values)
                if key is not None and key != key:
                    key = _NAN_KEY
                key = (key,) if key is not None else None
            else:
                key = self._key_of(getters, values)
            matched = False
            if key is not None:
                for rvalues, ranns in table.get(key, ()):
                    combined = values + rvalues
                    if residual is not None \
                            and not predicate_is_true(residual(combined)):
                        continue
                    out_values.append(combined)
                    out_anns.append(concat_annotation_vectors(
                        lann, ranns, self.left_arity, self.right_arity))
                    matched = True
            if left_join and not matched:
                out_values.append(values + pad)
                out_anns.append(concat_annotation_vectors(
                    lann, None, self.left_arity, self.right_arity))
        if not out_values:
            return None
        return batch_from_entries(out_values, out_anns, self.arity)

    def probe_batches(self, table: Dict,
                      left_rows: Iterable[Row]) -> Iterator[RowBatch]:
        for values_list, anns_list in _as_entry_batches(left_rows):
            batch = self._probe_one_batch(table, values_list, anns_list)
            if batch is not None:
                yield batch

    def probe_rows(self, table: Dict, left_rows: Iterable[Row]) -> Iterator[Row]:
        """Row-at-a-time probe, preserving the row pipeline's laziness."""
        residual = self.residual
        left_join = self.join_type == "LEFT"
        for row in left_rows:
            values = row.values
            lann = row._annotations
            key = self._key_of(self.probe_keys, values)
            matched = False
            if key is not None:
                for rvalues, ranns in table.get(key, ()):
                    combined = values + rvalues
                    if residual is not None \
                            and not predicate_is_true(residual(combined)):
                        continue
                    yield Row(combined, concat_annotation_vectors(
                        lann, ranns, self.left_arity, self.right_arity))
                    matched = True
            if left_join and not matched:
                yield Row(values + self._pad, concat_annotation_vectors(
                    lann, None, self.left_arity, self.right_arity))

    # -- spilled (Grace) path --------------------------------------------
    def _probe_resident(self, key: Tuple[Any, ...], values, anns,
                        out_values: List, out_anns: List) -> None:
        """Probe one row against the resident (hybrid) partition-0 table."""
        residual = self.residual
        matched = False
        for rvalues, ranns in self.resident.get(key, ()):
            combined = values + rvalues
            if residual is not None \
                    and not predicate_is_true(residual(combined)):
                continue
            out_values.append(combined)
            out_anns.append(concat_annotation_vectors(
                anns, ranns, self.left_arity, self.right_arity))
            matched = True
        if self.join_type == "LEFT" and not matched:
            out_values.append(values + self._pad)
            out_anns.append(concat_annotation_vectors(
                anns, None, self.left_arity, self.right_arity))

    def grace_batches(self, build_files: List[Optional[SpillFile]],
                      left_rows: Iterable[Row]) -> Iterator[RowBatch]:
        """Partition the probe side to match the spilled build partitions,
        then join each partition pair."""
        fanout = len(build_files)
        hybrid = self.resident is not None
        probe_files: List[Optional[SpillFile]] = [
            None if (index == 0 and hybrid) else self.spill.new_file()
            for index in range(fanout)]
        left_join = self.join_type == "LEFT"
        resident_probe_rows = 0
        for values_list, anns_list in _as_entry_batches(left_rows):
            out_values: List[Tuple[Any, ...]] = []
            out_anns: List[Optional[List[Set[Any]]]] = []
            annotations = (anns_list if anns_list is not None
                           else (None,) * len(values_list))
            for values, anns in zip(values_list, annotations):
                key = self._key_of(self.probe_keys, values)
                if key is None:
                    # NULL probe keys match nothing: LEFT pads immediately,
                    # INNER drops the row without spilling it.
                    if left_join:
                        out_values.append(values + self._pad)
                        out_anns.append(concat_annotation_vectors(
                            anns, None, self.left_arity, self.right_arity))
                    continue
                bucket = self._bucket(key, 0, fanout)
                if bucket == 0 and hybrid:
                    # Hybrid: partition 0's build side never left memory,
                    # so its probe rows join right here — no disk round
                    # trip for either side of this partition.
                    resident_probe_rows += 1
                    self._probe_resident(key, values, anns,
                                         out_values, out_anns)
                    continue
                probe_files[bucket].append(values, anns)
            if out_values:
                yield batch_from_entries(out_values, out_anns, self.arity)
        self.event["probe_rows"] = resident_probe_rows + sum(
            f.rows_written for f in probe_files if f is not None)
        self.event["resident_probe_rows"] = resident_probe_rows
        self.resident = None
        yield from self._join_partitions(build_files, probe_files)

    def _join_partitions(self, build_files: List[Optional[SpillFile]],
                         probe_files: List[Optional[SpillFile]]
                         ) -> Iterator[RowBatch]:
        """Join the spilled partition pairs in partition order, streaming
        each pair's output."""
        for index, (build_file, probe_file) in enumerate(zip(build_files,
                                                             probe_files)):
            if build_file is None:
                continue
            with self.spill.stats.timed_partition(
                    self.event, partition=index, rows=0) as timing:
                for batch in self._join_partition(build_file, probe_file,
                                                  depth=1):
                    timing["rows"] += len(batch.values)
                    yield batch

    def _join_partition(self, build_file: SpillFile, probe_file: SpillFile,
                        depth: int) -> Iterator[RowBatch]:
        budget = self.spill.budget_rows
        if build_file.rows_written > budget and depth < MAX_SPILL_DEPTH:
            yield from self._repartition(build_file, probe_file, depth)
            return
        table = self._table_from_entries(build_file.entries())
        build_file.close()
        for values_list, anns_list in _chunk_entries(probe_file.entries()):
            batch = self._probe_one_batch(table, values_list, anns_list)
            if batch is not None:
                yield batch
        probe_file.close()

    def _repartition(self, build_file: SpillFile, probe_file: SpillFile,
                     depth: int) -> Iterator[RowBatch]:
        """An oversized partition: split it again with a re-salted hash."""
        fanout = self.partitions
        salt = depth
        self.event["recursive_splits"] += 1
        sub_build = [self.spill.new_file() for _ in range(fanout)]
        for values, anns in build_file.entries():
            key = self._key_of(self.build_keys, values)
            sub_build[self._bucket(key, salt, fanout)].append(values, anns)
        build_file.close()
        next_depth = depth + 1
        if max(f.rows_written for f in sub_build) == \
                sum(f.rows_written for f in sub_build):
            # Rehashing did not split the rows (one dominant key): further
            # recursion cannot help, so join the partition in memory.
            next_depth = MAX_SPILL_DEPTH + 1
        sub_probe = [self.spill.new_file() for _ in range(fanout)]
        for values, anns in probe_file.entries():
            key = self._key_of(self.probe_keys, values)
            sub_probe[self._bucket(key, salt, fanout)].append(values, anns)
        probe_file.close()
        for build_part, probe_part in zip(sub_build, sub_probe):
            yield from self._join_partition(build_part, probe_part, next_depth)


def hash_join(left: Relation, right: Relation,
              left_keys: Sequence[ast.ColumnRef],
              right_keys: Sequence[ast.ColumnRef],
              join_type: str = "INNER",
              condition: Optional[ast.Expression] = None,
              spill: Optional[SpillManager] = None,
              spill_partitions: Optional[int] = None) -> Relation:
    """Equi-join by hashing the right (build) side on its key columns.

    The build side is the pipeline breaker; the probe (left) side streams.
    Both sides are *batch-aware*: a batched build input inserts whole batches
    into the hash table and a batched probe input emits matched
    :class:`RowBatch` es directly (row inputs keep the row-at-a-time path, so
    the "row" pipeline's laziness contract is unchanged).  Annotation
    propagation is identical to the nested loop: the output row concatenates
    the input rows together with their per-column annotation sets.  NULL keys
    never match (SQL semantics); ``condition`` is an extra predicate
    evaluated on the combined row before a match is accepted, which keeps
    LEFT join padding correct for composite ON clauses.

    With ``spill`` (a :class:`~repro.storage.spill.SpillManager`), a build
    side exceeding ``spill.budget_rows`` switches to a Grace hash join:
    both inputs are hash-partitioned into temp files (``spill_partitions``
    is the planner's fan-out hint) and partition pairs are joined
    independently, recursing on oversized partitions.
    """
    left_schema, left_rows = left
    right_schema, right_rows = right
    if len(left_keys) != len(right_keys) or not left_keys:
        raise PlanningError("hash join requires matching, non-empty key lists")
    schema = left_schema.concat(right_schema)
    joiner = _HashJoin(left_schema, right_schema, schema, left_keys,
                       right_keys, join_type, condition, spill,
                       spill_partitions)

    def out_batches() -> Iterator[RowBatch]:
        table, files = joiner.build(right_rows)
        if files is None:
            yield from joiner.probe_batches(table, left_rows)
        else:
            yield from joiner.grace_batches(files, left_rows)

    def out_rows() -> Iterator[Row]:
        table, files = joiner.build(right_rows)
        if files is None:
            yield from joiner.probe_rows(table, left_rows)
        else:
            for batch in joiner.grace_batches(files, left_rows):
                yield from batch.to_rows()

    if isinstance(left_rows, BatchedRows):
        return schema, BatchedRows(out_batches())
    return schema, out_rows()


class _SpillableRowBuffer:
    """A row buffer that overflows to a spill file past the budget.

    Below the budget it is a plain list; beyond it, the buffered rows are
    written to a temp file and later additions append directly.  Encounter
    order is preserved either way, and :meth:`iterate` may be called
    repeatedly (spill files rewind on each read) — which is what lets a
    merge join re-scan an oversized duplicate group per outer row.
    """

    __slots__ = ("spill", "budget", "rows", "file", "count", "on_spill")

    def __init__(self, spill: Optional[SpillManager],
                 on_spill: Optional[Callable[[], None]] = None):
        self.spill = spill
        self.budget = spill.budget_rows if spill is not None else None
        self.rows: List[Row] = []
        self.file: Optional[SpillFile] = None
        self.count = 0
        self.on_spill = on_spill

    def add(self, row: Row) -> None:
        self.count += 1
        if self.file is not None:
            self.file.append(row.values, row._annotations)
            return
        self.rows.append(row)
        if self.budget is not None and len(self.rows) > self.budget:
            self.file = self.spill.new_file()
            for buffered in self.rows:
                self.file.append(buffered.values, buffered._annotations)
            self.rows = []
            if self.on_spill is not None:
                self.on_spill()

    def iterate(self) -> Iterator[Row]:
        if self.file is not None:
            return (Row(values, anns) for values, anns in self.file.entries())
        return iter(self.rows)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()
            self.file = None
        self.rows = []


def merge_join(left: Relation, right: Relation,
               left_keys: Sequence[ast.ColumnRef],
               right_keys: Sequence[ast.ColumnRef],
               join_type: str = "INNER",
               condition: Optional[ast.Expression] = None,
               spill: Optional[SpillManager] = None) -> Relation:
    """Sort-merge equi-join: sort both sides on the keys and merge groups.

    Both inputs are pipeline breakers (they must be sorted), but the merge
    itself emits output rows incrementally.  With ``spill``, every buffer is
    bounded by ``spill.budget_rows``: each side beyond the budget sorts
    externally (runs + k-way merge, ties preferring earlier input — the same
    order a stable in-memory sort produces), an oversized right duplicate
    group spills and is re-scanned from disk per outer row, and LEFT joins'
    unmatched/NULL-key buffers overflow to disk as well.
    """
    left_schema, left_rows_in = left
    right_schema, right_rows_in = right
    if len(left_keys) != len(right_keys) or not left_keys:
        raise PlanningError("merge join requires matching, non-empty key lists")
    schema = left_schema.concat(right_schema)
    left_getters = _compile_keys(left_schema, left_keys)
    right_getters = _compile_keys(right_schema, right_keys)
    residual = Evaluator(schema).compile(condition) if condition is not None else None
    right_arity = len(right_schema)
    budget = spill.budget_rows if spill is not None else None

    event: List[Optional[Dict[str, Any]]] = [None]

    def note_spill(key: str) -> None:
        if event[0] is None:
            event[0] = spill.stats.record("merge_join", sort_runs=0,
                                          spilled_groups=0,
                                          spilled_unmatched=0)
        event[0][key] += 1

    def sorted_pairs(rows_in: Iterable[Row], getters,
                     nulls: Optional[_SpillableRowBuffer]
                     ) -> Iterator[Tuple[Tuple[Any, ...], Row]]:
        """``(sort key, row)`` pairs in key order; NULL-keyed rows are
        diverted to ``nulls`` (or dropped).  External sort past the budget."""
        def key_of(row: Row) -> Optional[Tuple[Any, ...]]:
            key = tuple(getter(row) for getter in getters)
            if any(value is None for value in key):
                return None
            return tuple(SortKey(value) for value in key)

        keyed: List[Tuple[Tuple[Any, ...], Row]] = []
        runs: List[SpillFile] = []
        for row in rows_in:
            key = key_of(row)
            if key is None:
                if nulls is not None:
                    nulls.add(row)
                continue
            keyed.append((key, row))
            if budget is not None and len(keyed) >= budget:
                keyed.sort(key=itemgetter(0))
                run = spill.new_file()
                for _, sorted_row in keyed:
                    run.append(sorted_row.values, sorted_row._annotations)
                runs.append(run)
                keyed = []
                note_spill("sort_runs")
        keyed.sort(key=itemgetter(0))
        if not runs:
            yield from keyed
            return

        def run_pairs(run: SpillFile) -> Iterator[Tuple[Tuple[Any, ...], Row]]:
            for values, anns in run.entries():
                row = Row(values, anns)
                yield key_of(row), row

        streams = [run_pairs(run) for run in runs]
        if keyed:
            streams.append(iter(keyed))
        yield from heapq.merge(*streams, key=itemgetter(0))
        for run in runs:
            run.close()

    def rows() -> Iterator[Row]:
        left_join = join_type == "LEFT"
        # Emission order for LEFT padding matches the classic in-memory
        # path: NULL-keyed left rows first, then unmatched rows in merge
        # order, then the sorted tail — all after every matched row.
        null_lefts = _SpillableRowBuffer(spill) if left_join else None
        unmatched = (_SpillableRowBuffer(
            spill, on_spill=lambda: note_spill("spilled_unmatched"))
            if left_join else None)
        left_pairs = sorted_pairs(left_rows_in, left_getters, null_lefts)
        right_pairs = sorted_pairs(right_rows_in, right_getters, None)

        l = next(left_pairs, None)
        r = next(right_pairs, None)
        while l is not None and r is not None:
            left_key, right_key = l[0], r[0]
            if left_key < right_key:
                if left_join:
                    unmatched.add(l[1])
                l = next(left_pairs, None)
            elif right_key < left_key:
                r = next(right_pairs, None)
            else:
                group = _SpillableRowBuffer(
                    spill, on_spill=lambda: note_spill("spilled_groups"))
                while r is not None and r[0] == left_key:
                    group.add(r[1])
                    r = next(right_pairs, None)
                while l is not None and l[0] == left_key:
                    left_row = l[1]
                    matched = False
                    for right_row in group.iterate():
                        combined = left_row.concat(right_row)
                        if residual is None \
                                or predicate_is_true(residual(combined)):
                            yield combined
                            matched = True
                    if left_join and not matched:
                        unmatched.add(left_row)
                    l = next(left_pairs, None)
                group.close()
        if left_join:
            while l is not None:
                unmatched.add(l[1])
                l = next(left_pairs, None)
            pad = Row(tuple([None] * right_arity))
            for left_row in null_lefts.iterate():
                yield left_row.concat(pad)
            for left_row in unmatched.iterate():
                yield left_row.concat(pad)
            null_lefts.close()
            unmatched.close()
    return schema, rows()


def index_nested_loop_join(left: Relation, source: TableRowSource, index: Any,
                           left_keys: Sequence[ast.ColumnRef],
                           right_keys: Sequence[ast.ColumnRef],
                           join_type: str = "INNER",
                           condition: Optional[ast.Expression] = None,
                           right_filter: Optional[ast.Expression] = None) -> Relation:
    """Index-nested-loop join: probe a secondary index per streamed left row.

    For each left row the key values (``left_keys``, already permuted into the
    index's column order) are looked up in ``index`` (``search(key) ->
    tuple_ids``) and the matching base-table rows are fetched — and annotated —
    through ``source``.  ``right_filter`` re-applies the conjuncts pushed down
    to the right table (evaluated on the fetched row before the join);
    ``condition`` is the extra non-equi predicate evaluated on the combined
    row, which keeps LEFT padding correct.

    NULL probe keys never match (SQL semantics).  NaN probe keys — or keys the
    index cannot compare — fall back to a one-time materialized scan of the
    right side compared with the engine's NaN = NaN equality, so the operator
    stays observationally equivalent to the hash and merge joins.
    """
    left_schema, left_rows = left
    right_schema = source.schema
    if len(left_keys) != len(right_keys) or not left_keys:
        raise PlanningError("index join requires matching, non-empty key lists")
    schema = left_schema.concat(right_schema)
    probe = _compile_keys(left_schema, left_keys)
    inner_keys = _compile_keys(right_schema, right_keys)
    residual = Evaluator(schema).compile(condition) if condition is not None else None
    rfilter = (Evaluator(right_schema).compile(right_filter)
               if right_filter is not None else None)
    right_arity = len(right_schema)

    def passes_filter(row: Row) -> bool:
        return rfilter is None or predicate_is_true(rfilter(row))

    def rows() -> Iterator[Row]:
        fallback: Optional[List[Tuple[Tuple[Any, ...], Row]]] = None

        def fallback_matches(key_values: List[Any]) -> Iterator[Row]:
            nonlocal fallback
            if fallback is None:
                fallback = [
                    (tuple(_hash_key(getter(row)) for getter in inner_keys), row)
                    for row in source.iter_rows() if passes_filter(row)
                ]
            wanted = tuple(_hash_key(value) for value in key_values)
            for key, row in fallback:
                if key == wanted:
                    yield row

        def matches(key_values: List[Any]) -> Iterator[Row]:
            if any(isinstance(value, float) and value != value
                   for value in key_values):
                yield from fallback_matches(key_values)
                return
            key = key_values[0] if len(key_values) == 1 else tuple(key_values)
            try:
                tuple_ids = list(index.search(key))
            except TypeError:
                yield from fallback_matches(key_values)
                return
            for tuple_id in tuple_ids:
                row = source.fetch(tuple_id)
                if row is not None and passes_filter(row):
                    yield row

        for left_row in left_rows:
            key_values = [getter(left_row) for getter in probe]
            matched = False
            if not any(value is None for value in key_values):
                for right_row in matches(key_values):
                    combined = left_row.concat(right_row)
                    if residual is None or predicate_is_true(residual(combined)):
                        yield combined
                        matched = True
            if join_type == "LEFT" and not matched:
                yield left_row.concat(Row(tuple([None] * right_arity)))
    return schema, rows()


# ---------------------------------------------------------------------------
# Projection (with PROMOTE)
# ---------------------------------------------------------------------------
def _annotation_sources(expr: ast.Expression, schema: OutputSchema) -> List[int]:
    """Positions whose annotations flow to the output column of ``expr``."""
    positions = []
    for ref in referenced_columns(expr):
        position = schema.try_resolve(ref.name, ref.table)
        if position is not None:
            positions.append(position)
    return positions


def _projection_spec(schema: OutputSchema, items: Sequence[ast.SelectItem],
                     ) -> Tuple[OutputSchema, List[Any],
                                List[Callable[[Tuple[Any, ...]], Any]],
                                List[List[int]]]:
    """Expand a projection list into output columns, getters, and sources.

    Returns ``(output schema, positions-or-None, value getters, annotation
    source positions)``: each projected item is either a plain input position
    (``positions[i]`` is an int — the vectorized gather path) or a compiled
    expression over the input value tuple.  Resolution errors surface
    eagerly, before any row is pulled.
    """
    evaluator = Evaluator(schema)
    output_columns: List[ColumnInfo] = []
    positions: List[Optional[int]] = []
    getters: List[Callable[[Tuple[Any, ...]], Any]] = []
    annotation_sources: List[List[int]] = []

    for item in items:
        expr = item.expr
        if isinstance(expr, ast.Star):
            star_positions = (range(len(schema))
                              if expr.table is None
                              else schema.positions_for_qualifier(expr.table))
            star_positions = list(star_positions)
            if expr.table is not None and not star_positions:
                raise PlanningError(f"unknown table alias {expr.table!r} in projection")
            for position in star_positions:
                column = schema.columns[position]
                if column.name == "__tid__":
                    continue
                output_columns.append(ColumnInfo(column.name, column.qualifier))
                positions.append(position)
                getters.append(itemgetter(position))
                annotation_sources.append([position])
            continue
        name = item.alias
        if name is None:
            name = expr.name if isinstance(expr, ast.ColumnRef) else f"expr_{len(output_columns) + 1}"
        sources = _annotation_sources(expr, schema)
        for promoted in item.promote:
            position = schema.try_resolve(promoted.name, promoted.table)
            if position is None:
                raise PlanningError(
                    f"PROMOTE references unknown column {promoted.display()!r}"
                )
            sources.append(position)
        output_columns.append(ColumnInfo(name))
        if isinstance(expr, ast.ColumnRef):
            position = schema.resolve(expr.name, expr.table)
            positions.append(position)
            getters.append(itemgetter(position))
        else:
            positions.append(None)
            getters.append(evaluator.compile_values(expr))
        annotation_sources.append(sources)
    return OutputSchema(output_columns), positions, getters, annotation_sources


def project(relation: Relation, items: Sequence[ast.SelectItem]) -> Relation:
    """Projection: only annotations of projected (or PROMOTEd) columns survive."""
    schema, rows = relation
    output_schema, positions, getters, annotation_sources = \
        _projection_spec(schema, items)

    if isinstance(rows, BatchedRows):
        return output_schema, BatchedRows(
            _project_batches(rows, positions, getters, annotation_sources))

    def output_rows() -> Iterator[Row]:
        for row in rows:
            row_values = row.values
            values = tuple(getter(row_values) for getter in getters)
            if row._annotations is None:
                yield Row(values)
                continue
            row_annotations = row.annotations
            annotations = []
            for sources in annotation_sources:
                merged: Set[Any] = set()
                for position in sources:
                    merged |= row_annotations[position]
                annotations.append(merged)
            yield Row(values, annotations)
    return output_schema, output_rows()


def _project_batches(rows: BatchedRows, positions: List[Optional[int]],
                     getters: List[Callable[[Tuple[Any, ...]], Any]],
                     annotation_sources: List[List[int]]) -> Iterator[RowBatch]:
    """Vectorized projection: a C-level gather for plain column lists.

    When the input is a :class:`FilteredBatchedRows` and the projection is a
    plain column gather, selection and projection fuse into one generated
    comprehension — ``[(r[i], r[j]) for r in rows if <predicate>]`` — so a
    scan → filter → project pipeline does a single pass per batch.
    """
    gather = None
    pure_gather = positions and all(position is not None for position in positions)
    if pure_gather:
        if len(positions) == 1:
            single = itemgetter(positions[0])
            gather = lambda values: [(v,) for v in map(single, values)]
        else:
            many = itemgetter(*positions)
            gather = lambda values: list(map(many, values))

    def project_annotated(batch: RowBatch, out_values: List[Tuple[Any, ...]]
                          ) -> RowBatch:
        out_annotations = []
        for row_annotations in batch.annotations:
            vector = []
            for sources in annotation_sources:
                merged: Set[Any] = set()
                for position in sources:
                    merged |= row_annotations[position]
                vector.append(merged)
            out_annotations.append(vector)
        return RowBatch(out_values, out_annotations)

    if pure_gather and isinstance(rows, FilteredBatchedRows):
        batch_filter = rows.batch_filter
        tail = "," if len(positions) == 1 else ""
        projection = "(" + ", ".join(f"r[{p}]" for p in positions) + tail + ")"
        fused = batch_filter.compile_keep(projection)
        for batch in rows.source.batches:
            if batch.annotations is None:
                out_values = batch_filter.run(fused, batch.values)
                if out_values:
                    yield RowBatch(out_values)
                continue
            filtered = _apply_mask(batch, batch_filter.mask(batch.values))
            if filtered is not None:
                yield project_annotated(filtered, gather(filtered.values))
        return

    for batch in rows.batches:
        if gather is not None:
            out_values = gather(batch.values)
        else:
            out_values = [tuple(getter(row) for getter in getters)
                          for row in batch.values]
        if batch.annotations is None:
            yield RowBatch(out_values)
            continue
        yield project_annotated(batch, out_values)


# ---------------------------------------------------------------------------
# Grouping and aggregation
# ---------------------------------------------------------------------------
def group_and_aggregate(relation: Relation, group_by: Sequence[ast.Expression],
                        items: Sequence[ast.SelectItem],
                        having: Optional[ast.Expression] = None,
                        ahaving: Optional[ast.Expression] = None,
                        spill: Optional[SpillManager] = None,
                        input_rows_hint: Optional[float] = None) -> Relation:
    """GROUP BY + aggregate evaluation with annotation union per group.

    A pipeline breaker: every input row must be seen before the first group
    can be emitted.  The output tuple of each group carries, on every output
    column, the union of all annotations of the group's input rows (the
    paper's rule for operators that combine multiple tuples into one).

    Memory bounding: a query with aggregates but *no* GROUP BY streams its
    single global group through incremental :class:`AggregateState`
    accumulators (O(1) memory regardless of input size).  Keyed grouping
    buffers member rows; with ``spill`` set, an input exceeding
    ``spill.budget_rows`` is hash-partitioned on the group key into temp
    files and each partition is grouped independently (rows of one group
    always share a partition, so the results are exact), recursing on
    oversized partitions.  Group keys bucket NaN values together (the
    ``compare_values`` order, matching the hash join), so partitioning and
    the in-memory dict agree.  ``input_rows_hint`` (the cost model's input
    estimate) sizes the spill fan-out, matching EXPLAIN's prediction.
    """
    schema, rows = relation
    evaluator = Evaluator(schema)
    group_keys = [evaluator.compile(expr) for expr in group_by]
    arity = len(schema)

    # Column list of the output (checked eagerly).
    output_columns: List[ColumnInfo] = []
    for index, item in enumerate(items):
        if isinstance(item.expr, ast.Star):
            raise PlanningError("'*' cannot be used together with GROUP BY / aggregates")
        if item.alias:
            name = item.alias
        elif isinstance(item.expr, ast.ColumnRef):
            name = item.expr.name
        elif isinstance(item.expr, ast.FunctionCall):
            name = item.expr.name.lower()
        else:
            name = f"expr_{index + 1}"
        output_columns.append(ColumnInfo(name))
    output_schema = OutputSchema(output_columns)

    ahaving_predicate = AnnotationPredicate(ahaving) if ahaving is not None else None

    def normalized_key(row: Row) -> Tuple[Any, ...]:
        return tuple(_hash_key(key(row)) for key in group_keys)

    def finish_group(values: List[Any], union_all: Set[Any],
                     passed_having: bool) -> Optional[Row]:
        if not passed_having:
            return None
        if ahaving_predicate is not None:
            if not any(ahaving_predicate.matches(a) for a in union_all):
                return None
        annotations = [set(union_all) for _ in values]
        return Row(tuple(values), annotations)

    def emit_group(members: List[Row]) -> Optional[Row]:
        representative = members[0] if members else None
        values = [_evaluate_group_expression(item.expr, evaluator, members,
                                             representative)
                  for item in items]
        union_all: Set[Any] = set()
        if members:
            for anns in merge_annotation_vectors(members, arity):
                union_all |= anns
        passed = True
        if having is not None:
            passed = predicate_is_true(
                _evaluate_group_expression(having, evaluator, members,
                                           representative))
        return finish_group(values, union_all, passed)

    def stream_global_group(row_iterator: Iterable[Row]) -> Optional[Row]:
        """One pass over the input with incremental aggregate states — the
        global group never buffers its member rows."""
        aggregates: List[ast.FunctionCall] = []
        for item in items:
            aggregates.extend(find_aggregates(item.expr))
        if having is not None:
            aggregates.extend(find_aggregates(having))
        states = [(aggregate, AggregateState(aggregate, evaluator, spill))
                  for aggregate in aggregates]
        representative: Optional[Row] = None
        union_all: Set[Any] = set()
        for row in row_iterator:
            if representative is None:
                representative = row
            for _, state in states:
                state.add(row)
            if row._annotations is not None:
                for anns in row._annotations:
                    union_all |= anns
        results = {id(aggregate): state.result() for aggregate, state in states}

        def evaluate(expr: ast.Expression) -> Any:
            if not find_aggregates(expr):
                if representative is None:
                    return None
                return evaluator.compile(expr)(representative)
            return _evaluate_with_aggregates(expr, evaluator, representative,
                                             results)

        values = [evaluate(item.expr) for item in items]
        passed = True
        if having is not None:
            passed = predicate_is_true(evaluate(having))
        return finish_group(values, union_all, passed)

    def grouped_partition(entries: Iterable[_Entry],
                          total_rows: int, depth: int) -> Iterator[Row]:
        """Group one spilled partition, re-partitioning while oversized."""
        budget = spill.budget_rows
        if total_rows > budget and depth < MAX_SPILL_DEPTH:
            fanout = spill.partition_count(total_rows)
            files = [spill.new_file() for _ in range(fanout)]
            for values, anns in entries:
                row = Row(values, anns)
                bucket = hash((depth, normalized_key(row))) % fanout
                files[bucket].append(values, anns)
            split = max(f.rows_written for f in files) < \
                sum(f.rows_written for f in files)
            for handle in files:
                # A partition the rehash failed to split (one dominant key)
                # is grouped in memory — recursion cannot shrink it.
                next_depth = depth + 1 if split else MAX_SPILL_DEPTH
                yield from grouped_partition(handle.entries(),
                                             handle.rows_written, next_depth)
                handle.close()
            return
        groups: Dict[Tuple[Any, ...], List[Row]] = {}
        order: List[Tuple[Any, ...]] = []
        for values, anns in entries:
            row = Row(values, anns)
            key = normalized_key(row)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        for key in order:
            candidate = emit_group(groups[key])
            if candidate is not None:
                yield candidate

    def spilled_groups(groups: Dict[Tuple[Any, ...], List[Row]],
                       rest: Iterable[Row]) -> Iterator[Row]:
        """The budget was exceeded: partition everything seen so far plus
        the rest of the input on the group-key hash, then group partitions
        independently."""
        fanout = spill.partition_count(input_rows_hint)
        event = spill.stats.record("group_by", partitions=fanout)
        files = [spill.new_file() for _ in range(fanout)]
        for key, members in groups.items():
            handle = files[hash((0, key)) % fanout]
            for row in members:
                handle.append(row.values, row._annotations)
        for row in rest:
            bucket = hash((0, normalized_key(row))) % fanout
            files[bucket].append(row.values, row._annotations)
        event["spilled_rows"] = sum(f.rows_written for f in files)

        for index, handle in enumerate(files):
            with spill.stats.timed_partition(event, partition=index,
                                             rows=0) as timing:
                for row in grouped_partition(handle.entries(),
                                             handle.rows_written, depth=1):
                    timing["rows"] += 1
                    yield row
                handle.close()

    def output_rows() -> Iterator[Row]:
        if not group_keys:
            # A query with aggregates but no GROUP BY forms one global group.
            candidate = stream_global_group(rows)
            if candidate is not None:
                yield candidate
            return
        budget = spill.budget_rows if spill is not None else None
        groups: Dict[Tuple[Any, ...], List[Row]] = {}
        order: List[Tuple[Any, ...]] = []
        buffered = 0
        iterator = iter(rows)
        for row in iterator:
            key = normalized_key(row)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
            buffered += 1
            if budget is not None and buffered > budget:
                yield from spilled_groups(groups, iterator)
                return
        for key in order:
            candidate = emit_group(groups[key])
            if candidate is not None:
                yield candidate
    return output_schema, output_rows()


def _evaluate_group_expression(expr: ast.Expression, evaluator: Evaluator,
                               members: List[Row],
                               representative: Optional[Row]) -> Any:
    """Evaluate an expression that may mix aggregates and group-by columns."""
    aggregates = find_aggregates(expr)
    if not aggregates:
        if representative is None:
            return None
        return evaluator.compile(expr)(representative)
    # Evaluate each aggregate over the group, then substitute the results.
    results: Dict[int, Any] = {}
    for aggregate in aggregates:
        state = AggregateState(aggregate, evaluator)
        for row in members:
            state.add(row)
        results[id(aggregate)] = state.result()
    return _evaluate_with_aggregates(expr, evaluator, representative, results)


def _evaluate_with_aggregates(expr: ast.Expression, evaluator: Evaluator,
                              representative: Optional[Row],
                              aggregate_results: Dict[int, Any]) -> Any:
    if id(expr) in aggregate_results:
        return aggregate_results[id(expr)]
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        if representative is None:
            return None
        return evaluator.compile(expr)(representative)
    if isinstance(expr, ast.BinaryOp):
        left = _evaluate_with_aggregates(expr.left, evaluator, representative,
                                         aggregate_results)
        right = _evaluate_with_aggregates(expr.right, evaluator, representative,
                                          aggregate_results)
        return _apply_binary(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = _evaluate_with_aggregates(expr.operand, evaluator, representative,
                                            aggregate_results)
        if expr.op == "-":
            return None if operand is None else -operand
        if expr.op == "NOT":
            return None if operand is None else (not bool(operand))
        return operand
    if isinstance(expr, ast.FunctionCall):
        from repro.planner.expressions import SCALAR_FUNCTIONS
        function = SCALAR_FUNCTIONS.get(expr.name.upper())
        if function is None:
            raise PlanningError(f"unknown function {expr.name}")
        args = [
            _evaluate_with_aggregates(arg, evaluator, representative, aggregate_results)
            for arg in expr.args
        ]
        return function(*args)
    raise PlanningError(
        f"unsupported construct in aggregate expression: {type(expr).__name__}"
    )


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    from repro.types.values import compare_values
    if op in ("AND", "OR"):
        if left is None or right is None:
            return None
        return (bool(left) and bool(right)) if op == "AND" else (bool(left) or bool(right))
    if op in ("=", "<>", "<", "<=", ">", ">="):
        cmp = compare_values(left, right)
        if cmp is None:
            return None
        return {"=": cmp == 0, "<>": cmp != 0, "<": cmp < 0,
                "<=": cmp <= 0, ">": cmp > 0, ">=": cmp >= 0}[op]
    if left is None or right is None:
        return None
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "%":
        return left % right
    if op == "||":
        return str(left) + str(right)
    raise PlanningError(f"unsupported operator {op!r}")


# ---------------------------------------------------------------------------
# Duplicate elimination, ordering, limits
# ---------------------------------------------------------------------------
def _distinct_key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Duplicate-detection key: NaNs collapse to one bucket (the
    ``compare_values`` order), everything else compares as the dict does."""
    return tuple(_hash_key(value) for value in values)


def distinct(relation: Relation,
             spill: Optional[SpillManager] = None,
             input_rows_hint: Optional[float] = None) -> Relation:
    """DISTINCT: equal value-tuples collapse; their annotations are unioned.

    A pipeline breaker: the annotation union over duplicates is only known
    once every input row has been seen.  With ``spill``, an input exceeding
    the budget is hash-partitioned on the value tuple; each spilled row is
    tagged with its first-seen sequence number so the merged output keeps
    the first-occurrence order the in-memory path produces (which is what
    makes ``ORDER BY`` upstream of DISTINCT survive a spill).
    """
    schema, rows = relation
    arity = len(schema)

    def spilled_distinct(seen: Dict[Tuple[Any, ...], List[Row]],
                         order: List[Tuple[Any, ...]],
                         rest: Iterable[Row]) -> Iterator[Row]:
        budget = spill.budget_rows
        fanout = spill.partition_count(input_rows_hint)
        event = spill.stats.record("distinct", partitions=fanout)
        files = [spill.new_file() for _ in range(fanout)]
        # Buffered rows: every member of a group is tagged with the group's
        # first-seen rank, which is all the order restoration needs.
        for rank, key in enumerate(order):
            handle = files[hash(key) % fanout]
            for row in seen[key]:
                handle.append((rank,) + row.values, row._annotations)
        sequence = len(order)
        for row in rest:
            key = _distinct_key(row.values)
            files[hash(key) % fanout].append((sequence,) + row.values,
                                             row._annotations)
            sequence += 1
        event["spilled_rows"] = sum(f.rows_written for f in files)

        def read_back(out: SpillFile):
            for tagged_values, anns in out.entries():
                yield tagged_values[0], tagged_values[1:], anns

        def dedup_leaf(handle: SpillFile) -> SpillFile:
            """Dedup one partition in memory; write its output back to disk,
            ordered by first-seen sequence."""
            groups: Dict[Tuple[Any, ...], List[Any]] = {}
            ordered: List[Tuple[Any, ...]] = []
            for tagged_values, anns in handle.entries():
                sequence_no, values = tagged_values[0], tagged_values[1:]
                key = _distinct_key(values)
                entry = groups.get(key)
                if entry is None:
                    # [first seq, first values, running annotation union] —
                    # the union vector stays None until some member is
                    # annotated, so unannotated data pays no per-group sets.
                    groups[key] = entry = [sequence_no, values, None]
                    ordered.append(key)
                if anns is not None:
                    merged = entry[2]
                    if merged is None:
                        entry[2] = merged = [set() for _ in range(arity)]
                    for position in range(min(arity, len(anns))):
                        merged[position] |= anns[position]
            handle.close()
            out = spill.new_file()
            for sequence_no, values, merged in sorted(
                    (groups[key] for key in ordered),
                    key=lambda entry: entry[0]):
                out.append((sequence_no,) + values, merged)
            return out

        def merge_outputs(outputs: List[SpillFile], sink: SpillFile) -> None:
            merged = heapq.merge(*(read_back(out) for out in outputs),
                                 key=lambda entry: entry[0])
            for sequence_no, values, anns in merged:
                sink.append((sequence_no,) + values, anns)
            for out in outputs:
                out.close()

        def distinct_partition(handle: SpillFile, depth: int) -> SpillFile:
            """Dedup one partition, re-partitioning while it exceeds the
            budget (so per-leaf memory stays near the budget, not
            distinct-count / fan-out), and return its seq-ordered output
            file.  Sub-outputs are merged back into one file per level,
            which bounds every merge's fan-in — and therefore its read
            buffers — by one level's fan-out."""
            if handle.rows_written > budget and depth < MAX_SPILL_DEPTH:
                fanout = spill.partition_count(handle.rows_written)
                subfiles = [spill.new_file() for _ in range(fanout)]
                for tagged_values, anns in handle.entries():
                    key = _distinct_key(tagged_values[1:])
                    subfiles[hash((depth, key)) % fanout].append(tagged_values,
                                                                 anns)
                handle.close()
                split = max(f.rows_written for f in subfiles) < \
                    sum(f.rows_written for f in subfiles)
                # A partition rehashing cannot split (one dominant value)
                # dedups in memory — its distinct set is tiny by definition.
                next_depth = depth + 1 if split else MAX_SPILL_DEPTH
                outputs = [distinct_partition(sub, next_depth)
                           for sub in subfiles]
                sink = spill.new_file()
                merge_outputs(outputs, sink)
                return sink
            return dedup_leaf(handle)

        # Dedup each partition (recursively), then k-way merge the
        # seq-ordered partition outputs to restore the exact first-seen
        # order — streaming from disk, never holding the operator's whole
        # output in memory.
        output_files: List[SpillFile] = []
        for index, handle in enumerate(files):
            with spill.stats.timed_partition(event, partition=index) as timing:
                out = distinct_partition(handle, depth=1)
                timing["rows"] = out.rows_written
            output_files.append(out)
        merged_entries = heapq.merge(*(read_back(out) for out in output_files),
                                     key=lambda entry: entry[0])
        for _, values, anns in merged_entries:
            yield Row(values, anns if anns is not None
                      else [set() for _ in range(arity)])
        for out in output_files:
            out.close()

    def output_rows() -> Iterator[Row]:
        budget = spill.budget_rows if spill is not None else None
        seen: Dict[Tuple[Any, ...], List[Row]] = {}
        order: List[Tuple[Any, ...]] = []
        buffered = 0
        iterator = iter(rows)
        for row in iterator:
            key = _distinct_key(row.values)
            if key not in seen:
                seen[key] = []
                order.append(key)
            seen[key].append(row)
            buffered += 1
            if budget is not None and buffered > budget:
                yield from spilled_distinct(seen, order, iterator)
                return
        for key in order:
            members = seen[key]
            annotations = merge_annotation_vectors(members, arity)
            yield Row(members[0].values, annotations)
    return schema, output_rows()


def order_by(relation: Relation, order_items: Sequence[ast.OrderItem],
             spill: Optional[SpillManager] = None) -> Relation:
    """ORDER BY: a pipeline breaker (compiled eagerly, sorted on first pull).

    With ``spill``, inputs beyond the budget use an *external sort*: sorted
    runs of at most ``budget_rows`` rows are spilled to temp files and a lazy
    k-way merge (``heapq.merge`` over the run readers) produces the output,
    so peak memory stays O(budget + runs) instead of O(input).  The last run
    stays in memory (hybrid), and ties preserve input order in both paths
    (stable sort in memory; the merge prefers earlier runs).
    """
    schema, rows = relation
    evaluator = Evaluator(schema)
    compiled = [(evaluator.compile(item.expr), item.ascending) for item in order_items]

    def sort_key(row: Row) -> Tuple[Any, ...]:
        return tuple(
            SortKey(evaluate(row)) if ascending else ReverseSortKey(evaluate(row))
            for evaluate, ascending in compiled)

    def external_rows(iterator: Iterator[Row], budget: int) -> Iterator[Row]:
        event: Optional[Dict[str, Any]] = None
        runs: List[SpillFile] = []
        buffer: List[Row] = []
        for row in iterator:
            buffer.append(row)
            if len(buffer) >= budget:
                if event is None:
                    event = spill.stats.record("sort", runs=0, spilled_rows=0)
                with spill.stats.timed_partition(event,
                                                 run=len(runs)) as timing:
                    buffer.sort(key=sort_key)
                    run = spill.new_file()
                    for sorted_row in buffer:
                        run.append(sorted_row.values, sorted_row._annotations)
                    timing["rows"] = run.rows_written
                runs.append(run)
                buffer = []
        buffer.sort(key=sort_key)
        if not runs:
            yield from buffer
            return
        event["runs"] = len(runs) + (1 if buffer else 0)
        event["spilled_rows"] = sum(run.rows_written for run in runs)

        def run_stream(run: SpillFile) -> Iterator[Row]:
            return (Row(values, anns) for values, anns in run.entries())

        streams: List[Iterator[Row]] = [run_stream(run) for run in runs]
        if buffer:
            streams.append(iter(buffer))
        yield from heapq.merge(*streams, key=sort_key)
        for run in runs:
            run.close()

    def output_rows() -> Iterator[Row]:
        budget = spill.budget_rows if spill is not None else None
        if budget is not None:
            yield from external_rows(iter(rows), budget)
            return
        decorated = list(rows)
        # Sort by the last key first so earlier keys take precedence (stable sort).
        for evaluate, ascending in reversed(compiled):
            decorated.sort(key=lambda row: SortKey(evaluate(row)), reverse=not ascending)
        yield from decorated
    return schema, output_rows()


def limit_offset(relation: Relation, limit: Optional[int],
                 offset: Optional[int]) -> Relation:
    """LIMIT/OFFSET with short-circuiting: stops pulling once satisfied."""
    schema, rows = relation
    start = offset or 0

    if isinstance(rows, BatchedRows):
        def output_batches() -> Iterator[RowBatch]:
            if limit is not None and limit <= 0:
                return
            to_skip = start
            remaining = limit
            for batch in rows.batches:
                values, annotations = batch.values, batch.annotations
                if to_skip:
                    if to_skip >= len(values):
                        to_skip -= len(values)
                        continue
                    values = values[to_skip:]
                    annotations = annotations[to_skip:] if annotations else None
                    to_skip = 0
                if remaining is not None and len(values) > remaining:
                    values = values[:remaining]
                    annotations = annotations[:remaining] if annotations else None
                if values:
                    yield RowBatch(values, annotations)
                    if remaining is not None:
                        remaining -= len(values)
                        if remaining <= 0:
                            return
        return schema, BatchedRows(output_batches())

    def output_rows() -> Iterator[Row]:
        if limit is not None and limit <= 0:
            return
        iterator = iter(rows)
        stop = None if limit is None else start + limit
        yield from islice(iterator, start, stop)
    return schema, output_rows()


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------
def _check_arity(left: Relation, right: Relation, op: str) -> None:
    if len(left[0]) != len(right[0]):
        raise ExecutionError(
            f"{op} requires both sides to have the same number of columns "
            f"({len(left[0])} vs {len(right[0])})"
        )


def union(left: Relation, right: Relation, keep_all: bool = False,
          spill: Optional[SpillManager] = None) -> Relation:
    """UNION [ALL]: annotations of matching tuples from both sides are unioned."""
    _check_arity(left, right, "UNION")
    schema = left[0]

    def combined() -> Iterator[Row]:
        yield from left[1]
        yield from right[1]
    if keep_all:
        return schema, combined()
    return distinct((schema, combined()), spill)


def _ann_union(target: Optional[List[Set[Any]]],
               anns: Optional[Sequence[Set[Any]]],
               arity: int) -> Optional[List[Set[Any]]]:
    """Fold one annotation vector into a running per-column union.

    ``None`` target means "nothing annotated yet" — unannotated inputs never
    allocate per-column sets."""
    if anns is None or not any(anns):
        return target
    if target is None:
        target = [set() for _ in range(arity)]
    for position in range(min(arity, len(anns))):
        target[position] |= anns[position]
    return target


def intersect(left: Relation, right: Relation,
              spill: Optional[SpillManager] = None,
              input_rows_hint: Optional[float] = None) -> Relation:
    """INTERSECT: data values must match; annotations from both sides merge.

    This is the paper's motivating example (Section 3): the genes common to
    DB1_Gene and DB2_Gene carry the annotations from *both* tables in the
    answer, something plain SQL needs three statements to achieve.

    Memory bounding: the right side keeps one running annotation union per
    distinct value (never the member rows), and the left side streams,
    keeping state only for values the right side contains — so with the
    right side under ``spill.budget_rows`` nothing else can grow.  A right
    side beyond the budget hash-partitions both inputs on the value tuple;
    partitions intersect independently and a k-way merge on the left side's
    first-seen sequence restores the exact in-memory output order.
    """
    _check_arity(left, right, "INTERSECT")
    schema = left[0]
    arity = len(schema)

    def emit(values: Tuple[Any, ...], left_union, right_union) -> Row:
        merged = [set() for _ in range(arity)]
        for source in (left_union, right_union):
            if source is not None:
                for position in range(arity):
                    merged[position] |= source[position]
        return Row(values, merged)

    def spilled_intersect(right_union: Dict[Tuple[Any, ...], Any],
                          right_rest: Iterator[Row],
                          left_iter: Iterator[Row]) -> Iterator[Row]:
        fanout = spill.partition_count(input_rows_hint)
        event = spill.stats.record("intersect", partitions=fanout)
        right_files = [spill.new_file() for _ in range(fanout)]
        for values, union in right_union.items():
            right_files[hash(values) % fanout].append(values, union)
        for row in right_rest:
            right_files[hash(row.values) % fanout].append(row.values,
                                                          row._annotations)
        left_files = [spill.new_file() for _ in range(fanout)]
        sequence = 0
        for row in left_iter:
            left_files[hash(row.values) % fanout].append(
                (sequence,) + row.values, row._annotations)
            sequence += 1
        event["spilled_rows"] = sum(f.rows_written for f in right_files) \
            + sum(f.rows_written for f in left_files)

        def intersect_partition(right_file: SpillFile,
                                left_file: SpillFile) -> SpillFile:
            rmap: Dict[Tuple[Any, ...], Any] = {}
            for values, anns in right_file.entries():
                if values not in rmap:
                    rmap[values] = None
                rmap[values] = _ann_union(rmap[values], anns, arity)
            right_file.close()
            groups: Dict[Tuple[Any, ...], List[Any]] = {}
            ordered: List[Tuple[Any, ...]] = []
            for tagged, anns in left_file.entries():
                sequence_no, values = tagged[0], tagged[1:]
                entry = groups.get(values)
                if entry is None:
                    if values not in rmap:
                        continue
                    groups[values] = entry = [sequence_no, None]
                    ordered.append(values)
                entry[1] = _ann_union(entry[1], anns, arity)
            left_file.close()
            out = spill.new_file()
            for values in ordered:
                sequence_no, left_union = groups[values]
                merged = emit(values, left_union, rmap[values])
                out.append((sequence_no,) + values, merged.annotations)
            return out

        outputs: List[SpillFile] = []
        for index, pair in enumerate(zip(right_files, left_files)):
            with spill.stats.timed_partition(event, partition=index) as timing:
                out = intersect_partition(*pair)
                timing["rows"] = out.rows_written
            outputs.append(out)

        def read_back(out: SpillFile):
            for tagged, anns in out.entries():
                yield tagged[0], tagged[1:], anns

        merged_entries = heapq.merge(*(read_back(out) for out in outputs),
                                     key=itemgetter(0))
        for _, values, anns in merged_entries:
            yield Row(values, anns if anns is not None
                      else [set() for _ in range(arity)])
        for out in outputs:
            out.close()

    def output_rows() -> Iterator[Row]:
        budget = spill.budget_rows if spill is not None else None
        right_union: Dict[Tuple[Any, ...], Any] = {}
        right_count = 0
        right_iter = iter(right[1])
        for row in right_iter:
            values = row.values
            if values not in right_union:
                right_union[values] = None
            right_union[values] = _ann_union(right_union[values],
                                             row._annotations, arity)
            right_count += 1
            if budget is not None and right_count > budget:
                yield from spilled_intersect(right_union, right_iter,
                                             iter(left[1]))
                return
        left_state: Dict[Tuple[Any, ...], Any] = {}
        order: List[Tuple[Any, ...]] = []
        for row in left[1]:
            values = row.values
            if values not in right_union:
                continue
            if values not in left_state:
                left_state[values] = None
                order.append(values)
            left_state[values] = _ann_union(left_state[values],
                                            row._annotations, arity)
        for values in order:
            yield emit(values, left_state[values], right_union[values])
    return schema, output_rows()


def except_(left: Relation, right: Relation,
            spill: Optional[SpillManager] = None,
            input_rows_hint: Optional[float] = None) -> Relation:
    """EXCEPT: tuples of the left side absent from the right, annotations kept.

    A right side beyond ``spill.budget_rows`` hash-partitions both inputs on
    the value tuple; each partition filters its left rows against its right
    value set independently and a merge on the left sequence numbers
    restores input order before the (already spill-aware) DISTINCT on top.
    """
    _check_arity(left, right, "EXCEPT")
    schema = left[0]

    def spilled_except(right_values: Set[Tuple[Any, ...]],
                       right_rest: Iterator[Row],
                       left_iter: Iterator[Row]) -> Iterator[Row]:
        fanout = spill.partition_count(input_rows_hint)
        event = spill.stats.record("except", partitions=fanout)
        right_files = [spill.new_file() for _ in range(fanout)]
        for values in right_values:
            right_files[hash(values) % fanout].append(values, None)
        for row in right_rest:
            right_files[hash(row.values) % fanout].append(row.values, None)
        left_files = [spill.new_file() for _ in range(fanout)]
        sequence = 0
        for row in left_iter:
            left_files[hash(row.values) % fanout].append(
                (sequence,) + row.values, row._annotations)
            sequence += 1
        event["spilled_rows"] = sum(f.rows_written for f in right_files) \
            + sum(f.rows_written for f in left_files)

        def except_partition(right_file: SpillFile,
                             left_file: SpillFile) -> SpillFile:
            excluded = {values for values, _ in right_file.entries()}
            right_file.close()
            out = spill.new_file()
            for tagged, anns in left_file.entries():
                if tagged[1:] not in excluded:
                    out.append(tagged, anns)
            left_file.close()
            return out

        outputs: List[SpillFile] = []
        for index, pair in enumerate(zip(right_files, left_files)):
            with spill.stats.timed_partition(event, partition=index) as timing:
                out = except_partition(*pair)
                timing["rows"] = out.rows_written
            outputs.append(out)

        def read_back(out: SpillFile):
            for tagged, anns in out.entries():
                yield tagged[0], tagged[1:], anns

        merged_entries = heapq.merge(*(read_back(out) for out in outputs),
                                     key=itemgetter(0))
        for _, values, anns in merged_entries:
            yield Row(values, anns)
        for out in outputs:
            out.close()

    def kept() -> Iterator[Row]:
        budget = spill.budget_rows if spill is not None else None
        right_values: Set[Tuple[Any, ...]] = set()
        right_count = 0
        right_iter = iter(right[1])
        for row in right_iter:
            right_values.add(row.values)
            right_count += 1
            if budget is not None and right_count > budget:
                yield from spilled_except(right_values, right_iter,
                                          iter(left[1]))
                return
        for row in left[1]:
            if row.values not in right_values:
                yield row
    return distinct((schema, kept()), spill, input_rows_hint)
