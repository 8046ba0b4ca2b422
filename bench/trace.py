"""Tracing for the benchmark's traced pass, kept entirely outside the engine.

:class:`Tracer` installs timing shims around the engine's *public*
per-statement, per-batch and per-page entry points (``TARGETS``): class
methods are patched on the class, module functions wherever a ``repro.*``
module bound them.  Per-row functions are never timed; ``Table.read_row``
gets a bare counter.  Every shimmed call records a span
``[name, start, end, parent, op id]`` in memory; spans are aggregated (and
written out) only after the pass ends.  A layer's *self time* is its span
minus the part its child spans cover.

Generators (``Table.scan_batches``, ``BPlusTree.iter_range`` ...) are lazy, so
their span is the time spent *inside* the generator across all ``next()``
calls: ``end`` is ``start`` plus that busy time, not a wall-clock instant.

The engine's public counters are read by :func:`read_counters` /
:func:`read_spill` around each op and reported as deltas.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

CALL, GEN, COUNT = "call", "gen", "count"

#: (span name, module, class or None for a module function, attribute, kind)
TARGETS: List[Tuple[str, str, Optional[str], str, str]] = [
    ("client.request", "repro.client", "NetworkConnection", "request", CALL),
    ("server.protocol.codec", "repro.server.protocol", None, "encode_frame", CALL),
    ("server.protocol.codec", "repro.server.protocol", None, "decode_payload", CALL),
    ("server.protocol.codec", "repro.server.protocol", None, "encode_row", CALL),
    ("server.protocol.codec", "repro.server.protocol", None, "decode_row", CALL),
    ("core.transactions.lock_acquire", "repro.core.transactions",
     "ReaderWriterLock", "acquire_read", CALL),
    ("core.transactions.lock_acquire", "repro.core.transactions",
     "ReaderWriterLock", "acquire_write", CALL),
    ("core.transactions.commit", "repro.core.transactions",
     "TransactionManager", "commit", CALL),
    ("storage.wal.replay", "repro.core.transactions",
     "TransactionManager", "replay", CALL),
    ("dbapi.execute", "repro.dbapi.connection", "Cursor", "execute", CALL),
    ("dbapi.execute", "repro.dbapi.connection", "Cursor", "executemany", CALL),
    ("dbapi.fetch", "repro.dbapi.connection", "Cursor", "fetchone", CALL),
    ("dbapi.fetch", "repro.dbapi.connection", "Cursor", "fetchmany", CALL),
    ("dbapi.fetch", "repro.dbapi.connection", "Cursor", "fetchall", CALL),
    ("dbapi.commit", "repro.dbapi.connection", "Connection", "commit", CALL),
    ("executor.execute", "repro.executor.engine", "Engine", "execute_prepared", CALL),
    ("executor.execute", "repro.executor.engine", "Engine", "stream_prepared", CALL),
    ("executor.execute", "repro.executor.engine", "Engine", "execute", CALL),
    ("sql.parse", "repro.sql.parser", None, "parse_prepared", CALL),
    ("executor.prepared.bind", "repro.executor.prepared", None, "bind_plan", CALL),
    ("index.lookup", "repro.index.btree", "BPlusTree", "search", CALL),
    ("index.lookup", "repro.index.btree", "BPlusTree", "iter_range", GEN),
    ("index.lookup", "repro.index.btree", "BPlusTree", "iter_range_desc", GEN),
    ("index.maintain", "repro.index.manager", "IndexManager", "on_insert", CALL),
    ("index.maintain", "repro.index.manager", "IndexManager", "on_update", CALL),
    ("index.maintain", "repro.index.manager", "IndexManager", "on_delete", CALL),
    ("catalog.scan_batches", "repro.catalog.table", "Table", "scan_batches", GEN),
    ("catalog.scan", "repro.catalog.table", "Table", "scan", GEN),
    ("catalog.read_row", "repro.catalog.table", "Table", "read_row", COUNT),
    ("types.decode", "repro.types.values", None, "deserialize_records", CALL),
    ("storage.wal.commit", "repro.storage.wal", "FileWAL", "append", CALL),
    ("storage.wal.commit", "repro.storage.wal", "FileWAL", "sync", CALL),
    ("storage.wal.commit", "repro.storage.wal", "FileWAL", "commit", CALL),
    ("annotations.propagation_index", "repro.annotations.manager",
     "AnnotationManager", "propagation_index", CALL),
    ("annotations.add", "repro.annotations.manager",
     "AnnotationManager", "add_annotation", CALL),
    ("dependencies.handle_update", "repro.dependencies.tracker",
     "DependencyTracker", "handle_update", CALL),
    ("authorization.log_update", "repro.authorization.approval",
     "ApprovalManager", "log_update", CALL),
    ("authorization.review", "repro.authorization.approval",
     "ApprovalManager", "approve", CALL),
    ("authorization.review", "repro.authorization.approval",
     "ApprovalManager", "disapprove", CALL),
]

#: What to count from a shimmed call's result (a generator's: each item):
#: ``(class, attribute) -> result -> ((count name, amount), ...)``.
RESULT_COUNTS: Dict[Tuple[Optional[str], str], Callable[[Any], Any]] = {
    ("Table", "scan_batches"):
        lambda batch: (("catalog.rows_scanned", len(batch)),),
    (None, "deserialize_records"):
        lambda rows: (("types.rows_decoded", len(rows)),),
    ("DependencyTracker", "handle_update"):
        lambda impact: (
            ("dependencies.cells_recomputed", len(impact.recomputed)),
            ("dependencies.cells_outdated", len(impact.marked_outdated))),
}

Span = List[Any]  # [name, start, end, parent span or None, op id or None]

#: Attribute that marks a function as one of this module's shims.
SHIM_MARK = "_bench_shim_of"


class _ThreadState:
    __slots__ = ("stack", "counts", "op")

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None


class _TracedIterator:
    """Times what happens inside a generator, one ``next()`` at a time."""

    __slots__ = ("_tracer", "_name", "_iterator", "_span", "_count")

    def __init__(self, tracer: "Tracer", name: str, iterator: Any,
                 count: Optional[Callable[[Any], Any]]):
        self._tracer = tracer
        self._name = name
        self._iterator = iterator
        self._span: Optional[Span] = None
        self._count = count

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        state = self._tracer._state()
        span = self._span
        started = perf_counter()
        if span is None:
            span = self._span = [self._name, started, started,
                                 state.stack[-1] if state.stack else None,
                                 state.op]
            self._tracer.spans.append(span)
        state.stack.append(span)
        try:
            item = next(self._iterator)
        finally:
            span[2] += perf_counter() - started
            state.stack.pop()
        if self._count is not None:
            for counted, amount in self._count(item):
                state.counts[counted, span[4]] += amount
        return item

    def close(self) -> None:
        self._iterator.close()


class Tracer:
    """Installs the shims, collects spans and counts, removes the shims."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- per-thread state -----------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def set_op(self, op_id: Optional[int]) -> None:
        """Attribute the calling thread's next spans to this op."""
        self._state().op = op_id

    def counts(self) -> Counter:
        """``(count name, op id) -> n`` summed over every thread."""
        total: Counter = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def take(self) -> Tuple[List[Span], Counter]:
        """Hand over (and forget) everything recorded so far."""
        spans, counts = list(self.spans), self.counts()
        self.spans.clear()
        for state in self._states:
            state.counts.clear()
        return spans, counts

    # -- shims ----------------------------------------------------------
    def _call_shim(self, name: str, function: Callable,
                   count: Optional[Callable[[Any], Any]]) -> Callable:
        spans = self.spans
        state_of = self._state

        def shim(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, state.op]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                for counted, amount in count(result):
                    state.counts[counted, state.op] += amount
            return result
        return shim

    def _gen_shim(self, name: str, function: Callable,
                  count: Optional[Callable[[Any], Any]]) -> Callable:
        def shim(*args: Any, **kwargs: Any) -> _TracedIterator:
            return _TracedIterator(self, name, function(*args, **kwargs), count)
        return shim

    def _count_shim(self, name: str, function: Callable) -> Callable:
        state_of = self._state

        def shim(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            state.counts[name, state.op] += 1
            return function(*args, **kwargs)
        return shim

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("repro.client")  # pulls in every layer
        for name, module_name, owner, attribute, kind in TARGETS:
            module = importlib.import_module(module_name)
            holder = getattr(module, owner) if owner else module
            original = holder.__dict__[attribute] if owner \
                else getattr(module, attribute)
            count = RESULT_COUNTS.get((owner, attribute))
            if kind == CALL:
                shim = self._call_shim(name, original, count)
            elif kind == GEN:
                shim = self._gen_shim(name, original, count)
            else:
                shim = self._count_shim(name, original)
            setattr(shim, SHIM_MARK, original)
            holders = [holder] if owner else [
                mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and mod_name.split(".")[0] == "repro"
                and mod.__dict__.get(attribute) is original]
            for target in holders:
                setattr(target, attribute, shim)
                self._patches.append((target, attribute, original))

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._patches):
            setattr(target, attribute, original)
        self._patches = []


def installed_shims() -> List[str]:
    """Every place in ``repro`` that currently resolves to a shim — module
    attributes and methods of the classes they define (empty once removed)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if hasattr(value, SHIM_MARK):
                found.append(f"{module_name}.{attribute}")
            elif isinstance(value, type) and value.__module__ == module_name:
                found.extend(f"{module_name}.{value.__name__}.{method}"
                             for method, function in vars(value).items()
                             if hasattr(function, SHIM_MARK))
    return found


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def aggregate(spans: Iterable[Span],
              class_of: Callable[[Optional[int]], str] = lambda op: "all",
              ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``class -> span name -> {count, inclusive_s, self_s}``.

    ``inclusive_s`` counts a span only when no ancestor has the same name
    (``Engine.execute_prepared`` calling ``Engine.execute`` is one visit to
    the executor, not two); ``self_s`` is the span minus its direct children.
    """
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] is not None:
            covered[id(span[3])] += span[2] - span[1]
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    for span in spans:
        name, start, end, parent, op_id = span
        entry = result.setdefault(class_of(op_id), {}).setdefault(
            name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["self_s"] += (end - start) - covered.get(id(span), 0.0)
        while parent is not None and parent[0] != name:
            parent = parent[3]
        if parent is None:
            entry["count"] += 1
            entry["inclusive_s"] += end - start
    return result


def merge(aggregates: Iterable[Dict[str, Dict[str, float]]]
          ) -> Dict[str, Dict[str, float]]:
    """Sum per-class aggregates into one ``name -> totals`` table."""
    total: Dict[str, Dict[str, float]] = {}
    for table in aggregates:
        for name, entry in table.items():
            into = total.setdefault(
                name, {"count": 0, "inclusive_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
    return total


def spans_as_json(spans: List[Span]) -> List[List[Any]]:
    """Spans with the parent reference replaced by its index."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [[name, start, end,
             index.get(id(parent)) if parent is not None else None, op_id]
            for name, start, end, parent, op_id in spans]


# ---------------------------------------------------------------------------
# Public-counter readers
# ---------------------------------------------------------------------------
def read_counters(database: Any) -> Dict[str, int]:
    """The engine's public counters, for before/after deltas."""
    plan = database.engine.plan_cache.stats
    pool = database.catalog.pool.stats
    io = database.io_statistics()
    wal = database.wal
    return {
        "plan_hits": plan.hits, "plan_misses": plan.misses,
        "pool_hits": pool.hits, "pool_misses": pool.misses,
        "pool_evictions": pool.evictions,
        "page_reads": io.page_reads, "page_writes": io.page_writes,
        "wal_fsyncs": wal.fsync_count if wal is not None else 0,
        "wal_bytes": wal.size_bytes() if wal is not None else 0,
    }


def read_spill(database: Any) -> Dict[str, float]:
    """``engine.last_spill`` of the calling thread's last query, flattened."""
    spill = database.engine.last_spill
    events = spill.operators
    return {
        "spill_bytes": spill.spilled_bytes,
        "spill_rows": spill.spilled_rows,
        "spill_partitions": sum(event.get("partitions", event.get("runs", 0))
                                for event in events),
        "spill_seconds": sum(timing.get("seconds", 0.0) for event in events
                             for timing in event.get("partition_timings", ())),
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}
