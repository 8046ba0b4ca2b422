"""Runs one workload and turns what it observed into the named metrics.

Two kinds of run (README.md has the definitions of every metric):

* :func:`measure` — the end-to-end run.  The database is set up
  ``SETUP_REPEATS`` times; the spare instances are closed and reopened for
  ``reopen_s``, the last one takes the timed pass: closed-loop rounds of ops
  until ``seconds`` of busy time *and* ``MIN_OPS`` ops are done (or
  ``MAX_OVERRUN`` times ``seconds`` have passed).  Tracing is never on.
* :func:`trace_layers` — the traced run: a fixed number of rounds (so counts
  repeat exactly), untraced and then under :class:`bench.trace.Tracer`, each
  on a fresh instance; per-layer numbers come from the traced pass, the
  tracing overhead from the difference.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import statistics
import sys
import threading
import traceback
from time import perf_counter
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from bench import trace
from bench.datagen import Op
from bench.workloads import WORKLOADS, Workload, check_rows

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reopens timed on each spare instance.
REOPENS_PER_INSTANCE = 2
#: Timed ops a run must reach even when ``--seconds`` is over, so that the
#: 95th percentile keeps ten samples beyond it ...
MIN_OPS = 200
#: ... unless that would take this many times ``--seconds``: an engine that
#: got much slower must not push a run past the driver's time limit.
MAX_OVERRUN = 3
#: Op ids are ``session * SESSION_STRIDE + position in the session's sequence``.
SESSION_STRIDE = 10_000_000
#: Rounds per session of the traced pass (a prefix of the same op sequence).
TRACE_ROUNDS = {"served_point_read": 20, "annotated_query": 1,
                "curation_write": 15, "analytic_scan": 4}
#: The table whose ``COUNT(*)`` is the first query after a reopen.
MAIN_TABLE = {"served_point_read": "Gene", "annotated_query": "Gene",
              "curation_write": "Gene", "analytic_scan": "Expr"}

class Sample(NamedTuple):
    """One timed op."""

    op_id: int
    cls: str
    key: Tuple[str, Any]     # statement shape: class + string tag
    seconds: float
    ok: bool
    rows_out: int
    cells: int               # output cells and the annotations on them,
    annotations: int         # counted in the traced pass only
    counters: Optional[Dict[str, float]]


class Pass:
    """The samples of one pass over a workload's op sequence."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self.busy_s: List[float] = []      # per session
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not sample.ok for sample in self.samples)

    def mean_latency(self) -> float:
        return statistics.fmean(sample.seconds for sample in self.samples)


def _shape(op: Op) -> Tuple[str, Any]:
    return (op.cls, op.tag if isinstance(op.tag, str) else None)


def _run_op(workload: Workload, op: Op, session: int) -> Tuple[Any, Optional[str], float]:
    """Execute one op; an exception is a failed op, not a failed benchmark."""
    started = perf_counter()
    try:
        result, error = workload.execute(op, session), None
    except Exception:
        result, error = None, traceback.format_exc(limit=8)
    return result, error, perf_counter() - started


def _judge(workload: Workload, op: Op, result: Any, error: Optional[str],
           errors: List[str]) -> bool:
    if error is None:
        try:
            if workload.check(op, result):
                return True
            error = f"oracle mismatch on {op.cls}: {op.sql} {op.params!r}"
        except Exception:
            error = traceback.format_exc(limit=8)
    if len(errors) < 5:
        errors.append(error)
        print(error, file=sys.stderr)
    return False


def warm_up(workload: Workload, into: Pass) -> Dict[Tuple[str, Any], float]:
    """First execution of every statement text; returns those latencies."""
    first: Dict[Tuple[str, Any], float] = {}
    for session in range(workload.data.sessions):
        for op in workload.data.warmup(session):
            result, error, seconds = _run_op(workload, op, session)
            ok = _judge(workload, op, result, error, into.errors)
            into.samples.append(Sample(-1, op.cls, _shape(op), seconds, ok,
                                       0, 0, 0, None))
            first.setdefault(_shape(op), seconds)
    return first


def _drive(workload: Workload, session: int, into: Pass, *, seconds: float,
           min_ops: int, rounds: Optional[int],
           tracer: Optional[trace.Tracer]) -> None:
    """One connection's closed loop: whole rounds until the stop rule holds.

    Ops are generated before, and judged after, the clock of their round, so
    ``busy`` is the engine's time plus the loop itself.
    """
    database = workload.database if tracer is not None else None
    busy, done, index = 0.0, 0, 0
    while True:
        ops = workload.data.round(index, session)
        outcomes = []
        round_started = perf_counter()
        for op_id, op in enumerate(ops, session * SESSION_STRIDE + done):
            counters = None
            if tracer is not None:
                tracer.set_op(op_id)
                if database is not None:
                    before = trace.read_counters(database)
            result, error, elapsed = _run_op(workload, op, session)
            if database is not None:
                counters = trace.delta(trace.read_counters(database), before)
                counters.update(trace.read_spill(database)
                                if isinstance(result, list) else {})
            outcomes.append((op_id, op, result, error, elapsed, counters))
        busy += perf_counter() - round_started
        if tracer is not None:
            tracer.set_op(None)
        for op_id, op, result, error, elapsed, counters in outcomes:
            ok = _judge(workload, op, result, error, into.errors)
            cells = annotations = 0
            if tracer is not None and isinstance(result, list):
                for _values, columns in check_rows(result):
                    cells += len(columns)
                    annotations += sum(map(len, columns))
            into.samples.append(Sample(
                op_id, op.cls, _shape(op), elapsed, ok, workload.rows_out(result) if error is None else 0,
                cells, annotations, counters))
        done += len(ops)
        index += 1
        if rounds is not None:
            if index >= rounds:
                break
        elif busy >= seconds and (done >= min_ops
                                  or busy >= MAX_OVERRUN * seconds):
            break
    into.busy_s.append(busy)


def run_pass(workload: Workload, *, seconds: float = 0.0, min_ops: int = 0,
             rounds: Optional[int] = None,
             tracer: Optional[trace.Tracer] = None) -> Pass:
    """Drive every connection of the workload, each on its own thread."""
    result = Pass()
    sessions = workload.data.sessions
    options = dict(seconds=seconds, min_ops=math.ceil(min_ops / sessions),
                   rounds=rounds, tracer=tracer)
    if sessions == 1:
        _drive(workload, 0, result, **options)
        return result
    failures: List[BaseException] = []
    barrier = threading.Barrier(sessions)

    def body(session: int) -> None:
        try:
            barrier.wait()
            _drive(workload, session, result, **options)
        except BaseException as exc:  # re-raised on the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=body, args=(session,))
               for session in range(sessions)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return result


def _timed_reopen(workload: Workload) -> Tuple[float, Any]:
    """``Database(path)`` plus the first ``SELECT COUNT(*)``."""
    started = perf_counter()
    conn = workload.reopen()
    conn.execute(f"SELECT COUNT(*) FROM {MAIN_TABLE[workload.name]}").fetchone()
    return perf_counter() - started, conn


def _fresh_directory(scratch: str, label: str) -> str:
    directory = os.path.join(scratch, label)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    return directory


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, scratch: str,
            quick: bool = False) -> Dict[str, Any]:
    """The end-to-end metrics of one workload (tracing off)."""
    repeats = 1 if quick else SETUP_REPEATS
    min_ops = 0 if quick else MIN_OPS
    setup_s: List[float] = []
    reopen_s: List[float] = []
    warm = Pass()
    workload: Optional[Workload] = None
    try:
        for repeat in range(repeats):
            workload = WORKLOADS[name](seed, quick)
            directory = _fresh_directory(scratch, f"{name}-{repeat}")
            started = perf_counter()
            workload.setup(directory)
            warm_up(workload, warm)
            setup_s.append(perf_counter() - started)
            if repeat < repeats - 1:
                workload.shutdown()
                for _ in range(REOPENS_PER_INSTANCE):
                    elapsed, conn = _timed_reopen(workload)
                    conn.close()
                    reopen_s.append(elapsed)
        stored_after_setup = workload.stored_bytes()
        timed = run_pass(workload, seconds=seconds, min_ops=min_ops)
        engine = workload.shutdown()
    except BaseException:
        if workload is not None:
            _abandon(workload)
        raise
    stored_at_end = workload.stored_bytes()
    elapsed, conn = _timed_reopen(workload)
    if not reopen_s:
        reopen_s.append(elapsed)
    durable_attempted, durable_failed = workload.verify_durable(conn)
    conn.close()

    attempted = warm.attempted + timed.attempted + durable_attempted
    failed = warm.failed + timed.failed + durable_failed
    latencies = sorted(sample.seconds for sample in timed.samples)
    per_session = [0] * len(timed.busy_s)
    for sample in timed.samples:
        per_session[sample.op_id // SESSION_STRIDE] += sample.ok
    # A workload that writes is charged for what its timed run stored; one
    # that only reads, for what its load stored (see README.md).
    run_user_bytes = workload.run_user_bytes()
    if run_user_bytes:
        amplification = (stored_at_end - stored_after_setup) / run_user_bytes
    else:
        amplification = stored_at_end / workload.setup_user_bytes()
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_ops_s": sum(ok / busy for ok, busy
                                in zip(per_session, timed.busy_s)),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": engine["peak_rss_mb"],
        "reopen_s": statistics.median(reopen_s),
        "stored_bytes_per_user_byte": amplification,
    }
    by_class: Dict[str, List[float]] = {}
    for sample in timed.samples:
        by_class.setdefault(sample.cls, []).append(sample.seconds)
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "details": {
            "timed_ops": timed.attempted,
            "timed_busy_s": timed.busy_s,
            "latency_samples": len(latencies),
            "samples_beyond_p95": len(latencies)
            - math.ceil(0.95 * len(latencies)),
            "setup_s_samples": setup_s, "reopen_s_samples": reopen_s,
            "reopen_after_run_s": elapsed,
            "durable_checks": durable_attempted,
            "stored_bytes": stored_at_end,
            "class_latency_ms": {
                cls: {"ops": len(values),
                      "p50": statistics.median(values) * 1e3,
                      "max": max(values) * 1e3}
                for cls, values in sorted(by_class.items())},
            "errors": warm.errors + timed.errors,
        },
    }


def _abandon(workload: Workload) -> None:
    """Best-effort stop of a half-run workload (never masks the real error)."""
    try:
        workload.shutdown()
    except Exception:
        traceback.print_exc()


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------
_ANNOTATION_CLAUSE = re.compile(r" ANNOTATION\([^)]*\)| PROMOTE \([^)]*\)")


def _attach_cost(workload: Workload, tracer: trace.Tracer) -> Tuple[float, int]:
    """Differential replay: each annotated statement shape of round 0 against
    the same statement without its ``ANNOTATION``/``PROMOTE`` clauses.

    Returns the extra seconds and the user-table rows the statements examine
    (counted on the plain side, which reads no annotation table).
    """
    if workload.name != "annotated_query":
        return 0.0, 0
    extra, rows = 0.0, 0
    seen = set()
    for op in workload.data.round(0):
        plain = _ANNOTATION_CLAUSE.sub("", op.sql)
        if "AWHERE" in plain or _shape(op) in seen:
            continue
        seen.add(_shape(op))
        _, _, annotated_s = _run_op(workload, op, 0)
        tracer.take()
        _, _, plain_s = _run_op(workload, op._replace(sql=plain), 0)
        _, counts = tracer.take()
        extra += annotated_s - plain_s
        rows += sum(amount for (counted, _op), amount in counts.items()
                    if counted in ("catalog.read_row", "catalog.rows_scanned"))
    return extra, rows


def trace_layers(name: str, seed: int, scratch: str,
                 quick: bool = False) -> Dict[str, Any]:
    """The per-layer metrics of one workload (see the module docstring)."""
    rounds = 1 if quick else TRACE_ROUNDS[name]
    warm = Pass()

    def instance(label: str, traced: bool) -> Tuple[Workload, Dict]:
        workload = WORKLOADS[name](seed, quick)
        workload.setup(_fresh_directory(scratch, f"{name}-{label}"), trace=traced)
        return workload, warm_up(workload, warm)

    # Pass 1: tracing off, for the overhead and the warm statement times.
    # The first pass of a process runs cold (on the seed, 18 % slower on
    # analytic_scan), so it is made twice and the first one discarded.
    for label in ("discarded", "untraced"):
        workload, first_times = instance(label, traced=False)
        try:
            plain = run_pass(workload, rounds=rounds)
            workload.shutdown()
        except BaseException:
            _abandon(workload)
            raise

    # Pass 2: the same ops on a fresh instance, shims installed.
    tracer = trace.Tracer()
    workload, _ = instance("traced", traced=True)
    try:
        tracer.install()
        if workload.database is None:
            workload.mark()
        traced = run_pass(workload, rounds=rounds, tracer=tracer)
        spans, counts = tracer.take()
        wire = workload.wire_stats_delta() if workload.database is None else {}
        attach_s, attach_rows = _attach_cost(workload, tracer)
        state = _engine_state(workload)
        engine = workload.shutdown()
        tracer.take()
        _, conn = _timed_reopen(workload)
        reopen_spans, _ = tracer.take()
        after_reopen = _engine_state_after_reopen(workload, conn)
        conn.close()
    except BaseException:
        _abandon(workload)
        raise
    finally:
        tracer.uninstall()
    wal_bytes = os.path.getsize(workload.path + ".wal")

    classes = {sample.op_id: sample.cls for sample in traced.samples}
    by_class = trace.aggregate(spans, lambda op_id: classes.get(op_id, "-"))
    local = trace.merge(by_class.values())
    remote = engine.get("aggregate", {})
    spans_total = trace.merge([local, remote])
    counters: Dict[str, float] = dict(engine.get("counters", {}))
    for sample in traced.samples:
        for key, value in (sample.counters or {}).items():
            counters[key] = counters.get(key, 0) + value
    totals: Dict[str, float] = dict(engine.get("counts", {}))
    for (counted, _op), amount in counts.items():
        totals[counted] = totals.get(counted, 0) + amount

    ops = traced.attempted
    rows_out = sum(sample.rows_out for sample in traced.samples)

    def per_op_us(span: str, field: str = "inclusive_s", table=spans_total) -> float:
        return table.get(span, {}).get(field, 0.0) / ops * 1e6

    def per_op(total: float) -> float:
        return total / ops

    def calls_per_op(span: str) -> float:
        return spans_total.get(span, {}).get("count", 0) / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    warm_median = {
        key: statistics.median(s.seconds for s in plain.samples if s.key == key)
        for key in {sample.key for sample in plain.samples}}
    plan_us = [max(0.0, first - warm_median[key]) * 1e6
               for key, first in first_times.items() if key in warm_median]
    request_interval_us = engine.get("request_interval_s", 0.0) / ops * 1e6
    executor_s = sum(spans_total.get(span, {}).get("inclusive_s", 0.0)
                     for span in ("executor.execute", "dbapi.fetch"))
    pool_fetches = counters.get("pool_hits", 0) + counters.get("pool_misses", 0)
    plan_lookups = counters.get("plan_hits", 0) + counters.get("plan_misses", 0)
    writes = ops if counters.get("wal_bytes", 0) else 0
    replay = trace.aggregate(reopen_spans).get("all", {}).get(
        "storage.wal.replay", {})

    metrics = {
        "client.request_us": per_op_us("client.request"),
        "server.requests_per_op": calls_per_op("client.request"),
        "server.wire_us": per_op_us("client.request") - request_interval_us,
        "server.handle_self_us": request_interval_us
        - per_op_us("dbapi.execute", table=remote)
        - per_op_us("dbapi.fetch", table=remote),
        "server.protocol.codec_us": per_op_us("server.protocol.codec"),
        "server.rejected_share": ratio(wire.get("queries_rejected", 0),
                                       wire.get("requests_served", 0)),
        "core.transactions.lock_acquire_us":
            per_op_us("core.transactions.lock_acquire"),
        "core.transactions.commit_self_us":
            per_op_us("core.transactions.commit", "self_s"),
        "dbapi.execute_self_us": per_op_us("dbapi.execute", "self_s"),
        "sql.parse_us": per_op_us("sql.parse"),
        "sql.parse_calls_per_op": calls_per_op("sql.parse"),
        "planner.plan_us": statistics.fmean(plan_us) if plan_us else 0.0,
        "executor.prepared.plan_cache_hit_ratio":
            ratio(counters.get("plan_hits", 0), plan_lookups),
        "executor.prepared.bind_us": per_op_us("executor.prepared.bind"),
        "executor.execute_self_us": per_op_us("executor.execute", "self_s")
        + per_op_us("dbapi.fetch", "self_s"),
        "executor.rows_out_per_s": ratio(rows_out, executor_s),
        "executor.spill.bytes_per_op": per_op(counters.get("spill_bytes", 0)),
        "executor.spill.rows_per_op": per_op(counters.get("spill_rows", 0)),
        "executor.spill.partitions_per_op":
            per_op(counters.get("spill_partitions", 0)),
        "executor.spill.seconds_per_op": per_op(counters.get("spill_seconds", 0)),
        "index.lookup_us": per_op_us("index.lookup"),
        "index.lookups_per_op": calls_per_op("index.lookup"),
        "index.maintain_us": per_op_us("index.maintain"),
        "catalog.rows_examined_per_result": ratio(
            totals.get("catalog.read_row", 0)
            + totals.get("catalog.rows_scanned", 0), rows_out),
        "catalog.scan_us_per_row": ratio(
            spans_total.get("catalog.scan_batches", {}).get("inclusive_s", 0.0)
            * 1e6, totals.get("catalog.rows_scanned", 0)),
        "types.decode_us_per_row": ratio(
            spans_total.get("types.decode", {}).get("inclusive_s", 0.0) * 1e6,
            totals.get("types.rows_decoded", 0)),
        "storage.buffer_pool.fetches_per_op": per_op(pool_fetches),
        "storage.buffer_pool.hit_ratio":
            ratio(counters.get("pool_hits", 0), pool_fetches),
        "storage.buffer_pool.evictions_per_op":
            per_op(counters.get("pool_evictions", 0)),
        "storage.disk.page_reads_per_op": per_op(counters.get("page_reads", 0)),
        "storage.disk.page_writes_per_op": per_op(counters.get("page_writes", 0)),
        "storage.wal.commit_us": per_op_us("storage.wal.commit"),
        "storage.wal.fsyncs_per_commit":
            ratio(counters.get("wal_fsyncs", 0), writes),
        "storage.wal.bytes_per_commit":
            ratio(counters.get("wal_bytes", 0), writes),
        "storage.wal.replay_s": replay.get("inclusive_s", 0.0),
        "storage.wal.size_bytes": wal_bytes,
        "annotations.attach_us_per_row": ratio(attach_s * 1e6, attach_rows),
        "annotations.propagation_index_us":
            per_op_us("annotations.propagation_index"),
        "annotations.propagation_index_calls_per_op":
            calls_per_op("annotations.propagation_index"),
        "annotations.per_result_cell": ratio(
            sum(sample.annotations for sample in traced.samples),
            sum(sample.cells for sample in traced.samples)),
        "annotations.add_us": per_op_us("annotations.add"),
        "annotations.linkage_records": state["linkage_records"],
        "annotations.storage_pages": state["storage_pages"],
        "dependencies.handle_update_us": per_op_us("dependencies.handle_update"),
        "dependencies.cells_recomputed_per_op":
            per_op(totals.get("dependencies.cells_recomputed", 0)),
        "dependencies.cells_outdated_per_op":
            per_op(totals.get("dependencies.cells_outdated", 0)),
        "dependencies.bitmap_rle_bits": state["bitmap_rle_bits"],
        "dependencies.outdated_after_reopen": after_reopen["outdated"],
        "authorization.log_update_us": per_op_us("authorization.log_update"),
        "authorization.review_us": per_op_us("authorization.review"),
        "authorization.log_size": state["approval_log"],
        "authorization.log_after_reopen": after_reopen["approval_log"],
        "trace.overhead_share":
            1.0 - plain.mean_latency() / traced.mean_latency(),
    }
    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "details": {
            "traced_ops": ops, "rounds_per_session": rounds,
            "classes": _class_breakdown(traced, by_class, counts,
                                        engine.get("counts", {})),
            "server_child": {key: value for key, value in engine.items()
                             if key != "peak_rss_mb"},
            "errors": warm.errors + plain.errors + traced.errors,
        },
        "spans": trace.spans_as_json(spans),
    }


def _engine_state(workload: Workload) -> Dict[str, int]:
    """End-of-pass sizes the embedded engine reports about itself."""
    database = workload.database
    state = {"linkage_records": 0, "storage_pages": 0, "bitmap_rle_bits": 0,
             "approval_log": 0}
    if database is None:
        return state
    for table in workload.annotation_tables():
        state["linkage_records"] += table.linkage_record_count()
        state["storage_pages"] += table.storage_pages()
    state["approval_log"] = database.approval.log_size()
    if workload.name == "curation_write":
        protein = database.table("Protein")
        state["bitmap_rle_bits"] = database.tracker.bitmap_for(
            "Protein").rle_size_bits(protein.tuple_ids)
    return state


def _engine_state_after_reopen(workload: Workload, conn: Any) -> Dict[str, int]:
    """What survived the reopen of state the WAL does not journal today."""
    database = conn.database
    outdated = 0
    if workload.name == "curation_write":
        outdated = database.tracker.bitmap_for("Protein").outdated_count()
    return {"outdated": outdated, "approval_log": database.approval.log_size()}


def _class_breakdown(traced: Pass, by_class: Dict[str, Dict[str, Dict[str, float]]],
                     counts: Any, remote_counts: Dict[str, float]) -> Dict[str, Any]:
    """Per op class: ops, latency, spans, counts and counter deltas per op.

    ``remote_counts`` are the server child's, which knows no op ids; they
    exist only for the served workload, whose ops are all of one class.
    """
    classes: Dict[str, Any] = {}
    class_of = {sample.op_id: sample.cls for sample in traced.samples}
    for sample in traced.samples:
        entry = classes.setdefault(sample.cls, {
            "ops": 0, "seconds": 0.0, "rows_out": 0, "counts": {},
            "counters": {}})
        entry["ops"] += 1
        entry["seconds"] += sample.seconds
        entry["rows_out"] += sample.rows_out
        for key, value in (sample.counters or {}).items():
            entry["counters"][key] = entry["counters"].get(key, 0) + value
    for (counted, op_id), amount in counts.items():
        cls = class_of.get(op_id)
        if cls is not None:
            table = classes[cls]["counts"]
            table[counted] = table.get(counted, 0) + amount
    if len(classes) == 1:
        for entry in classes.values():
            for counted, amount in remote_counts.items():
                entry["counts"][counted] = entry["counts"].get(counted, 0) + amount
    for cls, entry in classes.items():
        ops = entry["ops"]
        examined = entry["counts"].get("catalog.read_row", 0) \
            + entry["counts"].get("catalog.rows_scanned", 0)
        entry["mean_latency_ms"] = entry.pop("seconds") / ops * 1e3
        entry["rows_examined_per_result"] = examined / max(1, entry["rows_out"])
        entry["counts_per_op"] = {key: value / ops for key, value
                                  in sorted(entry.pop("counts").items())}
        entry["counters_per_op"] = {key: value / ops for key, value
                                    in sorted(entry.pop("counters").items())}
        entry["spans_per_op"] = {
            span: {"calls": totals["count"] / ops,
                   "inclusive_us": totals["inclusive_s"] / ops * 1e6,
                   "self_us": totals["self_s"] / ops * 1e6}
            for span, totals in sorted(by_class.get(cls, {}).items())}
    return classes
