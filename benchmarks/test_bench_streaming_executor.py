"""Benchmarks for the streaming (Volcano-style) and vectorized executors.

Query shapes covered:

* scan+filter+LIMIT and a three-way equi-join under the streaming pipeline
  vs. the materialized baseline (latency + tracemalloc peak);
* the full-scan filter pipeline (no LIMIT) under the **batched** pipeline
  vs. row-at-a-time streaming — the vectorization headline number (plain
  wall clock: tracemalloc would distort the allocation-bound row path);
* B-tree ``IndexRangeScan`` vs. sequential scan on a selective window, and
  an ORDER BY satisfied by index order (sort elided) vs. an explicit sort.

Results are persisted to ``BENCH_streaming.json`` at the repo root via
:func:`bench_utils.write_bench_results` so the perf trajectory is tracked —
only under ``pytest --runslow`` (which ``check_bench_regression.py``
passes), so a plain tier-1 run leaves the tracked file alone.  The quick
smoke variants run in tier-1; the full-size variants are marked ``slow``.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro import Database

from bench_utils import print_table, write_bench_results


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def measure(db: Database, query: str, mode: str, *, strategy: str = "auto",
            budget: int = None) -> dict:
    """Latency + tracemalloc peak of one query under a pipeline mode."""
    db.config.execution_mode = mode
    db.config.join_strategy = strategy
    db.config.memory_budget_rows = budget
    try:
        tracemalloc.start()
        started = time.perf_counter()
        result = db.query(query)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        db.config.execution_mode = "streaming"
        db.config.join_strategy = "auto"
        db.config.memory_budget_rows = None
    return {"seconds": round(elapsed, 6), "peak_bytes": peak, "rows": len(result)}


def scan_db(rows: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE events (eid INTEGER PRIMARY KEY, kind TEXT, v FLOAT)")
    table = db.table("events")
    for i in range(rows):
        table.insert_row({"eid": i, "kind": f"k{i % 5}", "v": i * 0.5})
    db.analyze("events")
    return db


def join_db(genes: int, proteins_per_gene: int, samples_per_protein: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE gene (gid INTEGER PRIMARY KEY, score FLOAT)")
    db.execute("CREATE TABLE protein (pid INTEGER PRIMARY KEY, gid INTEGER, kind TEXT)")
    db.execute("CREATE TABLE sample (sid INTEGER PRIMARY KEY, pid INTEGER, w FLOAT)")
    gene, protein, sample = db.table("gene"), db.table("protein"), db.table("sample")
    pid = sid = 0
    for g in range(genes):
        gene.insert_row({"gid": g, "score": g * 0.5})
        for _ in range(proteins_per_gene):
            protein.insert_row({"pid": pid, "gid": g, "kind": f"k{pid % 3}"})
            for _ in range(samples_per_protein):
                sample.insert_row({"sid": sid, "pid": pid, "w": sid * 0.25})
                sid += 1
            pid += 1
    db.execute("CREATE INDEX ix_protein_gid ON protein (gid) USING btree")
    db.execute("CREATE INDEX ix_sample_pid ON sample (pid) USING btree")
    db.analyze()
    return db


def run_scan_filter_limit(rows: int, label: str) -> dict:
    db = scan_db(rows)
    query = f"SELECT eid FROM events WHERE v >= 0 AND kind <> 'k4' LIMIT 10"
    series = {mode: measure(db, query, mode)
              for mode in ("materialized", "streaming")}
    print_table(
        f"scan+filter+LIMIT 10 over {rows} rows ({label})",
        ["mode", "seconds", "peak MB", "rows"],
        [[mode, f"{m['seconds']:.4f}", f"{m['peak_bytes'] / 1e6:.2f}", m["rows"]]
         for mode, m in series.items()],
    )
    assert series["streaming"]["rows"] == series["materialized"]["rows"] == 10
    return series


def run_three_way_join(genes: int, label: str) -> dict:
    db = join_db(genes, proteins_per_gene=4, samples_per_protein=2)
    query = ("SELECT g.gid, p.pid, s.sid FROM gene g, protein p, sample s "
             "WHERE g.gid = p.gid AND p.pid = s.pid AND g.score >= 1")
    series = {
        "materialized_hash": measure(db, query, "materialized", strategy="hash"),
        "streaming_hash": measure(db, query, "streaming", strategy="hash"),
        "streaming_index_nl": measure(db, query, "streaming",
                                      strategy="index_nested_loop"),
    }
    limited = query + " LIMIT 20"
    series["streaming_index_nl_limit20"] = measure(db, limited, "streaming",
                                                   strategy="index_nested_loop")
    series["materialized_hash_limit20"] = measure(db, limited, "materialized",
                                                  strategy="hash")
    print_table(
        f"3-way join, {genes} genes ({label})",
        ["series", "seconds", "peak MB", "rows"],
        [[name, f"{m['seconds']:.4f}", f"{m['peak_bytes'] / 1e6:.2f}", m["rows"]]
         for name, m in series.items()],
    )
    # Same answers regardless of path.
    assert series["streaming_hash"]["rows"] == series["materialized_hash"]["rows"] \
        == series["streaming_index_nl"]["rows"]
    return series


def measure_latency(db: Database, query: str, mode: str, *, repeats: int = 7,
                    use_indexes: bool = True) -> dict:
    """Best-of-N wall-clock latency (no tracemalloc: it would dominate the
    allocation-heavy paths and distort the batched-vs-row comparison)."""
    db.config.execution_mode = mode
    db.config.use_indexes = use_indexes
    best = None
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            result = db.query(query)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
    finally:
        db.config.execution_mode = "streaming"
        db.config.use_indexes = True
    return {"seconds": round(best, 6), "rows": len(result)}


def run_batched_vs_row(rows: int, label: str) -> dict:
    """The vectorization headline: full-scan filter pipeline, no LIMIT."""
    db = scan_db(rows)
    query = "SELECT eid FROM events WHERE v >= 0 AND kind <> 'k4'"
    series = {mode: measure_latency(db, query, mode)
              for mode in ("streaming", "row", "materialized")}
    series["speedup_vs_row"] = round(
        series["row"]["seconds"] / series["streaming"]["seconds"], 2)
    print_table(
        f"full-scan filter pipeline over {rows} rows ({label})",
        ["mode", "seconds", "rows/s", "rows out"],
        [[mode, f"{m['seconds']:.4f}", f"{m['rows'] / m['seconds']:,.0f}",
          m["rows"]]
         for mode, m in series.items() if isinstance(m, dict)],
    )
    counts = {m["rows"] for m in series.values() if isinstance(m, dict)}
    assert counts == {rows * 4 // 5}
    return series


def range_scan_db(rows: int) -> Database:
    db = scan_db(rows)
    db.execute("CREATE INDEX ix_events_v ON events (v) USING btree")
    db.analyze("events")
    return db


def run_range_scan(rows: int, label: str) -> dict:
    """IndexRangeScan vs. sequential scan, and sort elision vs. explicit sort."""
    db = range_scan_db(rows)
    low, high = rows * 0.5 * 0.45, rows * 0.5 * 0.46   # ~1% window
    window = f"SELECT eid FROM events WHERE v BETWEEN {low} AND {high}"
    ordered = window + " ORDER BY v"
    series = {
        "range_scan": measure_latency(db, window, "streaming"),
        "seq_scan": measure_latency(db, window, "streaming", use_indexes=False),
        "order_elided": measure_latency(db, ordered, "streaming"),
        "order_sorted": measure_latency(db, ordered, "streaming",
                                        use_indexes=False),
    }
    db.query(window)
    from repro.planner.plan import plan_access_paths
    assert plan_access_paths(db.engine.last_plan) == ["index_range"]
    db.query(ordered)
    assert db.engine.last_sort_elided
    explained = db.explain(ordered)
    assert "IndexRangeScan" in explained.message
    assert "[sort: elided]" in explained.message
    print_table(
        f"range scan + sort elision, {rows} rows, ~1% window ({label})",
        ["series", "seconds", "rows"],
        [[name, f"{m['seconds']:.4f}", m["rows"]] for name, m in series.items()],
    )
    assert series["range_scan"]["rows"] == series["seq_scan"]["rows"] > 0
    assert series["order_elided"]["rows"] == series["order_sorted"]["rows"]
    return series


def spill_db(rows: int) -> Database:
    db = Database()
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, v FLOAT)")
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, fk INTEGER)")
    fact, dim = db.table("fact"), db.table("dim")
    for i in range(rows):
        fact.insert_row({"id": i, "k": i % 64, "v": i * 0.5})
        dim.insert_row({"id": i, "fk": i})
    db.analyze()
    return db


def run_spill_breakers(rows: int, label: str) -> dict:
    """Larger-than-budget join + aggregation: Grace hash join and partitioned
    GROUP BY vs. their unbounded in-memory forms (latency + peak memory)."""
    db = spill_db(rows)
    budget = max(256, rows // 10)
    join_query = "SELECT fact.id, dim.id FROM fact, dim WHERE fact.id = dim.fk"
    group_query = "SELECT k, COUNT(*), SUM(v) FROM fact GROUP BY k"
    series = {
        "join_in_memory": measure(db, join_query, "streaming", strategy="hash"),
        "join_spilled": measure(db, join_query, "streaming", strategy="hash",
                                budget=budget),
    }
    join_events = db.engine.last_spill.events("hash_join")
    series["groupby_in_memory"] = measure(db, group_query, "streaming")
    series["groupby_spilled"] = measure(db, group_query, "streaming",
                                        budget=budget)
    group_events = db.engine.last_spill.events("group_by")
    series["budget_rows"] = budget
    series["join_partitions"] = join_events[0]["partitions"] if join_events else 0
    print_table(
        f"spilling breakers, {rows} rows, budget {budget} ({label})",
        ["series", "seconds", "peak MB", "rows"],
        [[name, f"{m['seconds']:.4f}", f"{m['peak_bytes'] / 1e6:.2f}", m["rows"]]
         for name, m in series.items() if isinstance(m, dict)],
    )
    # The spill really ran, and both paths agree on the answers.
    assert join_events and group_events
    assert series["join_spilled"]["rows"] == series["join_in_memory"]["rows"] == rows
    assert series["groupby_spilled"]["rows"] == series["groupby_in_memory"]["rows"]
    return series


# ---------------------------------------------------------------------------
# Tier-1 smoke (small sizes, always on — also exercised by CI --runslow step)
# ---------------------------------------------------------------------------
def test_streaming_scan_smoke():
    series = run_scan_filter_limit(5_000, "smoke")
    # Streaming must not pay the O(n) materialization for a LIMIT 10.
    assert series["streaming"]["peak_bytes"] < series["materialized"]["peak_bytes"] / 2
    write_bench_results("streaming", {"scan_filter_limit_5k": series})


def test_streaming_join_smoke():
    series = run_three_way_join(200, "smoke")
    # An early-stopping LIMIT over the index path beats full materialization.
    assert series["streaming_index_nl_limit20"]["peak_bytes"] \
        < series["materialized_hash_limit20"]["peak_bytes"]
    write_bench_results("streaming", {"three_way_join_200": series})


def test_batched_vs_row_smoke():
    series = run_batched_vs_row(10_000, "smoke")
    # Loose bound at smoke size (CI noise); the --runslow run asserts >= 3x.
    assert series["speedup_vs_row"] >= 1.5
    write_bench_results("streaming", {"batched_vs_row_10k": series})


def test_range_scan_smoke():
    series = run_range_scan(10_000, "smoke")
    assert series["range_scan"]["seconds"] < series["seq_scan"]["seconds"]
    write_bench_results("streaming", {"range_scan_10k": series})


def test_spill_breakers_smoke():
    series = run_spill_breakers(8_000, "smoke")
    # Bounded beats unbounded on peak memory even at smoke size.
    assert series["join_spilled"]["peak_bytes"] \
        < series["join_in_memory"]["peak_bytes"]
    assert series["groupby_spilled"]["peak_bytes"] \
        < series["groupby_in_memory"]["peak_bytes"]
    write_bench_results("streaming", {"spill_breakers_8k": series})


# ---------------------------------------------------------------------------
# Full-size runs (--runslow)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_streaming_scan_full():
    series = run_scan_filter_limit(100_000, "full")
    assert series["streaming"]["peak_bytes"] < series["materialized"]["peak_bytes"] / 20
    assert series["streaming"]["seconds"] < series["materialized"]["seconds"]
    write_bench_results("streaming", {"scan_filter_limit_100k": series})


@pytest.mark.slow
def test_streaming_join_full():
    series = run_three_way_join(2_000, "full")
    assert series["streaming_index_nl_limit20"]["peak_bytes"] \
        < series["materialized_hash_limit20"]["peak_bytes"] / 5
    write_bench_results("streaming", {"three_way_join_2k": series})


@pytest.mark.slow
def test_batched_vs_row_full():
    """The PR-3 acceptance number: >= 3x throughput on the full-scan filter
    pipeline (100k rows, no LIMIT) for batched vs. row-at-a-time streaming."""
    series = run_batched_vs_row(100_000, "full")
    assert series["speedup_vs_row"] >= 3.0
    write_bench_results("streaming", {"batched_vs_row_100k": series})


@pytest.mark.slow
def test_range_scan_full():
    series = run_range_scan(100_000, "full")
    # A ~1% window through the B-tree must beat decoding all 100k rows, and
    # index order must not cost more than sorting.
    assert series["range_scan"]["seconds"] < series["seq_scan"]["seconds"] / 2
    assert series["order_elided"]["seconds"] < series["order_sorted"]["seconds"]
    write_bench_results("streaming", {"range_scan_100k": series})


@pytest.mark.slow
def test_spill_breakers_full():
    """The PR-4 acceptance numbers: larger-than-budget join and aggregation
    complete with a fraction of the unbounded pipeline's peak memory."""
    series = run_spill_breakers(60_000, "full")
    assert series["join_spilled"]["peak_bytes"] \
        < series["join_in_memory"]["peak_bytes"] / 2
    assert series["groupby_spilled"]["peak_bytes"] \
        < series["groupby_in_memory"]["peak_bytes"] / 2
    write_bench_results("streaming", {"spill_breakers_60k": series})


# ---------------------------------------------------------------------------
# Decoded-page cache: warm rescan vs. decode-every-scan (PR 7)
# ---------------------------------------------------------------------------
def run_decoded_cache_rescan(rows: int, pool_size: int, label: str) -> dict:
    """Repeated filter scan with the decoded-page cache on vs. off.

    The pool must hold the whole table: the cache drops entries whenever
    their raw page is evicted (it must never outlive the bytes it mirrors),
    so a pool smaller than the table invalidates continuously and the warm
    path degenerates to the cold one."""
    db = Database(pool_size=pool_size)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v FLOAT)")
    table = db.table("t")
    for i in range(rows):
        table.insert_row({"id": i, "v": i * 0.5})
    db.analyze("t")
    pages = db.catalog.table("t").num_pages()
    assert pages < pool_size, "bench requires the table to fit in the pool"
    query = f"SELECT id, v FROM t WHERE v >= {rows * 0.05}"

    def best_of(repeats: int = 5) -> dict:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            result = db.query(query)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return {"seconds": round(best, 6), "rows": len(result)}

    series = {"decode_every_scan": best_of()}
    db.config.decoded_page_cache_pages = pool_size
    db.query(query)                       # cold pass populates the cache
    assert db.engine.last_cache.misses == pages
    series["warm_rescan"] = best_of()
    hit_ratio = db.engine.last_cache.hit_ratio
    db.config.decoded_page_cache_pages = 0
    series["speedup"] = round(series["decode_every_scan"]["seconds"]
                              / series["warm_rescan"]["seconds"], 2)
    series["table_pages"] = pages
    series["hit_ratio"] = hit_ratio
    print_table(
        f"decoded-page cache rescan, {rows} rows / {pages} pages ({label})",
        ["series", "seconds", "rows"],
        [[name, f"{m['seconds']:.4f}", m["rows"]]
         for name, m in series.items() if isinstance(m, dict)],
    )
    print(f"  speedup (decode-every-scan / warm rescan): {series['speedup']}x, "
          f"hit ratio {hit_ratio:.2f}")
    assert hit_ratio == 1.0
    assert series["warm_rescan"]["rows"] == series["decode_every_scan"]["rows"]
    return series


def test_decoded_cache_rescan_smoke():
    series = run_decoded_cache_rescan(6_000, pool_size=256, label="smoke")
    assert series["speedup"] >= 1.2
    write_bench_results("streaming", {"decoded_cache_rescan_6k": series})


@pytest.mark.slow
def test_decoded_cache_rescan_full():
    """The PR-7 acceptance number: >= 1.5x for the warm rescan."""
    series = run_decoded_cache_rescan(20_000, pool_size=512, label="full")
    assert series["speedup"] >= 1.5
    write_bench_results("streaming", {"decoded_cache_rescan": series})


# ---------------------------------------------------------------------------
# Prepared statements: cached-plan reuse vs. parse-per-call (PR 5)
# ---------------------------------------------------------------------------
def prepared_db(rows: int) -> Database:
    db = scan_db(rows)
    db.execute("CREATE INDEX ix_events_eid ON events (eid) USING btree")
    db.analyze("events")
    return db


def run_prepared_reuse(rows: int, repeats: int, label: str) -> dict:
    """Repeated parameterized point query through a reused cursor (plan
    cached after the first execution) vs. the same point query as a fresh
    SQL string per call through the legacy ``db.query`` (tokenize + parse +
    plan every time).  Both arms hit the same B-tree index and fetch the
    same rows; the delta is the per-call front-end work the plan cache
    eliminates."""
    import warnings
    db = prepared_db(rows)
    keys = [(i * 37) % rows for i in range(repeats)]
    sql = "SELECT eid, kind, v FROM events WHERE eid = ?"
    cursor = db.connect().cursor()

    def best_of(batches, run):
        """Min-of-N batch times: one GC pause cannot skew either arm."""
        times = []
        for _ in range(batches):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    cursor.execute(sql, (0,)).fetchall()            # warm the plan cache

    def cached_arm():
        for key in keys:
            cursor.execute(sql, (key,)).fetchall()
    cached_seconds = best_of(5, cached_arm)
    assert db.engine.last_plan_cached
    stats = db.engine.plan_cache.stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        db.query(sql.replace("?", "0"))             # warm caches equally

        def parsed_arm():
            for key in keys:
                db.query(f"SELECT eid, kind, v FROM events WHERE eid = {key}")
        parsed_seconds = best_of(5, parsed_arm)

    series = {
        "cached_plan": {"seconds": round(cached_seconds, 6),
                        "per_call_us": round(cached_seconds / repeats * 1e6, 1)},
        "parse_per_call": {"seconds": round(parsed_seconds, 6),
                           "per_call_us": round(parsed_seconds / repeats * 1e6, 1)},
        "speedup": round(parsed_seconds / cached_seconds, 2),
        "repeats": repeats,
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
    }
    print_table(
        f"prepared point query x{repeats}, {rows} rows ({label})",
        ["series", "seconds", "us/call"],
        [[name, f"{m['seconds']:.4f}", m["per_call_us"]]
         for name, m in series.items() if isinstance(m, dict)],
    )
    print(f"  speedup (parse-per-call / cached): {series['speedup']}x, "
          f"plan cache hits={stats.hits} misses={stats.misses}")
    return series


def test_prepared_reuse_smoke():
    series = run_prepared_reuse(5_000, repeats=300, label="smoke")
    # The ISSUE-5 acceptance bar: >= 2x for cached-plan reuse.
    assert series["speedup"] >= 2.0
    assert series["cache_hits"] >= 5 * 300
    write_bench_results("streaming", {"prepared_reuse_300": series})


@pytest.mark.slow
def test_prepared_reuse_full():
    """The subject is per-call front-end cost, so full scales the repeat
    count (tighter measurement), not the table: more rows only add
    buffer-pool traffic both arms pay identically."""
    series = run_prepared_reuse(20_000, repeats=3_000, label="full")
    assert series["speedup"] >= 2.0
    write_bench_results("streaming", {"prepared_reuse_3k": series})
