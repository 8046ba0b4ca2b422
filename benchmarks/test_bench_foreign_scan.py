"""Benchmarks for the foreign-table subsystem (``foreign_scan`` series).

Two headline comparisons:

* **CSV pushdown vs. full transfer** — a selective filter over a 100k-row
  attached CSV with provider pushdown on (the provider probes the filter
  columns and skips full decode of non-matching rows) vs. ``pushdown false``
  (every row is decoded, shipped to the engine, and filtered there).  The
  ISSUE-10 acceptance bar is >= 2x.
* **repro-provider join vs. native join** — the same star join executed
  against an ATTACHed database file and against the same data loaded
  natively, quantifying the provider-boundary overhead.

Results are persisted to ``BENCH_streaming.json`` under ``foreign_scan_*``
keys via :func:`bench_utils.write_bench_results`.
"""

from __future__ import annotations

import time

import pytest

from repro import Database

from bench_utils import fetch, print_table, run, write_bench_results


def best_of(db: Database, query: str, repeats: int = 3) -> dict:
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fetch(db, query)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return {"seconds": round(best, 6), "rows": len(result)}


def csv_pushdown_db(tmp_path, rows: int, pushdown: bool) -> Database:
    path = tmp_path / f"wide_{pushdown}.csv"
    with open(path, "w") as handle:
        handle.write("id,kind,v,payload,extra\n")
        for i in range(rows):
            handle.write(f"{i},k{i % 50},{i * 0.5},"
                         f"payload-{i}-{'x' * 80},{i * 7}\n")
    db = Database()
    option = "" if pushdown else ", pushdown false"
    run(db, f"ATTACH '{path}' AS wide (TYPE csv{option})")
    return db


def run_csv_pushdown(tmp_path, rows: int, label: str) -> dict:
    """Selective filter (~2% of rows) over an attached CSV: provider-side
    filtering vs. full transfer + engine-side residual filter."""
    query = "SELECT id, v FROM wide WHERE kind = 'k7'"
    pushed_db = csv_pushdown_db(tmp_path, rows, pushdown=True)
    full_db = csv_pushdown_db(tmp_path, rows, pushdown=False)
    series = {
        "pushdown": best_of(pushed_db, query),
        "full_transfer": best_of(full_db, query),
    }
    series["speedup"] = round(series["full_transfer"]["seconds"]
                              / series["pushdown"]["seconds"], 2)
    assert "[pushed: kind = 'k7']" in pushed_db.explain(query).message
    assert "[pushdown: off]" in full_db.explain(query).message
    print_table(
        f"foreign CSV scan, {rows} rows, ~2% selective filter ({label})",
        ["series", "seconds", "rows"],
        [[name, f"{m['seconds']:.4f}", m["rows"]]
         for name, m in series.items() if isinstance(m, dict)],
    )
    print(f"  speedup (full transfer / pushdown): {series['speedup']}x")
    # Identical answers regardless of where the filter ran.
    assert series["pushdown"]["rows"] == series["full_transfer"]["rows"] \
        == rows // 50
    pushed_db.close()
    full_db.close()
    return series


def run_repro_join(tmp_path, facts: int, label: str) -> dict:
    """Star join against an ATTACHed repro database vs. the same data
    loaded natively."""
    remote_path = str(tmp_path / "dim.db")
    dims = max(16, facts // 100)
    with Database(remote_path) as remote:
        run(remote, "CREATE TABLE dim (did INTEGER, tag TEXT)")
        table = remote.table("dim")
        for i in range(dims):
            table.insert_row({"did": i, "tag": f"t{i % 5}"})

    query = ("SELECT f.fid, d.tag FROM fact f, dim d "
             "WHERE f.did = d.did AND d.tag = 't2'")

    def fact_db() -> Database:
        db = Database()
        run(db, "CREATE TABLE fact (fid INTEGER PRIMARY KEY, did INTEGER)")
        table = db.table("fact")
        for i in range(facts):
            table.insert_row({"fid": i, "did": i % dims})
        db.analyze("fact")
        return db

    foreign_db = fact_db()
    run(foreign_db, f"ATTACH '{remote_path}' AS dim (TYPE repro)")

    native_db = fact_db()
    run(native_db, "CREATE TABLE dim (did INTEGER, tag TEXT)")
    table = native_db.table("dim")
    for i in range(dims):
        table.insert_row({"did": i, "tag": f"t{i % 5}"})
    native_db.analyze("dim")

    series = {
        "foreign_dim_join": best_of(foreign_db, query),
        "native_dim_join": best_of(native_db, query),
    }
    series["overhead_factor"] = round(
        series["foreign_dim_join"]["seconds"]
        / series["native_dim_join"]["seconds"], 2)
    print_table(
        f"star join, {facts} facts x {dims} dims, dim foreign vs native "
        f"({label})",
        ["series", "seconds", "rows"],
        [[name, f"{m['seconds']:.4f}", m["rows"]]
         for name, m in series.items() if isinstance(m, dict)],
    )
    print(f"  provider-boundary overhead: {series['overhead_factor']}x")
    assert series["foreign_dim_join"]["rows"] \
        == series["native_dim_join"]["rows"] > 0
    foreign_db.close()
    native_db.close()
    return series


def test_foreign_csv_pushdown_smoke(tmp_path):
    """The ISSUE-10 acceptance number at full size (the scan is cheap enough
    to keep in the smoke tier): provider-side filtering >= 2x full transfer
    on a 100k-row CSV."""
    series = run_csv_pushdown(tmp_path, 100_000, "smoke")
    assert series["speedup"] >= 2.0
    write_bench_results("streaming", {"foreign_scan_csv_pushdown_100k": series})


def test_foreign_repro_join_smoke(tmp_path):
    series = run_repro_join(tmp_path, 5_000, "smoke")
    write_bench_results("streaming", {"foreign_scan_repro_join_5k": series})


@pytest.mark.slow
def test_foreign_repro_join_full(tmp_path):
    series = run_repro_join(tmp_path, 50_000, "full")
    write_bench_results("streaming", {"foreign_scan_repro_join_50k": series})
