"""Join-strategy benchmark: hash / merge vs the naive nested-loop pipeline.

A 2k x 2k equi-join is O(n*m) under the naive cross-product pipeline and
O(n + m) under the hash join.  The benchmark times the same A-SQL query under
every strategy and asserts the cost-based layer's headline win: the hash join
must beat nested loop by at least 5x (it is typically >100x).

Marked ``slow`` (run with ``pytest --runslow``): the nested-loop baseline
alone evaluates 4 million tuple pairs.
"""

from __future__ import annotations

import time

import pytest

from bench_utils import fetch, make_db, print_table, run
from repro.planner.plan import plan_strategies

ROWS = 2000
QUERY = ("SELECT b.id, p.pid FROM build_side b, probe_side p "
         "WHERE b.id = p.fk")


def _load():
    db = make_db()
    run(db, "CREATE TABLE build_side (id INTEGER PRIMARY KEY, payload TEXT)")
    run(db, "CREATE TABLE probe_side (pid INTEGER PRIMARY KEY, fk INTEGER, "
            "payload TEXT)")
    build = db.table("build_side")
    probe = db.table("probe_side")
    for i in range(ROWS):
        build.insert_row({"id": i, "payload": f"b{i}"})
    for i in range(ROWS):
        probe.insert_row({"pid": i, "fk": i, "payload": f"p{i}"})
    run(db, "ANALYZE")
    return db


def _time_query(db, strategy):
    db.config.join_strategy = strategy
    start = time.perf_counter()
    result = fetch(db, QUERY)
    elapsed = time.perf_counter() - start
    return elapsed, result


@pytest.mark.slow
def test_hash_join_beats_nested_loop_by_5x():
    db = _load()
    timings = {}
    results = {}
    for strategy in ("nested_loop", "hash", "merge", "auto"):
        timings[strategy], results[strategy] = _time_query(db, strategy)
    rows = [[strategy, f"{elapsed * 1000:.1f}",
             f"{timings['nested_loop'] / elapsed:.1f}x"]
            for strategy, elapsed in timings.items()]
    print_table(f"Join strategies — {ROWS}x{ROWS} equi-join",
                ["strategy", "ms", "speedup vs nested loop"], rows)

    # All strategies agree on the answer.
    expected = sorted(results["nested_loop"].values())
    for strategy in ("hash", "merge", "auto"):
        assert sorted(results[strategy].values()) == expected
    assert len(results["hash"]) == ROWS

    # The observability surface reports what actually ran.
    db.config.join_strategy = "auto"
    fetch(db, QUERY)
    assert plan_strategies(db.engine.last_plan) == ["hash"]

    # Headline acceptance: >= 5x.
    assert timings["hash"] * 5 <= timings["nested_loop"], (
        f"hash join only {timings['nested_loop'] / timings['hash']:.1f}x faster")
    # Merge join should also comfortably beat the naive pipeline.
    assert timings["merge"] * 5 <= timings["nested_loop"]
