"""Differential tests: every join strategy must agree with the naive path.

The cost-based planner (hash / sort-merge / index-nested-loop joins, greedy
reordering, residual pushdown into the join tree) and the streaming executor
must be *observationally equivalent* to the naive pipeline (cross products +
residual filter, ``join_strategy="nested_loop"``) — same row multisets and
the same propagated annotations per row.  Each query shape below runs under
every (strategy, consumer) combination — with and without covering
secondary indexes — and is compared against the nested-loop baseline.  A tracemalloc test proves that
the streaming pipeline gives ``LIMIT`` O(limit), not O(n), peak memory.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import Database, EngineConfig
from repro.planner.plan import plan_strategies
from sql_helpers import fetch, run, values


def build_db() -> Database:
    db = Database()
    run(db, "CREATE TABLE gene (gid TEXT PRIMARY KEY, name TEXT, score FLOAT)")
    run(db, "CREATE TABLE protein (pid INTEGER PRIMARY KEY, gid TEXT, kind TEXT, "
            "score FLOAT)")
    run(db, "CREATE ANNOTATION TABLE gnote ON gene")
    run(db, "CREATE ANNOTATION TABLE pnote ON protein")
    for i in range(12):
        run(db, f"INSERT INTO gene VALUES ('G{i}', 'gene{i}', {i * 1.5})")
    for i in range(30):
        # Some genes match several proteins, some none; some proteins dangle.
        gid = f"'G{i % 15}'" if i % 5 else "NULL"
        run(db, f"INSERT INTO protein VALUES ({i}, {gid}, 'k{i % 3}', {i * 0.5})")
    run(db, "ADD ANNOTATION TO gene.gnote VALUE 'curated gene' "
            "ON (SELECT g.gid FROM gene g WHERE g.score > 6)")
    run(db, "ADD ANNOTATION TO gene.gnote VALUE 'reviewed' "
            "ON (SELECT g.name FROM gene g WHERE g.gid = 'G3')")
    run(db, "ADD ANNOTATION TO protein.pnote VALUE 'predicted protein' "
            "ON (SELECT p.kind FROM protein p WHERE p.pid < 10)")
    return db


QUERY_SHAPES = {
    "equi_join": (
        "SELECT g.gid, g.score, p.pid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid"
    ),
    "equi_join_with_filters": (
        "SELECT g.gid, p.pid, p.kind FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p "
        "WHERE g.gid = p.gid AND g.score > 3 AND p.kind = 'k1'"
    ),
    "non_equi_join": (
        "SELECT g.gid, p.pid FROM gene g, protein p "
        "WHERE g.score < p.score AND p.pid < 8"
    ),
    "self_join_aliases": (
        "SELECT a.gid, b.gid FROM gene ANNOTATION(gnote) a, gene b "
        "WHERE a.gid = b.gid AND a.score <= b.score"
    ),
    "three_way_join": (
        "SELECT a.gid, p.pid, b.name FROM gene a, protein p, gene b "
        "WHERE a.gid = p.gid AND p.gid = b.gid"
    ),
    "join_with_awhere": (
        "SELECT g.gid, p.pid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid "
        "AWHERE annotation.value LIKE '%curated%'"
    ),
    "join_with_group_by": (
        "SELECT g.gid, COUNT(*), SUM(p.score) FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid GROUP BY g.gid"
    ),
    "explicit_inner_join": (
        "SELECT g.gid, p.pid FROM gene ANNOTATION(gnote) g "
        "JOIN protein ANNOTATION(pnote) p ON g.gid = p.gid AND p.pid > 3"
    ),
    "explicit_left_join": (
        "SELECT g.gid, p.pid FROM gene ANNOTATION(gnote) g "
        "LEFT JOIN protein p ON g.gid = p.gid AND p.kind = 'k0'"
    ),
    "cross_product_with_residual": (
        "SELECT g.gid, p.pid FROM gene g, protein p "
        "WHERE LENGTH(g.gid) + p.pid = 4"
    ),
    "range_filter_join": (
        "SELECT g.gid, g.score, p.pid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p "
        "WHERE g.gid = p.gid AND g.score > 14 AND p.score < 12"
    ),
    "range_between_order": (
        "SELECT g.gid, g.score FROM gene ANNOTATION(gnote) g "
        "WHERE g.score BETWEEN 13 AND 16 ORDER BY g.score"
    ),
    "distinct_order": (
        "SELECT DISTINCT p.kind, g.gid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid "
        "ORDER BY p.kind, g.gid"
    ),
}

STRATEGIES = ("auto", "hash", "merge")
#: With covering indexes present, the index-nested-loop path joins the matrix.
INDEXED_STRATEGIES = ("auto", "hash", "merge", "index_nested_loop")
#: Batch sizes the vectorized pipeline must be invariant under: degenerate
#: one-row batches, a tiny ramp, and the full default.
BATCH_SIZES = (1, 2, 1024)
#: The three ways a caller reads the one pipeline through a DB-API cursor (the
#: prepared-plan path): drained by ``fetchall``, pulled a few rows at a time
#: by ``fetchmany(3)``, and pulled row by row by ``fetchone``.
CONSUMERS = ("fetchall", "fetchmany", "fetchone")


def canonical(rows):
    """Order-independent form of a result: values + per-column annotations."""
    out = []
    for row in rows:
        annotations = tuple(
            tuple(sorted((a.annotation_table, a.ann_id) for a in anns))
            for anns in row.annotations
        )
        out.append((row.values, annotations))
    return sorted(out, key=repr)


def consume(db: Database, query: str, consumer: str = "fetchall"):
    """Run ``query`` on a cursor and collect its rows through one of
    :data:`CONSUMERS`."""
    cursor = db.connect().cursor().execute(query)
    if consumer == "fetchall":
        return cursor.fetchall()
    rows = []
    if consumer == "fetchone":
        while (row := cursor.fetchone()) is not None:
            rows.append(row)
        return rows
    assert consumer == "fetchmany", consumer
    while chunk := cursor.fetchmany(3):
        rows.extend(chunk)
    return rows


def run_query(db: Database, query: str, strategy: str,
              batch_size: int = 1024, consumer: str = "fetchall"):
    """Run one query under a forced (strategy, batch size, consumer) triple."""
    db.config.join_strategy = strategy
    db.config.batch_size = batch_size
    try:
        return consume(db, query, consumer)
    finally:
        db.config.join_strategy = "auto"
        db.config.batch_size = 1024


def nested_loop_baseline(db: Database, query: str):
    """The differential reference: the naive cross-product pipeline."""
    return canonical(run_query(db, query, "nested_loop"))


@pytest.fixture(scope="module")
def diff_db() -> Database:
    return build_db()


@pytest.fixture(scope="module")
def indexed_db() -> Database:
    db = build_db()
    run(db, "CREATE INDEX ix_gene_gid ON gene (gid) USING btree")
    run(db, "CREATE INDEX ix_protein_gid ON protein (gid) USING btree")
    run(db, "CREATE INDEX ix_protein_kind ON protein (kind) USING hash")
    run(db, "CREATE INDEX ix_gene_score ON gene (score) USING btree")
    return db


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_strategy_agrees_with_nested_loop(diff_db, shape, strategy, consumer):
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(diff_db, query)
    candidate = canonical(run_query(diff_db, query, strategy,
                                    consumer=consumer))
    assert candidate == baseline


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batched_execution_invariant_under_batch_size(diff_db, shape, strategy,
                                                      batch_size):
    """The vectorized pipeline must return identical rows *and* annotations
    at every batch size — one-row batches exercise the ramp edges, the full
    default the fused comprehension paths."""
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(diff_db, query)
    candidate = canonical(run_query(diff_db, query, strategy, batch_size))
    assert candidate == baseline


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("strategy", INDEXED_STRATEGIES)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_indexed_strategy_agrees_with_nested_loop(indexed_db, shape, strategy,
                                                  consumer):
    """With covering indexes the planner may pick index scans, range scans,
    and index-nested-loop joins; rows *and* annotations must still match the
    nested-loop baseline however the result is consumed."""
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(indexed_db, query)
    candidate = canonical(run_query(indexed_db, query, strategy,
                                    consumer=consumer))
    assert candidate == baseline


def test_indexed_auto_picks_index_nested_loop(indexed_db):
    indexed_db.config.join_strategy = "auto"
    fetch(indexed_db, QUERY_SHAPES["equi_join"])
    assert "index_nested_loop" in plan_strategies(indexed_db.engine.last_plan)
    explained = indexed_db.explain(QUERY_SHAPES["equi_join"])
    assert "IndexNestedLoopJoin" in explained.message


def test_indexed_auto_picks_range_scan_and_elides_sort(indexed_db):
    """The matrix genuinely exercises IndexRangeScan plans: the BETWEEN +
    ORDER BY shape runs off the score index with the sort elided."""
    from repro.planner.plan import plan_access_paths
    indexed_db.config.join_strategy = "auto"
    fetch(indexed_db, QUERY_SHAPES["range_between_order"])
    assert "index_range" in plan_access_paths(indexed_db.engine.last_plan)
    assert indexed_db.engine.last_sort_elided
    explained = indexed_db.explain(QUERY_SHAPES["range_between_order"])
    assert "IndexRangeScan" in explained.message
    assert "[sort: elided]" in explained.message
    # The returned order matches the explicit sort of the naive pipeline.
    ordered = run_query(indexed_db, QUERY_SHAPES["range_between_order"],
                        "auto")
    baseline = run_query(indexed_db, QUERY_SHAPES["range_between_order"],
                         "nested_loop")
    assert [row.values for row in ordered] == [row.values for row in baseline]


def test_forced_index_join_on_left_join(indexed_db):
    """LEFT joins run through the index probe with correct NULL padding."""
    query = QUERY_SHAPES["explicit_left_join"]
    baseline = nested_loop_baseline(indexed_db, query)
    candidate = canonical(run_query(indexed_db, query, "index_nested_loop"))
    assert candidate == baseline
    indexed_db.config.join_strategy = "index_nested_loop"
    try:
        fetch(indexed_db, query)
        assert plan_strategies(indexed_db.engine.last_plan) == ["index_nested_loop"]
    finally:
        indexed_db.config.join_strategy = "auto"


def test_indexed_differential_with_dml_between_runs():
    """Index maintenance (insert/delete/update, NULL keys) must keep the
    index-backed paths in lock-step with the naive pipeline."""
    db = build_db()
    run(db, "CREATE INDEX ix_protein_gid ON protein (gid) USING btree")
    run(db, "DELETE FROM protein WHERE pid >= 25")
    run(db, "INSERT INTO protein VALUES (99, 'G1', 'k9', 9.9)")
    run(db, "INSERT INTO protein VALUES (100, NULL, 'k9', 1.0)")
    run(db, "UPDATE protein SET gid = 'G2' WHERE pid = 99")
    run(db, "UPDATE protein SET gid = NULL WHERE pid = 3")
    query = QUERY_SHAPES["equi_join"]
    baseline = nested_loop_baseline(db, query)
    for strategy in INDEXED_STRATEGIES:
        assert canonical(run_query(db, query, strategy)) == baseline


@pytest.fixture(scope="module")
def wide_db() -> Database:
    """A 100k-row table for the streaming-memory proof."""
    db = Database()
    run(db, "CREATE TABLE big (id INTEGER PRIMARY KEY, v FLOAT)")
    table = db.table("big")
    for i in range(100_000):
        table.insert_row({"id": i, "v": i * 0.5})
    return db


def test_limit_over_large_scan_peaks_at_o_limit_memory(wide_db):
    """SELECT ... LIMIT 10 over 100k rows must stop the scan early: its peak
    allocation is orders of magnitude below the same query's without the
    LIMIT, and small in absolute terms (O(limit) rows plus fixed per-query
    overhead, not O(n) intermediates)."""
    query = "SELECT id FROM big WHERE v >= 0"

    def peak(sql: str, rows: int) -> int:
        tracemalloc.start()
        try:
            result = fetch(wide_db, sql)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result) == rows
        return peak_bytes

    unlimited_peak = peak(query, 100_000)
    limit_peak = peak(query + " LIMIT 10", 10)
    assert limit_peak < unlimited_peak / 20
    assert limit_peak < 8 * 1024 * 1024


def test_batched_stream_decodes_lazily(wide_db, monkeypatch):
    """A cursor produces rows on demand, and the batched pipeline's
    laziness unit is the page: pulling a handful of rows from a 100k-row
    stream decodes at most a couple of pages."""
    from repro.storage.heap_file import HeapFile
    pages = []
    original = HeapFile.scan_page_rows

    def counting(self, page_id, with_tuple_ids=True):
        pages.append(page_id)
        return original(self, page_id, with_tuple_ids)

    monkeypatch.setattr(HeapFile, "scan_page_rows", counting)
    stream = run(wide_db, "SELECT id FROM big WHERE v >= 0")
    first_three = [next(stream) for _ in range(3)]
    assert [row.values for row in first_three] == [(0,), (1,), (2,)]
    assert 0 < len(pages) <= 2


# ---------------------------------------------------------------------------
# Spilling rows of the matrix: tiny memory budgets force every pipeline
# breaker (hash-join build, GROUP BY, DISTINCT, sort) through the temp-file
# partition/run machinery; values AND annotations must survive the
# serialize/partition/merge round trip for every consumer and batch size.
# ---------------------------------------------------------------------------
#: Budgets of roughly one and a few batches at the tiny differential sizes.
SPILL_BUDGETS = (2, 7)
#: Shapes that exercise every spilling operator: hash join (equi/3-way/LEFT),
#: GROUP BY, DISTINCT + ORDER BY, and a plain sorted scan.
SPILL_SHAPES = ("equi_join", "three_way_join", "explicit_left_join",
                "join_with_group_by", "distinct_order", "range_between_order")


def run_with_budget(db: Database, query: str, strategy: str,
                    budget: int, batch_size: int = 1024,
                    consumer: str = "fetchall"):
    db.config.memory_budget_rows = budget
    try:
        return run_query(db, query, strategy, batch_size, consumer)
    finally:
        db.config.memory_budget_rows = None


@pytest.mark.parametrize("shape", SPILL_SHAPES)
@pytest.mark.parametrize("strategy", ("auto", "hash"))
@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("budget", SPILL_BUDGETS)
def test_spilling_agrees_with_in_memory_baseline(diff_db, shape, strategy,
                                                 consumer, budget):
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(diff_db, query)
    candidate = canonical(run_with_budget(diff_db, query, strategy, budget,
                                          consumer=consumer))
    assert candidate == baseline


@pytest.mark.parametrize("shape", SPILL_SHAPES)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_spilling_invariant_under_batch_size(diff_db, shape, batch_size):
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(diff_db, query)
    candidate = canonical(run_with_budget(diff_db, query, "hash",
                                          budget=2, batch_size=batch_size))
    assert candidate == baseline


def test_spill_budgets_actually_spill(diff_db):
    """The spilling rows are only meaningful if the temp-file paths really
    run: each operator family must report spill activity at budget 2."""
    run_with_budget(diff_db, QUERY_SHAPES["equi_join"], "hash", 2)
    assert diff_db.engine.last_spill.events("hash_join")
    run_with_budget(diff_db, QUERY_SHAPES["join_with_group_by"], "hash", 2)
    assert diff_db.engine.last_spill.events("group_by")
    run_with_budget(diff_db, QUERY_SHAPES["distinct_order"], "hash", 2)
    spilled = {event["operator"]
               for event in diff_db.engine.last_spill.operators}
    assert "distinct" in spilled and "sort" in spilled


def test_forced_strategies_actually_differ(diff_db):
    """The harness is only meaningful if the paths diverge physically."""
    query = QUERY_SHAPES["equi_join"]
    observed = {}
    for strategy in ("nested_loop", "hash", "merge", "auto"):
        diff_db.config.join_strategy = strategy
        fetch(diff_db, query)
        observed[strategy] = plan_strategies(diff_db.engine.last_plan)
    diff_db.config.join_strategy = "auto"
    assert observed["hash"] == ["hash"]
    assert observed["merge"] == ["merge"]
    assert observed["nested_loop"] == ["cross"]
    assert observed["auto"] == ["hash"]


def test_auto_falls_back_to_nested_loop_for_non_equi(diff_db):
    diff_db.config.join_strategy = "auto"
    fetch(diff_db, QUERY_SHAPES["non_equi_join"])
    assert plan_strategies(diff_db.engine.last_plan) == ["cross"]


def test_analyze_improves_join_order(diff_db):
    """With statistics, the smaller (more selective) side becomes the build."""
    diff_db.config.join_strategy = "auto"
    run(diff_db, "ANALYZE gene")
    run(diff_db, "ANALYZE protein")
    explained = diff_db.explain(QUERY_SHAPES["equi_join_with_filters"])
    plan = explained.details["plan"]
    assert plan["node"] == "HashJoin"
    # Both scans carry their pushed conjunct counts in the dump.
    scans = [plan["left"], plan["right"]]
    assert {s["node"] for s in scans} == {"Scan"}
    assert sum(s["pushed_conjuncts"] for s in scans) == 2


def test_differential_with_dml_between_runs():
    """Statistics staleness hooks must not change results, only estimates."""
    db = build_db()
    run(db, "ANALYZE")
    run(db, "DELETE FROM protein WHERE pid >= 25")
    run(db, "INSERT INTO protein VALUES (99, 'G1', 'k9', 9.9)")
    query = QUERY_SHAPES["equi_join"]
    db.config.join_strategy = "nested_loop"
    baseline = canonical(fetch(db, query))
    for strategy in STRATEGIES:
        db.config.join_strategy = strategy
        assert canonical(fetch(db, query)) == baseline


def test_where_on_left_join_nullable_side_filters_padded_rows():
    """Standard SQL: a WHERE predicate on the nullable side of a LEFT JOIN
    is evaluated after the join, so NULL-padded rows fail it — the predicate
    must not be pushed below the join."""
    db = Database()
    run(db, "CREATE TABLE l (id INTEGER PRIMARY KEY)")
    run(db, "CREATE TABLE r (id INTEGER PRIMARY KEY, v INTEGER)")
    run(db, "INSERT INTO l VALUES (1), (2)")
    run(db, "INSERT INTO r VALUES (1, 1)")
    query = "SELECT l.id, r.v FROM l LEFT JOIN r ON l.id = r.id WHERE r.v = 1"
    for strategy in ("nested_loop", "hash", "merge", "auto"):
        db.config.join_strategy = strategy
        assert sorted(values(db, query)) == [(1, 1)], strategy
    # Without the WHERE, the padded row is still produced.
    db.config.join_strategy = "auto"
    padded = values(db, "SELECT l.id, r.v FROM l LEFT JOIN r ON l.id = r.id")
    assert sorted(padded, key=repr) == [(1, 1), (2, None)]


def test_select_star_column_order_survives_reordering():
    """Join reordering must not leak into the SELECT * column order."""
    db = Database()
    run(db, "CREATE TABLE big (id INTEGER PRIMARY KEY, bval TEXT)")
    run(db, "CREATE TABLE small (id INTEGER PRIMARY KEY, sval TEXT)")
    for i in range(20):
        run(db, f"INSERT INTO big VALUES ({i}, 'b{i}')")
    for i in range(3):
        run(db, f"INSERT INTO small VALUES ({i}, 's{i}')")
    # The greedy planner starts from ``small`` and hash-builds on it, even
    # though ``big`` comes first syntactically.
    query = "SELECT * FROM big, small WHERE big.id = small.id"
    db.config.join_strategy = "nested_loop"
    cursor = run(db, query)
    baseline_columns = [column[0] for column in cursor.description]
    baseline = cursor.fetchall()
    db.config.join_strategy = "auto"
    cursor = run(db, query)
    columns = [column[0] for column in cursor.description]
    candidate = cursor.fetchall()
    assert columns == baseline_columns == ["id", "bval", "id", "sval"]
    assert sorted(row.values for row in candidate) == \
        sorted(row.values for row in baseline)
    assert canonical(candidate) == canonical(baseline)


def test_nan_join_keys_agree_across_strategies():
    """NaN keys must behave identically under every strategy (NaN = NaN
    matches, NaN never equals a real number)."""
    db = Database()
    run(db, "CREATE TABLE a (id INTEGER PRIMARY KEY, x FLOAT)")
    run(db, "CREATE TABLE b (id INTEGER PRIMARY KEY, y FLOAT)")
    nan = float("nan")
    for i, value in enumerate([nan, 1.0, 2.0]):
        db.table("a").insert_row({"id": i, "x": value})
    for i, value in enumerate([2.0, nan, nan]):
        db.table("b").insert_row({"id": i, "y": value})
    query = "SELECT a.id, b.id FROM a, b WHERE a.x = b.y"
    results = {}
    for strategy in ("nested_loop", "hash", "merge", "auto"):
        db.config.join_strategy = strategy
        results[strategy] = sorted(values(db, query))
    # One real match (2.0 = 2.0) plus NaN = NaN pairs.
    assert results["nested_loop"] == [(0, 1), (0, 2), (2, 0)]
    for strategy in ("hash", "merge", "auto"):
        assert results[strategy] == results["nested_loop"]


def test_mixed_type_join_keys_stay_on_nested_loop():
    """TEXT-vs-INTEGER equality is not hashable/mergeable (string-form
    comparison is non-transitive), so the planner must not lift it."""
    db = Database()
    run(db, "CREATE TABLE a (id INTEGER PRIMARY KEY, v TEXT)")
    run(db, "CREATE TABLE b (code TEXT PRIMARY KEY, w TEXT)")
    run(db, "INSERT INTO a VALUES (1, 'x'), (2, 'y')")
    run(db, "INSERT INTO b VALUES ('1', 'p'), ('3', 'q')")
    query = "SELECT a.id, b.code FROM a, b WHERE a.id = b.code"
    db.config.join_strategy = "nested_loop"
    baseline = canonical(fetch(db, query))
    db.config.join_strategy = "auto"
    assert canonical(fetch(db, query)) == baseline
    assert plan_strategies(db.engine.last_plan) == ["cross"]


# ---------------------------------------------------------------------------
# Parameterized differential: cursor.execute(sql, params) vs inlined literals
# ---------------------------------------------------------------------------
#: Each shape is (parameterized SQL, bound values, literal-inlined SQL); the
#: two texts must be observationally equivalent — same row multisets AND the
#: same propagated annotations — under every (strategy, batch size, fetch
#: method) combination, executed twice so the second run exercises the
#: cached plan.
PARAMETERIZED_SHAPES = {
    "param_equi_join_filters": (
        "SELECT g.gid, p.pid, p.kind FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p "
        "WHERE g.gid = p.gid AND g.score > ? AND p.kind = ?",
        (3, "k1"),
        QUERY_SHAPES["equi_join_with_filters"],
    ),
    "param_between_order": (
        "SELECT g.gid, g.score FROM gene ANNOTATION(gnote) g "
        "WHERE g.score BETWEEN ? AND ? ORDER BY g.score",
        (13, 16),
        QUERY_SHAPES["range_between_order"],
    ),
    "param_projection_in_like": (
        "SELECT g.gid, g.score + ?, p.pid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p "
        "WHERE g.gid = p.gid AND p.kind IN (?, ?) AND g.name LIKE ?",
        (10, "k0", "k2", "gene%"),
        "SELECT g.gid, g.score + 10, p.pid FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p "
        "WHERE g.gid = p.gid AND p.kind IN ('k0', 'k2') AND g.name LIKE 'gene%'",
    ),
    "param_group_having": (
        "SELECT g.gid, COUNT(*), SUM(p.score + ?) FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid AND p.score < ? "
        "GROUP BY g.gid HAVING COUNT(*) >= ?",
        (1, 12, 1),
        "SELECT g.gid, COUNT(*), SUM(p.score + 1) FROM gene ANNOTATION(gnote) g, "
        "protein ANNOTATION(pnote) p WHERE g.gid = p.gid AND p.score < 12 "
        "GROUP BY g.gid HAVING COUNT(*) >= 1",
    ),
}


#: The DB-API ways to pull a cursor's rows.
FETCH_METHODS = ("fetchall", "fetchmany", "iterate")


def run_cursor_query(db: Database, sql: str, params, strategy: str,
                     batch_size: int = 1024, fetch: str = "fetchall"):
    """One cursor execution under a forced (strategy, batch size) pair,
    its rows pulled with one of :data:`FETCH_METHODS`."""
    db.config.join_strategy = strategy
    db.config.batch_size = batch_size
    try:
        cursor = db.connect().cursor().execute(sql, params)
        if fetch == "fetchall":
            rows = cursor.fetchall()
        elif fetch == "fetchmany":
            rows = []
            while chunk := cursor.fetchmany(2):
                rows.extend(chunk)
        else:
            assert fetch == "iterate", fetch
            rows = list(cursor)
        return rows
    finally:
        db.config.join_strategy = "auto"
        db.config.batch_size = 1024


@pytest.mark.parametrize("shape", sorted(PARAMETERIZED_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("fetch", FETCH_METHODS)
@pytest.mark.parametrize("batch_size", (1, 1024))
def test_cursor_parameters_match_inlined_literals(diff_db, shape, strategy,
                                                  fetch, batch_size):
    sql, params, literal_sql = PARAMETERIZED_SHAPES[shape]
    expected = canonical(run_query(diff_db, literal_sql, strategy, batch_size))
    first = canonical(run_cursor_query(diff_db, sql, params, strategy,
                                       batch_size, fetch))
    assert first == expected
    # Second execution reuses the cached plan — must stay equivalent.
    second = canonical(run_cursor_query(diff_db, sql, params, strategy,
                                        batch_size, fetch))
    assert second == expected


@pytest.mark.parametrize("shape", sorted(PARAMETERIZED_SHAPES))
def test_cursor_parameters_with_indexes_match_baseline(indexed_db, shape):
    sql, params, literal_sql = PARAMETERIZED_SHAPES[shape]
    expected = nested_loop_baseline(indexed_db, literal_sql)
    for strategy in INDEXED_STRATEGIES:
        got = canonical(run_cursor_query(indexed_db, sql, params, strategy))
        assert got == expected, f"strategy {strategy} diverged"
