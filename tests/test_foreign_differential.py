"""Differential tests for foreign tables: ForeignScan must compose with every
join strategy, result consumer and batch size.

Attached CSV/JSONL/repro tables join against native tables (and each other);
each query shape runs under every strategy, consumer and batch size and
must return
the same row multiset — and, for the repro provider, the same propagated
annotations — as the nested-loop baseline.  A second
axis re-runs the matrix with provider pushdown disabled: the residual
re-check in the ForeignScan operator must make results independent of how
much filtering the provider actually performed.
"""

from __future__ import annotations

import json

import pytest

from repro import Database
from sql_helpers import fetch, run
from tests.test_join_differential import (
    CONSUMERS,
    canonical,
    nested_loop_baseline,
    run_query,
)

STRATEGIES = ("auto", "hash", "merge")
BATCH_SIZES = (1, 1024)


def build_foreign_db(tmp_path, pushdown: bool = True) -> Database:
    csv_path = tmp_path / f"orders_{pushdown}.csv"
    with open(csv_path, "w") as handle:
        handle.write("oid,cust,amount\n")
        for i in range(40):
            handle.write(f"{i},C{i % 7},{i * 2.5}\n")

    jsonl_path = tmp_path / f"tags_{pushdown}.jsonl"
    with open(jsonl_path, "w") as handle:
        for i in range(14):
            handle.write(json.dumps({"cust": f"C{i % 7}",
                                     "tag": f"t{i % 3}"}) + "\n")

    remote_path = str(tmp_path / f"remote_{pushdown}.db")
    with Database(remote_path) as remote:
        cur = remote.connect().cursor()
        cur.execute("CREATE TABLE customer (cust TEXT, region TEXT)")
        for i in range(7):
            cur.execute("INSERT INTO customer VALUES (?, ?)",
                        (f"C{i}", "east" if i % 2 else "west"))
        cur.execute("CREATE ANNOTATION TABLE note ON customer")
        cur.execute("ADD ANNOTATION TO customer.note VALUE 'vip' "
                    "ON (SELECT cust FROM customer WHERE region = 'east')")

    db = Database()
    run(db, "CREATE TABLE payment (pid INTEGER PRIMARY KEY, oid INTEGER, "
            "method TEXT)")
    for i in range(25):
        run(db, f"INSERT INTO payment VALUES ({i}, {i % 40}, 'm{i % 2}')")
    option = "" if pushdown else ", pushdown false"
    run(db, f"ATTACH '{csv_path}' AS orders (TYPE csv{option})")
    run(db, f"ATTACH '{jsonl_path}' AS tags (TYPE jsonl{option})")
    run(db, f"ATTACH '{remote_path}' AS customer (TYPE repro{option})")
    return db


QUERY_SHAPES = {
    "foreign_scan_filtered": (
        "SELECT oid, amount FROM orders WHERE amount > 40 AND cust = 'C3'"
    ),
    "native_foreign_equi_join": (
        "SELECT p.pid, o.amount FROM payment p, orders o "
        "WHERE p.oid = o.oid AND o.amount > 20"
    ),
    "foreign_foreign_join": (
        "SELECT o.oid, t.tag FROM orders o, tags t "
        "WHERE o.cust = t.cust AND o.oid < 10"
    ),
    "three_way_native_csv_repro": (
        "SELECT p.pid, o.cust, c.region FROM payment p, orders o, "
        "customer ANNOTATION(note) c "
        "WHERE p.oid = o.oid AND o.cust = c.cust AND p.method = 'm1'"
    ),
    "foreign_group_by": (
        "SELECT cust, COUNT(*), SUM(amount) FROM orders "
        "WHERE oid >= 5 GROUP BY cust"
    ),
    "foreign_order_limit": (
        "SELECT oid, amount FROM orders WHERE amount < 60 "
        "ORDER BY amount DESC LIMIT 7"
    ),
    "repro_annotated_join": (
        "SELECT c.cust, c.region, o.oid FROM customer ANNOTATION(note) c, "
        "orders o WHERE c.cust = o.cust AND o.oid < 14"
    ),
    "foreign_left_join": (
        "SELECT o.oid, p.pid FROM orders o LEFT JOIN payment p "
        "ON o.oid = p.oid AND p.method = 'm0' WHERE o.oid < 12"
    ),
}


@pytest.fixture(scope="module")
def foreign_db(tmp_path_factory) -> Database:
    return build_foreign_db(tmp_path_factory.mktemp("foreign_diff"))


@pytest.fixture(scope="module")
def nopush_db(tmp_path_factory) -> Database:
    return build_foreign_db(tmp_path_factory.mktemp("foreign_nopush"),
                            pushdown=False)


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_foreign_matrix_agrees_with_baseline(foreign_db, shape, strategy,
                                             consumer):
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(foreign_db, query)
    candidate = run_query(foreign_db, query, strategy, consumer=consumer)
    assert canonical(candidate) == baseline


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_foreign_matrix_invariant_under_batch_size(foreign_db, shape,
                                                   batch_size):
    query = QUERY_SHAPES[shape]
    baseline = nested_loop_baseline(foreign_db, query)
    candidate = canonical(run_query(foreign_db, query, "auto", batch_size))
    assert candidate == baseline


@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_pushdown_off_matches_pushdown_on(foreign_db, nopush_db, shape,
                                          strategy):
    """Pushdown is advisory: with it disabled the engine-side residual
    re-check must produce the identical result set."""
    query = QUERY_SHAPES[shape]
    expected = nested_loop_baseline(foreign_db, query)
    assert canonical(run_query(nopush_db, query, strategy)) == expected


def test_repro_annotations_match_native_source(tmp_path):
    """Annotation identity: querying an attached repro table must carry the
    same (annotation_table, ann_id) pairs as querying the source natively."""
    remote_path = str(tmp_path / "src.db")
    with Database(remote_path) as remote:
        cur = remote.connect().cursor()
        cur.execute("CREATE TABLE item (iid INTEGER, label TEXT)")
        for i in range(10):
            cur.execute("INSERT INTO item VALUES (?, ?)", (i, f"L{i}"))
        cur.execute("CREATE ANNOTATION TABLE prov ON item")
        cur.execute("ADD ANNOTATION TO item.prov VALUE 'checked' "
                    "ON (SELECT label FROM item WHERE iid < 4)")

    query = "SELECT iid, label FROM item ANNOTATION(prov) WHERE iid < 6"
    with Database(remote_path) as source:
        native = canonical(fetch(source, query))

    db = Database()
    run(db, f"ATTACH '{remote_path}' AS item (TYPE repro)")
    foreign = canonical(fetch(db, query))
    assert foreign == native
    assert any(annotations != ((), ()) for _, annotations in foreign)
    db.close()


def test_foreign_pushdown_actually_reduces_transfer(foreign_db):
    """The matrix is only meaningful if pushdown really happens: a filtered
    scan must transfer far fewer rows out of the provider than a full one."""
    provider = foreign_db.foreign.provider_for(
        foreign_db.foreign.table("orders"))
    counted = []
    original = type(provider).scan_batches

    def counting(self, *args, **kwargs):
        for batch in original(self, *args, **kwargs):
            counted.append(len(batch.values))
            yield batch

    type(provider).scan_batches = counting
    try:
        fetch(foreign_db, "SELECT oid FROM orders WHERE oid = 3")
        filtered = sum(counted)
        counted.clear()
        fetch(foreign_db, "SELECT oid FROM orders")
        full = sum(counted)
    finally:
        type(provider).scan_batches = original
    assert filtered == 1
    assert full == 40
