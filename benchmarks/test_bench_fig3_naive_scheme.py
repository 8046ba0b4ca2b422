"""E1 — Figure 3 and Section 3's query steps (a)-(c).

The paper motivates A-SQL by showing that, with annotations stored as plain
data columns, retrieving the genes common to DB1_Gene and DB2_Gene *with*
their annotations takes three SQL statements, whereas A-SQL needs one.  This
benchmark loads the Figure 2/3 workload, runs both formulations, checks they
agree, and times them.
"""

from __future__ import annotations

import pytest

from bench_utils import make_db, print_table
from repro.workloads import build_gene_tables

NUM_GENES = 60
OVERLAP = 0.5


@pytest.fixture(scope="module")
def loaded():
    db = make_db(scheme="naive")
    info = build_gene_tables(db, num_genes=NUM_GENES, overlap=OVERLAP, seed=3)
    return db, info


ASQL_QUERY = (
    "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) "
    "INTERSECT "
    "SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)"
)

MANUAL_STEP_A = (
    "SELECT GID, GName, GSequence FROM DB1_Gene "
    "INTERSECT SELECT GID, GName, GSequence FROM DB2_Gene"
)


def run_asql(db):
    return db.query(ASQL_QUERY)


def run_manual(db):
    """The paper's steps (a)-(c): intersect, then join back to each table's
    annotations through the annotation manager (standing in for the manual
    annotation-column joins of Figure 3)."""
    step_a = db.query(MANUAL_STEP_A)
    # Steps (b) and (c): re-attach annotations of both source tables by
    # probing each table's annotation linkage for the matching tuples.
    results = []
    for row in step_a.values():
        gid = row[0]
        annotations = set()
        for table_name in ("DB1_Gene", "DB2_Gene"):
            table = db.table(table_name)
            index = db.annotations.propagation_index(table_name, ["GAnnotation"])
            for tuple_id in db.indexes.find_tuples(table_name, "GID", gid):
                for position in range(len(table.schema)):
                    annotations |= index.lookup(tuple_id, position)
        results.append((row, annotations))
    return results


def test_asql_and_manual_plans_agree(loaded):
    db, info = loaded
    asql = run_asql(db)
    manual = run_manual(db)
    assert len(asql) == len(manual) == len(info["common"])
    asql_by_gid = {row.values[0]: row.all_annotations() for row in asql.rows}
    for (values, annotations) in manual:
        assert asql_by_gid[values[0]] == annotations


def test_bench_asql_single_statement(benchmark, loaded):
    db, info = loaded
    result = benchmark(run_asql, db)
    print_table(
        "E1/Figure 3 — annotated INTERSECT (A-SQL, 1 statement)",
        ["genes in answer", "statements", "annotations on first row"],
        [[len(result), 1, len(result.rows[0].all_annotations())]],
    )


def test_bench_manual_three_statements(benchmark, loaded):
    db, info = loaded
    result = benchmark(run_manual, db)
    print_table(
        "E1/Figure 3 — annotated INTERSECT (manual plan, 3 statements)",
        ["genes in answer", "statements", "annotations on first row"],
        [[len(result), 3, len(result[0][1])]],
    )
