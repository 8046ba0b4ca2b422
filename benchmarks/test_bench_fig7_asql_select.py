"""E3 — Figures 4, 6, 7: the A-SQL command surface.

Exercises every A-SQL construct end-to-end (CREATE/DROP ANNOTATION TABLE,
ADD/ARCHIVE/RESTORE ANNOTATION, and the SELECT extensions ANNOTATION,
PROMOTE, AWHERE, AHAVING, FILTER), reports the result and annotation
cardinalities per operator, and times the annotated SELECT pipeline.
"""

from __future__ import annotations

import pytest

from bench_utils import fetch, make_db, print_table, run
from repro.workloads import build_gene_tables

NUM_GENES = 80


@pytest.fixture(scope="module")
def loaded():
    db = make_db()
    build_gene_tables(db, num_genes=NUM_GENES, overlap=0.4, seed=29)
    return db


QUERIES = {
    "ANNOTATION": "SELECT GID, GSequence FROM DB1_Gene ANNOTATION(GAnnotation)",
    "PROMOTE": "SELECT GID PROMOTE (GSequence) FROM DB1_Gene ANNOTATION(GAnnotation)",
    "AWHERE": ("SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) "
               "AWHERE annotation.value LIKE '%RegulonDB%'"),
    "FILTER": ("SELECT GID, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) "
               "FILTER annotation.value LIKE '%published%'"),
    "AHAVING": ("SELECT GName, COUNT(*) FROM DB1_Gene ANNOTATION(GAnnotation) "
                "GROUP BY GName "
                "AHAVING annotation.value LIKE '%methyltransferase%'"),
}


def annotation_count(result):
    return sum(len(row.all_annotations()) for row in result)


def test_asql_operator_cardinalities(loaded):
    db = loaded
    rows = []
    results = {}
    for name, sql in QUERIES.items():
        result = fetch(db, sql)
        results[name] = result
        rows.append([name, len(result), annotation_count(result)])
    print_table("E3/Figure 7 — A-SQL SELECT operators",
                ["operator", "tuples", "annotations propagated"], rows)
    # Shape checks: ANNOTATION propagates, projection drops, PROMOTE restores,
    # AWHERE selects by annotation, FILTER keeps tuples but trims annotations.
    assert annotation_count(results["ANNOTATION"]) > 0
    assert annotation_count(results["PROMOTE"]) > 0
    assert len(results["AWHERE"]) == NUM_GENES          # A2 covers every DB1 gene
    assert len(results["FILTER"]) == NUM_GENES
    assert annotation_count(results["FILTER"]) < annotation_count(results["ANNOTATION"])
    assert len(results["AHAVING"]) == 1


def test_archive_restore_roundtrip_counts(loaded):
    db = loaded
    archived = run(
        db, "ARCHIVE ANNOTATION FROM DB1_Gene.GAnnotation ON (SELECT G.* FROM DB1_Gene G)"
    )
    after_archive = fetch(db, QUERIES["ANNOTATION"])
    restored = run(
        db, "RESTORE ANNOTATION FROM DB1_Gene.GAnnotation ON (SELECT G.* FROM DB1_Gene G)"
    )
    after_restore = fetch(db, QUERIES["ANNOTATION"])
    print_table("E3/Figure 6 — ARCHIVE / RESTORE",
                ["step", "annotations archived/restored", "annotations propagated"],
                [["archive", archived.rowcount, annotation_count(after_archive)],
                 ["restore", restored.rowcount, annotation_count(after_restore)]])
    assert annotation_count(after_archive) == 0
    assert annotation_count(after_restore) > 0
    assert archived.rowcount == restored.rowcount


def test_bench_annotated_select(benchmark, loaded):
    db = loaded
    result = benchmark(fetch, db, QUERIES["ANNOTATION"])
    assert len(result) == NUM_GENES


def test_bench_plain_select_baseline(benchmark, loaded):
    db = loaded
    result = benchmark(fetch, db, "SELECT GID, GSequence FROM DB1_Gene")
    assert len(result) == NUM_GENES


def test_bench_awhere(benchmark, loaded):
    db = loaded
    result = benchmark(fetch, db, QUERIES["AWHERE"])
    assert len(result) == NUM_GENES
