"""E2 — Figure 5: compact rectangle storage vs the naive per-cell scheme.

The paper argues that storing annotations per cell is wasteful for
coarse-granularity annotations (A2 and B3 are repeated 6 and 5 times in
Figure 3) and proposes viewing the table as a 2-D space and storing
rectangles.  This benchmark attaches the same mix of table/column/tuple/cell
annotations under both schemes and reports linkage records, linkage pages,
and the I/O needed to build the propagation index.
"""

from __future__ import annotations

import pytest

from bench_utils import fetch, make_db, print_table
from repro.workloads import build_gene_tables

NUM_GENES = 150


def load(scheme: str):
    db = make_db(scheme=scheme)
    build_gene_tables(db, num_genes=NUM_GENES, overlap=0.5, seed=13,
                      annotation_scheme=scheme)
    table = db.annotations.get("DB2_Gene", "GAnnotation")
    return db, table


def measure(scheme: str):
    db, table = load(scheme)
    db.reset_io_statistics()
    db.catalog.pool.clear()
    index = table.linkage.load_index()
    io = db.io_statistics().page_reads
    return {
        "scheme": scheme,
        "annotations": table.annotation_count(),
        "linkage_records": table.linkage_record_count(),
        "linkage_pages": table.linkage.num_pages(),
        "index_build_page_reads": io,
        "index": index,
    }


@pytest.fixture(scope="module")
def measurements():
    return measure("naive"), measure("compact")


def test_compact_scheme_uses_fewer_records_and_io(measurements):
    naive, compact = measurements
    # The annotations themselves are identical ...
    assert naive["annotations"] == compact["annotations"]
    # ... but the compact scheme stores far fewer linkage records (the paper's
    # point: one record per rectangle instead of one per cell) ...
    assert compact["linkage_records"] < naive["linkage_records"] / 5
    # ... and occupies no more pages / I/O to load.
    assert compact["linkage_pages"] <= naive["linkage_pages"]
    assert compact["index_build_page_reads"] <= naive["index_build_page_reads"]
    print_table(
        "E2/Figure 5 — annotation linkage storage (DB2_Gene.GAnnotation, "
        f"{NUM_GENES} genes)",
        ["scheme", "annotations", "linkage records", "linkage pages",
         "index-build page reads"],
        [[m["scheme"], m["annotations"], m["linkage_records"], m["linkage_pages"],
          m["index_build_page_reads"]] for m in measurements],
    )


def test_bench_naive_propagation_query(benchmark):
    db, _ = load("naive")
    result = benchmark(
        fetch, db, "SELECT GID, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)"
    )
    assert len(result) == NUM_GENES


def test_bench_compact_propagation_query(benchmark):
    db, _ = load("compact")
    result = benchmark(
        fetch, db, "SELECT GID, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)"
    )
    assert len(result) == NUM_GENES
