"""E4 — Figure 8: provenance at multiple granularities.

Loads one table from multiple sources (S1, S2, local inserts), lets a program
P1 update part of it and a source S3 overwrite a column, then answers the
figure's question — "what is the source of this value at time T?" — for a
sweep of times, and times the point-in-time lookup.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from bench_utils import fetch, make_db, print_table, run
from repro.workloads import dna_sequence
import random

NUM_ROWS = 120


@pytest.fixture(scope="module")
def loaded():
    db = make_db()
    rng = random.Random(41)
    run(db, "CREATE TABLE Assembly (AID TEXT PRIMARY KEY, Contig SEQUENCE, "
            "Quality FLOAT)")
    for index in range(NUM_ROWS):
        run(
            db, f"INSERT INTO Assembly VALUES ('A{index:04d}', "
            f"'{dna_sequence(40, rng)}', {rng.random():.3f})"
        )
    tuple_ids = db.table("Assembly").tuple_ids
    half = tuple_ids[: NUM_ROWS // 2]
    rest = tuple_ids[NUM_ROWS // 2:]
    # S1 contributed the first half, S2 the second half (tuple granularity).
    db.provenance.record("Assembly", db.annotations.cells_for("Assembly", half),
                         source="S1", operation="copy", time=datetime(2005, 1, 1))
    db.provenance.record("Assembly", db.annotations.cells_for("Assembly", rest),
                         source="S2", operation="copy", time=datetime(2005, 6, 1))
    # Program P1 updated Quality for every tuple (column granularity).
    db.provenance.record("Assembly",
                         db.annotations.cells_for("Assembly", columns=["Quality"]),
                         source="P1", operation="update", program="P1",
                         time=datetime(2006, 3, 1))
    # Source S3 overwrote the Contig column (column granularity).
    db.provenance.record("Assembly",
                         db.annotations.cells_for("Assembly", columns=["Contig"]),
                         source="S3", operation="overwrite", time=datetime(2007, 1, 1))
    return db


def test_source_at_time_matches_figure8_story(loaded):
    db = loaded
    tuple_ids = db.table("Assembly").tuple_ids
    early, late = tuple_ids[0], tuple_ids[-1]
    probes = [
        ("Contig of an S1 row, before P1/S3", early, "Contig", datetime(2005, 2, 1), "S1"),
        ("Contig of an S2 row, before S3", late, "Contig", datetime(2006, 1, 1), "S2"),
        ("Quality after P1 ran", early, "Quality", datetime(2006, 6, 1), "P1"),
        ("Contig after S3 overwrote it", late, "Contig", None, "S3"),
    ]
    rows = []
    for label, tuple_id, column, at_time, expected in probes:
        record = db.provenance.source_at("Assembly", tuple_id, column, at_time)
        rows.append([label, at_time or "latest", record.source])
        assert record.source == expected
    print_table("E4/Figure 8 — source of a value at time T",
                ["probe", "time", "source"], rows)
    counts = db.provenance.sources_of_table("Assembly")
    assert set(counts) == {"S1", "S2", "P1", "S3"}


def test_provenance_propagates_and_filters(loaded):
    db = loaded
    result = fetch(
        db, "SELECT AID, Quality FROM Assembly ANNOTATION(provenance) "
        "AWHERE annotation.value LIKE '%P1%'"
    )
    assert len(result) == NUM_ROWS


def test_bench_point_in_time_lookup(benchmark, loaded):
    db = loaded
    tuple_id = db.table("Assembly").tuple_ids[10]
    record = benchmark(db.provenance.source_at, "Assembly", tuple_id, "Contig",
                       datetime(2006, 1, 1))
    assert record.source == "S1"


def test_bench_full_history(benchmark, loaded):
    db = loaded
    tuple_id = db.table("Assembly").tuple_ids[10]
    history = benchmark(db.provenance.history, "Assembly", tuple_id, "Contig")
    assert [r.source for r in history] == ["S1", "S3"]
