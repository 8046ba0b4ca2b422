"""E5 — Figures 9-10: local dependency tracking and outdated bitmaps.

Builds the Gene -> Protein -> PFunction chain plus the BLAST Evalue rule,
modifies a sweep of gene sequences, and reports how many cells were
automatically re-computed (executable procedures) vs marked outdated
(non-executable procedures), together with the raw vs RLE-compressed bitmap
sizes the paper's Figure 10 discussion calls for.
"""

from __future__ import annotations

import random

import pytest

from bench_utils import bodies_of, details, fetch, make_db, print_table, run
from repro.workloads import build_gene_protein_pipeline, dna_sequence

NUM_GENES = 60
MODIFY_COUNTS = (1, 5, 15, 30)


def build():
    db = make_db()
    build_gene_protein_pipeline(db, num_genes=NUM_GENES, seed=51)
    return db


def modify_genes(db, count, seed=77):
    rng = random.Random(seed)
    recomputed = outdated = 0
    for index in range(count):
        gid = f"JW{index:04d}"
        summary = details(
            db, f"UPDATE Gene SET GSequence = '{dna_sequence(60, rng)}' WHERE GID = '{gid}'"
        )
        recomputed += len(summary["recomputed"])
        outdated += len(summary["marked_outdated"])
    return recomputed, outdated


def test_modification_sweep_shapes(capsys=None):
    rows = []
    for count in MODIFY_COUNTS:
        db = build()
        recomputed, outdated = modify_genes(db, count)
        bitmap = db.tracker.bitmap_for("Protein")
        tuple_ids = db.table("Protein").tuple_ids
        raw_bits = bitmap.raw_size_bits(len(tuple_ids))
        rle_bits = bitmap.rle_size_bits(tuple_ids)
        rows.append([count, recomputed, outdated, raw_bits, rle_bits,
                     f"{bitmap.compression_ratio(tuple_ids):.1f}x"])
        # Executable rule (prediction tool P) re-computes PSequence; the lab
        # experiment cannot run, so PFunction is marked outdated — one of each
        # per modified gene, exactly Figure 10's pattern.
        assert recomputed == count
        assert outdated == count
        assert bitmap.outdated_count() == count
    print_table(
        "E5/Figure 10 — dependency tracking after modifying K gene sequences "
        f"({NUM_GENES} genes)",
        ["genes modified", "cells recomputed", "cells marked outdated",
         "bitmap raw bits", "bitmap RLE bits", "compression"],
        rows,
    )


def test_outdated_answers_carry_warning_annotations():
    db = build()
    modify_genes(db, 5)
    result = fetch(db, "SELECT PName, PFunction FROM Protein")
    flagged = [i for i in range(len(result)) if result[i].all_annotations()]
    assert len(flagged) == 5
    assert all("OUTDATED" in bodies_of(result[i].all_annotations())[0] for i in flagged)


def test_blast_rule_is_recomputed_not_marked():
    db = build()
    summary = db.engine.execute_prepared(
        db.engine.prepare("UPDATE GeneMatching SET Gene1 = 'AAAAAAAA'"))
    assert summary.details["marked_outdated"] == []
    assert len(summary.details["recomputed"]) == summary.rows_affected


def test_bench_update_with_dependency_tracking(benchmark):
    db = build()
    rng = random.Random(3)

    counter = {"i": 0}

    def update():
        counter["i"] += 1
        gid = f"JW{counter['i'] % NUM_GENES:04d}"
        run(
            db, f"UPDATE Gene SET GSequence = '{dna_sequence(60, rng)}' WHERE GID = '{gid}'"
        )

    benchmark(update)


def test_bench_update_without_rules(benchmark):
    """Baseline: the same update stream on a database without dependency rules."""
    db = make_db()
    run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    rng = random.Random(3)
    for index in range(NUM_GENES):
        run(db, f"INSERT INTO Gene VALUES ('JW{index:04d}', 'g', "
                f"'{dna_sequence(60, rng)}')")
    counter = {"i": 0}

    def update():
        counter["i"] += 1
        gid = f"JW{counter['i'] % NUM_GENES:04d}"
        run(
            db, f"UPDATE Gene SET GSequence = '{dna_sequence(60, rng)}' WHERE GID = '{gid}'"
        )

    benchmark(update)
