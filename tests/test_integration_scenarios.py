"""Integration scenarios that combine several bdbms features end-to-end.

Each test tells one of the paper's stories across subsystem boundaries:
annotations + provenance + approval + dependency tracking working together on
the same database instance, the way the E. coli / protein-structure projects
that motivated bdbms would use it.
"""

from __future__ import annotations

import random

import pytest

from repro import Database
from repro.workloads import build_gene_protein_pipeline, dna_sequence
from sql_helpers import bodies_of, fetch, run, values


class TestCuratedDatabaseLifecycle:
    """Load -> annotate -> curate -> review -> audit, on one database."""

    def test_full_lifecycle(self):
        db = Database()
        rng = random.Random(99)
        build_gene_protein_pipeline(db, num_genes=10, seed=12, with_matching=False)

        # 1. The integration tool records provenance for the loaded genes.
        db.provenance.register_tool("loader")
        cells = db.annotations.cells_for("Gene")
        db.provenance.record("Gene", cells, source="RegulonDB", operation="copy",
                             agent="loader")

        # 2. Users annotate their data through A-SQL.
        run(db, "CREATE ANNOTATION TABLE Comments ON Gene")
        run(
            db, "ADD ANNOTATION TO Gene.Comments VALUE 'verified by Sanger resequencing' "
            "ON (SELECT G.GSequence FROM Gene G WHERE G.GID = 'JW0000')"
        )

        # 3. Content approval is switched on; a lab member updates a sequence.
        run(db, "GRANT SELECT, UPDATE ON Gene TO alice")
        run(db, "START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY admin")
        new_sequence = dna_sequence(60, rng)
        run(
            db, f"UPDATE Gene SET GSequence = '{new_sequence}' WHERE GID = 'JW0001'",
            user="alice",
        )

        # 4. The dependency tracker reacted: PSequence recomputed, PFunction outdated.
        outdated = db.tracker.outdated_report()
        assert "Protein" in outdated and len(outdated["Protein"]) == 1

        # 5. Query answers expose annotations, provenance, and outdated status.
        result = fetch(
            db, "SELECT GID, GSequence FROM Gene ANNOTATION(provenance, Comments)"
        )
        first_row_tables = {a.annotation_table for a in result[0].all_annotations()}
        assert "Gene.provenance" in first_row_tables
        assert "Gene.Comments" in first_row_tables
        protein_result = fetch(db, "SELECT PName, PFunction FROM Protein")
        assert any("OUTDATED" in body
                   for i in range(len(protein_result))
                   for body in bodies_of(protein_result[i].all_annotations()))

        # 6. The admin disapproves the update: the inverse statement restores
        #    the sequence and dependency tracking reconciles the protein.
        op = db.approval.pending_operations()[0]
        db.approval.disapprove(op.op_id, "admin")
        restored = values(db, "SELECT GSequence FROM Gene WHERE GID = 'JW0001'")[0][0]
        assert restored != new_sequence

        # 7. The wet lab revalidates the outdated function measurement.
        for tuple_id, column in db.tracker.outdated_cells("Protein"):
            db.tracker.revalidate("Protein", tuple_id, column)
        assert db.tracker.outdated_report() == {}

        # 8. Audit: provenance still answers "where did this come from".
        record = db.provenance.source_at("Gene", 0, "GSequence")
        assert record.source == "RegulonDB"


class TestAnnotationSchemesAgreeEndToEnd:
    """The two storage schemes are interchangeable at the query level."""

    @pytest.mark.parametrize("scheme", ["naive", "compact"])
    def test_queries_identical_across_schemes(self, scheme):
        from repro import EngineConfig
        db = Database(config=EngineConfig(default_annotation_scheme=scheme))
        run(db, "CREATE TABLE T (k INTEGER PRIMARY KEY, v TEXT)")
        run(db, "CREATE ANNOTATION TABLE notes ON T")
        for index in range(20):
            run(db, f"INSERT INTO T VALUES ({index}, 'value-{index}')")
        run(db, "ADD ANNOTATION TO T.notes VALUE 'whole column' "
                "ON (SELECT x.v FROM T x)")
        run(db, "ADD ANNOTATION TO T.notes VALUE 'small block' "
                "ON (SELECT x.* FROM T x WHERE k BETWEEN 3 AND 6)")
        result = fetch(db, "SELECT k, v FROM T ANNOTATION(notes) ORDER BY k")
        per_row = [len(result[i].all_annotations()) for i in range(len(result))]
        expected = [1 if not 3 <= k <= 6 else 2 for k in range(20)]
        assert per_row == expected


class TestPersistenceAcrossIo:
    """File-backed databases count I/O and survive buffer-pool pressure."""

    def test_large_table_with_small_pool(self, tmp_path):
        from repro.executor.engine import EngineConfig
        db = Database(str(tmp_path / "big.db"), pool_size=4)
        run(db, "CREATE TABLE seqs (id INTEGER PRIMARY KEY, body SEQUENCE)")
        rng = random.Random(1)
        for index in range(200):
            run(db, f"INSERT INTO seqs VALUES ({index}, '{dna_sequence(80, rng)}')")
        assert db.io_statistics().page_writes > 0
        db.reset_io_statistics()
        db.catalog.pool.clear()
        result = values(db, "SELECT COUNT(*) FROM seqs")
        assert result == [(200,)]
        # A cold scan of a multi-page table must read more than one page.
        assert db.io_statistics().page_reads > 1
        db.close()


class TestAnnotateThenDependencyInteraction:
    def test_outdated_annotations_coexist_with_user_annotations(self):
        db = Database()
        build_gene_protein_pipeline(db, num_genes=6, seed=3, with_matching=False)
        run(db, "CREATE ANNOTATION TABLE Notes ON Protein")
        run(db, "ADD ANNOTATION TO Protein.Notes VALUE 'reviewed 2026' "
                "ON (SELECT P.* FROM Protein P)")
        run(db, "UPDATE Gene SET GSequence = 'ATGATGATG' WHERE GID = 'JW0002'")
        result = fetch(db, "SELECT PName, PFunction FROM Protein ANNOTATION(Notes)")
        # Every row has the user annotation; exactly one also has the system
        # outdated annotation.
        has_outdated = 0
        for index in range(len(result)):
            bodies = bodies_of(result[index].all_annotations())
            assert any("reviewed 2026" in body for body in bodies)
            if any("OUTDATED" in body for body in bodies):
                has_outdated += 1
        assert has_outdated == 1
