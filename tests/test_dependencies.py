"""Tests for procedural dependencies, the dependency graph, bitmaps, and the tracker."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.errors import DependencyError
from repro.dependencies.bitmap import OutdatedBitmap
from repro.dependencies.graph import DependencyGraph, cell_key
from repro.dependencies.rules import DependencyRule, Procedure, RuleSet
from repro.workloads import build_gene_protein_pipeline
from sql_helpers import bodies_of, details, fetch, run, values


def make_rule(name, sources, targets, executable=False, impl=None,
              source_key=None, target_key=None, proc_name=None):
    return DependencyRule.create(
        name=name,
        sources=sources,
        targets=targets,
        procedure=Procedure(proc_name or f"proc_{name}", executable=executable,
                            invertible=False, implementation=impl),
        source_key=source_key, target_key=target_key,
    )


class TestProcedure:
    def test_implementation_requires_executable(self):
        with pytest.raises(DependencyError):
            Procedure("bad", executable=False, implementation=lambda s, t: 1)

    def test_chain_characteristics(self):
        executable = Procedure("P", executable=True)
        lab = Procedure("Lab", executable=False)
        chained = executable.chain(lab)
        assert chained.executable is False
        assert chained.invertible is False
        assert "P" in chained.name and "Lab" in chained.name

    def test_chain_of_executables_stays_executable(self):
        a = Procedure("A", executable=True, invertible=True)
        b = Procedure("B", executable=True, invertible=True)
        assert a.chain(b).executable is True
        assert a.chain(b).invertible is True


class TestRuleSet:
    def test_paper_rules_and_closures(self):
        """The paper's rules 1-3 and the derived rule 4 (Section 5)."""
        rules = RuleSet()
        rules.add(make_rule("r1", [("Gene", "GSequence")], [("Protein", "PSequence")],
                            executable=True, proc_name="Prediction tool P",
                            impl=lambda s, t: "M"))
        rules.add(make_rule("r2", [("Protein", "PSequence")], [("Protein", "PFunction")],
                            executable=False, proc_name="Lab experiment"))
        rules.add(make_rule("r3", [("GeneMatching", "Gene1"), ("GeneMatching", "Gene2")],
                            [("GeneMatching", "Evalue")],
                            executable=True, proc_name="BLAST-2.2.15",
                            impl=lambda s, t: 0.0))
        closure = rules.attribute_closure([("Gene", "GSequence")])
        assert ("protein", "psequence") in closure
        assert ("protein", "pfunction") in closure
        assert ("genematching", "evalue") not in closure

        blast_closure = rules.procedure_closure("BLAST-2.2.15")
        assert blast_closure == {("genematching", "evalue")}

        derived = rules.derive_chained_rules()
        assert len(derived) == 1
        rule4 = derived[0]
        assert rule4.sources == (("gene", "gsequence"),)
        assert rule4.targets == (("protein", "pfunction"),)
        assert rule4.procedure.executable is False

    def test_duplicate_name_rejected(self):
        rules = RuleSet()
        rules.add(make_rule("r", [("A", "x")], [("B", "y")]))
        with pytest.raises(DependencyError):
            rules.add(make_rule("r", [("A", "x")], [("C", "z")]))

    def test_conflict_detection(self):
        rules = RuleSet()
        rules.add(make_rule("r1", [("A", "x")], [("B", "y")], proc_name="tool1"))
        with pytest.raises(DependencyError):
            rules.add(make_rule("r2", [("A", "x")], [("B", "y")], proc_name="tool2"))

    def test_cycle_detection(self):
        rules = RuleSet()
        rules.add(make_rule("r1", [("A", "x")], [("B", "y")]), check_cycles=True)
        rules.add(make_rule("r2", [("B", "y")], [("C", "z")]), check_cycles=True)
        with pytest.raises(DependencyError):
            rules.add(make_rule("r3", [("C", "z")], [("A", "x")]), check_cycles=True)
        # The offending rule was rolled back.
        assert len(rules) == 2

    def test_remove_rule(self):
        rules = RuleSet()
        rules.add(make_rule("r1", [("A", "x")], [("B", "y")]))
        rules.remove("r1")
        assert len(rules) == 0
        with pytest.raises(DependencyError):
            rules.remove("r1")

    def test_rules_with_source(self):
        rules = RuleSet()
        rules.add(make_rule("r1", [("A", "x")], [("B", "y")]))
        rules.add(make_rule("r2", [("A", "z")], [("B", "w")]))
        assert len(rules.rules_with_source("a", "X")) == 1
        assert len(rules.rules_for_table("b")) == 2


class TestDependencyGraph:
    def test_forward_and_reverse_closure(self):
        graph = DependencyGraph()
        a = cell_key("Gene", 0, "GSequence")
        b = cell_key("Protein", 0, "PSequence")
        c = cell_key("Protein", 0, "PFunction")
        graph.add_edge(a, b, "tool P", executable=True)
        graph.add_edge(b, c, "lab experiment")
        assert graph.affected_closure([a]) == {b, c}
        assert graph.derivation_closure(c) == {a, b}
        assert graph.procedure_closure("tool P") == {b, c}

    def test_self_edge_rejected(self):
        graph = DependencyGraph()
        a = cell_key("T", 0, "x")
        with pytest.raises(DependencyError):
            graph.add_edge(a, a, "p")

    def test_duplicate_edge_is_idempotent(self):
        graph = DependencyGraph()
        a, b = cell_key("T", 0, "x"), cell_key("T", 1, "x")
        graph.add_edge(a, b, "p")
        graph.add_edge(a, b, "p")
        assert graph.num_edges == 1

    def test_cycle_detection(self):
        graph = DependencyGraph()
        a, b, c = (cell_key("T", i, "x") for i in range(3))
        graph.add_edge(a, b, "p")
        graph.add_edge(b, c, "p")
        assert graph.find_cycle() is None
        graph.add_edge(c, a, "p")
        assert graph.find_cycle() is not None

    def test_remove_cell(self):
        graph = DependencyGraph()
        a, b = cell_key("T", 0, "x"), cell_key("T", 1, "x")
        graph.add_edge(a, b, "p")
        assert graph.remove_cell(a) == 1
        assert graph.num_edges == 1  # counter tracks total added, edges list empty
        assert graph.dependents_of(a) == []


class TestOutdatedBitmap:
    def test_mark_clear_and_report(self):
        bitmap = OutdatedBitmap("Protein", ["PName", "PSequence", "PFunction"])
        bitmap.mark(3, "PFunction")
        bitmap.mark(5, "PFunction")
        assert bitmap.is_outdated(3, "pfunction")
        assert bitmap.outdated_count() == 2
        assert bitmap.outdated_columns_of(3) == ["PFunction"]
        bitmap.clear(3, "PFunction")
        assert not bitmap.is_outdated(3, "PFunction")

    def test_dense_rows_match_figure10_shape(self):
        bitmap = OutdatedBitmap("Protein", ["PName", "GID", "PSeq", "PFun"])
        bitmap.mark(1, "PFun")
        bitmap.mark(2, "PFun")
        rows = bitmap.dense_rows([0, 1, 2])
        assert rows == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]]

    def test_rle_compression_shrinks_sparse_bitmaps(self):
        bitmap = OutdatedBitmap("T", ["a", "b", "c", "d"])
        bitmap.mark(500, "d")
        tuple_ids = list(range(1000))
        assert bitmap.rle_size_bits(tuple_ids) < bitmap.raw_size_bits(1000)
        assert bitmap.compression_ratio(tuple_ids) > 5

    def test_unknown_column_raises(self):
        bitmap = OutdatedBitmap("T", ["a"])
        with pytest.raises(KeyError):
            bitmap.mark(0, "zzz")

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 99), st.integers(0, 3)), max_size=50))
    def test_dense_rows_agree_with_marks(self, cells):
        columns = ["c0", "c1", "c2", "c3"]
        bitmap = OutdatedBitmap("T", columns)
        for tuple_id, column in cells:
            bitmap.mark(tuple_id, columns[column])
        rows = bitmap.dense_rows(range(100))
        for tuple_id in range(100):
            for column in range(4):
                assert rows[tuple_id][column] == (1 if (tuple_id, column) in cells else 0)


class TestTrackerScenarios:
    def test_figure9_gene_update_recomputes_and_marks(self, pipeline_db):
        db = pipeline_db
        summary = details(
            db, "UPDATE Gene SET GSequence = 'ATGCCCGGGTTT' WHERE GID = 'JW0002'")
        recomputed = summary["recomputed"]
        outdated = summary["marked_outdated"]
        assert any(cell[2] == "psequence" for cell in recomputed)
        assert any(cell[2] == "pfunction" for cell in outdated)
        # PSequence was actually recomputed by the prediction tool.
        protein_tid = recomputed[0][1]
        assert db.table("Protein").read_cell(protein_tid, "PSequence")

    def test_outdated_status_annotation_propagates_in_queries(self, pipeline_db):
        db = pipeline_db
        run(db, "UPDATE Gene SET GSequence = 'ATGAAA' WHERE GID = 'JW0003'")
        result = fetch(db, "SELECT PName, PFunction FROM Protein")
        flagged = [index for index in range(len(result)) if result[index].all_annotations()]
        assert len(flagged) == 1
        body = bodies_of(result[flagged[0]].all_annotations())[0]
        assert "OUTDATED" in body and "PFunction" in body

    def test_revalidation_clears_the_flag(self, pipeline_db):
        db = pipeline_db
        run(db, "UPDATE Gene SET GSequence = 'ATGAAA' WHERE GID = 'JW0004'")
        cells = db.tracker.outdated_cells("Protein")
        assert cells
        tuple_id, column = cells[0]
        db.tracker.revalidate("Protein", tuple_id, column)
        assert not db.tracker.is_outdated("Protein", tuple_id, column)
        assert db.tracker.outdated_report() == {}

    def test_blast_rule_recomputes_evalue(self, pipeline_db):
        db = pipeline_db
        before = values(db, "SELECT Evalue FROM GeneMatching")
        summary = details(db, "UPDATE GeneMatching SET Gene1 = 'AAAAAAAAAA'")
        assert all(cell[2] == "evalue" for cell in summary["recomputed"])
        after = values(db, "SELECT Evalue FROM GeneMatching")
        assert before != after
        # Evalue is recomputed, never marked outdated (it is executable).
        assert db.tracker.outdated_report().get("GeneMatching") is None

    def test_delete_marks_dependents_outdated(self, pipeline_db):
        db = pipeline_db
        outdated = details(
            db, "DELETE FROM Gene WHERE GID = 'JW0005'")["marked_outdated"]
        assert any(cell[0] == "protein" for cell in outdated)

    def test_procedure_changed_refreshes_closure(self, pipeline_db):
        db = pipeline_db
        impact = db.tracker.procedure_changed("Lab experiment")
        # Lab experiment is non-executable: all protein functions become outdated.
        assert len(impact.marked_outdated) == len(db.table("Protein"))

    def test_cross_table_rule_requires_link_keys(self, db):
        run(db, "CREATE TABLE A (k TEXT, v TEXT)")
        run(db, "CREATE TABLE B (k TEXT, w TEXT)")
        rule = make_rule("bad", [("A", "v")], [("B", "w")])
        with pytest.raises(DependencyError):
            db.tracker.register_rule(rule)

    def test_instance_level_dependency(self, db):
        run(db, "CREATE TABLE T (a TEXT, b TEXT)")
        run(db, "INSERT INTO T VALUES ('x', 'y'), ('p', 'q')")
        db.tracker.register_instance_dependency(("T", 0, "a"), ("T", 1, "b"),
                                                "manual curation")
        summary = details(db, "UPDATE T SET a = 'z' WHERE a = 'x'")
        assert ("t", 1, "b") in summary["marked_outdated"]

    def test_instance_dependency_validates_cells(self, db):
        run(db, "CREATE TABLE T (a TEXT)")
        with pytest.raises(DependencyError):
            db.tracker.register_instance_dependency(("T", 99, "a"), ("T", 0, "a"), "p")
