"""End-to-end tests of A-SQL: the paper's annotation commands and SELECT extensions."""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.errors import AnnotationError, ProgrammingError
from sql_helpers import bodies_of, fetch, run, values


class TestAnnotationDdlThroughSql:
    def test_create_and_drop_annotation_table(self, db):
        run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GSequence SEQUENCE)")
        run(db, "CREATE ANNOTATION TABLE GAnnotation ON Gene")
        assert db.annotations.has("Gene", "GAnnotation")
        run(db, "DROP ANNOTATION TABLE GAnnotation ON Gene")
        assert not db.annotations.has("Gene", "GAnnotation")


@pytest.fixture
def annotated_db(db):
    """Three genes with annotations at cell, tuple, and column granularity."""
    run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    run(db, "CREATE ANNOTATION TABLE GAnnotation ON Gene")
    run(db, "INSERT INTO Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAA')")
    run(db, "INSERT INTO Gene VALUES ('JW0082', 'ftsI', 'ATGAAAGCAGC')")
    run(db, "INSERT INTO Gene VALUES ('JW0055', 'yabP', 'ATGAAAGTATC')")
    # Column granularity (like B3: "obtained from GenoBase" on GSequence).
    run(
        db, "ADD ANNOTATION TO Gene.GAnnotation "
        "VALUE '<Annotation>obtained from GenoBase</Annotation>' "
        "ON (SELECT G.GSequence FROM Gene G)"
    )
    # Tuple granularity (like B5: unknown function on gene JW0080).
    run(
        db, "ADD ANNOTATION TO Gene.GAnnotation "
        "VALUE 'This gene has an unknown function' "
        "ON (SELECT G.* FROM Gene G WHERE GID = 'JW0080')"
    )
    # Cell granularity (like A3: methyltransferase on one sequence cell).
    run(
        db, "ADD ANNOTATION TO Gene.GAnnotation "
        "VALUE 'Involved in methyltransferase activity' "
        "ON (SELECT G.GSequence FROM Gene G WHERE GID = 'JW0082')"
    )
    return db


class TestAddAnnotation:
    def test_column_granularity_attaches_to_every_tuple(self, annotated_db):
        result = fetch(annotated_db, "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation)")
        for index in range(len(result)):
            bodies = bodies_of(result[index].annotations[1])
            assert any("GenoBase" in body for body in bodies)

    def test_tuple_granularity_attaches_to_all_columns_of_tuple(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT GID, GName FROM Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0080'"
        )
        assert any("unknown function" in body for body in bodies_of(result[0].annotations[0]))
        assert any("unknown function" in body for body in bodies_of(result[0].annotations[1]))

    def test_cell_granularity_only_on_that_cell(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0082'"
        )
        assert any("methyltransferase" in body
                   for body in bodies_of(result[0].annotations[1]))
        assert not any("methyltransferase" in body
                       for body in bodies_of(result[0].annotations[0]))

    def test_annotation_on_insert_statement(self, annotated_db):
        run(
            annotated_db, "ADD ANNOTATION TO Gene.GAnnotation VALUE 'newly sequenced' "
            "ON (INSERT INTO Gene VALUES ('JW0100', 'newG', 'ATGTTT'))"
        )
        result = fetch(
            annotated_db, "SELECT GID FROM Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0100'"
        )
        assert any("newly sequenced" in body for body in bodies_of(result[0].annotations[0]))

    def test_annotation_on_update_statement_targets_changed_columns(self, annotated_db):
        run(
            annotated_db, "ADD ANNOTATION TO Gene.GAnnotation VALUE 'resequenced in 2026' "
            "ON (UPDATE Gene SET GSequence = 'ATGCCCCCC' WHERE GID = 'JW0055')"
        )
        result = fetch(
            annotated_db, "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) WHERE GID = 'JW0055'"
        )
        assert any("resequenced" in body for body in bodies_of(result[0].annotations[1]))
        assert not any("resequenced" in body for body in bodies_of(result[0].annotations[0]))

    def test_annotation_on_delete_logs_deleted_tuples(self, annotated_db):
        summary = run(
            annotated_db, "ADD ANNOTATION TO Gene.GAnnotation VALUE 'withdrawn: contamination' "
            "ON (DELETE FROM Gene WHERE GID = 'JW0082')"
        )
        assert summary.rowcount == 1
        # The gene is gone from the user table but preserved in the log table.
        assert len(fetch(annotated_db, "SELECT * FROM Gene WHERE GID = 'JW0082'")) == 0
        log_rows = values(annotated_db, "SELECT GID FROM Gene__deleted")
        assert log_rows == [("JW0082",)]

    def test_unknown_annotation_table_rejected(self, annotated_db):
        with pytest.raises(ProgrammingError) as info:
            run(
                annotated_db, "ADD ANNOTATION TO Gene.Nope VALUE 'x' ON (SELECT G.GID FROM Gene G)"
            )
        assert isinstance(info.value.__cause__, AnnotationError)

    def test_join_target_rejected(self, annotated_db):
        with pytest.raises(ProgrammingError) as info:
            run(
                annotated_db, "ADD ANNOTATION TO Gene.GAnnotation VALUE 'x' "
                "ON (SELECT a.GID FROM Gene a, Gene b)"
            )
        assert isinstance(info.value.__cause__, AnnotationError)


class TestAnnotationPropagationOperators:
    def test_projection_drops_other_columns_annotations(self, annotated_db):
        result = fetch(annotated_db, "SELECT GID FROM Gene ANNOTATION(GAnnotation)")
        # GenoBase annotation lives on GSequence, which is not projected.
        for index in range(len(result)):
            assert not any("GenoBase" in body for body in bodies_of(result[index].all_annotations()))

    def test_promote_copies_annotations_to_projected_column(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT GID PROMOTE (GSequence) FROM Gene ANNOTATION(GAnnotation)"
        )
        assert any("GenoBase" in body for body in bodies_of(result[0].annotations[0]))

    def test_selection_keeps_all_annotations_of_selected_tuples(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
            "WHERE GID = 'JW0080'"
        )
        bodies = bodies_of(result[0].all_annotations())
        assert any("GenoBase" in body for body in bodies)
        assert any("unknown function" in body for body in bodies)

    def test_awhere_selects_tuples_by_annotation(self, annotated_db):
        result = values(
            annotated_db, "SELECT GID FROM Gene ANNOTATION(GAnnotation) "
            "AWHERE annotation.value LIKE '%methyltransferase%'"
        )
        assert result == [("JW0082",)]

    def test_filter_drops_non_matching_annotations_but_keeps_tuples(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) "
            "FILTER annotation.value LIKE '%GenoBase%'"
        )
        assert len(result) == 3
        for index in range(len(result)):
            bodies = bodies_of(result[index].all_annotations())
            assert all("GenoBase" in body for body in bodies)

    def test_no_annotation_clause_means_no_annotations(self, annotated_db):
        result = fetch(annotated_db, "SELECT GID, GSequence FROM Gene")
        assert all(not result[index].all_annotations() for index in range(len(result)))

    def test_group_by_unions_annotations(self, annotated_db):
        result = fetch(
            annotated_db, "SELECT COUNT(*) AS n FROM Gene ANNOTATION(GAnnotation) GROUP BY 1 + 0"
        )
        # One group containing all tuples: its annotations are the union.
        bodies = bodies_of(result[0].all_annotations())
        assert any("GenoBase" in body for body in bodies)
        assert any("unknown function" in body for body in bodies)

    def test_ahaving_filters_groups_by_annotation(self, annotated_db):
        result = values(
            annotated_db, "SELECT GName, COUNT(*) FROM Gene ANNOTATION(GAnnotation) "
            "GROUP BY GName AHAVING annotation.value LIKE '%methyltransferase%'"
        )
        assert [v[0] for v in result] == ["ftsI"]

    def test_distinct_unions_annotations_of_duplicates(self, db):
        run(db, "CREATE TABLE t (v TEXT)")
        run(db, "CREATE ANNOTATION TABLE notes ON t")
        run(db, "INSERT INTO t VALUES ('dup')")
        run(db, "INSERT INTO t VALUES ('dup')")
        run(db, "ADD ANNOTATION TO t.notes VALUE 'first' "
                "ON (SELECT x.v FROM t x WHERE v = 'dup')")
        result = fetch(db, "SELECT DISTINCT v FROM t ANNOTATION(notes)")
        assert len(result) == 1
        assert len(result[0].annotations[0]) == 1


class TestArchiveRestoreThroughSql:
    def test_archive_then_restore(self, annotated_db):
        run(
            annotated_db, "ARCHIVE ANNOTATION FROM Gene.GAnnotation "
            "ON (SELECT G.* FROM Gene G WHERE GID = 'JW0080')"
        )
        result = fetch(
            annotated_db, "SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
            "WHERE GID = 'JW0080'"
        )
        # The tuple-level "unknown function" annotation is archived and must
        # not propagate; the column-level GenoBase annotation was archived too
        # because it intersects the tuple's cells.
        assert not any("unknown function" in body for body in bodies_of(result[0].all_annotations()))

        run(
            annotated_db, "RESTORE ANNOTATION FROM Gene.GAnnotation "
            "ON (SELECT G.* FROM Gene G WHERE GID = 'JW0080')"
        )
        restored = fetch(
            annotated_db, "SELECT GID, GName, GSequence FROM Gene ANNOTATION(GAnnotation) "
            "WHERE GID = 'JW0080'"
        )
        assert any("unknown function" in body for body in bodies_of(restored[0].all_annotations()))

    def test_archive_with_future_time_range_matches_nothing(self, annotated_db):
        summary = run(
            annotated_db, "ARCHIVE ANNOTATION FROM Gene.GAnnotation "
            "BETWEEN '2050-01-01' AND '2060-01-01' "
            "ON (SELECT G.* FROM Gene G)"
        )
        assert summary.rowcount == 0


class TestPaperIntersectExample:
    """Section 3's motivating example: one A-SQL statement instead of three."""

    def test_intersect_carries_annotations_from_both_tables(self, gene_db):
        info = gene_db.gene_info
        result = fetch(
            gene_db, "SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation) "
            "INTERSECT "
            "SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)"
        )
        assert len(result) == len(info["common"])
        tables_seen = {a.annotation_table for a in result[0].all_annotations()}
        assert "DB1_Gene.GAnnotation" in tables_seen
        assert "DB2_Gene.GAnnotation" in tables_seen

    def test_manual_three_step_plan_gives_same_data(self, gene_db):
        asql = values(
            gene_db, "SELECT GID FROM DB1_Gene ANNOTATION(GAnnotation) "
            "INTERSECT SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation)"
        )
        manual = values(
            gene_db, "SELECT GID FROM DB1_Gene INTERSECT SELECT GID FROM DB2_Gene"
        )
        assert sorted(asql) == sorted(manual)
