"""Index-driven DML: the same statements give the same effects on every axis.

UPDATE / DELETE / ``ADD ANNOTATION ... ON (SELECT ...)`` select their target
rows through the SELECT planner's access paths, and dependency rules find
their target tuples by index probe.  These tests run the same statement
scripts on three databases — indexes present and used, indexes present but
``use_indexes`` off, and no secondary index at all — and require identical:

* per-statement results (row counts, ``tuple_ids`` order, logged approval
  operation ids, re-computed and outdated cells, deleted rows, annotation
  cells);
* final rows of every user table (tuple ids included);
* the content-approval log (op ids, changes, inverse statements, status);
* the outdated bitmaps;
* the annotation bodies on every cell.

The scripts cover NULL, NaN and duplicate keys in non-unique indexes, a
cross-type literal, a key-changing range UPDATE, a range DELETE, a rule whose
target key has no index, rules with NULL / NaN source keys, a disapproved
DELETE (whose restored row must be indexed again) and ROLLBACK.  EXPLAIN
pins that the indexed axis really uses the index paths, a hypothesis
property compares random single-table WHEREs on both axes, and a regression
test pins that re-running a procedure probes the target index once per
source row instead of scanning the target table.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.annotations import annotation_text
from repro.catalog.table import Table
from repro.dependencies.rules import DependencyRule, Procedure
from repro.index.btree import BPlusTree

NAN = float("nan")

#: (name, use_indexes, create the secondary indexes)
AXES = [("indexed", True, True), ("indexes_off", False, True),
        ("no_index", True, False)]

USER_TABLES = ("Gene", "Protein", "Lab")

SCHEMA = [
    "CREATE TABLE Gene (GID INTEGER PRIMARY KEY, GName TEXT, "
    "GSequence SEQUENCE, Score FLOAT)",
    "CREATE TABLE Protein (PID INTEGER PRIMARY KEY, GID INTEGER, "
    "PSequence SEQUENCE, PFunction TEXT, Weight FLOAT, Tag TEXT)",
    "CREATE TABLE Lab (LID INTEGER, GName TEXT, Note TEXT, GKey TEXT)",
]

INDEXES = [
    "CREATE INDEX gene_gid ON Gene (GID)",
    "CREATE INDEX gene_score ON Gene (Score)",
    "CREATE INDEX gene_name ON Gene (GName) USING hash",
    "CREATE INDEX protein_gid ON Protein (GID)",
    "CREATE INDEX protein_sequence ON Protein (PSequence)",
    "CREATE INDEX protein_weight ON Protein (Weight)",
    # Lab.GName deliberately has no index: the rule keyed on it falls back.
]

GENES = [
    (1, "alpha", "ATGA", 1.0),
    (2, "beta", "ATGC", 2.0),
    (3, "beta", "ATGG", None),
    (4, "gamma", "ATGT", NAN),
    (5, "delta", "ATTA", 2.0),
    (6, None, "ATTC", 3.5),
    (7, "alpha", "ATTG", NAN),
    (8, "eps", "ATTT", None),
]

PROTEINS = [
    (10, 1, "p-atga", "f1", 1.0, "t"),
    (11, 2, "p-atgc", "f2", 2.0, "t"),
    (12, 2, "p-atgc", "f2b", NAN, "t"),
    (13, 3, "p-atgg", "f3", None, "t"),
    (14, None, "p-none", "f4", 2.0, "t"),
    (15, 5, "p-atta", "f5", NAN, "t"),
    (16, 7, "p-attg", "f7", 3.5, "t"),
    (17, 7, "p-attg", "f7b", 1.0, "t"),
]

LABS = [(1, "alpha", "n1", "1"), (2, "beta", "n2", "2"), (3, "beta", "n3", "x"),
        (4, None, "n4", None), (5, "gamma", "n5", "7")]


def translate(source, target):
    sequence = source["GSequence"]
    return None if sequence is None else "p-" + sequence.lower()


def back_annotate(source, target):
    return f"from-{source['PSequence']}"


def register_rules(db):
    tracker = db.tracker
    tracker.register_rule(DependencyRule.create(
        name="gene_to_protein", sources=[("Gene", "GSequence")],
        targets=[("Protein", "PSequence")],
        procedure=Procedure("prediction", executable=True,
                            implementation=translate),
        source_key="GID", target_key="GID"))
    tracker.register_rule(DependencyRule.create(
        name="protein_to_function", sources=[("Protein", "PSequence")],
        targets=[("Protein", "PFunction")],
        procedure=Procedure("lab experiment", executable=False)))
    # Target key without an index on any axis: the probe falls back.
    tracker.register_rule(DependencyRule.create(
        name="gene_to_lab", sources=[("Gene", "GName")],
        targets=[("Lab", "Note")],
        procedure=Procedure("curation", executable=False),
        source_key="GName", target_key="GName"))
    # Source keys holding NULL and NaN (NaN matches NaN, NULL nothing).
    tracker.register_rule(DependencyRule.create(
        name="score_to_tag", sources=[("Gene", "GName")],
        targets=[("Protein", "Tag")],
        procedure=Procedure("scoring", executable=False),
        source_key="Score", target_key="Weight"))
    # A TEXT source key probing an INTEGER target key: '2' equals 2 by
    # string form, which only the scan fallback finds.
    tracker.register_rule(DependencyRule.create(
        name="lab_to_protein", sources=[("Lab", "Note")],
        targets=[("Protein", "Tag")],
        procedure=Procedure("lab review", executable=False),
        source_key="GKey", target_key="GID"))
    # An executable chain back into Gene (Weight -> Score): re-computing one
    # gene's proteins can rewrite other genes of the same UPDATE.
    tracker.register_rule(DependencyRule.create(
        name="protein_back_to_gene", sources=[("Protein", "PSequence")],
        targets=[("Gene", "GName")],
        procedure=Procedure("back-annotation", executable=True,
                            implementation=back_annotate),
        source_key="Weight", target_key="Score"))


def build(axis):
    _, use_indexes, with_indexes = axis
    db = Database()
    db.config.use_indexes = use_indexes
    cursor = db.connect().cursor()
    for statement in SCHEMA:
        cursor.execute(statement)
    cursor.executemany("INSERT INTO Gene VALUES (?, ?, ?, ?)", GENES)
    cursor.executemany("INSERT INTO Protein VALUES (?, ?, ?, ?, ?, ?)",
                       PROTEINS)
    cursor.executemany("INSERT INTO Lab VALUES (?, ?, ?, ?)", LABS)
    if with_indexes:
        for statement in INDEXES:
            cursor.execute(statement)
    cursor.execute("CREATE ANNOTATION TABLE Note ON Gene")
    cursor.execute("CREATE ANNOTATION TABLE PNote ON Protein")
    cursor.execute("START CONTENT APPROVAL ON Protein APPROVED BY admin")
    register_rules(db)
    return db


def same(left, right):
    """Equality that treats NaN as equal to itself, through containers."""
    if isinstance(left, float) and isinstance(right, float) \
            and math.isnan(left) and math.isnan(right):
        return True
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            same(left[key], right[key]) for key in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return type(left) is type(right) and len(left) == len(right) and all(
            same(a, b) for a, b in zip(left, right))
    return left == right


def outcome(summary):
    """The observable result of one statement, minus timestamps."""
    details = {}
    for key, value in summary.details.items():
        if key == "dml":
            value = outcome(value)
        elif key == "annotations":
            value = [(annotation.ann_id, annotation.annotation_table,
                      annotation.body) for annotation in value]
        details[key] = value
    return summary.statement, summary.rows_affected, details


def run_step(db, step):
    if callable(step):
        return step(db)
    sql, params = step if isinstance(step, tuple) else (step, ())
    engine = db.engine
    return outcome(engine.execute_prepared(engine.prepare(sql), params))


def annotation_state(db, table_name):
    table = db.table(table_name)
    names = [ann.name for ann in db.annotations.tables_for(table_name)]
    if not names:
        return []
    index = db.annotations.propagation_index(table_name, names)
    arity = len(table.schema)
    return [(tuple_id, tuple(sorted(annotation_text(a.body) for a in cell)
                             for cell in index.vector(tuple_id, arity)))
            for tuple_id in table.tuple_ids]


def final_state(db):
    tables = [name for name in db.table_names()
              if name in USER_TABLES or name.endswith("__deleted")]
    return {
        "rows": {name: list(db.table(name).scan()) for name in sorted(tables)},
        "approval": [(op.op_id, op.user, op.table, op.op_type.value,
                      op.tuple_id, op.changes, op.inverse.op_type.value,
                      op.inverse.tuple_id, op.inverse.values, op.status.value)
                     for op in db.approval.log_entries()],
        "outdated": db.tracker.outdated_report(),
        "annotations": {name: annotation_state(db, name)
                        for name in ("Gene", "Protein")},
    }


def run_everywhere(script):
    """Run ``script`` on every axis; assert identical outcomes; return them."""
    results = {}
    for axis in AXES:
        db = build(axis)
        steps = [run_step(db, step) for step in script]
        results[axis[0]] = (steps, final_state(db))
    reference = results["indexes_off"]
    for name, result in results.items():
        for position, (got, want) in enumerate(zip(result[0], reference[0])):
            assert same(got, want), (name, script[position], got, want)
        assert same(result[1], reference[1]), name
    return reference


def disapprove_pending_deletes(db):
    """Review step: disapprove every pending DELETE (restoring its row)."""
    undone = []
    for operation in db.approval.pending_operations():
        if operation.op_type.value == "DELETE":
            db.approval.disapprove(operation.op_id, "admin")
            undone.append(operation.op_id)
    return undone


def explain_text(db, sql):
    return db.explain(sql).message


# ---------------------------------------------------------------------------
# Differential scripts
# ---------------------------------------------------------------------------
class TestDifferential:
    def test_point_updates_cascade_through_rules(self):
        steps, state = run_everywhere([
            "UPDATE Gene SET GSequence = 'CCCA' WHERE GID = 2",
            "UPDATE Gene SET GSequence = 'CCCB' WHERE GID = 7",
            # Duplicate GName keys in the hash index; rule to Lab falls back.
            "UPDATE Gene SET GName = 'beta' WHERE GName = 'beta'",
            # Score keys: 2.0 probes Protein.Weight, NaN and NULL fall back.
            "UPDATE Gene SET GName = 'renamed' WHERE Score = 2.0",
            ("UPDATE Gene SET GName = 'nan-key' WHERE Score = ?", (NAN,)),
            ("UPDATE Gene SET GName = 'null-key' WHERE Score IS NULL", ()),
            ("UPDATE Gene SET GName = ? WHERE Score = ?", ("never", None)),
        ])
        assert steps[0][1] == 1 and steps[0][2]["recomputed"]
        assert steps[4][1] == 2          # both NaN-scored genes
        assert steps[5][1] == 2          # both NULL-scored genes
        assert steps[6][1] == 0          # = NULL matches nothing
        assert state["outdated"]

    def test_cross_type_literal(self):
        steps, _ = run_everywhere([
            "UPDATE Gene SET GName = 'five' WHERE GID = '5'",
            "UPDATE Protein SET Tag = 'two' WHERE GID = '2'",
            "DELETE FROM Lab WHERE LID = '3'",
        ])
        assert [step[1] for step in steps] == [1, 2, 1]

    def test_key_changing_range_update_and_range_delete(self):
        steps, _ = run_everywhere([
            "UPDATE Protein SET GID = GID + 10 WHERE GID >= 3",
            "UPDATE Protein SET Weight = Weight * 2 WHERE Weight > 0.5",
            "DELETE FROM Protein WHERE GID BETWEEN 12 AND 15",
            "UPDATE Protein SET Tag = 'after' WHERE GID >= 0",
            "DELETE FROM Gene WHERE Score < 3.0",
        ])
        # Every row moved once (no Halloween re-visit), in tuple-id order.
        assert steps[0][2]["tuple_ids"] == sorted(steps[0][2]["tuple_ids"])
        assert steps[0][1] == 4
        assert steps[2][1] == 2
        assert steps[4][1] == 3

    def test_add_annotation_targets(self):
        _, state = run_everywhere([
            "ADD ANNOTATION TO Gene.Note VALUE 'one' "
            "ON (SELECT G.GSequence FROM Gene G WHERE G.GID = 3)",
            "ADD ANNOTATION TO Gene.Note VALUE 'dups' "
            "ON (SELECT * FROM Gene WHERE GName = 'alpha')",
            "ADD ANNOTATION TO Gene.Note VALUE 'range' "
            "ON (SELECT GName FROM Gene WHERE Score >= 2.0 AND Score < 4)",
            "ADD ANNOTATION TO Protein.PNote VALUE 'on update' "
            "ON (UPDATE Protein SET Tag = 'x' WHERE GID = 7)",
            "ADD ANNOTATION TO Protein.PNote VALUE 'on delete' "
            "ON (DELETE FROM Protein WHERE GID = 2)",
            "ARCHIVE ANNOTATION FROM Gene.Note "
            "ON (SELECT * FROM Gene WHERE GName = 'alpha')",
        ])
        bodies = {body for _, cells in state["annotations"]["Gene"]
                  for cell in cells for body in cell}
        assert {"one", "range"} <= bodies

    def test_disapproved_delete_is_indexed_again(self):
        steps, _ = run_everywhere([
            "DELETE FROM Protein WHERE GID = 7",
            disapprove_pending_deletes,
            # The restored rows carry new tuple ids; the index must know them.
            "UPDATE Protein SET Tag = 'found' WHERE GID = 7",
            "UPDATE Gene SET GSequence = 'GGGG' WHERE GID = 7",
        ])
        assert steps[2][1] == 2
        recomputed = steps[3][2]["recomputed"]
        assert [cell for cell in recomputed if cell[0] == "protein"] \
            == [("protein", 8, "psequence"), ("protein", 9, "psequence")]

    def test_cascade_rewrites_a_later_target(self):
        # Gene 2's proteins weigh 2.0 and NaN: re-computing them rewrites
        # the GName of genes 5 (Score 2.0), 4 and 7 (NaN) before the UPDATE
        # reaches those rows, whose old images must then be re-read (or the
        # hash index on GName is corrupted).  Tuple ids are GID - 1.
        steps, _ = run_everywhere([
            "UPDATE Gene SET GSequence = 'CCCC' WHERE GID >= 2",
            "UPDATE Gene SET Score = Score WHERE GName = 'from-p-cccc'",
        ])
        assert ("gene", 4, "gname") in steps[0][2]["recomputed"]
        assert steps[1][2]["tuple_ids"] == [0, 1, 3, 4, 5, 6]

    def test_cross_type_rule_key_falls_back(self):
        steps, _ = run_everywhere([
            "UPDATE Lab SET Note = 'reviewed' WHERE LID = 2",
            "UPDATE Lab SET Note = 'reviewed' WHERE LID = 5",
        ])
        assert ("protein", 1, "tag") in steps[0][2]["marked_outdated"]
        assert ("protein", 6, "tag") in steps[1][2]["marked_outdated"]

    def test_recomputed_cells_stay_indexed(self):
        steps, _ = run_everywhere([
            "UPDATE Gene SET GSequence = 'AAAA' WHERE GID = 1",
            # PSequence was rewritten by the rule: its index must follow.
            "UPDATE Protein SET Tag = 'hit' WHERE PSequence = 'p-aaaa'",
            "UPDATE Protein SET Tag = 'miss' WHERE PSequence = 'p-atga'",
        ])
        assert steps[1][1] == 1
        assert steps[2][1] == 0

    def test_rollback_restores_targets(self):
        steps, _ = run_everywhere([
            "BEGIN",
            "UPDATE Protein SET GID = 99 WHERE GID = 2",
            "DELETE FROM Gene WHERE GID = 1",
            "UPDATE Gene SET GSequence = 'TTTT' WHERE GID = 5",
            "ROLLBACK",
            "UPDATE Protein SET Tag = 'back' WHERE GID = 2",
            "UPDATE Protein SET Tag = 'gone' WHERE GID = 99",
            "UPDATE Gene SET GName = 'still' WHERE GID = 1",
        ])
        assert [step[1] for step in steps[5:]] == [2, 0, 1]

    def test_indexed_axis_uses_index_paths(self):
        indexed = build(AXES[0])
        off = build(AXES[1])
        point = "UPDATE Gene SET GName = 'x' WHERE GID = 3"
        ranged = "DELETE FROM Protein WHERE GID >= 5"
        assert "IndexScan Gene using gene_gid (GID = 3)" \
            in explain_text(indexed, point)
        assert "IndexRangeScan Protein using protein_gid (GID >= 5)" \
            in explain_text(indexed, ranged)
        assert explain_text(off, point).splitlines()[1].startswith("  Scan Gene")
        assert explain_text(off, ranged).splitlines()[1].startswith(
            "  Scan Protein")
        # A cross-type key is refused by the chooser on every axis.
        assert "  Scan Gene" in explain_text(
            indexed, "UPDATE Gene SET GName = 'x' WHERE GID = '3'")


class TestExplainDml:
    def test_explain_dict_and_text(self):
        db = build(AXES[0])
        summary = db.explain("UPDATE Gene SET GName = 'x' WHERE GID = 4")
        assert summary.message.splitlines()[0] == "Update Gene"
        plan = summary.details["plan"]
        assert plan["node"] == "Update" and plan["table"] == "Gene"
        assert plan["input"]["node"] == "IndexScan"
        assert plan["input"]["index"] == "gene_gid"
        delete = db.explain("DELETE FROM Protein WHERE Weight < 2.5")
        assert delete.details["plan"]["node"] == "Delete"
        assert delete.details["plan"]["input"]["range"] == "Weight < 2.5"

    def test_explain_with_placeholders_renders_the_generic_plan(self):
        cursor = build(AXES[0]).connect().cursor()
        cursor.execute("EXPLAIN UPDATE Gene SET GName = ? WHERE GID = ?")
        lines = [row[0] for row in cursor.fetchall()]
        assert lines[0] == "Update Gene"
        assert lines[1].startswith("  IndexScan Gene using gene_gid (GID = ?2)")

    def test_explain_does_not_execute(self):
        db = build(AXES[0])
        before = list(db.table("Gene").scan())
        db.explain("DELETE FROM Gene WHERE GID = 1")
        assert same(list(db.table("Gene").scan()), before)

    def test_explain_insert_is_rejected(self):
        from repro.core.errors import PlanningError
        db = build(AXES[0])
        with pytest.raises(PlanningError):
            db.explain("INSERT INTO Lab VALUES (9, 'x', 'y')")

    def test_explain_checks_the_statement_privilege(self):
        from repro.core.errors import AuthorizationError
        db = build(AXES[0])
        with pytest.raises(AuthorizationError):
            db.explain("DELETE FROM Gene WHERE GID = 1", user="nobody")


# ---------------------------------------------------------------------------
# Property: random single-table WHEREs match the same rows on both axes
# ---------------------------------------------------------------------------
KEYS = st.one_of(st.none(), st.integers(-2, 6))
FLOATS = st.one_of(st.none(), st.just(NAN), st.sampled_from([0.5, 1.0, 2.0, 3.5]))
TEXTS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
ROWS = st.lists(st.tuples(KEYS, FLOATS, TEXTS, KEYS), max_size=25)

COLUMN_VALUES = {"k": st.one_of(KEYS, st.sampled_from(["3", "x"])),
                 "f": st.one_of(FLOATS, st.integers(0, 4)),
                 "s": st.one_of(TEXTS, st.just(1)),
                 "g": KEYS}
OPERATORS = ["=", "<", "<=", ">", ">=", "<>"]


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(sorted(COLUMN_VALUES)))
    kind = draw(st.sampled_from(["cmp", "cmp", "between", "null"]))
    if kind == "null":
        negated = draw(st.booleans())
        return f"{column} IS {'NOT ' if negated else ''}NULL", ()
    if kind == "between":
        low = draw(COLUMN_VALUES[column])
        high = draw(COLUMN_VALUES[column])
        return f"{column} BETWEEN ? AND ?", (low, high)
    op = draw(st.sampled_from(OPERATORS))
    return f"{column} {op} ?", (draw(COLUMN_VALUES[column]),)


@st.composite
def wheres(draw):
    parts = draw(st.lists(predicates(), min_size=1, max_size=3))
    joiner = draw(st.sampled_from([" AND ", " AND ", " OR "]))
    return (joiner.join(sql for sql, _ in parts),
            tuple(value for _, params in parts for value in params))


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, where=wheres())
def test_random_wheres_match_the_same_rows(rows, where):
    db = Database()
    cursor = db.connect().cursor()
    cursor.execute("CREATE TABLE t (k INTEGER, f FLOAT, s TEXT, g INTEGER)")
    if rows:
        cursor.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    cursor.execute("CREATE INDEX t_k ON t (k)")
    cursor.execute("CREATE INDEX t_f ON t (f)")
    cursor.execute("CREATE INDEX t_s ON t (s) USING hash")
    sql, params = where
    engine = db.engine
    matched = {}
    for use_indexes in (True, False):
        db.config.use_indexes = use_indexes
        # An identity UPDATE reports exactly the rows its WHERE selected.
        summary = engine.execute_prepared(
            engine.prepare(f"UPDATE t SET g = g WHERE {sql}"), params)
        matched[use_indexes] = summary.details["tuple_ids"]
    assert matched[True] == matched[False]


# ---------------------------------------------------------------------------
# Regression: procedural closure probes, it does not rescan (was O(n^2))
# ---------------------------------------------------------------------------
CLOSURE_ROWS = 2000
#: Genes with a protein (two for every tenth one).  The target table is kept
#: small so the ``use_indexes=False`` reference — one full target scan per
#: source row, the quadratic path — stays quick.
PROTEIN_GIDS = [gid for gid in range(CLOSURE_ROWS - 1, -1, -1) if gid % 10 == 0
                for _ in range(1 + (gid % 100 == 0))]


def closure_db(use_indexes):
    db = Database()
    db.config.use_indexes = use_indexes
    cursor = db.connect().cursor()
    cursor.execute("CREATE TABLE Gene (GID INTEGER PRIMARY KEY, "
                   "GSequence SEQUENCE)")
    cursor.execute("CREATE TABLE Protein (PID INTEGER PRIMARY KEY, "
                   "GID INTEGER, PSequence SEQUENCE)")
    cursor.executemany("INSERT INTO Gene VALUES (?, ?)",
                       [(gid, "ATG" + "ACGT"[gid % 4]) for gid in range(CLOSURE_ROWS)])
    cursor.executemany("INSERT INTO Protein VALUES (?, ?, ?)",
                       [(pid, gid, "p-none") for pid, gid in enumerate(PROTEIN_GIDS)])
    cursor.execute("CREATE INDEX protein_gid ON Protein (GID)")
    db.tracker.register_rule(DependencyRule.create(
        name="predict", sources=[("Gene", "GSequence")],
        targets=[("Protein", "PSequence")],
        procedure=Procedure("predictor v2", executable=True,
                            implementation=translate),
        source_key="GID", target_key="GID"))
    return db


def test_procedure_changed_probes_once_per_source_row(monkeypatch):
    db = closure_db(use_indexes=True)
    probes = []
    target_scans = []
    search, scan, scan_batches = BPlusTree.search, Table.scan, Table.scan_batches

    def counted_search(self, key):
        probes.append(key)
        return search(self, key)

    def counted_scan(self, *args, **kwargs):
        if self.name == "Protein":
            target_scans.append("scan")
        return scan(self, *args, **kwargs)

    def counted_scan_batches(self, *args, **kwargs):
        if self.name == "Protein":
            target_scans.append("scan_batches")
        return scan_batches(self, *args, **kwargs)

    monkeypatch.setattr(BPlusTree, "search", counted_search)
    monkeypatch.setattr(Table, "scan", counted_scan)
    monkeypatch.setattr(Table, "scan_batches", counted_scan_batches)
    impact = db.tracker.procedure_changed("predictor v2")
    monkeypatch.undo()

    assert len(probes) == CLOSURE_ROWS
    assert target_scans == []
    reference = closure_db(use_indexes=False)
    expected = reference.tracker.procedure_changed("predictor v2")
    assert impact.recomputed == expected.recomputed
    assert len(impact.recomputed) == len(PROTEIN_GIDS)
    assert list(db.table("Protein").scan()) \
        == list(reference.table("Protein").scan())
