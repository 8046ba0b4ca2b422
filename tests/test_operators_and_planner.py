"""Unit tests for annotated rows, physical operators, and planner utilities."""

from __future__ import annotations

import pytest

from repro.annotations.model import Annotation
from repro.core.errors import PlanningError
from repro.executor.row import ColumnInfo, OutputSchema, ResultSet, Row, merge_annotation_vectors
from repro.executor import operators as ops
from repro.planner.expressions import AnnotationPredicate, Evaluator, predicate_is_true
from repro.planner.planner import (
    combine_conjuncts,
    equality_lookups,
    lookup_value,
    push_down_conjuncts,
    referenced_columns,
    split_conjuncts,
)
from repro.sql import ast
from repro.sql.parser import parse_expression


def ann(i, body="note", table="T.A", **kwargs):
    return Annotation(i, table, body, **kwargs)


def make_relation():
    schema = OutputSchema([ColumnInfo("gid", "g"), ColumnInfo("score", "g")])
    rows = [
        Row(("JW1", 10), [{ann(1, "first")}, set()]),
        Row(("JW2", 20), [set(), {ann(2, "second")}]),
        Row(("JW2", 20), [{ann(3, "third")}, set()]),
    ]
    return schema, rows


def rows_of(relation):
    """Drain a streaming relation's row iterator (operators are lazy now)."""
    return list(relation[1])


class TestOutputSchema:
    def test_resolution_with_and_without_qualifier(self):
        schema = OutputSchema([ColumnInfo("gid", "g"), ColumnInfo("gid", "p")])
        assert schema.resolve("gid", "p") == 1
        with pytest.raises(PlanningError):
            schema.resolve("gid")  # ambiguous
        with pytest.raises(PlanningError):
            schema.resolve("missing")

    def test_try_resolve(self):
        schema = OutputSchema([ColumnInfo("a")])
        assert schema.try_resolve("a") == 0
        assert schema.try_resolve("b") is None

    def test_concat_and_positions(self):
        left = OutputSchema.from_names(["a", "b"], "x")
        right = OutputSchema.from_names(["c"], "y")
        combined = left.concat(right)
        assert combined.names == ["a", "b", "c"]
        assert combined.positions_for_qualifier("y") == [2]


class TestRow:
    def test_annotation_vector_length_checked(self):
        with pytest.raises(PlanningError):
            Row((1, 2), [set()])

    def test_all_annotations_and_concat(self):
        row = Row((1, 2), [{ann(1)}, {ann(2)}])
        assert len(row.all_annotations()) == 2
        other = Row((3,), [{ann(3)}])
        combined = row.concat(other)
        assert combined.values == (1, 2, 3)
        assert len(combined.annotations) == 3

    def test_merge_annotation_vectors(self):
        rows = [Row((1,), [{ann(1)}]), Row((1,), [{ann(2)}])]
        merged = merge_annotation_vectors(rows, 1)
        assert merged[0] == {ann(1), ann(2)}


class TestOperators:
    def test_filter_rows(self):
        relation = make_relation()
        predicate = parse_expression("score > 15")
        rows = rows_of(ops.filter_rows(relation, predicate))
        assert len(rows) == 2

    def test_project_keeps_only_projected_annotations(self):
        relation = make_relation()
        items = [ast.SelectItem(ast.ColumnRef("gid", "g"))]
        schema, row_iter = ops.project(relation, items)
        rows = list(row_iter)
        assert schema.names == ["gid"]
        assert rows[0].annotations[0] == {ann(1)}
        assert rows[1].annotations[0] == set()

    def test_project_star_with_qualifier(self):
        relation = make_relation()
        schema, row_iter = ops.project(relation, [ast.SelectItem(ast.Star("g"))])
        rows = list(row_iter)
        assert schema.names == ["gid", "score"]
        with pytest.raises(PlanningError):
            ops.project(relation, [ast.SelectItem(ast.Star("zzz"))])

    def test_distinct_unions_annotations(self):
        relation = make_relation()
        rows = rows_of(ops.distinct(relation))
        assert len(rows) == 2
        duplicate = [row for row in rows if row.values == ("JW2", 20)][0]
        assert duplicate.all_annotations() == {ann(2), ann(3)}

    def test_awhere_and_filter_annotations(self):
        relation = make_relation()
        condition = parse_expression("annotation.value LIKE '%second%'")
        rows = rows_of(ops.awhere_filter(relation, condition))
        assert [row.values for row in rows] == [("JW2", 20)]
        filtered = rows_of(ops.filter_annotations(relation, condition))
        assert len(filtered) == 3
        assert filtered[0].all_annotations() == set()
        assert filtered[1].all_annotations() == {ann(2)}

    def test_union_intersect_except_semantics(self):
        schema = OutputSchema([ColumnInfo("v")])
        left = (schema, [Row(("a",), [{ann(1)}]), Row(("b",), [set()])])
        right = (schema, [Row(("a",), [{ann(2)}]), Row(("c",), [set()])])
        union_rows = rows_of(ops.union(left, right))
        assert {row.values for row in union_rows} == {("a",), ("b",), ("c",)}
        merged = [row for row in union_rows if row.values == ("a",)][0]
        assert merged.all_annotations() == {ann(1), ann(2)}
        inter_rows = rows_of(ops.intersect(left, right))
        assert [row.values for row in inter_rows] == [("a",)]
        assert inter_rows[0].all_annotations() == {ann(1), ann(2)}
        except_rows = rows_of(ops.except_(left, right))
        assert [row.values for row in except_rows] == [("b",)]

    def test_nested_loop_left_join(self):
        left = (OutputSchema([ColumnInfo("k")]), [Row(("x",)), Row(("y",))])
        right = (OutputSchema([ColumnInfo("k2")]), [Row(("x",))])
        condition = parse_expression("k = k2")
        rows = rows_of(ops.nested_loop_join(left, right, condition, "LEFT"))
        assert (("x", "x")) in [row.values for row in rows]
        assert ("y", None) in [row.values for row in rows]

    def _join_inputs(self):
        left = (OutputSchema([ColumnInfo("k", "l"), ColumnInfo("lv", "l")]),
                [Row(("x", 1), [{ann(1)}, set()]),
                 Row(("y", 2)),
                 Row((None, 3)),
                 Row(("x", 4))])
        right = (OutputSchema([ColumnInfo("k", "r"), ColumnInfo("rv", "r")]),
                 [Row(("x", 10), [set(), {ann(2)}]),
                  Row(("z", 20)),
                  Row((None, 30))])
        return left, right

    def _key_refs(self):
        return [ast.ColumnRef("k", "l")], [ast.ColumnRef("k", "r")]

    def test_hash_join_matches_nested_loop(self):
        left, right = self._join_inputs()
        condition = parse_expression("l.k = r.k")
        expected = ops.materialize(ops.nested_loop_join(left, right, condition))
        left_keys, right_keys = self._key_refs()
        schema, row_iter = ops.hash_join(left, right, left_keys, right_keys)
        rows = list(row_iter)
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected[1])
        # Annotations flow through from both sides.
        joined = rows[0]
        assert joined.all_annotations() >= {ann(2)}

    def test_merge_join_matches_nested_loop(self):
        left, right = self._join_inputs()
        condition = parse_expression("l.k = r.k")
        expected = ops.materialize(ops.nested_loop_join(left, right, condition))
        left_keys, right_keys = self._key_refs()
        rows = rows_of(ops.merge_join(left, right, left_keys, right_keys))
        assert sorted(r.values for r in rows) == sorted(r.values for r in expected[1])

    def test_hash_and_merge_left_join_padding(self):
        left, right = self._join_inputs()
        condition = parse_expression("l.k = r.k")
        expected = ops.materialize(ops.nested_loop_join(left, right, condition, "LEFT"))
        left_keys, right_keys = self._key_refs()
        for join in (ops.hash_join, ops.merge_join):
            rows = rows_of(join(left, right, left_keys, right_keys, "LEFT"))
            assert sorted(map(repr, (r.values for r in rows))) == \
                sorted(map(repr, (r.values for r in expected[1])))

    def test_hash_join_residual_condition(self):
        left, right = self._join_inputs()
        left_keys, right_keys = self._key_refs()
        residual = parse_expression("lv < 4")
        rows = rows_of(ops.hash_join(left, right, left_keys, right_keys,
                                     "INNER", residual))
        assert [r.values for r in rows] == [("x", 1, "x", 10)]

    def test_hash_join_requires_keys(self):
        left, right = self._join_inputs()
        with pytest.raises(PlanningError):
            ops.hash_join(left, right, [], [])

    def test_order_and_limit(self):
        relation = make_relation()
        ordered = ops.materialize(ops.order_by(relation, [ast.OrderItem(ast.ColumnRef("score"), False)]))
        assert [row.values[1] for row in ordered[1]] == [20, 20, 10]
        limited = ops.materialize(
            ops.limit_offset(ops.ensure_batched(ordered, 2), 1, 1))
        assert [row.values for row in limited[1]] == [ordered[1][1].values]


class TestEvaluator:
    def test_compile_and_evaluate(self):
        schema = OutputSchema([ColumnInfo("a"), ColumnInfo("b")])
        evaluator = Evaluator(schema)
        row = Row((3, 4))
        assert evaluator.evaluate(parse_expression("a * b + 1"), row) == 13
        assert evaluator.evaluate(parse_expression("a || b"), row) == "34"
        assert evaluator.evaluate(parse_expression("a IS NULL"), row) is False
        assert predicate_is_true(evaluator.evaluate(parse_expression("a < b"), row))

    def test_null_propagation(self):
        schema = OutputSchema([ColumnInfo("a")])
        evaluator = Evaluator(schema)
        row = Row((None,))
        assert evaluator.evaluate(parse_expression("a + 1"), row) is None
        assert evaluator.evaluate(parse_expression("a = 1"), row) is None
        assert evaluator.evaluate(parse_expression("a = 1 OR TRUE"), row) is True

    def test_annotation_predicate_fields(self):
        annotation = ann(1, "<Annotation>x</Annotation>", curator="alice",
                         category="comment")
        assert AnnotationPredicate(
            parse_expression("annotation.curator = 'alice'")).matches(annotation)
        assert AnnotationPredicate(
            parse_expression("annotation.table LIKE 'T.%'")).matches(annotation)
        assert not AnnotationPredicate(
            parse_expression("annotation.archived = TRUE")).matches(annotation)
        with pytest.raises(PlanningError):
            AnnotationPredicate(parse_expression("other.field = 1")).matches(annotation)


class TestPlannerUtilities:
    def test_split_and_combine_conjuncts(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        conjuncts = split_conjuncts(expr)
        assert len(conjuncts) == 3
        rebuilt = combine_conjuncts(conjuncts)
        assert len(split_conjuncts(rebuilt)) == 3
        assert split_conjuncts(None) == []
        assert combine_conjuncts([]) is None

    def test_referenced_columns(self):
        expr = parse_expression("g.gid = p.gid AND LENGTH(g.name) > 3")
        refs = referenced_columns(expr)
        assert {(r.table, r.name) for r in refs} == {("g", "gid"), ("p", "gid"), ("g", "name")}

    def test_push_down_partitions_single_table_conjuncts(self):
        where = parse_expression("g.gid = p.gid AND g.score > 1 AND p.kind = 'x'")
        refs = [ast.TableRef("gene", alias="g"), ast.TableRef("protein", alias="p")]
        resolvable = {"g": {"gid", "score"}, "p": {"gid", "kind"}}
        pushed, residual = push_down_conjuncts(where, refs, resolvable)
        assert len(pushed["g"]) == 1
        assert len(pushed["p"]) == 1
        assert len(residual) == 1  # the join predicate

    def test_equality_lookups(self):
        conjuncts = split_conjuncts(parse_expression("gid = 'JW1' AND 3 = score AND a > 1"))
        lookups = equality_lookups(conjuncts)
        assert lookups == {(None, "gid"): "JW1", (None, "score"): 3}
        assert lookup_value(lookups, "gid") == "JW1"
        assert lookup_value(lookups, "score", "any_table") == 3

    def test_equality_lookups_keep_table_qualifier(self):
        # Regression: a qualified lookup like ``a.id = 1`` used to be keyed
        # by the bare column name, so a join partner ``b`` with its own
        # ``id`` column would wrongly pick up the lookup.
        conjuncts = split_conjuncts(parse_expression("a.id = 1 AND B.kind = 'x'"))
        lookups = equality_lookups(conjuncts)
        assert lookups == {("a", "id"): 1, ("b", "kind"): "x"}
        assert lookup_value(lookups, "id", "a") == 1
        assert lookup_value(lookups, "id", "b") is None
        assert lookup_value(lookups, "id") is None
        assert lookup_value(lookups, "kind", "b", default="n/a") == "x"

    def test_push_down_ambiguous_unqualified_column_stays_residual(self):
        # ``id`` exists in both tables: the conjunct cannot be attributed to
        # either scan and must stay in the residual list.
        where = parse_expression("id = 1 AND a.score > 2")
        refs = [ast.TableRef("left_t", alias="a"), ast.TableRef("right_t", alias="b")]
        resolvable = {"a": {"id", "score"}, "b": {"id", "kind"}}
        pushed, residual = push_down_conjuncts(where, refs, resolvable)
        assert pushed["a"] == [parse_expression("a.score > 2")]
        assert pushed["b"] == []
        assert residual == [parse_expression("id = 1")]

    def test_push_down_zero_column_conjunct_stays_residual(self):
        where = parse_expression("1 = 1 AND score > 2")
        refs = [ast.TableRef("t")]
        resolvable = {"t": {"score"}}
        pushed, residual = push_down_conjuncts(where, refs, resolvable)
        assert pushed["t"] == [parse_expression("score > 2")]
        assert residual == [parse_expression("1 = 1")]

    def test_push_down_mixed_case_qualifiers(self):
        where = parse_expression("G.Score > 2 AND P.KIND = 'x'")
        refs = [ast.TableRef("gene", alias="g"), ast.TableRef("protein", alias="P")]
        resolvable = {"g": {"score"}, "p": {"kind"}}
        pushed, residual = push_down_conjuncts(where, refs, resolvable)
        assert len(pushed["g"]) == 1
        assert len(pushed["p"]) == 1
        assert residual == []

    def test_push_down_unknown_qualifier_stays_residual(self):
        where = parse_expression("zzz.score > 2")
        refs = [ast.TableRef("gene", alias="g")]
        resolvable = {"g": {"score"}}
        pushed, residual = push_down_conjuncts(where, refs, resolvable)
        assert pushed["g"] == []
        assert len(residual) == 1
