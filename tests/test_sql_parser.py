"""Tests for the tokenizer and the SQL / A-SQL parser."""

from __future__ import annotations

import pytest

from repro.core.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_script, parse_statement
from repro.sql.tokens import TokenType, tokenize


class TestTokenizer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT gid FROM Gene")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.KEYWORD,
            TokenType.IDENTIFIER,
        ]

    def test_string_literal_with_escaped_quote(self):
        tokens = tokenize("SELECT 'it''s a gene'")
        assert tokens[1].value == "it's a gene"

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e-4")
        assert [t.value for t in tokens[:-1]] == ["1", "2.5", "3e-4"]

    def test_comments_are_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing comment\n + 2")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "1", "+", "2"]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_asql_keywords_recognised(self):
        tokens = tokenize("ADD ANNOTATION AWHERE AHAVING FILTER PROMOTE")
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT #")


class TestDdlParsing:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName VARCHAR(20) NOT NULL, "
            "Length INTEGER DEFAULT 0)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].nullable is False
        assert stmt.columns[2].default == 0

    def test_drop_table(self):
        assert isinstance(parse_statement("DROP TABLE Gene"), ast.DropTable)

    def test_create_index_with_method(self):
        stmt = parse_statement("CREATE INDEX idx ON Gene (GID) USING hash")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.method == "hash"
        assert stmt.columns == ["GID"]

    def test_default_requires_literal(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("CREATE TABLE T (a INTEGER DEFAULT a+1)")


class TestDmlParsing:
    def test_insert_multiple_rows(self):
        stmt = parse_statement(
            "INSERT INTO Gene (GID, GName) VALUES ('a', 'b'), ('c', 'd')"
        )
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2
        assert stmt.columns == ["GID", "GName"]

    def test_update_with_where(self):
        stmt = parse_statement("UPDATE Gene SET GName = 'x', Length = 3 WHERE GID = 'a'")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2
        assert isinstance(stmt.where, ast.BinaryOp)

    def test_delete(self):
        stmt = parse_statement("DELETE FROM Gene WHERE Length > 10")
        assert isinstance(stmt, ast.Delete)


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse_statement("SELECT GID, GName FROM Gene WHERE Length > 5")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.from_tables[0].name == "Gene"

    def test_select_star_and_alias(self):
        stmt = parse_statement("SELECT G.* FROM Gene AS G")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.from_tables[0].alias == "G"

    def test_join(self):
        stmt = parse_statement(
            "SELECT g.GID FROM Gene g JOIN Protein p ON g.GID = p.GID"
        )
        assert len(stmt.joins) == 1
        assert stmt.joins[0].join_type == "INNER"

    def test_left_join(self):
        stmt = parse_statement(
            "SELECT g.GID FROM Gene g LEFT JOIN Protein p ON g.GID = p.GID"
        )
        assert stmt.joins[0].join_type == "LEFT"

    def test_group_by_having_order_limit(self):
        stmt = parse_statement(
            "SELECT category, COUNT(*) FROM samples GROUP BY category "
            "HAVING COUNT(*) > 1 ORDER BY category DESC LIMIT 10 OFFSET 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 10 and stmt.offset == 2

    def test_limit_zero_is_allowed(self):
        stmt = parse_statement("SELECT GID FROM Gene LIMIT 0")
        assert stmt.limit == 0

    @pytest.mark.parametrize("clause", [
        "LIMIT 2.5",
        "OFFSET 1.5",
        "LIMIT 3e-4",
        "LIMIT -1",
        "OFFSET -2",
        "LIMIT -2.5",
    ])
    def test_limit_offset_reject_non_integer_and_negative(self, clause):
        # Regression: these used to silently truncate through int(float(...)),
        # turning LIMIT 2.5 into LIMIT 2 (and choking on the '-' token with a
        # generic message for negatives).
        with pytest.raises(SqlSyntaxError):
            parse_statement(f"SELECT GID FROM Gene {clause}")

    def test_limit_requires_a_number(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT GID FROM Gene LIMIT lots")

    def test_set_operations_left_associative(self):
        stmt = parse_statement(
            "SELECT GID FROM A INTERSECT SELECT GID FROM B UNION SELECT GID FROM C"
        )
        assert isinstance(stmt, ast.SetOperation)
        assert stmt.op == "UNION"
        assert isinstance(stmt.left, ast.SetOperation)
        assert stmt.left.op == "INTERSECT"

    def test_expressions(self):
        expr = parse_expression("a + b * 2 >= 10 AND name LIKE 'JW%'")
        assert isinstance(expr, ast.BinaryOp)
        assert expr.op == "AND"

    def test_between_in_isnull(self):
        expr = parse_expression("x BETWEEN 1 AND 3 OR y IN (1, 2) OR z IS NOT NULL")
        assert isinstance(expr, ast.BinaryOp)

    def test_scalar_subquery_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT (SELECT 1) FROM Gene")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 FROM Gene banana extra")


class TestAsqlParsing:
    def test_create_and_drop_annotation_table(self):
        create = parse_statement("CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene")
        assert isinstance(create, ast.CreateAnnotationTable)
        assert create.annotation_table == "GAnnotation"
        assert create.on_table == "DB2_Gene"
        drop = parse_statement("DROP ANNOTATION TABLE GAnnotation ON DB2_Gene")
        assert isinstance(drop, ast.DropAnnotationTable)

    def test_add_annotation_figure6_column_granularity(self):
        stmt = parse_statement(
            "ADD ANNOTATION TO DB2_Gene.GAnnotation "
            "VALUE '<Annotation>obtained from GenoBase</Annotation>' "
            "ON (Select G.GSequence From DB2_Gene G)"
        )
        assert isinstance(stmt, ast.AddAnnotation)
        assert stmt.annotation_tables == ["DB2_Gene.GAnnotation"]
        assert "GenoBase" in stmt.body
        assert isinstance(stmt.target, ast.Select)

    def test_add_annotation_on_insert(self):
        stmt = parse_statement(
            "ADD ANNOTATION TO Gene.GAnnotation VALUE 'new gene' "
            "ON (INSERT INTO Gene VALUES ('JW1', 'x', 'ATG'))"
        )
        assert isinstance(stmt.target, ast.Insert)

    def test_archive_with_time_range(self):
        stmt = parse_statement(
            "ARCHIVE ANNOTATION FROM Gene.GAnnotation "
            "BETWEEN '2007-01-01' AND '2007-06-30' "
            "ON (SELECT G.GID FROM Gene G)"
        )
        assert isinstance(stmt, ast.ArchiveAnnotation)
        assert stmt.time_from == "2007-01-01"
        assert stmt.time_to == "2007-06-30"

    def test_restore(self):
        stmt = parse_statement(
            "RESTORE ANNOTATION FROM Gene.GAnnotation ON (SELECT * FROM Gene)"
        )
        assert isinstance(stmt, ast.RestoreAnnotation)

    def test_select_with_annotation_operators_figure7(self):
        stmt = parse_statement(
            "SELECT DISTINCT GID PROMOTE (GSequence, GName), GName "
            "FROM DB1_Gene ANNOTATION(GAnnotation, Provenance) "
            "WHERE GID LIKE 'JW%' "
            "AWHERE annotation.value LIKE '%RegulonDB%' "
            "GROUP BY GID, GName "
            "HAVING COUNT(*) > 0 "
            "AHAVING annotation.curator = 'admin' "
            "FILTER annotation.archived = FALSE"
        )
        assert stmt.distinct
        assert [c.name for c in stmt.items[0].promote] == ["GSequence", "GName"]
        assert stmt.from_tables[0].annotation_tables == ["GAnnotation", "Provenance"]
        assert stmt.awhere is not None
        assert stmt.ahaving is not None
        assert stmt.filter is not None

    def test_grant_revoke(self):
        grant = parse_statement("GRANT SELECT, INSERT ON Gene TO lab_members")
        assert isinstance(grant, ast.Grant)
        assert grant.privileges == ["SELECT", "INSERT"]
        revoke = parse_statement("REVOKE INSERT ON Gene FROM lab_members")
        assert isinstance(revoke, ast.Revoke)

    def test_start_stop_content_approval_figure11(self):
        start = parse_statement(
            "START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY lab_admin"
        )
        assert isinstance(start, ast.StartContentApproval)
        assert start.columns == ["GSequence"]
        assert start.approver == "lab_admin"
        stop = parse_statement("STOP CONTENT APPROVAL ON Gene")
        assert isinstance(stop, ast.StopContentApproval)

    def test_script_parsing(self):
        statements = parse_script(
            "CREATE TABLE T (a INTEGER); INSERT INTO T VALUES (1); SELECT * FROM T;"
        )
        assert len(statements) == 3


class TestParameterPlaceholders:
    def test_qmark_tokenizes_as_punctuation(self):
        tokens = tokenize("SELECT * FROM t WHERE a = ?")
        assert tokens[-2].type is TokenType.PUNCTUATION
        assert tokens[-2].value == "?"

    def test_question_mark_inside_string_is_text(self):
        tokens = tokenize("SELECT 'what?'")
        assert tokens[1].type is TokenType.STRING
        assert tokens[1].value == "what?"

    def test_placeholders_number_left_to_right(self):
        from repro.sql.parser import parse_prepared
        statement, count = parse_prepared(
            "SELECT a + ? FROM t WHERE b = ? AND c BETWEEN ? AND ?")
        assert count == 4
        assert isinstance(statement.items[0].expr.right, ast.Parameter)
        assert statement.items[0].expr.right.index == 0
        where = statement.where
        assert where.left.right.index == 1          # b = ?2
        assert where.right.low.index == 2           # BETWEEN ?3
        assert where.right.high.index == 3          # AND ?4

    def test_placeholders_in_dml(self):
        from repro.sql.parser import parse_prepared
        insert, count = parse_prepared("INSERT INTO t VALUES (?, ?, 3)")
        assert count == 2
        assert isinstance(insert.rows[0][0], ast.Parameter)
        update, count = parse_prepared("UPDATE t SET a = ? WHERE b = ?")
        assert count == 2
        assert isinstance(update.assignments[0][1], ast.Parameter)

    def test_multi_statement_raises_programming_error(self):
        from repro.core.errors import ProgrammingError
        with pytest.raises(ProgrammingError) as excinfo:
            parse_statement("SELECT 1; SELECT 2")
        assert "executescript" in str(excinfo.value)

    def test_trailing_semicolons_still_allowed(self):
        statement = parse_statement("SELECT 1;;")
        assert isinstance(statement, ast.Select)

    def test_script_rejects_placeholders(self):
        from repro.core.errors import ProgrammingError
        with pytest.raises(ProgrammingError):
            parse_script("INSERT INTO t VALUES (?);")
