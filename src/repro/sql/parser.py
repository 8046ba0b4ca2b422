"""Recursive-descent parser for SQL and A-SQL.

``parse_statement`` parses a single statement; ``parse_script`` parses a
semicolon-separated script.  A-SQL statements (Figures 4 and 6 of the paper)
and the A-SQL SELECT extensions (Figure 7) are parsed by the same parser —
A-SQL is a strict superset of the supported SQL subset.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.errors import ProgrammingError, SqlSyntaxError
from repro.sql import ast
from repro.sql.tokens import Token, TokenType, tokenize


def parse_statement(text: str) -> Any:
    """Parse a single SQL / A-SQL statement and return its AST node."""
    return parse_prepared(text)[0]


def parse_prepared(text: str) -> Tuple[Any, int]:
    """Parse a single statement, returning ``(node, parameter_count)``.

    ``parameter_count`` is the number of qmark (``?``) placeholders found;
    each becomes an :class:`~repro.sql.ast.Parameter` node carrying its
    zero-based position.  A second statement after a semicolon raises
    :class:`ProgrammingError` (one statement per call — scripts go through
    :func:`parse_script` / ``Cursor.executescript()``).
    """
    parser = Parser(tokenize(text))
    statement = parser.parse_statement()
    had_semicolon = parser.match_punct(";")
    parser.skip_semicolons()
    if had_semicolon and not parser.at_end():
        token = parser.peek()
        raise ProgrammingError(
            f"multi-statement strings are not allowed here (second statement "
            f"starts at {token.value!r}, position {token.position}); execute "
            f"one statement at a time, or use Cursor.executescript() for "
            f"scripts"
        )
    parser.expect_end()
    return statement, parser.parameter_count


def parse_script(text: str) -> List[Any]:
    """Parse a script of semicolon-separated statements.

    Scripts are unparameterized: a ``?`` placeholder raises
    :class:`ProgrammingError` (there is no way to bind values to a script).
    """
    parser = Parser(tokenize(text))
    statements: List[Any] = []
    parser.skip_semicolons()
    while not parser.at_end():
        statements.append(parser.parse_statement())
        parser.skip_semicolons()
    if parser.parameter_count:
        raise ProgrammingError(
            f"parameter placeholders are not allowed in scripts (found "
            f"{parser.parameter_count}); execute parameterized statements "
            f"one at a time through a cursor"
        )
    return statements


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone scalar expression (used by tests and tools)."""
    parser = Parser(tokenize(text))
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class Parser:
    """Token-stream parser.  Each ``parse_*`` method consumes its production."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        #: Number of qmark placeholders consumed so far; each ``?`` becomes a
        #: :class:`ast.Parameter` carrying its zero-based position.
        self.parameter_count = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.END:
            self._pos += 1
        return token

    def at_end(self) -> bool:
        return self.peek().type is TokenType.END

    def check_keyword(self, *names: str) -> bool:
        return self.peek().is_keyword(*names)

    def match_keyword(self, *names: str) -> bool:
        if self.check_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, *names: str) -> Token:
        if not self.check_keyword(*names):
            raise SqlSyntaxError(
                f"expected {' or '.join(names)}, found {self.peek().value!r}",
                self.peek().position,
            )
        return self.advance()

    def check_punct(self, value: str) -> bool:
        token = self.peek()
        return token.type is TokenType.PUNCTUATION and token.value == value

    def match_punct(self, value: str) -> bool:
        if self.check_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.check_punct(value):
            raise SqlSyntaxError(
                f"expected {value!r}, found {self.peek().value!r}",
                self.peek().position,
            )
        return self.advance()

    def check_operator(self, *values: str) -> bool:
        token = self.peek()
        return token.type is TokenType.OPERATOR and token.value in values

    def match_operator(self, *values: str) -> Optional[str]:
        if self.check_operator(*values):
            return self.advance().value
        return None

    def expect_identifier(self) -> str:
        token = self.peek()
        # Allow non-reserved use of a handful of keywords as identifiers
        # (e.g. a column named "value" or "key").
        if token.type is TokenType.IDENTIFIER:
            return self.advance().value
        if token.type is TokenType.KEYWORD and token.value in (
            "VALUE", "KEY", "CONTENT", "START", "STOP", "APPROVAL", "COLUMNS",
            "INDEX", "ANNOTATION", "ANNOTATIONS", "TABLE", "TYPE",
        ):
            return self.advance().value
        raise SqlSyntaxError(
            f"expected identifier, found {token.value!r}", token.position
        )

    def expect_string(self) -> str:
        token = self.peek()
        if token.type is not TokenType.STRING:
            raise SqlSyntaxError(
                f"expected string literal, found {token.value!r}", token.position
            )
        return self.advance().value

    def expect_end(self) -> None:
        if not self.at_end():
            token = self.peek()
            raise SqlSyntaxError(
                f"unexpected trailing input: {token.value!r}", token.position
            )

    def skip_semicolons(self) -> None:
        while self.match_punct(";"):
            pass

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Any:
        token = self.peek()
        if token.is_keyword("SELECT"):
            return self.parse_query_expression()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("ADD"):
            return self._parse_add_annotation()
        if token.is_keyword("ARCHIVE"):
            return self._parse_archive_restore(archive=True)
        if token.is_keyword("RESTORE"):
            return self._parse_archive_restore(archive=False)
        if token.is_keyword("GRANT"):
            return self._parse_grant()
        if token.is_keyword("REVOKE"):
            return self._parse_revoke()
        if token.is_keyword("START"):
            return self._parse_start_approval()
        if token.is_keyword("STOP"):
            return self._parse_stop_approval()
        if token.is_keyword("ANALYZE"):
            self.advance()
            table = None
            if not self.at_end() and not self.check_punct(";"):
                table = self.expect_identifier()
            return ast.Analyze(table)
        if token.is_keyword("EXPLAIN"):
            self.advance()
            return ast.Explain(self.parse_statement())
        if token.is_keyword("BEGIN"):
            self.advance()
            self.match_keyword("TRANSACTION")
            return ast.Begin()
        if token.is_keyword("COMMIT"):
            self.advance()
            self.match_keyword("TRANSACTION")
            return ast.Commit()
        if token.is_keyword("ROLLBACK"):
            self.advance()
            self.match_keyword("TRANSACTION")
            return ast.Rollback()
        if token.is_keyword("ATTACH"):
            return self._parse_attach()
        if token.is_keyword("DETACH"):
            return self._parse_detach()
        raise SqlSyntaxError(
            f"cannot parse statement starting with {token.value!r}", token.position
        )

    # -- ATTACH / DETACH --------------------------------------------------
    def _parse_attach(self) -> ast.Attach:
        """ATTACH '<uri>' AS <name> (TYPE <provider> [, <key> <value>]...)"""
        self.expect_keyword("ATTACH")
        uri = self.expect_string()
        self.expect_keyword("AS")
        name = self.expect_identifier()
        self.expect_punct("(")
        provider_type: Optional[str] = None
        options: dict = {}
        while True:
            key = self._parse_option_key()
            value = self._parse_option_value()
            if key.lower() == "type":
                provider_type = str(value)
            else:
                options[key.lower()] = value
            if not self.match_punct(","):
                break
        self.expect_punct(")")
        if provider_type is None:
            raise SqlSyntaxError(
                "ATTACH requires a TYPE option naming the provider "
                "(e.g. TYPE csv)", self.peek().position)
        return ast.Attach(uri, name, provider_type, options)

    def _parse_option_key(self) -> str:
        token = self.peek()
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return self.advance().value
        raise SqlSyntaxError(
            f"expected option name, found {token.value!r}", token.position)

    def _parse_option_value(self) -> Any:
        token = self.peek()
        if token.type is TokenType.STRING:
            return self.advance().value
        if token.type is TokenType.NUMBER:
            self.advance()
            if any(c in token.value for c in ".eE"):
                return float(token.value)
            return int(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        if token.is_keyword("NULL"):
            self.advance()
            return None
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return self.advance().value
        raise SqlSyntaxError(
            f"expected option value, found {token.value!r}", token.position)

    def _parse_detach(self) -> ast.Detach:
        self.expect_keyword("DETACH")
        self.match_keyword("TABLE")
        name = self.expect_identifier()
        return ast.Detach(name)

    # -- CREATE ... -------------------------------------------------------
    def _parse_create(self) -> Any:
        self.expect_keyword("CREATE")
        if self.check_keyword("ANNOTATION"):
            self.advance()
            self.expect_keyword("TABLE")
            annotation_table = self.expect_identifier()
            self.expect_keyword("ON")
            on_table = self.expect_identifier()
            return ast.CreateAnnotationTable(annotation_table, on_table)
        if self.check_keyword("INDEX"):
            self.advance()
            name = self.expect_identifier()
            self.expect_keyword("ON")
            table = self.expect_identifier()
            self.expect_punct("(")
            columns = [self.expect_identifier()]
            while self.match_punct(","):
                columns.append(self.expect_identifier())
            self.expect_punct(")")
            method = "btree"
            if self.match_keyword("USING"):
                method = self.expect_identifier().lower()
            return ast.CreateIndex(name, table, columns, method)
        self.expect_keyword("TABLE")
        name = self.expect_identifier()
        self.expect_punct("(")
        columns = [self._parse_column_def()]
        while self.match_punct(","):
            columns.append(self._parse_column_def())
        self.expect_punct(")")
        return ast.CreateTable(name, columns)

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_identifier()
        type_token = self.peek()
        if type_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            raise SqlSyntaxError(
                f"expected type name after column {name!r}", type_token.position
            )
        type_name = self.advance().value
        # Swallow an optional length argument, e.g. VARCHAR(100).
        if self.match_punct("("):
            while not self.match_punct(")"):
                self.advance()
        column = ast.ColumnDef(name=name, type_name=type_name)
        while True:
            if self.match_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                column.primary_key = True
                column.nullable = False
            elif self.match_keyword("NOT"):
                self.expect_keyword("NULL")
                column.nullable = False
            elif self.match_keyword("NULL"):
                column.nullable = True
            elif self.match_keyword("DEFAULT"):
                column.default = self._literal_value(self.parse_primary())
            elif self.match_keyword("UNIQUE"):
                # UNIQUE is accepted and treated as advisory.
                continue
            else:
                break
        return column

    @staticmethod
    def _literal_value(expr: ast.Expression) -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.operand, ast.Literal):
            value = expr.operand.value
            return -value if expr.op == "-" else value
        raise SqlSyntaxError("DEFAULT requires a literal value")

    # -- DROP ... ----------------------------------------------------------
    def _parse_drop(self) -> Any:
        self.expect_keyword("DROP")
        if self.check_keyword("ANNOTATION"):
            self.advance()
            self.expect_keyword("TABLE")
            annotation_table = self.expect_identifier()
            self.expect_keyword("ON")
            on_table = self.expect_identifier()
            return ast.DropAnnotationTable(annotation_table, on_table)
        if self.check_keyword("INDEX"):
            self.advance()
            return ast.DropIndex(self.expect_identifier())
        self.expect_keyword("TABLE")
        return ast.DropTable(self.expect_identifier())

    # -- INSERT / UPDATE / DELETE ------------------------------------------
    def _parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: List[str] = []
        if self.match_punct("("):
            columns.append(self.expect_identifier())
            while self.match_punct(","):
                columns.append(self.expect_identifier())
            self.expect_punct(")")
        self.expect_keyword("VALUES")
        rows: List[List[ast.Expression]] = [self._parse_value_row()]
        while self.match_punct(","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, columns, rows)

    def _parse_value_row(self) -> List[ast.Expression]:
        self.expect_punct("(")
        row = [self.parse_expr()]
        while self.match_punct(","):
            row.append(self.parse_expr())
        self.expect_punct(")")
        return row

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, ast.Expression]] = []
        while True:
            column = self.expect_identifier()
            if not self.match_operator("="):
                raise SqlSyntaxError("expected '=' in UPDATE assignment",
                                     self.peek().position)
            assignments.append((column, self.parse_expr()))
            if not self.match_punct(","):
                break
        where = self.parse_expr() if self.match_keyword("WHERE") else None
        return ast.Update(table, assignments, where)

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = self.parse_expr() if self.match_keyword("WHERE") else None
        return ast.Delete(table, where)

    # -- A-SQL annotation statements -----------------------------------------
    def _parse_annotation_table_names(self) -> List[str]:
        names = [self._parse_annotation_table_name()]
        while self.match_punct(","):
            names.append(self._parse_annotation_table_name())
        return names

    def _parse_annotation_table_name(self) -> str:
        # The paper writes annotation tables as  UserTable.AnnTable ; both the
        # qualified and the bare form are accepted.
        first = self.expect_identifier()
        if self.match_punct("."):
            second = self.expect_identifier()
            return f"{first}.{second}"
        return first

    def _parse_add_annotation(self) -> ast.AddAnnotation:
        self.expect_keyword("ADD")
        self.expect_keyword("ANNOTATION")
        self.expect_keyword("TO")
        tables = self._parse_annotation_table_names()
        self.expect_keyword("VALUE")
        body = self.expect_string()
        self.expect_keyword("ON")
        target = self._parse_enclosed_statement()
        return ast.AddAnnotation(tables, body, target)

    def _parse_archive_restore(self, archive: bool) -> Any:
        self.expect_keyword("ARCHIVE" if archive else "RESTORE")
        self.expect_keyword("ANNOTATION")
        self.expect_keyword("FROM")
        tables = self._parse_annotation_table_names()
        time_from = time_to = None
        if self.match_keyword("BETWEEN"):
            time_from = self.expect_string()
            self.expect_keyword("AND")
            time_to = self.expect_string()
        self.expect_keyword("ON")
        target = self._parse_enclosed_statement()
        node_cls = ast.ArchiveAnnotation if archive else ast.RestoreAnnotation
        return node_cls(tables, target, time_from, time_to)

    def _parse_enclosed_statement(self) -> Any:
        """Parse the statement after ON, optionally wrapped in parentheses."""
        if self.match_punct("("):
            inner = self.parse_statement()
            self.expect_punct(")")
            return inner
        return self.parse_statement()

    # -- authorization -----------------------------------------------------
    def _parse_privileges(self) -> List[str]:
        privileges = []
        while True:
            token = self.peek()
            if token.type in (TokenType.KEYWORD, TokenType.IDENTIFIER):
                privileges.append(self.advance().value.upper())
            else:
                raise SqlSyntaxError("expected privilege name", token.position)
            if not self.match_punct(","):
                break
        return privileges

    def _parse_grant(self) -> ast.Grant:
        self.expect_keyword("GRANT")
        privileges = self._parse_privileges()
        self.expect_keyword("ON")
        table = self.expect_identifier()
        self.expect_keyword("TO")
        grantee = self.expect_identifier()
        return ast.Grant(privileges, table, grantee)

    def _parse_revoke(self) -> ast.Revoke:
        self.expect_keyword("REVOKE")
        privileges = self._parse_privileges()
        self.expect_keyword("ON")
        table = self.expect_identifier()
        self.expect_keyword("FROM")
        grantee = self.expect_identifier()
        return ast.Revoke(privileges, table, grantee)

    def _parse_start_approval(self) -> ast.StartContentApproval:
        self.expect_keyword("START")
        self.expect_keyword("CONTENT")
        self.expect_keyword("APPROVAL")
        self.expect_keyword("ON")
        table = self.expect_identifier()
        columns = self._parse_optional_columns()
        self.expect_keyword("APPROVED")
        self.expect_keyword("BY")
        approver = self.expect_identifier()
        return ast.StartContentApproval(table, approver, columns)

    def _parse_stop_approval(self) -> ast.StopContentApproval:
        self.expect_keyword("STOP")
        self.expect_keyword("CONTENT")
        self.expect_keyword("APPROVAL")
        self.expect_keyword("ON")
        table = self.expect_identifier()
        columns = self._parse_optional_columns()
        return ast.StopContentApproval(table, columns)

    def _parse_optional_columns(self) -> List[str]:
        if not self.match_keyword("COLUMNS"):
            return []
        has_paren = self.match_punct("(")
        columns = [self.expect_identifier()]
        while self.match_punct(","):
            columns.append(self.expect_identifier())
        if has_paren:
            self.expect_punct(")")
        return columns

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def parse_query_expression(self) -> Any:
        """Parse a SELECT with optional set operations (left-associative)."""
        left = self.parse_select()
        while self.check_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self.advance().value
            include_all = self.match_keyword("ALL")
            right = self.parse_select()
            left = ast.SetOperation(op, left, right, include_all)
        return left

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        select = ast.Select(items=[])
        select.distinct = self.match_keyword("DISTINCT")
        select.items.append(self._parse_select_item())
        while self.match_punct(","):
            select.items.append(self._parse_select_item())
        if self.match_keyword("FROM"):
            select.from_tables.append(self._parse_table_ref())
            while True:
                if self.match_punct(","):
                    select.from_tables.append(self._parse_table_ref())
                    continue
                join = self._maybe_parse_join()
                if join is None:
                    break
                select.joins.append(join)
        if self.match_keyword("WHERE"):
            select.where = self.parse_expr()
        if self.match_keyword("AWHERE"):
            select.awhere = self.parse_expr()
        if self.match_keyword("GROUP"):
            self.expect_keyword("BY")
            select.group_by.append(self.parse_expr())
            while self.match_punct(","):
                select.group_by.append(self.parse_expr())
        if self.match_keyword("HAVING"):
            select.having = self.parse_expr()
        if self.match_keyword("AHAVING"):
            select.ahaving = self.parse_expr()
        if self.match_keyword("FILTER"):
            select.filter = self.parse_expr()
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by.append(self._parse_order_item())
            while self.match_punct(","):
                select.order_by.append(self._parse_order_item())
        if self.match_keyword("LIMIT"):
            select.limit = self._expect_count("LIMIT")
        if self.match_keyword("OFFSET"):
            select.offset = self._expect_count("OFFSET")
        return select

    def _expect_number(self) -> float:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise SqlSyntaxError(f"expected number, found {token.value!r}",
                                 token.position)
        self.advance()
        return float(token.value)

    def _expect_count(self, clause: str) -> int:
        """A LIMIT/OFFSET row count: a non-negative integer literal."""
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            raise SqlSyntaxError(
                f"{clause} requires a non-negative integer", token.position)
        value = self._expect_number()
        if value != int(value):
            raise SqlSyntaxError(
                f"{clause} requires an integer, got {token.value!r}",
                token.position)
        return int(value)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.check_operator("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expr()
        item = ast.SelectItem(expr)
        if self.match_keyword("PROMOTE"):
            self.expect_punct("(")
            item.promote.append(self._parse_column_ref())
            while self.match_punct(","):
                item.promote.append(self._parse_column_ref())
            self.expect_punct(")")
        if self.match_keyword("AS"):
            item.alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            item.alias = self.advance().value
        return item

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = self.expect_identifier()
        if self.match_punct("."):
            return ast.ColumnRef(self.expect_identifier(), table=first)
        return ast.ColumnRef(first)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self.expect_identifier()
        ref = ast.TableRef(name)
        if self.check_keyword("ANNOTATION", "ANNOTATIONS") and self.peek(1).value == "(":
            self.advance()
            self.expect_punct("(")
            ref.annotation_tables.append(self._parse_annotation_table_name())
            while self.match_punct(","):
                ref.annotation_tables.append(self._parse_annotation_table_name())
            self.expect_punct(")")
        if self.match_keyword("AS"):
            ref.alias = self.expect_identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            ref.alias = self.advance().value
        return ref

    def _maybe_parse_join(self) -> Optional[ast.Join]:
        join_type = None
        if self.check_keyword("JOIN"):
            join_type = "INNER"
            self.advance()
        elif self.check_keyword("INNER") and self.peek(1).is_keyword("JOIN"):
            self.advance()
            self.advance()
            join_type = "INNER"
        elif self.check_keyword("LEFT"):
            self.advance()
            self.match_keyword("OUTER")
            self.expect_keyword("JOIN")
            join_type = "LEFT"
        elif self.check_keyword("CROSS") and self.peek(1).is_keyword("JOIN"):
            self.advance()
            self.advance()
            join_type = "CROSS"
        if join_type is None:
            return None
        table = self._parse_table_ref()
        condition = None
        if join_type != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expr()
        return ast.Join(table, condition, join_type)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.match_keyword("DESC"):
            ascending = False
        else:
            self.match_keyword("ASC")
        return ast.OrderItem(expr, ascending)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.match_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self.match_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self.match_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expression:
        left = self._parse_additive()
        op = self.match_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            normalized = "<>" if op == "!=" else op
            return ast.BinaryOp(normalized, left, self._parse_additive())
        if self.check_keyword("IS"):
            self.advance()
            negated = self.match_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated)
        negated = False
        if self.check_keyword("NOT") and self.peek(1).is_keyword("LIKE", "IN", "BETWEEN"):
            self.advance()
            negated = True
        if self.match_keyword("LIKE"):
            return ast.Like(left, self._parse_additive(), negated)
        if self.match_keyword("IN"):
            self.expect_punct("(")
            items = [self.parse_expr()]
            while self.match_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return ast.InList(left, items, negated)
        if self.match_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            op = self.match_operator("+", "-", "||")
            if op is None:
                break
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            op = self.match_operator("*", "/", "%")
            if op is None:
                break
            left = ast.BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ast.Expression:
        op = self.match_operator("-", "+")
        if op is not None:
            return ast.UnaryOp(op, self._parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> ast.Expression:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if any(c in text for c in ".eE"):
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PUNCTUATION and token.value == "?":
            self.advance()
            parameter = ast.Parameter(self.parameter_count)
            self.parameter_count += 1
            return parameter
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if self.check_punct("("):
            self.advance()
            if self.check_keyword("SELECT"):
                raise SqlSyntaxError(
                    "scalar subqueries are not supported", token.position
                )
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            return self._parse_identifier_expression()
        raise SqlSyntaxError(f"unexpected token {token.value!r}", token.position)

    def _parse_identifier_expression(self) -> ast.Expression:
        name = self.expect_identifier()
        # Function call
        if self.check_punct("("):
            self.advance()
            distinct = self.match_keyword("DISTINCT")
            args: List[ast.Expression] = []
            if self.check_operator("*"):
                self.advance()
                args.append(ast.Star())
            elif not self.check_punct(")"):
                args.append(self.parse_expr())
                while self.match_punct(","):
                    args.append(self.parse_expr())
            self.expect_punct(")")
            return ast.FunctionCall(name.upper(), args, distinct)
        # Qualified reference: table.column or table.*
        if self.match_punct("."):
            if self.check_operator("*"):
                self.advance()
                return ast.Star(table=name)
            return ast.ColumnRef(self.expect_identifier(), table=name)
        return ast.ColumnRef(name)
