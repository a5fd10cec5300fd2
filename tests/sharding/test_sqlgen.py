"""SQL rendering: AST back to text, with ``?`` placeholders kept and their
bound values collected in text order.

Round-trip property: rendering a parsed statement and re-parsing the text
must produce a semantically identical statement — checked by executing
both (the rendered one with the collected values) against engines with
the same data and comparing results.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.sharding import sqlgen
from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.engine import Database
from repro.sqlengine.errors import ShardError
from repro.sqlengine.parser import parse_statement


class TestRenderValue:
    def test_scalars(self) -> None:
        assert sqlgen.render_value(None) == "NULL"
        assert sqlgen.render_value(True) == "TRUE"
        assert sqlgen.render_value(False) == "FALSE"
        assert sqlgen.render_value(42) == "42"
        assert sqlgen.render_value(1.5) == "1.5"

    def test_string_quotes_doubled(self) -> None:
        assert sqlgen.render_value("o'brien") == "'o''brien'"

    def test_unrenderable_type_rejected(self) -> None:
        with pytest.raises(ShardError):
            sqlgen.render_value(object())


class TestRenderStatements:
    def _render(self, sql: str, params=()) -> tuple[str, list]:
        statement = parse_statement(sql)
        if type(statement).__name__ == "InsertStatement":
            return sqlgen.render_insert(statement, params, statement.rows)
        return sqlgen.render_select(statement, params)

    def test_round_trip_equivalence(self) -> None:
        database = Database()
        database.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)")
        mirror = Database()
        mirror.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR)")
        for sql, params in [
            ("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, NULL)", ()),
            ("INSERT INTO t (id, v, s) VALUES (?, ?, ?)", (4, 40, "d'd")),
            ("INSERT INTO t VALUES (5, -1, ?), (?, 7, 'x')", (None, 6)),
        ]:
            mirror.execute(*self._render(sql, params))
            database.execute(sql, params)
        assert mirror.execute("SELECT * FROM t ORDER BY id").rows == (
            database.execute("SELECT * FROM t ORDER BY id").rows
        )
        for sql, params in [
            ("SELECT id, v FROM t WHERE NOT (v < 0) ORDER BY v DESC LIMIT 2", ()),
            ("SELECT DISTINCT s FROM t WHERE s IS NOT NULL", ()),
            ("SELECT COUNT(*), SUM(v) AS total FROM t", ()),
            ("SELECT t.id, ABS(-1 * v) FROM t AS t ORDER BY t.id LIMIT 10 OFFSET 1", ()),
            ("SELECT id FROM t WHERE v > ? AND s IN (?, 'a') ORDER BY id LIMIT ?",
             (5, "d'd", 3)),
        ]:
            rendered, values = self._render(sql, params)
            assert mirror.execute(rendered, values).rows == (
                database.execute(sql, params).rows
            ), (sql, rendered)

    def test_parameters_stay_placeholders_bound_in_text_order(self) -> None:
        rendered, values = self._render(
            "SELECT v + ? FROM t WHERE s = ? AND v = ? LIMIT ?", (1, "x", 3, 9)
        )
        assert rendered == "SELECT (v + ?) FROM t WHERE ((s = ?) AND (v = ?)) LIMIT ?"
        assert values == [1, "x", 3, 9]

    def test_reordered_parameters_follow_the_text(self) -> None:
        # ?2 appears before ?1 once the items are rewritten: values follow
        # the rendered text, not the original parameter numbering.
        statement = parse_statement("SELECT id FROM t WHERE v = ? ORDER BY v + ?")
        hidden = ast.SelectItem(statement.order_by[0].expression, alias="o")
        pushed = replace(statement, items=statement.items + (hidden,))
        rendered, values = sqlgen.render_select(pushed, ("w", "o"))
        assert rendered == (
            "SELECT id, (v + ?) AS o FROM t WHERE (v = ?) ORDER BY (v + ?)"
        )
        assert values == ["o", "w", "o"]

    def test_distinct_values_share_one_statement_text(self) -> None:
        statement = parse_statement("SELECT id FROM t WHERE s = ?")
        texts = {sqlgen.render_select(statement, (name,))[0] for name in "abc"}
        assert texts == {"SELECT id FROM t WHERE (s = ?)"}

    def test_unbound_parameters_keep_placeholder(self) -> None:
        statement = parse_statement("SELECT * FROM t WHERE id = ?")
        rendered, values = sqlgen.render_select(statement, None)
        assert "?" in rendered and values == []  # EXPLAIN renders without bindings

    def test_missing_binding_rejected(self) -> None:
        statement = parse_statement("SELECT * FROM t WHERE id = ?")
        with pytest.raises(ShardError, match="parameter 1"):
            sqlgen.render_select(statement, ())

    def test_insert_row_subset(self) -> None:
        statement = parse_statement("INSERT INTO t VALUES (1, 'a'), (?, 'b')")
        subset = sqlgen.render_insert(statement, (2,), [statement.rows[1]])
        assert subset == ("INSERT INTO t VALUES (?, 'b')", [2])
