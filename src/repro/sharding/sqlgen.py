"""Render parsed AST nodes back into SQL text for per-shard execution.

The coordinator parses each incoming statement once, classifies it, and
then sends (possibly rewritten) statements to the shard nodes over the
ordinary wire protocol.  This module is the inverse of the parser for the
supported dialect.

Parameters stay placeholders: every ``?`` renders as ``?`` and its bound
value is collected in text order, so each render returns ``(sql, values)``
for the shard to execute.  A statement shape is then the same SQL text
whatever its parameter values, and each shard parses and plans it once
(its plan cache is keyed by SQL text).  Rewrites are expressed as edited
statements (``dataclasses.replace`` on the frozen AST): a value the
coordinator computes, such as a pushed-down ``LIMIT``, is appended to the
parameter tuple and referenced by an extra :class:`~ast.Parameter`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sqlengine import ast_nodes as ast
from repro.sqlengine.errors import ShardError


def render_value(value: object) -> str:
    """A SQL literal for a Python value (the dbapi binding types)."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise ShardError(f"cannot render {type(value).__name__} value as SQL")


def render_expression(
    expr: ast.Expression,
    params: Optional[Sequence[object]],
    values: list[object],
) -> str:
    """SQL text for an expression; appends each ``?``'s bound value to
    ``values`` in text order.  ``params=None`` (EXPLAIN, which plans
    without bindings) renders the placeholders and binds nothing."""
    if isinstance(expr, ast.Literal):
        return render_value(expr.value)
    if isinstance(expr, ast.Parameter):
        if params is not None:
            if expr.index >= len(params):
                raise ShardError(
                    f"statement references parameter {expr.index + 1} but only "
                    f"{len(params)} values were bound"
                )
            values.append(params[expr.index])
        return "?"
    if isinstance(expr, ast.ColumnRef):
        if expr.table:
            return f"{expr.table}.{expr.column}"
        return expr.column
    if isinstance(expr, ast.UnaryOp):
        operand = render_expression(expr.operand, params, values)
        if expr.op.upper() == "NOT":
            return f"(NOT {operand})"
        return f"({expr.op}{operand})"
    if isinstance(expr, ast.BinaryOp):
        left = render_expression(expr.left, params, values)
        right = render_expression(expr.right, params, values)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, ast.IsNull):
        operand = render_expression(expr.operand, params, values)
        return f"({operand} IS {'NOT ' if expr.negated else ''}NULL)"
    if isinstance(expr, ast.InList):
        operand = render_expression(expr.operand, params, values)
        items = ", ".join(
            render_expression(item, params, values) for item in expr.items
        )
        return f"({operand} {'NOT ' if expr.negated else ''}IN ({items}))"
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(render_expression(arg, params, values) for arg in expr.args)
        return f"{expr.name}({args})"
    raise ShardError(f"cannot render expression node {type(expr).__name__}")


def _render_select_item(
    item: ast.SelectItem, params: Optional[Sequence[object]], values: list[object]
) -> str:
    if item.star:
        return "*"
    if item.table_star is not None:
        return f"{item.table_star}.*"
    assert item.expression is not None
    text = render_expression(item.expression, params, values)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def render_select(
    statement: ast.SelectStatement, params: Optional[Sequence[object]]
) -> tuple[str, list[object]]:
    """``(sql, values)`` for a SELECT: the text with ``?`` placeholders
    and their bound values in text order."""
    values: list[object] = []
    parts = ["SELECT "]
    if statement.distinct:
        parts.append("DISTINCT ")
    parts.append(
        ", ".join(
            _render_select_item(item, params, values) for item in statement.items
        )
    )
    if statement.tables:
        tables = ", ".join(
            f"{ref.table} AS {ref.alias}" if ref.alias else ref.table
            for ref in statement.tables
        )
        parts.append(f" FROM {tables}")
    if statement.where is not None:
        parts.append(" WHERE " + render_expression(statement.where, params, values))
    if statement.order_by:
        order_by = []
        for item in statement.order_by:
            text = render_expression(item.expression, params, values)
            order_by.append(text + " DESC" if item.descending else text)
        parts.append(" ORDER BY " + ", ".join(order_by))
    if statement.limit is not None:
        parts.append(" LIMIT " + render_expression(statement.limit, params, values))
    if statement.offset is not None:
        parts.append(" OFFSET " + render_expression(statement.offset, params, values))
    return "".join(parts), values


def render_insert(
    statement: ast.InsertStatement,
    params: Sequence[object],
    rows: Sequence[tuple],
) -> tuple[str, list[object]]:
    """``(sql, values)`` for an INSERT of a subset of its VALUES tuples
    (the router splits multi-row inserts per owning shard)."""
    values: list[object] = []
    rendered = ", ".join(
        "("
        + ", ".join(render_expression(expr, params, values) for expr in row)
        + ")"
        for row in rows
    )
    columns = ""
    if statement.columns:
        columns = " (" + ", ".join(statement.columns) + ")"
    return f"INSERT INTO {statement.table}{columns} VALUES {rendered}", values
