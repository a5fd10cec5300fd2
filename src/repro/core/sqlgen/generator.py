"""SQL text generation from query trees.

The generator turns a :class:`~repro.core.querytree.nodes.QueryTree` into

* the SQL text (SELECT/FROM/WHERE and optional ORDER BY / LIMIT),
* the ordered list of outer variables to bind to the ``?`` parameters, and
* an *output plan* describing how result rows map back to entities, Pairs or
  scalar values (consumed by :mod:`repro.core.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.querytree.nodes import (
    ColumnOutput,
    EntityOutput,
    Output,
    PairOutput,
    QueryTree,
    TupleOutput,
)
from repro.core.sqlgen.dialect import ExpressionRenderer, render_column
from repro.orm.mapping import OrmMapping
from repro.errors import RewriteError


@dataclass(frozen=True)
class EntityOutputPlan:
    """Result rows contain every column of one entity, with a column prefix.

    An entity output escapes the loop into the returned QuerySet, where the
    caller may read any field, so it always selects every mapped column.
    """

    entity_name: str
    binding: str
    column_prefix: str


@dataclass(frozen=True)
class ColumnOutputPlan:
    """Result rows contain one computed column under ``label``."""

    label: str


@dataclass(frozen=True)
class PairOutputPlan:
    """Result rows are mapped into :class:`~repro.orm.pair.Pair` objects."""

    first: "OutputPlan"
    second: "OutputPlan"


@dataclass(frozen=True)
class TupleOutputPlan:
    """Result rows are mapped into plain tuples."""

    items: tuple["OutputPlan", ...]


OutputPlan = Union[
    EntityOutputPlan, ColumnOutputPlan, PairOutputPlan, TupleOutputPlan
]


@dataclass
class GeneratedSql:
    """The outcome of SQL generation for one query loop."""

    sql: str
    parameter_sources: list[str]
    output_plan: OutputPlan
    source_entity: str
    select_items: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """Readable multi-line description (used by docs and benches)."""
        lines = [self.sql]
        if self.parameter_sources:
            lines.append(f"-- parameters: {', '.join(self.parameter_sources)}")
        return "\n".join(lines)


class SqlGenerator:
    """Generates SQL text in the paper's style from query trees."""

    def __init__(self, mapping: OrmMapping) -> None:
        self._mapping = mapping

    def generate(self, tree: QueryTree) -> GeneratedSql:
        """Generate the SELECT statement for ``tree``.

        Entity outputs expand to every mapped column; identical projected
        expressions and repeated entity outputs are emitted once
        (redundant-projection elimination).
        """
        if tree.output is None:
            raise RewriteError("query tree has no output")
        renderer = ExpressionRenderer()

        select_items: list[str] = []
        state = _SelectState()
        output_plan = self._plan_output(tree.output, select_items, renderer, state)

        from_clause = ", ".join(
            f"{binding.table} AS {binding.alias}" for binding in tree.bindings
        )

        where_parts: list[str] = []
        if tree.where is not None:
            where_parts.append(f"( {renderer.render(tree.where)} )")
        for join_condition in tree.join_conditions:
            where_parts.append(
                f"{render_column(join_condition.left)} = "  # type: ignore[arg-type]
                f"{render_column(join_condition.right)}"  # type: ignore[arg-type]
            )

        sql = f"SELECT {', '.join(select_items)} FROM {from_clause}"
        if where_parts:
            sql += " WHERE " + " AND ".join(where_parts)

        if tree.order_by:
            order_items = []
            for expression, descending in tree.order_by:
                rendered = renderer.render(expression)
                order_items.append(rendered + (" DESC" if descending else ""))
            sql += " ORDER BY " + ", ".join(order_items)
        if tree.limit is not None:
            sql += f" LIMIT {tree.limit}"
        if tree.offset is not None:
            sql += f" OFFSET {tree.offset}"

        return GeneratedSql(
            sql=sql,
            parameter_sources=list(renderer.parameter_sources),
            output_plan=output_plan,
            source_entity=tree.bindings[0].entity_name,
            select_items=select_items,
        )

    # -- internals --------------------------------------------------------------------

    def _plan_output(
        self,
        output: Output,
        select_items: list[str],
        renderer: ExpressionRenderer,
        state: "_SelectState",
    ) -> OutputPlan:
        if isinstance(output, ColumnOutput):
            # Deduplicate on the expression *node*, not its rendered text:
            # rendering has a side effect (parameters are recorded in
            # textual order) and distinct parameters all render as "?".
            label = state.column_labels.get(output.expression)
            if label is None:
                label = f"COL{len(state.column_labels)}"
                state.column_labels[output.expression] = label
                select_items.append(
                    f"({renderer.render(output.expression)}) AS {label}"
                )
            return ColumnOutputPlan(label=label.lower())
        if isinstance(output, EntityOutput):
            return self._plan_entity_output(output, select_items, state)
        if isinstance(output, PairOutput):
            first = self._plan_output(output.first, select_items, renderer, state)
            second = self._plan_output(output.second, select_items, renderer, state)
            return PairOutputPlan(first=first, second=second)
        if isinstance(output, TupleOutput):
            return TupleOutputPlan(
                items=tuple(
                    self._plan_output(item, select_items, renderer, state)
                    for item in output.items
                )
            )
        raise RewriteError(f"unknown output shape {output!r}")

    def _plan_entity_output(
        self,
        output: EntityOutput,
        select_items: list[str],
        state: "_SelectState",
    ) -> EntityOutputPlan:
        cached = state.entity_plans.get(output.binding)
        if cached is not None:
            return cached
        entity_mapping = self._mapping.entity(output.entity_name)
        for column_field in entity_mapping.fields:
            alias = f"{output.binding}_{column_field.column}".upper()
            select_items.append(
                f"({output.binding}.{column_field.column.upper()}) AS {alias}"
            )
        plan = EntityOutputPlan(
            entity_name=output.entity_name,
            binding=output.binding,
            column_prefix=f"{output.binding.lower()}_",
        )
        state.entity_plans[output.binding] = plan
        return plan


@dataclass
class _SelectState:
    """Per-generation bookkeeping for select-item deduplication."""

    #: Projected expression node -> allocated ``COLn`` label.
    column_labels: dict[object, str] = field(default_factory=dict)
    #: Binding alias -> already-emitted entity output plan.
    entity_plans: dict[str, "EntityOutputPlan"] = field(default_factory=dict)
