"""Projection of the paper's four TPC-W queries: entity outputs escape the
loop into the returned QuerySet, so they select every mapped column and
the caller's field reads cost no further statement.  Column outputs select
only what they project.  The identity map stays authoritative: a cached
(possibly dirty) instance is never overwritten by a fresh row."""

from __future__ import annotations

import re

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryllPipeline
from repro.pyfrontend.decorator import query
from repro.pyfrontend.disassembler import lower_function
from repro.tpcw import queries_queryll
from repro.tpcw.database import build_database
from repro.tpcw.population import PopulationScale, customer_uname
from repro.tpcw.schema import tpcw_mapping


def _generated(function, optimize: bool = True):
    pipeline = QueryllPipeline(
        tpcw_mapping(), optimizer_options=OptimizerOptions(optimize=optimize)
    )
    method = lower_function(function.original)
    return pipeline.analyze_method(method).queries[0].generated


def _selected_columns(sql: str) -> set[str]:
    """``binding.COLUMN`` references in the SELECT list."""
    select_list = sql.split(" FROM ")[0]
    return set(re.findall(r"\(([A-Z]\d?\.[A-Z0-9_]+)\)", select_list))


def _entity_columns(alias: str, entity: str) -> set[str]:
    mapping = tpcw_mapping().entity(entity)
    return {f"{alias}.{field.column.upper()}" for field in mapping.fields}


class TestTpcwSelectLists:
    """Entity outputs are full-width (the paper's Table 5 shape); a query
    that projects columns selects exactly those columns."""

    def test_get_name_selects_exactly_the_two_output_columns(self) -> None:
        generated = _generated(queries_queryll.get_name_loop)
        assert _selected_columns(generated.sql) == {"A.C_FNAME", "A.C_LNAME"}

    def test_get_customer_selects_every_customer_address_country_column(self) -> None:
        generated = _generated(queries_queryll.get_customer_loop)
        assert _selected_columns(generated.sql) == (
            _entity_columns("A", "Customer")
            | _entity_columns("B", "Address")
            | _entity_columns("C", "Country")
        )

    def test_do_subject_search_selects_full_item_and_author(self) -> None:
        generated = _generated(queries_queryll.do_subject_search_loop)
        assert _selected_columns(generated.sql) == (
            _entity_columns("A", "Item") | _entity_columns("B", "Author")
        )

    def test_do_get_related_selects_the_five_related_items_in_full(self) -> None:
        generated = _generated(queries_queryll.do_get_related_loop)
        expected: set[str] = set()
        for letter in "BCDEF":
            expected |= _entity_columns(letter, "Item")
        # The source binding A is only consumed by predicates and joins.
        assert _selected_columns(generated.sql) == expected

    def test_optimizer_changes_predicates_not_select_lists(self) -> None:
        for function in queries_queryll.QUERY_FUNCTIONS.values():
            optimized = _generated(function)
            unoptimized = _generated(function, optimize=False)
            assert optimized.select_items == unoptimized.select_items


class TestOptimizedResultsUnchanged:
    @pytest.fixture(scope="class")
    def tpcw(self):
        return build_database(PopulationScale.tiny())

    def test_wrappers_agree_with_unoptimized_pipeline(self, tpcw) -> None:
        em = tpcw.entity_manager()

        @query(optimize=False)
        def get_customer_unoptimized(em, username):
            from repro.orm.pair import Pair
            from repro.orm.queryset import QuerySet
            result = QuerySet()
            for c in em.all('Customer'):
                if c.uname == username:
                    result.add(Pair(c, Pair(c.address, c.address.country)))
            return result

        username = customer_uname(3)
        optimized = queries_queryll.get_customer(em, username)
        unoptimized_pairs = get_customer_unoptimized(
            tpcw.entity_manager(), username
        ).to_list()
        assert len(unoptimized_pairs) == 1
        pair = unoptimized_pairs[0]
        assert optimized["c_uname"] == pair.getFirst().uname
        assert optimized["c_fname"] == pair.getFirst().firstName
        assert optimized["co_name"] == pair.getSecond().getSecond().name


class TestEntityOutputsAndTheIdentityMap:
    @pytest.fixture(scope="class")
    def tpcw(self):
        return build_database(PopulationScale.tiny())

    def test_reading_any_field_of_a_result_costs_no_statement(self, tpcw) -> None:
        em = tpcw.entity_manager()
        rows = queries_queryll.do_get_related_loop(em, 1).to_list()
        assert rows
        before = em.queries_executed
        for item in rows[0]:
            if item is not None:
                assert isinstance(item.title, str) and item.title
                assert item.thumbnail is not None
                assert item.cost is not None
        assert em.queries_executed == before

    def test_result_entity_is_the_identity_map_instance(self, tpcw) -> None:
        em = tpcw.entity_manager()
        item = queries_queryll.do_get_related_loop(em, 2).to_list()[0][0]
        before = em.queries_executed
        assert em.find("Item", item.itemId) is item
        assert em.queries_executed == before

    def test_cached_instance_is_returned_as_is(self, tpcw) -> None:
        em = tpcw.entity_manager()
        related = em.find("Item", 1).related1
        queries_before = em.queries_executed
        rows = queries_queryll.do_get_related_loop(em, 1).to_list()
        assert rows[0][0] is related
        assert em.queries_executed == queries_before + 1  # just the query

    def test_dirty_field_survives_a_query_returning_the_same_entity(self, tpcw) -> None:
        em = tpcw.entity_manager()
        item = queries_queryll.do_get_related_loop(em, 3).to_list()[0][1]
        item.stock = 123456  # dirty, locally modified
        again = queries_queryll.do_get_related_loop(em, 3).to_list()[0][1]
        assert again is item
        assert item.stock == 123456  # the fresh row did not overwrite the edit
        assert item in em.dirty_entities
