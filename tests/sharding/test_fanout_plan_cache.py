"""Fan-out statements reach the shards parameterised: one statement shape
is one SQL text, so each shard parses and plans it once however many
distinct parameter values flow through the coordinator."""

from __future__ import annotations

import pytest

from repro.tpcw import queries_queryll
from repro.tpcw.population import PopulationScale, customer_uname
from repro.tpcw.sharded import build_sharded_cluster


@pytest.fixture(scope="module")
def cluster():
    # 60 customers, so 50 distinct user names all resolve.
    scale = PopulationScale(num_items=50, num_ebs=1, customers_per_eb=60)
    cluster = build_sharded_cluster(scale, num_shards=2)
    try:
        yield cluster
    finally:
        cluster.stop()


def _plans_computed(cluster) -> list[int]:
    return [
        node.database.statement_cache_info()["plans_computed"]
        for node in cluster.nodes
    ]


def test_get_customer_plans_once_per_shard_for_fifty_unames(cluster) -> None:
    remote = cluster.remote()
    routes_before = cluster.coordinator.stats()["routes"]["fanout"]
    plans_before = _plans_computed(cluster)
    for index in range(1, 51):
        uname = customer_uname(index)
        got = queries_queryll.get_customer(remote.entity_manager(), uname)
        want = queries_queryll.get_customer(cluster.local.entity_manager(), uname)
        assert got == want, uname
    assert cluster.coordinator.stats()["routes"]["fanout"] - routes_before == 50
    grown = [
        after - before
        for before, after in zip(plans_before, _plans_computed(cluster))
    ]
    assert all(delta <= 1 for delta in grown), grown


@pytest.mark.parametrize(
    "sql, values, shapes",
    [
        # Ordered fan-out: hidden sort key plus a pushed-down LIMIT.
        (
            "SELECT i_id, i_title FROM item WHERE i_cost > ? "
            "ORDER BY i_cost + ? LIMIT ? OFFSET ?",
            [(float(n), n, 3, n % 2) for n in range(12)],
            1,
        ),
        # Aggregate pushdown.
        (
            "SELECT COUNT(*), AVG(i_stock), MAX(i_cost) FROM item WHERE i_cost > ?",
            [(float(n),) for n in range(12)],
            1,
        ),
        # Gather: a cross-shard join; each table's slice fetch (two shapes)
        # carries that table's own conjuncts.
        (
            "SELECT a.i_id, c.c_uname FROM item AS a, customer AS c "
            "WHERE a.i_id = c.c_id AND a.i_cost > ? AND c.c_id < ? ORDER BY a.i_id",
            [(float(n), 40 - n) for n in range(12)],
            2,
        ),
    ],
    ids=["ordered-limit", "aggregate", "gather"],
)
def test_pushdown_paths_reuse_shard_plans(cluster, sql, values, shapes) -> None:
    session = cluster.coordinator.session()
    oracle = cluster.local.database
    plans_before = _plans_computed(cluster)
    try:
        for params in values:
            got = session.execute(sql, params).rows
            want = oracle.execute(sql, params).rows
            assert got == want, params
    finally:
        session.close()
    grown = [
        after - before
        for before, after in zip(plans_before, _plans_computed(cluster))
    ]
    # Twelve values would be twelve plans per shape if values were inlined.
    assert all(delta <= shapes for delta in grown), grown
