"""The paper's central claim as a gate: each of the four TPC-W ``@query``
loops runs as exactly one SQL statement, with a cold (request-scoped)
EntityManager and with a warm one, in-process, over the wire and through
a 2-shard coordinator.  A lazy per-entity lookup after the query (an N+1)
shows up here as a count above 1."""

from __future__ import annotations

import pytest

from repro.netclient.pool import ConnectionPool
from repro.server import SqlServer
from repro.tpcw import queries_queryll
from repro.tpcw.database import build_database, connect_remote
from repro.tpcw.population import PopulationScale, customer_uname
from repro.tpcw.sharded import build_sharded_cluster

#: Each query's wrapper (which reads every field the handwritten version
#: reads) and a parameter whose result is non-empty at tiny scale.
QUERIES = {
    "getName": (queries_queryll.get_name, 3),
    "getCustomer": (queries_queryll.get_customer, customer_uname(3)),
    "doSubjectSearch": (queries_queryll.do_subject_search, "ARTS"),
    "doGetRelated": (queries_queryll.do_get_related, 2),
}


@pytest.fixture(scope="module")
def in_process(tpcw_db):
    return tpcw_db, lambda: tpcw_db.database.statements_executed


@pytest.fixture(scope="module")
def remote():
    local = build_database(PopulationScale.tiny())
    server = SqlServer(database=local.database).start()
    pool = ConnectionPool(server.address, max_size=2)
    try:
        yield connect_remote(local, server.address, pool=pool), pool.round_trips
    finally:
        pool.close()
        server.shutdown()


@pytest.fixture(scope="module")
def sharded():
    cluster = build_sharded_cluster(PopulationScale.tiny(), num_shards=2)
    pool = ConnectionPool(cluster.address, max_size=2)
    try:
        yield (
            cluster.remote(pool=pool),
            lambda: cluster.coordinator.statements_executed,
        )
    finally:
        pool.close()
        cluster.stop()


@pytest.mark.parametrize("place", ["in_process", "remote", "sharded"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_one_statement_cold_and_warm(request, place: str, name: str) -> None:
    handle, count = request.getfixturevalue(place)
    function, parameter = QUERIES[name]
    # Rewrite outside the measured calls (the first call analyses the loop).
    warmup = handle.entity_manager()
    expected = function(warmup, parameter)
    warmup.close()

    entity_manager = handle.entity_manager()
    try:
        before = count()
        assert function(entity_manager, parameter) == expected
        cold = count() - before
        before = count()
        assert function(entity_manager, parameter) == expected
        warm = count() - before
    finally:
        entity_manager.close()
    assert (cold, warm) == (1, 1)
