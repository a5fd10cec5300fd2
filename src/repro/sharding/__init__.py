"""Hash-partitioned sharding: a distributed query coordinator.

The package splits the database horizontally across N independent shard
nodes — each a stock :class:`~repro.server.SqlServer` (optionally fronted
by replicas behind a :class:`~repro.netclient.pool.ReplicatedConnectionPool`)
— and puts a :class:`~repro.sharding.coordinator.ShardedDatabase` in front
that speaks the engine's Database surface, so the unchanged wire server,
dbapi driver and ORM all run against the fleet.

* :mod:`~repro.sharding.shardmap` — the versioned catalog mapping each
  sharded table's partition key to a shard by deterministic hash.
* :mod:`~repro.sharding.router` — statement classification: single-shard,
  fan-out + merge, gather (multi-shard join), or broadcast.
* :mod:`~repro.sharding.sqlgen` — AST-to-SQL rendering for the rewritten
  per-shard statements; parameters stay ``?`` placeholders.
* :mod:`~repro.sharding.journal` — the coordinator's durable decision log
  for two-phase commit (in-doubt recovery).
* :mod:`~repro.sharding.coordinator` — the facade: routed execution,
  distributed transactions, fan-out merge and EXPLAIN surfacing.
"""

from repro.sharding.coordinator import ShardedDatabase, ShardedSession
from repro.sharding.journal import DecisionJournal
from repro.sharding.shardmap import ShardMap, partition_hash

__all__ = [
    "DecisionJournal",
    "ShardMap",
    "ShardedDatabase",
    "ShardedSession",
    "partition_hash",
]
