"""The three TPC-W workloads: set-up, interactions and correctness oracles.

Everything here goes through public entry points of the stack:
``repro.tpcw`` builds and populates the databases, the Queryll versions of
the four browse queries run through ``@query`` functions and a fresh
EntityManager per interaction, remote workloads reach an in-process
``SqlServer`` (or the sharding coordinator's wire front) through a
``ConnectionPool``, and stock transfers use the remote dbapi driver.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.netclient import ConnectionPool
from repro.pyfrontend.decorator import query
from repro.server.server import SqlServer
from repro.sqlengine.durability import DurabilityOptions
from repro.sqlengine.errors import TransactionConflictError
from repro.tpcw import queries_queryll, queries_sql
from repro.tpcw.database import build_database, connect_remote
from repro.tpcw.population import PopulationScale, customer_uname
from repro.tpcw.schema import TPCW_SUBJECTS
from repro.tpcw.sharded import build_sharded_cluster
from repro.tpcw.workload import CONFLICT_RETRY_LIMIT, READ_MIX, ParameterGenerator


#: Share of ordering-sharded interactions that are stock transfers.
TRANSFER_FRACTION = 0.5

#: Client pool size of the remote workloads (one closed-loop client; the
#: second slot lets a transfer's connection and an EntityManager coexist).
POOL_SIZE = 2

BROWSE_KINDS = tuple(name for name, _ in READ_MIX)

QUERYLL = {
    "getName": queries_queryll.get_name,
    "getCustomer": queries_queryll.get_customer,
    "doSubjectSearch": queries_queryll.do_subject_search,
    "doGetRelated": queries_queryll.do_get_related,
}

ORACLE = {
    "getName": queries_sql.get_name,
    "getCustomer": queries_sql.get_customer,
    "doSubjectSearch": queries_sql.do_subject_search,
    "doGetRelated": queries_sql.do_get_related,
}

#: Browse results whose row order the query does not fix.
_UNORDERED = {"doGetRelated"}

TAKE_SQL = "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ? AND i_stock >= ?"
GIVE_SQL = "UPDATE item SET i_stock = i_stock + ? WHERE i_id = ?"


#: One deck of browse interactions: READ_MIX realised exactly per 20.
BROWSE_DECK = tuple(
    kind for kind, weight in READ_MIX for _ in range(round(weight * 20))
)


class InteractionStream:
    """The seeded sequence of (kind, parameters) one client issues.

    Kinds are dealt from shuffled decks that hold the mix exactly (20
    browse interactions, plus as many transfers as the transfer fraction
    asks for), and subjects from shuffled decks of all subjects, so a
    run's mix of interactions and of subject sizes does not drift with
    the seed; only the order and the other parameters do.
    """

    def __init__(self, scale: PopulationScale, seed: int, transfer_fraction: float) -> None:
        self._parameters = ParameterGenerator(scale, seed=seed)
        self._rng = random.Random(seed * 1_000_003 + 17)
        transfers = round(len(BROWSE_DECK) * transfer_fraction / (1.0 - transfer_fraction))
        self._deck_template = BROWSE_DECK + ("transfer",) * transfers
        self._deck: list[str] = []
        self._subjects: list[str] = []
        self._draw = {
            "getName": self._parameters.customer_id,
            "getCustomer": self._parameters.customer_username,
            "doSubjectSearch": self._subject,
            "doGetRelated": self._parameters.item_id,
        }

    def _subject(self) -> str:
        if not self._subjects:
            self._subjects = list(TPCW_SUBJECTS)
            self._rng.shuffle(self._subjects)
        return self._subjects.pop()

    def next(self) -> tuple[str, object]:
        if not self._deck:
            self._deck = list(self._deck_template)
            self._rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind == "transfer":
            source = self._parameters.item_id()
            destination = self._parameters.item_id()
            return kind, (source, destination, self._rng.randint(1, 3))
        return kind, self._draw[kind]()


@dataclass
class Target:
    """One assembled system under test plus the handles the benchmark
    reads counters from."""

    workload: str
    #: TpcwDatabase or RemoteTpcwDatabase: ``entity_manager()`` and
    #: ``connection()`` are the application's entry points.
    tpcw: object
    #: Single-node database with the same population, for the oracle.
    oracle: object
    #: Engines that execute statements (the server's or the shards').
    engines: list
    pool: Optional[ConnectionPool] = None
    coordinator: object = None
    _stop: list[Callable[[], None]] = field(default_factory=list)

    @property
    def mapping(self):
        return self.tpcw.orm.mapping

    @property
    def transfer_fraction(self) -> float:
        return TRANSFER_FRACTION if self.workload == "ordering-sharded" else 0.0

    def stop(self) -> None:
        """Stop servers and close engines, last started first."""
        while self._stop:
            self._stop.pop()()


def build_target(workload: str, scale: PopulationScale, work_dir: str) -> Target:
    """Population, indexes, servers and pools for ``workload``."""
    if workload == "browse-inproc":
        local = build_database(scale)
        return Target(workload, local, local, [local.database])
    if workload == "browse-remote":
        local = build_database(scale)
        server = SqlServer(database=local.database).start()
        pool = ConnectionPool(server.address, max_size=POOL_SIZE)
        target = Target(
            workload,
            connect_remote(local, server.address, pool=pool),
            local,
            [local.database],
            pool=pool,
        )
        target._stop += [server.shutdown, pool.close]
        return target
    if workload == "ordering-sharded":
        os.makedirs(work_dir, exist_ok=True)
        data_dir = os.path.join(work_dir, f"cluster-{len(os.listdir(work_dir))}")
        cluster = build_sharded_cluster(
            scale,
            num_shards=2,
            data_dir=data_dir,
            durability=DurabilityOptions(fsync="group"),
            coordinator_journal=True,
        )
        pool = ConnectionPool(cluster.address, max_size=POOL_SIZE)
        target = Target(
            workload,
            cluster.remote(pool=pool),
            cluster.local,
            [node.database for node in cluster.nodes],
            pool=pool,
            coordinator=cluster.coordinator,
        )
        target._stop += [
            lambda: shutil.rmtree(data_dir, ignore_errors=True),
            cluster.stop,
            pool.close,
        ]
        return target
    raise ValueError(f"unknown workload {workload!r}")


def cold_rewrite(mapping) -> None:
    """Lower and analyse the four TPC-W ``@query`` functions from scratch:
    fresh decorators, so the bytecode-to-TAC lowering runs again too."""
    for function in queries_queryll.QUERY_FUNCTIONS.values():
        query(function.original).generated_sql(mapping)


def first_calls(target: Target) -> None:
    """The cold rewrite, then one call of every browse interaction with
    fixed parameters (the module's ``@query`` functions analyse the new
    mapping on their first call)."""
    cold_rewrite(target.mapping)
    for kind, parameter in (
        ("getName", 1),
        ("getCustomer", customer_uname(1)),
        ("doSubjectSearch", "ARTS"),
        ("doGetRelated", 1),
    ):
        browse(target, kind, parameter)


def browse(target: Target, kind: str, parameter: object):
    """One browse interaction with a request-scoped EntityManager."""
    entity_manager = target.tpcw.entity_manager()
    try:
        return QUERYLL[kind](entity_manager, parameter)
    finally:
        entity_manager.close()


@dataclass
class TransferOutcome:
    committed: bool
    #: Seconds from the interaction's start to the commit acknowledgement
    #: (None when the guarded take found too little stock and rolled back).
    ack_s: Optional[float]


def transfer(target: Target, parameters: tuple[int, int, int], started: float, clock) -> TransferOutcome:
    """Move stock between two items in one transaction of two UPDATEs.

    The take is guarded by the source's stock; when it matches no row the
    transaction rolls back.  A write-write conflict retries the transfer
    like a real client.
    """
    source, destination, quantity = parameters
    connection = target.tpcw.connection(auto_commit=False)
    try:
        for attempt in range(CONFLICT_RETRY_LIMIT + 1):
            try:
                take = connection.prepare_statement(TAKE_SQL)
                take.set_int(1, quantity)
                take.set_int(2, source)
                take.set_int(3, quantity)
                if take.execute_update() == 0 or source == destination:
                    connection.rollback()
                    return TransferOutcome(False, None)
                give = connection.prepare_statement(GIVE_SQL)
                give.set_int(1, quantity)
                give.set_int(2, destination)
                if give.execute_update() != 1:
                    connection.rollback()
                    raise AssertionError(f"item {destination} vanished")
                connection.commit()
                return TransferOutcome(True, clock() - started)
            except TransactionConflictError:
                connection.rollback()
                if attempt >= CONFLICT_RETRY_LIMIT:
                    raise
    finally:
        connection.close()
    raise AssertionError("unreachable")


def same_result(kind: str, got: object, expected: object) -> bool:
    if kind in _UNORDERED:
        return sorted(got) == sorted(expected)  # type: ignore[arg-type]
    return got == expected


def check_browse(target: Target, records: list[tuple[str, object, object]]) -> list[str]:
    """Compare every recorded Queryll result with the hand-written SQL
    query on the same parameters; returns one message per mismatch."""
    connection = target.oracle.connection()
    problems = []
    try:
        for kind, parameter, got in records:
            expected = ORACLE[kind](connection, parameter)
            if not same_result(kind, got, expected):
                problems.append(f"{kind}({parameter!r}): {got!r} != {expected!r}")
    finally:
        connection.close()
    return problems


def item_stock(target: Target) -> dict[int, int]:
    """Per-item stock as the application sees it (through the coordinator)."""
    session = target.tpcw.remote.session()
    try:
        rows = session.execute("SELECT i_id, i_stock FROM item").rows
    finally:
        session.close()
    return {item: stock for item, stock in rows}


def shard_stock_sum(target: Target) -> int:
    """SUM(i_stock) added up over the shard engines themselves."""
    return sum(
        engine.execute("SELECT SUM(i_stock) FROM item").rows[0][0] or 0
        for engine in target.engines
    )


def check_ledger(
    start: dict[int, int],
    start_sum: int,
    final: dict[int, int],
    final_sum: int,
    transfers: list[tuple[tuple[int, int, int], bool]],
) -> list[str]:
    """Replay acknowledged transfers over the starting stock and compare
    with the final stock; the stock sum must be conserved exactly."""
    problems = []
    if final_sum != start_sum:
        problems.append(f"SUM(i_stock) over shards {final_sum} != starting {start_sum}")
    expected = dict(start)
    for (source, destination, quantity), committed in transfers:
        if committed:
            expected[source] -= quantity
            expected[destination] += quantity
    wrong = sorted(item for item in expected if final.get(item) != expected[item])
    if wrong or len(final) != len(expected):
        problems.append(
            f"{len(wrong)} items differ from the replayed ledger, e.g. "
            + ", ".join(f"{item}: {final.get(item)} != {expected[item]}" for item in wrong[:3])
        )
    return problems
