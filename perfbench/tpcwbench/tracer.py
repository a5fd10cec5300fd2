"""Spans around the public entry points of every layer, for the traced run.

:func:`install` wraps methods and functions in place (class attributes and
module globals, resolved at call time by the program) and returns a
:class:`Recorder`; :meth:`Recorder.uninstall` restores the originals.
A span records its layer, name, start, end, parent span and thread; spans
stay in memory until the run ends.  Wrappers are inert while
``recorder.active`` is false, so the traced run can interleave traced and
untraced blocks and measure the tracing overhead.

Nothing under ``src/`` is modified: the wrapping happens at run time from
these files only.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
import weakref
from typing import Callable, Optional

import repro.pyfrontend.decorator as pyfrontend_decorator
from repro.dbapi.connection import Connection as EmbeddedConnection
from repro.dbapi.statement import PreparedStatement
from repro.netclient.client import RemoteSession, WireClient
from repro.netclient.connection import Connection as RemoteConnection
from repro.netclient.pool import ConnectionPool
from repro.orm.entity import Entity
from repro.orm.entity_manager import EntityManager, SqlBackedQuery
from repro.orm.queryset import QuerySet
from repro.pyfrontend.decorator import QueryFunction
from repro.server import protocol
from repro.sharding.coordinator import ShardedSession
from repro.sqlengine.engine import Database, Session

#: Name of the span around the rewritten query's own execution.
GENERATED_LOAD = "SqlBackedQuery.load[generated]"


class Span:
    __slots__ = ("id", "parent", "layer", "name", "thread", "start", "end", "rows")

    def __init__(self, span_id: int, parent: int, layer: str, name: str, thread: int, start: float) -> None:
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.thread = thread
        self.start = start
        self.end = start
        #: Rows returned (engine statements) or a tag (2PC commits).
        self.rows: object = None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.client_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: Pending queries produced by rewritten ``@query`` calls (and the
        #: QuerySet operations folded into them).
        self.generated_queries: "weakref.WeakSet[SqlBackedQuery]" = weakref.WeakSet()

    # -- span plumbing ---------------------------------------------------------

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> Span:
        stack = self.stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else 0,
            layer,
            name,
            threading.get_ident(),
            time.perf_counter(),
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack().pop()

    def wrap(self, layer: str, name: str, function: Callable) -> Callable:
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.active:
                return function(*args, **kwargs)
            span = recorder.open(layer, name)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.close(span)

        return traced

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def patch_method(self, owner: type, attribute: str, layer: str, name: Optional[str] = None) -> None:
        original = owner.__dict__[attribute]
        label = name or f"{owner.__name__}.{attribute}"
        self.patch(owner, attribute, self.wrap(layer, label, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def install(coordinator=None) -> Recorder:
    """Wrap every layer's public entry points; returns the (inactive)
    recorder.  ``coordinator``'s 2PC counter tags the commit spans that
    ran two-phase commit."""
    recorder = Recorder()
    wrap = recorder.wrap

    # -- pyfrontend/core: the decorator's call and the runtime entry points
    # it looks up in its own module namespace.
    recorder.patch_method(QueryFunction, "__call__", "pyfrontend", "QueryFunction.__call__")
    recorder.patch(
        pyfrontend_decorator,
        "execute_generated_query",
        wrap("pyfrontend", "execute_generated_query", pyfrontend_decorator.execute_generated_query),
    )
    original_lazy = pyfrontend_decorator.lazy_generated_query

    def lazy_generated_query(*args, **kwargs):
        if not recorder.active:
            return original_lazy(*args, **kwargs)
        span = recorder.open("pyfrontend", "lazy_generated_query")
        try:
            queryset = original_lazy(*args, **kwargs)
        finally:
            recorder.close(span)
        pending = queryset.pending_query
        if pending is not None:
            recorder.generated_queries.add(pending)
        return queryset

    recorder.patch(pyfrontend_decorator, "lazy_generated_query", lazy_generated_query)

    # -- orm: EntityManager, QuerySet and entity field access.
    for attribute in (
        "__init__", "all", "find", "execute_sql", "execute_sql_query",
        "materialise_entity", "persist", "remove", "commit", "rollback", "close",
    ):
        recorder.patch_method(EntityManager, attribute, "orm")
    for attribute in ("__iter__", "__len__", "to_list", "add", "add_all"):
        recorder.patch_method(QuerySet, attribute, "orm")
    for attribute in ("sorted_by", "first_n"):
        _patch_folding(recorder, attribute)
    original_load = SqlBackedQuery.__dict__["load"]

    def load(self):
        if not recorder.active:
            return original_load(self)
        name = GENERATED_LOAD if self in recorder.generated_queries else "SqlBackedQuery.load"
        span = recorder.open("orm", name)
        try:
            return original_load(self)
        finally:
            recorder.close(span)

    recorder.patch(SqlBackedQuery, "load", load)
    recorder.patch_method(Entity, "__getattr__", "orm", "Entity.__getattr__")

    # -- dbapi: statements and transaction control (embedded and remote).
    for attribute in ("execute_query", "execute_update"):
        recorder.patch_method(PreparedStatement, attribute, "dbapi")
    for owner in (EmbeddedConnection, RemoteConnection):
        for attribute in ("__init__", "prepare_statement", "commit", "rollback", "close"):
            if attribute in owner.__dict__:
                recorder.patch_method(owner, attribute, "dbapi", f"dbapi.{owner.__module__.split('.')[1]}.{attribute}")

    # -- netclient: the wire client's requests, sessions and pool checkout.
    # Inside a request, "server.wait" runs from the end of framing to the
    # end of reading the response: the socket send, everything the server
    # does, and the hand-offs between the threads.
    original_request = WireClient.__dict__["request"]

    def request(self, payload):
        if not recorder.active:
            return original_request(self, payload)
        stack = recorder.stack()
        depth = len(stack)
        span = recorder.open("netclient", "WireClient.request")
        try:
            return original_request(self, payload)
        finally:
            while len(stack) > depth + 1:  # a failed send left the wait open
                recorder.close(stack[-1])
            recorder.close(span)

    recorder.patch(WireClient, "request", request)
    for attribute in ("execute", "execute_prepared", "prepare", "commit", "rollback", "close"):
        recorder.patch_method(RemoteSession, attribute, "netclient")
    for attribute in ("acquire", "release"):
        recorder.patch_method(ConnectionPool, attribute, "netclient")
    original_frame = protocol.frame
    original_read_frame = protocol.read_frame

    def in_request() -> bool:
        stack = recorder.stack()
        return bool(stack) and stack[-1].name == "WireClient.request"

    def frame(payload):
        framed = original_frame(payload)
        if recorder.active and in_request():
            recorder.open("server", "server.wait")
        return framed

    def read_frame(rfile):
        # Server handlers also read frames here while idle; only a wait
        # opened by a client request is recorded.
        if not recorder.active:
            return original_read_frame(rfile)
        stack = recorder.stack()
        if not stack or stack[-1].name != "server.wait":
            return original_read_frame(rfile)
        try:
            return original_read_frame(rfile)
        finally:
            recorder.close(stack[-1])

    recorder.patch(protocol, "frame", frame)
    recorder.patch(protocol, "read_frame", read_frame)

    # -- sharding: the coordinator's sessions (their shard-pool calls are
    # WireClient requests, i.e. netclient/server/sqlengine spans).
    for attribute in ("execute", "rollback", "close"):
        recorder.patch_method(ShardedSession, attribute, "sharding")
    original_commit = ShardedSession.__dict__["commit"]

    def sharded_commit(self):
        if not recorder.active:
            return original_commit(self)
        before = coordinator.transactions_2pc if coordinator is not None else 0
        span = recorder.open("sharding", "ShardedSession.commit")
        try:
            return original_commit(self)
        finally:
            recorder.close(span)
            if coordinator is not None and coordinator.transactions_2pc != before:
                span.rows = "2pc"

    recorder.patch(ShardedSession, "commit", sharded_commit)

    # -- sqlengine: statements and commits, on whichever thread runs them.
    original_execute = Session.__dict__["execute"]

    def execute(self, sql, params=(), **kwargs):
        if not recorder.active:
            return original_execute(self, sql, params, **kwargs)
        span = recorder.open("sqlengine", "Session.execute")
        try:
            result = original_execute(self, sql, params, **kwargs)
            span.rows = len(result.rows)
            return result
        finally:
            recorder.close(span)

    recorder.patch(Session, "execute", execute)
    for attribute in ("commit", "rollback", "prepare_transaction"):
        recorder.patch_method(Session, attribute, "sqlengine")
    for attribute in ("commit_prepared", "rollback_prepared"):
        recorder.patch_method(Database, attribute, "sqlengine")

    # -- durability: every fsync (WAL group commit, 2PC journal).
    recorder.patch(os, "fsync", wrap("durability", "os.fsync", os.fsync))
    return recorder


def _patch_folding(recorder: Recorder, attribute: str) -> None:
    """Wrap a QuerySet operation that may fold into a pending query: the
    folded query inherits the "generated" mark of its source."""
    original = QuerySet.__dict__[attribute]

    def folding(self, *args, **kwargs):
        if not recorder.active:
            return original(self, *args, **kwargs)
        span = recorder.open("orm", f"QuerySet.{attribute}")
        try:
            result = original(self, *args, **kwargs)
        finally:
            recorder.close(span)
        source = self.pending_query
        target = result.pending_query
        if source is not None and target is not None and source in recorder.generated_queries:
            recorder.generated_queries.add(target)
        return result

    recorder.patch(QuerySet, attribute, folding)
