"""Asyncio TCP front end over the DB-API surface.

One :class:`DatabaseServer` owns (or borrows) a single
:class:`~repro.core.database.Database` and serves many client connections
over the length-prefixed JSON protocol of :mod:`repro.server.protocol`.
The event loop only shuffles frames; every engine call runs on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` so a slow query never
stalls the accept loop or other clients' fetches.

Concurrency model
-----------------
* Each client session wraps a non-owning DB-API connection
  (``database.connect(user)``) and every request executes inside
  :func:`repro.core.transactions.session_scope`, making the *session* — not
  whichever pooled worker thread picked the request up — the owner of locks
  and transactions.  A ``BEGIN`` handled by worker A is committed by
  whichever worker handles the ``COMMIT``.
* Read-only statements execute under the transaction manager's shared read
  lock and are **materialized before the lock is released**
  (snapshot-on-scan): the batches a client later fetches can never be torn
  by a concurrent commit.  Writers take the existing exclusive write side.
* Admission control is strict, never queueing unboundedly: connections
  beyond ``max_connections`` are refused at accept with a retryable error
  frame, and engine calls beyond ``max_inflight`` are refused with
  ``code="server_busy"`` before any work happens.  Lock waits are bounded
  by ``lock_timeout_seconds`` (surfaced as a retryable ``lock_timeout``),
  which keeps the bounded worker pool deadlock-free even when every worker
  is parked behind one long writer.

Results are materialized server-side per session and fetched in
client-sized batches; a result is freed when drained, explicitly closed,
or the session disconnects.  Disconnect cleanup rolls back the session's
open transaction, releasing its locks.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import (
    AuthorizationError,
    BdbmsError,
    Error,
    OperationalError,
    TransactionTimeoutError,
    map_error,
)
from repro.core.transactions import session_scope
from repro.executor.row import Row
from repro.server import protocol
from repro.storage.wal import InjectedCrash

#: Default number of rows shipped per fetch frame when the client does not
#: ask for a specific count.
DEFAULT_FETCH_ROWS = 256


def _chained_timeout(exc: BaseException) -> bool:
    """True when ``exc`` is, or wraps, a lock-acquisition timeout."""
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        if isinstance(current, TransactionTimeoutError):
            return True
        seen.add(id(current))
        current = current.__cause__ or current.__context__
    return False


@dataclass
class ServerConfig:
    """Knobs of the network front end (see docs/SERVER.md for guidance)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read ``server.port`` after start.
    port: int = 0
    #: Admission control: connections beyond this are refused at accept.
    max_connections: int = 64
    #: Admission control: engine calls in flight across all sessions beyond
    #: this are refused with a retryable ``server_busy`` error.
    max_inflight: int = 8
    #: Size of the worker pool running engine calls off the event loop.
    worker_threads: int = 4
    #: Upper bound on any single lock wait (read or write).  Expiry raises
    #: :class:`TransactionTimeoutError`, surfaced as retryable
    #: ``lock_timeout`` — the statement did no work and may be re-sent.
    lock_timeout_seconds: float = 10.0
    #: Optional shared secret; when set, ``hello`` must carry it as
    #: ``token`` or the connection is refused.
    auth_token: Optional[str] = None
    #: Per-frame size ceiling (both directions).
    max_message_bytes: int = protocol.MAX_MESSAGE_BYTES
    #: Materialized results a single session may hold open concurrently.
    max_open_results: int = 32

    def validate(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be at least 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be at least 1")
        if self.lock_timeout_seconds <= 0:
            raise ValueError("lock_timeout_seconds must be positive")


@dataclass
class ServerStats:
    """Counters mutated only on the event-loop thread."""

    connections_accepted: int = 0
    connections_rejected: int = 0
    queries_rejected: int = 0
    requests_served: int = 0
    active_connections: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "connections_accepted": self.connections_accepted,
            "connections_rejected": self.connections_rejected,
            "queries_rejected": self.queries_rejected,
            "requests_served": self.requests_served,
            "active_connections": self.active_connections,
        }


class _Result:
    """A materialized result a session fetches from in batches."""

    __slots__ = ("columns", "rows", "position")

    def __init__(self, columns: List[str], rows: List[Row]):
        self.columns = columns
        self.rows = rows
        self.position = 0


class _Session:
    """Per-connection state: identity, DB-API connection, open results."""

    def __init__(self, session_id: int, connection: Any):
        self.session_id = session_id
        self.connection = connection
        self.results: Dict[int, _Result] = {}
        self._result_ids = itertools.count(1)

    def next_result_id(self) -> int:
        return next(self._result_ids)


class DatabaseServer:
    """The asyncio TCP server (see module doc for the concurrency model)."""

    def __init__(self, database: Any = None, *, path: Optional[str] = None,
                 config: Optional[ServerConfig] = None,
                 **database_kwargs: Any):
        if database is not None and (path is not None or database_kwargs):
            raise ValueError("pass either a Database or a path, not both")
        if database is None:
            from repro.core.database import Database
            database = Database(path, **database_kwargs)
            self._owns_database = True
        else:
            self._owns_database = False
        self.database = database
        self.config = config or ServerConfig()
        self.config.validate()
        self.stats = ServerStats()
        self._transactions = database.engine.transactions
        self._sessions = itertools.count(1)
        self._inflight = 0
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Set when an :class:`InjectedCrash` fires mid-request: the process
        #: is considered dead — no response, no rollback, no flush-on-close —
        #: so tests observe exactly the state a real crash would leave.
        self.crashed = False
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.worker_threads,
            thread_name_prefix="repro-server")
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._owns_database and not self.crashed:
            self.database.close()

    # -- threaded harness (tests, quickstart, benchmarks) ---------------
    def start_in_thread(self) -> "DatabaseServer":
        """Run the server on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-server-loop", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _thread_main(self) -> None:
        asyncio.run(self._thread_body())

    async def _thread_body(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            await self.start()
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.stop()

    def shutdown(self) -> None:
        """Stop a :meth:`start_in_thread` server and join its loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=30)
        self._thread = None

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        if self.stats.active_connections >= self.config.max_connections:
            self.stats.connections_rejected += 1
            await self._send(writer, protocol.error_response(
                OperationalError(
                    f"server is at its connection limit "
                    f"({self.config.max_connections}); retry later"),
                code="server_busy", retryable=True))
            writer.close()
            return
        self.stats.active_connections += 1
        self.stats.connections_accepted += 1
        session: Optional[_Session] = None
        try:
            session = await self._handshake(reader, writer)
            if session is not None:
                await self._serve_session(session, reader, writer)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-frame; cleanup below
        except asyncio.CancelledError:
            pass  # loop teardown cancelled us; still clean up below
        except InjectedCrash:
            self.crashed = True  # simulated process death: drop everything
        except protocol.ProtocolError as exc:
            await self._send_quietly(writer, protocol.error_response(exc))
        finally:
            self.stats.active_connections -= 1
            if session is not None and not self.crashed:
                try:
                    await self._cleanup_session(session)
                except asyncio.CancelledError:
                    # Teardown cancelled the await mid-cleanup: finish
                    # inline so the session's rollback and lock release
                    # still happen, and end the task uncancelled (a
                    # cancelled handler task makes asyncio.streams log a
                    # spurious 'Exception in callback').
                    try:
                        self._cleanup_sync(session)
                    except Exception:
                        pass
            writer.close()

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> Optional[_Session]:
        request = await self._read_frame(reader)
        if request is None:
            return None
        if request.get("op") != "hello":
            await self._send(writer, protocol.error_response(
                protocol.ProtocolError("first frame must be 'hello'")))
            return None
        token = self.config.auth_token
        if token is not None and request.get("token") != token:
            await self._send(writer, protocol.error_response(
                map_error(AuthorizationError("authentication failed")),
                code="auth_failed"))
            return None
        user = request.get("user", "admin")
        connection = self.database.connect(user=user)
        session = _Session(next(self._sessions), connection)
        await self._send(writer, {
            "ok": True,
            "server": "repro-bdbms",
            "protocol": protocol.PROTOCOL_VERSION,
            "session": session.session_id,
        })
        return session

    async def _serve_session(self, session: _Session,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        while True:
            request = await self._read_frame(reader)
            if request is None:
                return
            op = request.get("op")
            if op == "close":
                await self._send(writer, {"ok": True})
                return
            response = await self._dispatch(session, request)
            self.stats.requests_served += 1
            await self._send(writer, response)

    async def _dispatch(self, session: _Session,
                        request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        # Fetch and bookkeeping ops never touch the engine: they slice
        # already-materialized rows, so they bypass admission control and
        # stay responsive while the worker pool is saturated.
        if op == "fetch":
            return self._op_fetch(session, request)
        if op == "close_result":
            session.results.pop(request.get("result_id"), None)
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": self.stats.as_dict()}
        if op not in ("execute", "executemany", "script", "commit",
                      "rollback"):
            return protocol.error_response(
                protocol.ProtocolError(f"unknown operation {op!r}"))
        if self._inflight >= self.config.max_inflight:
            self.stats.queries_rejected += 1
            return protocol.error_response(
                OperationalError(
                    f"server is at its in-flight query limit "
                    f"({self.config.max_inflight}); retry later"),
                code="server_busy", retryable=True)
        self._inflight += 1
        try:
            assert self._loop is not None and self._executor is not None
            return await self._loop.run_in_executor(
                self._executor, self._run_engine_op, session, request)
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Engine calls (worker threads)
    # ------------------------------------------------------------------
    def _run_engine_op(self, session: _Session,
                       request: Dict[str, Any]) -> Dict[str, Any]:
        scope_id = (id(self), session.session_id)
        try:
            with session_scope(scope_id,
                               lock_timeout=self.config.lock_timeout_seconds):
                return self._engine_op(session, request)
        except InjectedCrash:
            raise  # process death: propagate, never answer
        except (Error, BdbmsError) as exc:
            # The DB-API layer wraps engine errors (a lock timeout leaves
            # the cursor as OperationalError with the TransactionTimeoutError
            # chained as its cause), so walk the chain to spot timeouts and
            # surface them as the documented retryable rejection.
            if _chained_timeout(exc):
                return protocol.error_response(map_error(exc),
                                               code="lock_timeout",
                                               retryable=True)
            if isinstance(exc, Error):
                return protocol.error_response(exc)
            return protocol.error_response(map_error(exc))

    def _engine_op(self, session: _Session,
                   request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        connection = session.connection
        if op == "commit":
            connection.commit()
            return {"ok": True}
        if op == "rollback":
            connection.rollback()
            return {"ok": True}
        if op == "script":
            cursor = connection.executescript(request.get("sql", ""))
            return {"ok": True, "kind": "summary",
                    "rowcount": cursor.rowcount, "lastrowid": None}
        sql = request.get("sql", "")
        if op == "executemany":
            params = [protocol.decode_values(row)
                      for row in request.get("params", [])]
            cursor = connection.cursor()
            cursor.executemany(sql, params)
            return {"ok": True, "kind": "summary",
                    "rowcount": cursor.rowcount,
                    "lastrowid": cursor.lastrowid}
        params = protocol.decode_values(request.get("params", []))
        cursor = connection.cursor()
        if connection._prepare(sql).is_query:
            # Snapshot-on-scan: execute *and materialize* under the shared
            # read lock, so the rows this session later fetches were all
            # produced against one committed state.
            with self._transactions.read_access():
                cursor.execute(sql, params)
                rows = cursor.fetchall()
            return self._store_result(session, cursor, rows)
        cursor.execute(sql, params)
        if cursor.description is not None:  # EXPLAIN renders as rows
            return self._store_result(session, cursor, cursor.fetchall())
        return {"ok": True, "kind": "summary",
                "rowcount": cursor.rowcount, "lastrowid": cursor.lastrowid}

    def _store_result(self, session: _Session, cursor: Any,
                      rows: List[Row]) -> Dict[str, Any]:
        if len(session.results) >= self.config.max_open_results:
            return protocol.error_response(
                OperationalError(
                    f"session holds {len(session.results)} open results "
                    f"(limit {self.config.max_open_results}); fetch or "
                    f"close some first"),
                code="too_many_results")
        columns = [column[0] for column in cursor.description]
        result_id = session.next_result_id()
        session.results[result_id] = _Result(columns, rows)
        return {"ok": True, "kind": "rows", "result_id": result_id,
                "columns": columns, "rowcount": len(rows)}

    # ------------------------------------------------------------------
    # Fetch (event-loop thread: pure memory)
    # ------------------------------------------------------------------
    def _op_fetch(self, session: _Session,
                  request: Dict[str, Any]) -> Dict[str, Any]:
        result = session.results.get(request.get("result_id"))
        if result is None:
            return protocol.error_response(OperationalError(
                "no such result (already drained, closed, or never opened)"))
        count = request.get("count", DEFAULT_FETCH_ROWS)
        if not isinstance(count, int) or count <= 0:
            count = len(result.rows) - result.position
        batch = result.rows[result.position:result.position + count]
        result.position += len(batch)
        done = result.position >= len(result.rows)
        if done:  # auto-free: the common full-drain path needs no extra op
            session.results.pop(request.get("result_id"), None)
        return {
            "ok": True,
            "rows": [protocol.encode_row(
                row.values,
                row.annotations if row.has_annotations() else None)
                for row in batch],
            "done": done,
        }

    # ------------------------------------------------------------------
    # Cleanup and I/O helpers
    # ------------------------------------------------------------------
    async def _cleanup_session(self, session: _Session) -> None:
        session.results.clear()
        if self._executor is None:
            return
        assert self._loop is not None
        try:
            await self._loop.run_in_executor(
                self._executor, self._cleanup_sync, session)
        except Exception:
            pass  # a failed rollback must not take the server down

    def _cleanup_sync(self, session: _Session) -> None:
        scope_id = (id(self), session.session_id)
        with session_scope(scope_id,
                           lock_timeout=self.config.lock_timeout_seconds):
            # Non-owning close: rolls back this session's open transaction,
            # which releases its write lock.
            session.connection.close()

    async def _read_frame(self,
                          reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
        try:
            prefix = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        length = protocol.read_length(prefix, self.config.max_message_bytes)
        payload = await reader.readexactly(length)
        return protocol.decode_payload(payload)

    async def _send(self, writer: asyncio.StreamWriter,
                    message: Dict[str, Any]) -> None:
        writer.write(protocol.encode_frame(message))
        await writer.drain()

    async def _send_quietly(self, writer: asyncio.StreamWriter,
                            message: Dict[str, Any]) -> None:
        try:
            await self._send(writer, message)
        except (ConnectionError, RuntimeError):
            pass


def start_server(database: Any = None, *, path: Optional[str] = None,
                 config: Optional[ServerConfig] = None,
                 **database_kwargs: Any) -> DatabaseServer:
    """Start a server on a background thread; returns once it is listening.

    Convenience for tests, benchmarks, and the quickstart.  Stop it with
    ``server.shutdown()``.
    """
    server = DatabaseServer(database, path=path, config=config,
                            **database_kwargs)
    return server.start_in_thread()


__all__ = ["ServerConfig", "ServerStats", "DatabaseServer", "start_server",
           "DEFAULT_FETCH_ROWS"]
