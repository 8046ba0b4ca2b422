"""Network DB-API client: ``repro.client.connect`` speaks the wire protocol.

:class:`NetworkConnection` *is a* :class:`repro.Connection` whose transport
is a TCP connection to a :class:`repro.server.DatabaseServer`, and its
cursors are plain :class:`repro.Cursor` objects: same methods, same qmark
parameters (shape and types checked before anything is sent), same PEP 249
exception hierarchy, and the same :class:`~repro.executor.row.Row` result
objects — annotations included, reconstructed from their wire form so
``row.annotations`` works identically on both sides.

Differences from in-process connections, by design:

* Results are materialized server-side under the shared read lock
  (snapshot-on-scan) and fetched here in batches, so a streaming client
  still observes one committed state per statement.
* Server rejections carry ``exc.code`` (``"server_busy"``, ``"lock_timeout"``,
  ...) and ``exc.retryable``; a retryable error did no work server-side and
  the statement may simply be re-sent.
* ``connection.database`` does not exist — the database lives in the server
  process.

>>> from repro.server import start_server
>>> import repro.client
>>> server = start_server()
>>> with repro.client.connect(port=server.port) as conn:
...     _ = conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x TEXT)")
...     _ = conn.execute("INSERT INTO t VALUES (?, ?)", (1, "hi"))
...     conn.execute("SELECT x FROM t").fetchone().values
('hi',)
>>> server.shutdown()
"""

from __future__ import annotations

import socket
import threading
import weakref
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core import errors as _errors
from repro.core.errors import Error, OperationalError
# PEP 249 module-level attributes: the same as the ``repro`` package's.
from repro.dbapi import apilevel, paramstyle, threadsafety
from repro.dbapi.connection import Connection, Cursor
from repro.executor.row import Row
from repro.server import protocol

#: Rows requested per fetch frame when the consumer reads one at a time.
PREFETCH_ROWS = 128


def connect(host: str = "127.0.0.1", port: int = 7474, *,
            user: str = "admin", token: Optional[str] = None,
            timeout: Optional[float] = 30.0) -> "NetworkConnection":
    """Open a connection to a repro server and perform the handshake.

    ``timeout`` bounds every socket operation (connect, send, receive); a
    server that stops responding surfaces as :class:`OperationalError`
    rather than a hang.
    """
    return NetworkConnection(host, port, user=user, token=token,
                             timeout=timeout)


def _raise_response_error(error: Dict[str, Any]) -> None:
    """Re-raise a server error object as its PEP 249 class, annotated with
    the server's ``code`` and ``retryable`` flag."""
    cls = getattr(_errors, error.get("type", ""), None)
    if not (isinstance(cls, type) and issubclass(cls, Error)):
        cls = OperationalError
    exc = cls(error.get("message", "server error"))
    exc.code = error.get("code")
    exc.retryable = bool(error.get("retryable", False))
    raise exc


class _RemoteRows:
    """The row source of a server-side result, pulled in ``fetch`` frames.

    ``next()`` pulls ``max(arraysize, PREFETCH_ROWS)`` rows at a time,
    ``fetchmany(n)`` pulls what is missing, and ``iter()`` drains the rest
    in one frame.  The server frees a result once it is drained;
    :meth:`close` frees an unfinished one.
    """

    def __init__(self, connection: "NetworkConnection", cursor: Cursor,
                 response: Dict[str, Any]):
        self._connection = connection
        self._cursor = cursor
        self._result_id = response["result_id"]
        self.columns: List[str] = response["columns"]
        self._buffer: Deque[Row] = deque()
        #: True while the server still holds (undelivered rows of) the result.
        self._open = True

    def _pull(self, count: int) -> None:
        """Append up to ``count`` more rows to the buffer (0 = all)."""
        response = self._connection.request(
            {"op": "fetch", "result_id": self._result_id, "count": count})
        for encoded in response.get("rows", []):
            self._buffer.append(Row(*protocol.decode_row(encoded)))
        if response.get("done"):
            self._open = False  # the server auto-freed it

    def __next__(self) -> Row:
        if not self._buffer and self._open:
            self._pull(max(self._cursor.arraysize, PREFETCH_ROWS))
        if not self._buffer:
            raise StopIteration
        return self._buffer.popleft()

    def __iter__(self):
        while self._open:
            self._pull(0)
        rows, self._buffer = self._buffer, deque()
        return iter(rows)

    def fetchmany(self, size: int) -> List[Row]:
        while len(self._buffer) < size and self._open:
            self._pull(size - len(self._buffer))
        return [self._buffer.popleft()
                for _ in range(min(size, len(self._buffer)))]

    def close(self) -> None:
        self._buffer.clear()
        if self._open and not self._connection.closed:
            self._open = False
            try:
                self._connection.request({"op": "close_result",
                                          "result_id": self._result_id})
            except Error:
                pass


class NetworkConnection(Connection):
    """A :class:`repro.Connection` over the wire protocol.

    Beyond the handshake and the frame I/O, it only overrides the transport
    hooks; the cursor and every PEP 249 method are the in-process ones.
    """

    def __init__(self, host: str, port: int, *, user: str = "admin",
                 token: Optional[str] = None,
                 timeout: Optional[float] = 30.0):
        self.user = user
        self._closed = False
        self._cursors: "weakref.WeakSet[Cursor]" = weakref.WeakSet()
        #: One request/response exchange at a time per connection.
        self._io_lock = threading.RLock()
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout)
        except OSError as exc:
            raise OperationalError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        self._sock.settimeout(timeout)
        try:
            hello: Dict[str, Any] = {"op": "hello", "user": user}
            if token is not None:
                hello["token"] = token
            reply = self.request(hello)
            self.session_id = reply.get("session")
            self.protocol_version = reply.get("protocol")
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    # ------------------------------------------------------------------
    # Wire I/O
    # ------------------------------------------------------------------
    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and return its (ok) response; raises on error
        responses and on transport failures."""
        with self._io_lock:
            self._check_open()
            try:
                self._sock.sendall(protocol.encode_frame(message))
                response = self._read_frame()
            except socket.timeout as exc:
                raise OperationalError("server did not respond in time") \
                    from exc
            except OSError as exc:
                self._closed = True
                raise OperationalError(f"connection lost: {exc}") from exc
        if response is None:
            self._closed = True
            raise OperationalError("server closed the connection")
        if not response.get("ok"):
            _raise_response_error(response.get("error") or {})
        return response

    def _read_frame(self) -> Optional[Dict[str, Any]]:
        prefix = self._recv_exact(4)
        if prefix is None:
            return None
        length = protocol.read_length(prefix)
        payload = self._recv_exact(length)
        if payload is None:
            return None
        return protocol.decode_payload(payload)

    def _recv_exact(self, count: int) -> Optional[bytes]:
        chunks: List[bytes] = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # ------------------------------------------------------------------
    # Transport hooks
    # ------------------------------------------------------------------
    def _execute(self, cursor: Cursor, sql: str, params: Tuple[Any, ...]
                 ) -> Tuple[Optional[_RemoteRows], int, Optional[int]]:
        response = self.request({"op": "execute", "sql": sql,
                                 "params": protocol.encode_values(params)})
        if response.get("kind") == "rows":
            # Queries report -1, as in process: one behaviour.
            return _RemoteRows(self, cursor, response), -1, None
        return None, response.get("rowcount", -1), response.get("lastrowid")

    def _executemany(self, sql: str, seq_of_params: List[Tuple[Any, ...]]
                     ) -> Tuple[int, Optional[int]]:
        response = self.request(
            {"op": "executemany", "sql": sql,
             "params": [protocol.encode_values(params)
                        for params in seq_of_params]})
        return response.get("rowcount", -1), response.get("lastrowid")

    def _executescript(self, script: str) -> int:
        return self.request({"op": "script", "sql": script}).get(
            "rowcount", -1)

    def _commit(self) -> None:
        self.request({"op": "commit"})

    def _rollback(self) -> None:
        self.request({"op": "rollback"})

    def _close(self) -> None:
        """Tell the server goodbye and drop the socket.  The server rolls
        back any open transaction on disconnect either way."""
        try:
            with self._io_lock:
                self._sock.sendall(protocol.encode_frame({"op": "close"}))
                self._read_frame()
        except OSError:
            pass
        finally:
            self._sock.close()


__all__ = ["connect", "NetworkConnection", "apilevel", "threadsafety",
           "paramstyle"]
