"""Wire protocol and server front-end behavior: framing, value encoding,
handshake/auth, result fetching, admission knobs, and error surfaces.

Uses real sockets against a threaded in-process server (the same harness
the quickstart and benchmarks use); pure encode/decode helpers are tested
directly.
"""

from __future__ import annotations

from datetime import datetime

import pytest

import repro.client
from repro.annotations.model import Annotation
from repro.core.errors import (
    IntegrityError,
    OperationalError,
    ProgrammingError,
)
from repro.server import DatabaseServer, ServerConfig, protocol, start_server


@pytest.fixture
def server():
    handle = start_server()
    yield handle
    handle.shutdown()


@pytest.fixture
def conn(server):
    connection = repro.client.connect(port=server.port)
    yield connection
    connection.close()


# ---------------------------------------------------------------------------
# Framing and value encoding (no sockets)
# ---------------------------------------------------------------------------
class TestFraming:
    def test_frame_roundtrip(self):
        message = {"op": "execute", "sql": "SELECT 1", "params": []}
        frame = protocol.encode_frame(message)
        length = protocol.read_length(frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_payload(frame[4:]) == message

    def test_oversized_length_is_rejected(self):
        frame = protocol.encode_frame({"op": "x"})
        with pytest.raises(protocol.ProtocolError):
            protocol.read_length(frame[:4], limit=1)

    def test_truncated_prefix_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.read_length(b"\x00\x00")

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload(b"[1, 2, 3]")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_value_tags_roundtrip(self):
        stamp = datetime(2024, 5, 17, 12, 30, 45, 123456)
        values = (None, True, 42, 3.5, "text", stamp, b"\x00\xffbin")
        assert protocol.decode_values(
            protocol.encode_values(values)) == values

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_value({"$nope": 1})

    def test_annotation_roundtrip(self):
        annotation = Annotation(
            ann_id=7, annotation_table="lab.notes", body="<b>checked</b>",
            curator="alice", created_at=datetime(2023, 1, 2, 3, 4, 5),
            archived=True, category="provenance")
        decoded = protocol.decode_annotation(
            protocol.encode_annotation(annotation))
        assert decoded == annotation
        assert decoded.body == annotation.body
        assert decoded.curator == "alice"
        assert decoded.archived is True
        assert decoded.category == "provenance"

    def test_row_roundtrip_with_annotations(self):
        annotation = Annotation(1, "t.n", "note",
                                created_at=datetime(2023, 1, 1))
        values, annotations = protocol.decode_row(
            protocol.encode_row((1, "x"), [{annotation}, set()]))
        assert values == (1, "x")
        assert annotations == [{annotation}, set()]

    def test_row_without_annotations_has_no_vector(self):
        encoded = protocol.encode_row((1, 2), None)
        assert "a" not in encoded
        assert protocol.decode_row(encoded) == ((1, 2), None)


# ---------------------------------------------------------------------------
# Handshake and authentication
# ---------------------------------------------------------------------------
class TestHandshake:
    def test_hello_reports_protocol_and_session(self, conn):
        assert conn.protocol_version == protocol.PROTOCOL_VERSION
        assert isinstance(conn.session_id, int)

    def test_wrong_token_is_rejected(self):
        server = start_server(config=ServerConfig(auth_token="sesame"))
        try:
            with pytest.raises(OperationalError) as excinfo:
                repro.client.connect(port=server.port, token="wrong")
            assert excinfo.value.code == "auth_failed"
            assert excinfo.value.retryable is False
            with pytest.raises(OperationalError):
                repro.client.connect(port=server.port)  # missing token
            good = repro.client.connect(port=server.port, token="sesame")
            assert good.execute("SELECT 1").fetchone()[0] == 1
            good.close()
        finally:
            server.shutdown()

    def test_non_hello_first_frame_is_rejected(self, server):
        import socket
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        try:
            sock.sendall(protocol.encode_frame({"op": "execute",
                                                "sql": "SELECT 1"}))
            prefix = sock.recv(4)
            length = protocol.read_length(prefix)
            response = protocol.decode_payload(sock.recv(length))
            assert response["ok"] is False
            assert "hello" in response["error"]["message"]
        finally:
            sock.close()

    def test_unknown_op_is_an_error_response(self, conn):
        with pytest.raises(OperationalError) as excinfo:
            conn.request({"op": "teleport"})
        assert "teleport" in str(excinfo.value)

    def test_users_are_enforced_by_the_engine(self, server):
        admin = repro.client.connect(port=server.port, user="admin")
        admin.execute("CREATE TABLE secrets (id INTEGER PRIMARY KEY)")
        guest = repro.client.connect(port=server.port, user="guest")
        with pytest.raises(OperationalError):
            guest.execute("DROP TABLE secrets")
        admin.close()
        guest.close()


# ---------------------------------------------------------------------------
# Results and fetching
# ---------------------------------------------------------------------------
class TestFetch:
    @pytest.fixture
    def seeded(self, conn):
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        conn.cursor().executemany("INSERT INTO t VALUES (?, ?)",
                                  [(i, f"v{i}") for i in range(500)])
        return conn

    def test_fetch_in_batches_preserves_order(self, seeded):
        cur = seeded.execute("SELECT id FROM t ORDER BY id")
        cur.arraysize = 7
        seen = []
        while True:
            batch = cur.fetchmany()
            if not batch:
                break
            seen.extend(row[0] for row in batch)
        assert seen == list(range(500))

    def test_fetchall_after_partial_fetch(self, seeded):
        cur = seeded.execute("SELECT id FROM t ORDER BY id")
        first = cur.fetchmany(10)
        rest = cur.fetchall()
        assert [r[0] for r in first] == list(range(10))
        assert [r[0] for r in rest] == list(range(10, 500))

    def test_result_is_freed_after_drain(self, seeded, server):
        cur = seeded.execute("SELECT id FROM t")
        cur.fetchall()
        # The server auto-freed the result; a raw fetch against the old id
        # must fail rather than replay rows.
        with pytest.raises(OperationalError):
            seeded.request({"op": "fetch", "result_id": 1, "count": 10})

    def test_interleaved_cursors_keep_separate_results(self, seeded):
        cur_a = seeded.execute("SELECT id FROM t WHERE id < 10 ORDER BY id")
        cur_b = seeded.execute("SELECT id FROM t WHERE id >= 490 ORDER BY id")
        assert cur_a.fetchone()[0] == 0
        assert cur_b.fetchone()[0] == 490
        assert [r[0] for r in cur_a.fetchall()] == list(range(1, 10))
        assert [r[0] for r in cur_b.fetchall()] == list(range(491, 500))

    def test_max_open_results_is_enforced(self, server):
        config_server = start_server(
            config=ServerConfig(max_open_results=2))
        try:
            conn = repro.client.connect(port=config_server.port)
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            conn.execute("INSERT INTO t VALUES (1), (2), (3)")
            held = [conn.cursor().execute("SELECT id FROM t")
                    for _ in range(2)]
            with pytest.raises(OperationalError) as excinfo:
                conn.cursor().execute("SELECT id FROM t")
            assert excinfo.value.code == "too_many_results"
            held[0].fetchall()  # drains and frees one slot
            conn.cursor().execute("SELECT id FROM t").fetchall()
            conn.close()
        finally:
            config_server.shutdown()

    @pytest.mark.parametrize("release", ["close", "re-execute"])
    def test_unfinished_result_is_released(self, release):
        config_server = start_server(
            config=ServerConfig(max_open_results=1))
        try:
            conn = repro.client.connect(port=config_server.port)
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            conn.cursor().executemany("INSERT INTO t VALUES (?, ?)",
                                      [(i, f"v{i}") for i in range(500)])
            cur = conn.execute("SELECT id FROM t ORDER BY id")
            assert cur.fetchone()[0] == 0  # the rest stays on the server
            if release == "close":
                cur.close()
                cur = conn.cursor()
            # The only result slot is free again: close_result was sent.
            cur.execute("SELECT id FROM t ORDER BY id")
            assert [row[0] for row in cur.fetchall()] == list(range(500))
            conn.close()
        finally:
            config_server.shutdown()

    def test_timestamps_cross_the_wire(self, conn):
        conn.execute("CREATE TABLE ev (id INTEGER PRIMARY KEY, at TIMESTAMP)")
        stamp = datetime(2024, 2, 29, 23, 59, 59)
        conn.execute("INSERT INTO ev VALUES (?, ?)", (1, stamp))
        row = conn.execute("SELECT at FROM ev WHERE id = 1").fetchone()
        assert row[0] == stamp

    def test_stats_op_reports_counters(self, conn, server):
        conn.execute("SELECT 1").fetchall()
        response = conn.request({"op": "stats"})
        stats = response["stats"]
        assert stats["connections_accepted"] >= 1
        assert stats["requests_served"] >= 1
        assert stats["active_connections"] >= 1


# ---------------------------------------------------------------------------
# Error surfaces
# ---------------------------------------------------------------------------
class TestErrors:
    def test_pep249_classes_survive_the_wire(self, conn):
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        conn.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(IntegrityError):
            conn.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ProgrammingError):
            conn.execute("SELEKT 1")
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT nope FROM t")

    def test_errors_do_not_poison_the_session(self, conn):
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        with pytest.raises(ProgrammingError):
            conn.execute("SELECT nope FROM t")
        conn.execute("INSERT INTO t VALUES (1)")
        assert conn.execute("SELECT id FROM t").fetchone()[0] == 1

    def test_transaction_error_in_explicit_txn(self, conn):
        conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        cur = conn.cursor()
        cur.execute("BEGIN")
        with pytest.raises(OperationalError):
            cur.execute("DROP TABLE t")  # not undoable inside a txn
        conn.rollback()


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_server_over_borrowed_database(self):
        db = repro.Database()
        db.connect().execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        server = DatabaseServer(db).start_in_thread()
        try:
            conn = repro.client.connect(port=server.port)
            conn.execute("INSERT INTO t VALUES (7)")
            conn.close()
        finally:
            server.shutdown()
        # Borrowed database stays open and reflects the server-side write.
        rows = db.connect().execute("SELECT id FROM t").fetchall()
        assert [r[0] for r in rows] == [7]

    def test_file_backed_server_persists(self, tmp_path):
        path = str(tmp_path / "served.db")
        server = start_server(path=path)
        try:
            conn = repro.client.connect(port=server.port)
            conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            conn.execute("INSERT INTO t VALUES (1)")
            conn.close()
        finally:
            server.shutdown()
        db = repro.Database(path)
        assert [r[0] for r in
                db.connect().execute("SELECT id FROM t").fetchall()] == [1]
        db.close()

    def test_connection_close_is_idempotent(self, server):
        conn = repro.client.connect(port=server.port)
        conn.close()
        conn.close()
        with pytest.raises(repro.client.NetworkConnection.InterfaceError):
            conn.cursor()
