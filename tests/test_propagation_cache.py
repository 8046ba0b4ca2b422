"""The annotation propagation cache: reuse across statements, invalidation.

``AnnotationTable.probe_index`` keeps each annotation table's linkage index
and annotation bodies alive across statements, stamped with the
``data_version`` of the bodies and linkage tables.  These tests pin the two
halves of that contract:

* **invalidation** — after every kind of write (ADD at each granularity,
  ARCHIVE / RESTORE with a time range, DROP + re-CREATE under the same name,
  ROLLBACK, reopen, the annotated-DELETE log table, ``auto_provenance``
  inserts) a database whose cache is warm answers annotated queries exactly
  like a fresh instance opened from a copy of its write-ahead log, under
  both linkage schemes;
* **reuse** — repeated annotated SELECTs build the index once, and one write
  causes exactly one rebuild.

A served test runs concurrent annotated reads against ADD ANNOTATION commits
and requires every read to see a whole committed state.
"""

from __future__ import annotations

import shutil
import sys
import threading
import time

import pytest

import repro.client
from repro import Database, EngineConfig
from repro.annotations import annotation_text
from repro.annotations.storage import CompactRegionStore, NaiveCellStore
from repro.core.errors import Error
from repro.server import start_server
from repro.storage.wal import wal_path_for

SCHEMES = ["naive", "compact"]

GENE_QUERIES = [
    ("SELECT * FROM Gene ANNOTATION(A) ORDER BY GID", ()),
    ("SELECT * FROM Gene ANNOTATION(A, B) ORDER BY GID", ()),
    ("SELECT GID, GName FROM Gene ANNOTATION(B) WHERE GID = ?", ("g3",)),
    ("SELECT GID PROMOTE (GSequence) FROM Gene ANNOTATION(A) ORDER BY GID", ()),
]


def row_state(rows):
    """Values plus the annotation bodies on every cell, per row."""
    return [(tuple(row), tuple(frozenset(a.body for a in cell)
                               for cell in (row.annotations or ())))
            for row in rows]


def probe_state(db, user_table, **options):
    """Every tuple's annotation vector straight from the manager's probe."""
    table = db.catalog.table(user_table)
    index = db.annotations.propagation_index(user_table, **options)
    arity = len(table.schema)
    return [(tuple_id, tuple(frozenset(a.body for a in cell)
                             for cell in index.vector(tuple_id, arity)))
            for tuple_id in table.tuple_ids]


def annotated_state(db, queries, probes):
    cursor = db.connect().cursor()
    state = []
    for sql, params in queries:
        cursor.execute(sql, params)
        state.append(row_state(cursor.fetchall()))
    for user_table, options in probes:
        state.append(probe_state(db, user_table, **options))
    return state


class Harness:
    """A file-backed database plus fresh reopenings of copies of its WAL."""

    def __init__(self, tmp_path, scheme, **config):
        self.tmp_path = tmp_path
        self.config = EngineConfig(default_annotation_scheme=scheme, **config)
        self.path = str(tmp_path / "live.db")
        self.db = Database(self.path, config=self.config)
        self.conn = self.db.connect()
        self.copies = 0

    def execute(self, sql, params=()):
        return self.conn.execute(sql, params)

    def reopen(self):
        self.db.close()
        self.db = Database(self.path, config=self.config)
        self.conn = self.db.connect()

    def check(self, queries=GENE_QUERIES, probes=()):
        """Warm-cache answers equal a fresh instance's; returns them."""
        live = annotated_state(self.db, queries, probes)
        self.copies += 1
        path = str(self.tmp_path / f"fresh{self.copies}.db")
        shutil.copyfile(wal_path_for(self.path), wal_path_for(path))
        fresh = Database(path, config=self.config)
        try:
            assert annotated_state(fresh, queries, probes) == live
        finally:
            fresh.close()
        # Asked again, the now-warm cache still gives the same answers.
        assert annotated_state(self.db, queries, probes) == live
        return live

    def close(self):
        self.db.close()


@pytest.fixture(params=SCHEMES)
def harness(request, tmp_path):
    h = Harness(tmp_path, request.param)
    h.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, "
              "GSequence SEQUENCE)")
    h.execute("CREATE ANNOTATION TABLE A ON Gene")
    h.execute("CREATE ANNOTATION TABLE B ON Gene")
    h.conn.cursor().executemany(
        "INSERT INTO Gene VALUES (?, ?, ?)",
        [(f"g{i}", f"name{i % 3}", "ATG" * (i + 1)) for i in range(8)])
    yield h
    h.close()


def add(h, table, body, target):
    h.execute(f"ADD ANNOTATION TO Gene.{table} VALUE '{body}' ON ({target})")


class TestInvalidation:
    def test_add_at_every_granularity(self, harness):
        harness.check()
        add(harness, "A", "cell", "SELECT G.GSequence FROM Gene G WHERE GID = 'g3'")
        harness.check()
        add(harness, "A", "column", "SELECT G.GName FROM Gene G")
        harness.check()
        add(harness, "B", "tuple", "SELECT G.* FROM Gene G WHERE GID = 'g5'")
        harness.check()
        add(harness, "B", "table", "SELECT G.* FROM Gene G")
        both_tables = harness.check()[1]
        assert sum(len(cell) for _, cells in both_tables for cell in cells) \
            == 1 + 8 + 3 + 8 * 3

    def test_archive_and_restore_with_time_range(self, harness):
        add(harness, "A", "old claim", "SELECT G.* FROM Gene G WHERE GID < 'g4'")
        add(harness, "A", "scattered", "SELECT G.GName FROM Gene G "
                                        "WHERE GID IN ('g1', 'g4', 'g6')")
        probes = [("Gene", {"include_archived": True}), ("Gene", {})]
        before = harness.check(probes=probes)
        harness.execute("ARCHIVE ANNOTATION FROM Gene.A "
                        "BETWEEN '2000-01-01' AND '2100-01-01' "
                        "ON (SELECT G.GName FROM Gene G WHERE GID = 'g1')")
        archived = harness.check(probes=probes)
        assert archived[0] != before[0]
        assert archived[4] == before[4]  # include_archived sees both
        harness.execute("RESTORE ANNOTATION FROM Gene.A "
                        "BETWEEN '2000-01-01' AND '2100-01-01' "
                        "ON (SELECT G.* FROM Gene G)")
        assert harness.check(probes=probes) == before

    def test_categories_restricted_propagation(self, harness):
        probes = [("Gene", {"categories": {"provenance"}}),
                  ("Gene", {"categories": {"comment"}})]
        add(harness, "A", "comment", "SELECT G.GName FROM Gene G")
        harness.check(probes=probes)
        harness.db.provenance.record(
            "Gene", harness.db.annotations.cells_for("Gene", tuple_ids=[2]),
            source="S1", operation="copy")
        state = harness.check(probes=probes)
        provenance = state[len(GENE_QUERIES)]
        assert [tid for tid, cells in provenance if any(cells)] == [2]
        assert harness.db.provenance.history("Gene", 2, "GID")[0].source == "S1"

    def test_drop_and_recreate_under_the_same_name(self, harness):
        add(harness, "A", "first life", "SELECT G.* FROM Gene G")
        harness.check()
        harness.execute("DROP ANNOTATION TABLE A ON Gene")
        harness.execute("CREATE ANNOTATION TABLE A ON Gene")
        add(harness, "A", "second life", "SELECT G.GID FROM Gene G WHERE GID = 'g0'")
        state = harness.check()
        bodies = {body for _, cells in state[0] for cell in cells for body in cell}
        assert len(bodies) == 1 and "second life" in bodies.pop()

    def test_rollback_of_add_inside_begin(self, harness):
        add(harness, "A", "kept", "SELECT G.GName FROM Gene G")
        before = harness.check()
        harness.execute("BEGIN")
        add(harness, "A", "doomed", "SELECT G.* FROM Gene G")
        inside = annotated_state(harness.db, GENE_QUERIES, ())
        assert inside != before
        harness.conn.rollback()
        assert harness.check() == before

    def test_reopen_after_wal_replay(self, harness):
        add(harness, "B", "before restart", "SELECT G.GSequence FROM Gene G")
        before = harness.check()
        harness.reopen()
        assert harness.check() == before
        add(harness, "B", "after restart", "SELECT G.GID FROM Gene G WHERE GID > 'g5'")
        assert harness.check() != before

    def test_annotated_delete_log_table(self, harness):
        log_queries = [("SELECT * FROM Gene__deleted ANNOTATION(A) ORDER BY GID", ())]
        harness.execute("ADD ANNOTATION TO Gene.A VALUE 'withdrawn' "
                        "ON (DELETE FROM Gene WHERE GID = 'g1')")
        harness.check(GENE_QUERIES + log_queries)
        harness.execute("ADD ANNOTATION TO Gene.A VALUE 'contaminated' "
                        "ON (DELETE FROM Gene WHERE GID = 'g2')")
        logged = harness.check(GENE_QUERIES + log_queries)[-1]
        assert len(logged) == 2
        assert all(cell for _, cells in logged for cell in cells)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_auto_provenance_inserts(tmp_path, scheme):
    h = Harness(tmp_path, scheme, auto_provenance=True)
    try:
        h.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT)")
        h.execute("INSERT INTO Gene VALUES ('g0', 'a'), ('g1', 'b')")
        queries = [("SELECT * FROM Gene ANNOTATION(provenance) ORDER BY GID", ())]
        h.check(queries)
        h.execute("INSERT INTO Gene VALUES ('g2', 'c')")
        state = h.check(queries)
        assert all(cell for _, cells in state[0] for cell in cells)
        assert [len(h.db.provenance.history("Gene", tid, "GName"))
                for tid in range(3)] == [1, 1, 1]
    finally:
        h.close()


# ---------------------------------------------------------------------------
# Reuse
# ---------------------------------------------------------------------------
@pytest.fixture
def index_builds(monkeypatch):
    """Names of the linkage tables whose index got built, one per build."""
    builds = []
    for store in (NaiveCellStore, CompactRegionStore):
        def counted(self, _original=store.load_index):
            builds.append(self.backing.name)
            return _original(self)
        monkeypatch.setattr(store, "load_index", counted)
    return builds


@pytest.mark.parametrize("scheme", SCHEMES)
def test_index_is_built_once_per_data_version(index_builds, scheme):
    db = Database(config=EngineConfig(default_annotation_scheme=scheme))
    cursor = db.connect().cursor()
    cursor.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    cursor.execute("CREATE ANNOTATION TABLE note ON t")
    cursor.executemany("INSERT INTO t VALUES (?, ?)", [(i, str(i)) for i in range(30)])
    cursor.execute("ADD ANNOTATION TO t.note VALUE 'odd' "
                   "ON (SELECT x.v FROM t x WHERE x.id % 2 = 1)")

    def select_twenty_times():
        for _ in range(20):
            cursor.execute("SELECT * FROM t ANNOTATION(note) WHERE id < ?", (10,))
            assert len(cursor.fetchall()) == 10

    select_twenty_times()
    assert len(index_builds) == 1
    cursor.execute("ADD ANNOTATION TO t.note VALUE 'first' "
                   "ON (SELECT x.* FROM t x WHERE x.id = 0)")
    select_twenty_times()
    assert len(index_builds) == 2


# ---------------------------------------------------------------------------
# Served reads against concurrent ADD ANNOTATION commits
# ---------------------------------------------------------------------------
def retry(fn, attempts=2000):
    """Re-submit on the documented retryable rejections (``server_busy``)."""
    for _ in range(attempts):
        try:
            return fn()
        except Error as exc:
            if not getattr(exc, "retryable", False):
                raise
            time.sleep(0.002)
    raise AssertionError("retryable rejection never cleared")


class TestServedReads:
    ROWS = 40
    ADDS = 8
    READERS = 8

    @staticmethod
    def committed_adds(rows):
        """How many ADDs the read saw; fails unless it saw whole commits.

        ADD ``n<i>`` covers the ``v`` cell of every row whose id is a
        multiple of 3 (scattered rows: many regions under the compact
        scheme), so a read mixing two versions shows rows that disagree.
        """
        seen = set()
        for row in rows:
            id_cell, v_cell = ({annotation_text(a.body) for a in cell}
                               for cell in row.annotations)
            targeted = row[0] % 3 == 0
            assert not id_cell and (targeted or not v_cell), \
                f"annotation on an untargeted cell of row {row[0]}"
            if targeted:
                seen.add(frozenset(v_cell))
        assert len(seen) == 1, f"rows disagree: {sorted(map(len, seen))}"
        notes = seen.pop()
        assert notes == {f"n{i}" for i in range(len(notes))}, sorted(notes)
        return len(notes)

    def test_reads_see_whole_commits(self):
        server = start_server()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            admin = repro.client.connect(port=server.port)
            admin.execute("CREATE TABLE kv (id INTEGER PRIMARY KEY, v TEXT)")
            admin.execute("CREATE ANNOTATION TABLE note ON kv")
            admin.cursor().executemany("INSERT INTO kv VALUES (?, ?)",
                                       [(i, f"v{i}") for i in range(self.ROWS)])
            writing = threading.Event()
            writing.set()
            failures = []
            reads = []

            def writer():
                conn = repro.client.connect(port=server.port)
                try:
                    for i in range(self.ADDS):
                        retry(lambda: conn.execute(
                            f"ADD ANNOTATION TO kv.note VALUE 'n{i}' "
                            f"ON (SELECT k.v FROM kv k WHERE k.id % 3 = 0)"))
                finally:
                    writing.clear()
                    conn.close()

            def reader():
                conn = repro.client.connect(port=server.port)
                try:
                    done = 0
                    while writing.is_set() or done < 3:
                        cursor = retry(lambda: conn.execute(
                            "SELECT id, v FROM kv ANNOTATION(note) ORDER BY id"))
                        self.committed_adds(cursor.fetchall())
                        done += 1
                    reads.append(done)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(repr(exc))
                finally:
                    conn.close()

            threads = [threading.Thread(target=reader) for _ in range(self.READERS)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures[:5]
            assert len(reads) == self.READERS

            final = admin.execute("SELECT id, v FROM kv ANNOTATION(note) ORDER BY id")
            assert self.committed_adds(final.fetchall()) == self.ADDS
            admin.close()
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
