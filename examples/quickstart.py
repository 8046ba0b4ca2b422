"""Quickstart: annotations as first-class objects with A-SQL.

Reproduces the paper's running example (Figures 2-3): two gene tables from
different sources, annotated at several granularities, queried with the A-SQL
SELECT extensions so that annotations travel with the answer.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro import Database
from repro.annotations.xml_utils import annotation_text


def bodies_of(annotations) -> list:
    return sorted(annotation.body for annotation in annotations)


def main() -> None:
    db = Database()
    cur = db.connect().cursor()

    # -- schema and annotation tables -------------------------------------
    cur.executescript("""
        CREATE TABLE DB1_Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE);
        CREATE TABLE DB2_Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE);
        CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene;
        CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene;
    """)

    # -- data (the genes of Figure 2) ---------------------------------------
    cur.executescript("""
        INSERT INTO DB1_Gene VALUES
            ('JW0080', 'mraW', 'ATGATGGAAAA'),
            ('JW0082', 'ftsI', 'ATGAAAGCAGC'),
            ('JW0055', 'yabP', 'ATGAAAGTATC'),
            ('JW0078', 'fruR', 'GTGAAACTGGA');
        INSERT INTO DB2_Gene VALUES
            ('JW0080', 'mraW', 'ATGATGGAAAA'),
            ('JW0041', 'fixB', 'ATGAACACGTT'),
            ('JW0037', 'caiB', 'ATGGATCATCT'),
            ('JW0027', 'ispH', 'ATGCAGATCCT'),
            ('JW0055', 'yabP', 'ATGAAAGTATC');
    """)

    # -- annotations at multiple granularities (A1-A3, B3, B5) ----------------
    cur.execute("""
        ADD ANNOTATION TO DB1_Gene.GAnnotation
        VALUE 'These genes are published in J. Bacteriology'
        ON (SELECT G.GID, G.GName FROM DB1_Gene G WHERE G.GID IN ('JW0080', 'JW0055'))
    """)
    cur.execute("""
        ADD ANNOTATION TO DB1_Gene.GAnnotation
        VALUE 'These genes were obtained from RegulonDB'
        ON (SELECT G.* FROM DB1_Gene G)
    """)
    cur.execute("""
        ADD ANNOTATION TO DB1_Gene.GAnnotation
        VALUE 'Involved in methyltransferase activity'
        ON (SELECT G.GSequence FROM DB1_Gene G WHERE G.GID = 'JW0080')
    """)
    cur.execute("""
        ADD ANNOTATION TO DB2_Gene.GAnnotation
        VALUE '<Annotation>obtained from GenoBase</Annotation>'
        ON (SELECT G.GSequence FROM DB2_Gene G)
    """)
    cur.execute("""
        ADD ANNOTATION TO DB2_Gene.GAnnotation
        VALUE 'This gene has an unknown function'
        ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')
    """)

    # -- the paper's motivating query: common genes WITH their annotations ----
    cur.execute("""
        SELECT GID, GName, GSequence FROM DB1_Gene ANNOTATION(GAnnotation)
        INTERSECT
        SELECT GID, GName, GSequence FROM DB2_Gene ANNOTATION(GAnnotation)
    """)
    print("Genes common to DB1_Gene and DB2_Gene (one A-SQL statement):")
    for row in cur.fetchall():
        print(f"  {row.values[0]}  {row.values[1]}")
        for body in sorted(annotation_text(a.body) for a in row.all_annotations()):
            print(f"      - {body}")

    # -- annotation-based selection and filtering -----------------------------
    cur.execute("""
        SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation)
        AWHERE annotation.value LIKE '%GenoBase%'
    """)
    print(f"\nGenes whose lineage mentions GenoBase: "
          f"{[row[0] for row in cur.fetchall()]}")

    promoted = cur.execute("""
        SELECT GID PROMOTE (GSequence) FROM DB1_Gene ANNOTATION(GAnnotation)
        WHERE GID = ?
    """, ("JW0080",)).fetchone()
    print("\nPROMOTE copies the sequence annotations onto the projected GID:")
    print(f"  {bodies_of(promoted.annotations[0])}")

    # -- archiving stale annotations -------------------------------------------
    cur.execute("""
        ARCHIVE ANNOTATION FROM DB2_Gene.GAnnotation
        ON (SELECT G.* FROM DB2_Gene G WHERE GID = 'JW0080')
    """)
    after = cur.execute(
        "SELECT GID FROM DB2_Gene ANNOTATION(GAnnotation) WHERE GID = ?",
        ("JW0080",)).fetchone()
    print(f"\nAnnotations on JW0080 after archiving: "
          f"{bodies_of(after.all_annotations()) or '(none)'}")

    # -- EXPLAIN: pushed predicates and index access paths ---------------------
    # The planner pushes single-table WHERE conjuncts down to the scans,
    # attaches multi-table residual conjuncts to the lowest covering join,
    # and — once an index covers the join key — probes it per outer row with
    # an index-nested-loop join instead of scanning the whole inner table.
    cur.execute("CREATE INDEX ix_db2_gid ON DB2_Gene (GID) USING btree")
    print("\nEXPLAIN with a pushed predicate and an index-nested-loop join:")
    explained = db.explain("""
        SELECT a.GID, b.GName FROM DB1_Gene a, DB2_Gene b
        WHERE a.GID = b.GID AND a.GName <> 'fruR'
    """)
    print("  " + explained.message.replace("\n", "\n  "))

    print("\nEXPLAIN of an equality lookup (point IndexScan):")
    explained = db.explain("SELECT GName FROM DB2_Gene WHERE GID = 'JW0055'")
    print("  " + explained.message.replace("\n", "\n  "))

    # -- range scans and index-order sort elimination --------------------------
    # Inequality / BETWEEN conjuncts pushed to an indexed column become a
    # B-tree IndexRangeScan (bounds in the plan, residual re-checked on
    # top), and an ORDER BY that matches the index key order needs no Sort
    # operator at all: the scan already delivers rows in key order.
    print("\nEXPLAIN of a range predicate (IndexRangeScan with bounds):")
    explained = db.explain(
        "SELECT GName FROM DB2_Gene WHERE GID > 'JW0030' AND GID <= 'JW0055'")
    print("  " + explained.message.replace("\n", "\n  "))

    print("\nEXPLAIN of ORDER BY on the index key (the sort is elided):")
    explained = db.explain(
        "SELECT GID, GName FROM DB2_Gene WHERE GID > 'JW0030' ORDER BY GID")
    print("  " + explained.message.replace("\n", "\n  "))

    # -- streaming results: rows are produced on demand ------------------------
    # The default pipeline is *batched*: scans decode whole pages at a time
    # and filters/projections run as fused, vectorized passes per batch
    # (EngineConfig.batch_size), while this stream surface still hands out
    # one row per pull.
    first = cur.execute("SELECT GID, GName FROM DB2_Gene").fetchone()
    print(f"\nFirst row pulled from the streaming pipeline: {first.values}")

    # -- batch mode, range scans, and disk spilling at scale -------------------
    demo_batches_and_spilling()

    # -- the DB-API surface: parameters, prepared plans ------------------------
    demo_parameterized_queries()

    # -- transactions: rollback, durability, crash recovery --------------------
    demo_transactions()

    # -- the network front end: server + DB-API client over TCP ----------------
    demo_server()

    print("\n=== Foreign tables: pluggable providers (ATTACH / DETACH) ===")
    demo_providers()


def demo_providers() -> None:
    """ATTACH a CSV file and another repro database as foreign tables and
    join them against a native table, with filter + projection pushdown
    visible in EXPLAIN."""
    import os
    import tempfile

    workdir = tempfile.mkdtemp(prefix="repro_providers_")
    csv_path = os.path.join(workdir, "orders.csv")
    with open(csv_path, "w") as handle:
        handle.write("oid,cust,amount\n")
        for i in range(20):
            handle.write(f"{i},C{i % 4},{i * 12.5}\n")

    remote_path = os.path.join(workdir, "crm.db")
    with repro.connect(remote_path) as remote:
        remote.execute("CREATE TABLE customer (cust TEXT, region TEXT)")
        remote.executemany("INSERT INTO customer VALUES (?, ?)",
                           [(f"C{i}", "east" if i % 2 else "west")
                            for i in range(4)])
        remote.execute("CREATE ANNOTATION TABLE note ON customer")
        remote.execute(
            "ADD ANNOTATION TO customer.note VALUE 'verified account' "
            "ON (SELECT cust FROM customer WHERE region = 'east')")

    db = Database()
    cur = db.connect().cursor()
    cur.execute(f"ATTACH '{csv_path}' AS orders (TYPE csv)")
    cur.execute(f"ATTACH '{remote_path}' AS customer (TYPE repro)")
    print(f"Attached foreign tables: {db.foreign_table_names()}")

    # Filter + projection pushdown: the provider only decodes what the
    # statement needs, and EXPLAIN shows what was pushed.
    query = "SELECT oid, amount FROM orders WHERE cust = 'C2' AND amount > 50"
    print(db.explain(query).message)
    cur.execute(query)
    print(f"Pushed-down CSV scan: {[row.values for row in cur.fetchall()]}")

    # A native table joins a CSV and another database file in one query —
    # and the remote database's annotations travel with the rows.
    cur.execute("CREATE TABLE payment (oid INTEGER, method TEXT)")
    cur.executemany("INSERT INTO payment VALUES (?, ?)",
                    [(i, "card" if i % 3 else "wire") for i in range(20)])
    cur.execute(
        "SELECT p.method, o.oid, c.cust, c.region "
        "FROM payment p, orders o, customer ANNOTATION(note) c "
        "WHERE p.oid = o.oid AND o.cust = c.cust AND c.region = 'east' "
        "AND o.oid < 6")
    for row in cur.fetchall():
        bodies = [a.body for column in row.annotations for a in column]
        print(f"  {row.values} annotations={bodies}")

    cur.execute("DETACH orders")
    print(f"After DETACH: {db.foreign_table_names()}")
    db.close()


def demo_parameterized_queries() -> None:
    """PR-5: ``repro.connect()`` is a DB-API 2.0 (PEP 249) module surface.

    Cursors bind qmark (``?``) parameters — values stay data, never SQL —
    and repeated executions of the same statement reuse a cached plan
    instead of re-tokenizing, re-parsing, and re-planning per call.  See
    docs/API.md for the full guide.
    """
    conn = repro.connect()          # in-memory; repro.connect("file.db") works too
    cur = conn.cursor()
    cur.execute("CREATE TABLE variants (vid INTEGER PRIMARY KEY, gene TEXT, "
                "impact FLOAT)")

    # executemany batches every bound row into ONE multi-row INSERT.
    cur.executemany("INSERT INTO variants VALUES (?, ?, ?)",
                    [(i, f"G{i % 7}", (i * 13) % 100 / 10.0)
                     for i in range(500)])
    print(f"\n[DB-API] bulk-loaded {cur.rowcount} variants via executemany")

    cur.execute("CREATE INDEX ix_variants_vid ON variants (vid) USING btree")

    # The untrusted value rides a placeholder: injection-shaped input is
    # matched literally instead of being spliced into the SQL text.
    hostile = "G1' OR '1'='1"
    cur.execute("SELECT COUNT(*) FROM variants WHERE gene = ?", (hostile,))
    print(f"[DB-API] rows matching {hostile!r} as a *value*: "
          f"{cur.fetchone()[0]}")

    # A reused point query: first execution plans (and caches), the rest
    # bind new values into the cached plan.
    engine = conn.database.engine
    for vid in (7, 42, 123):
        cur.execute("SELECT gene, impact FROM variants WHERE vid = ?", (vid,))
        gene, impact = cur.fetchone()
        print(f"[DB-API] vid={vid}: gene={gene} impact={impact} "
              f"(cached plan: {engine.last_plan_cached})")
    stats = engine.plan_cache.stats
    print(f"[DB-API] plan cache: {stats.hits} hits / {stats.misses} misses — "
          f"repeat executions skip parse + plan entirely")

    # DDL bumps the catalog schema version and evicts the cached plan: the
    # next execution of the *same* statement re-plans against the new
    # catalog state (a sequential scan now, not an IndexScan).
    cur.execute("DROP INDEX ix_variants_vid")
    cur.execute("SELECT gene, impact FROM variants WHERE vid = ?", (7,))
    cur.fetchall()
    print(f"[DB-API] after DROP INDEX: re-planned "
          f"(cached: {engine.last_plan_cached}, "
          f"invalidations: {stats.invalidations})")
    conn.close()


def demo_transactions() -> None:
    """PR-6: WAL-backed transactions — commit is durable, rollback is real.

    ``BEGIN``/``COMMIT``/``ROLLBACK`` work through SQL or the connection
    methods; a write-ahead log fsyncs before every commit acknowledgment,
    and reopening the file replays it.  See docs/API.md (transaction
    semantics) and docs/ARCHITECTURE.md (WAL & recovery).
    """
    import os
    import tempfile

    directory = tempfile.mkdtemp(prefix="quickstart_txn_")
    path = os.path.join(directory, "curated.db")

    conn = repro.connect(path)
    cur = conn.cursor()
    cur.execute("CREATE TABLE curation (cid INTEGER PRIMARY KEY, verdict TEXT)")
    cur.execute("INSERT INTO curation VALUES (1, 'approved')")

    # A rolled-back transaction leaves no trace — values or annotations.
    cur.execute("BEGIN")
    cur.execute("INSERT INTO curation VALUES (2, 'mistake')")
    cur.execute("UPDATE curation SET verdict = ? WHERE cid = ?", ("oops", 1))
    conn.rollback()
    cur.execute("SELECT cid, verdict FROM curation")
    print(f"\n[txn] after rollback: {dict(cur.fetchall())}")

    # A committed one is fsynced before commit() returns: reopening the
    # file — what a process restart after a crash does — finds it.
    cur.execute("BEGIN")
    cur.execute("INSERT INTO curation VALUES (2, 'rejected')")
    conn.commit()
    conn.close()
    with repro.connect(path) as conn2:
        cur2 = conn2.cursor()
        cur2.execute("SELECT cid, verdict FROM curation")
        print(f"[txn] after reopen:   {dict(cur2.fetchall())}")

    # The with-block behaves like sqlite3: commit on clean exit, rollback
    # when an exception is propagating.  (Statements outside BEGIN
    # autocommit immediately — only an open transaction is rolled back.)
    try:
        with repro.connect(path) as conn3:
            cur3 = conn3.cursor()
            cur3.execute("BEGIN")
            cur3.execute("INSERT INTO curation VALUES (3, 'doomed')")
            raise RuntimeError("pipeline failed downstream")
    except RuntimeError:
        pass
    with repro.connect(path) as conn4:
        cur4 = conn4.cursor()
        cur4.execute("SELECT COUNT(*) FROM curation")
        print(f"[txn] with-block rollback kept the table at "
              f"{cur4.fetchone()[0]} rows")

    import shutil
    shutil.rmtree(directory, ignore_errors=True)


def demo_batches_and_spilling() -> None:
    """PR-3/PR-4 knobs on a larger table: batch size, range scans, and the
    memory budget that makes pipeline breakers spill to disk.

    See docs/TUNING.md for the full EngineConfig reference and docs/
    ARCHITECTURE.md for where spilling hooks into the executor.
    """
    # batch_size tunes the vectorized pipeline's unit of work;
    # memory_budget_rows bounds what any pipeline breaker (hash-join build,
    # GROUP BY, DISTINCT, sort) may hold in memory before spilling.
    db = Database(batch_size=256, memory_budget_rows=500)
    cur = db.connect().cursor()
    cur.execute("CREATE TABLE reads (rid INTEGER PRIMARY KEY, sample INTEGER, "
                "score FLOAT)")
    cur.execute("CREATE TABLE qc (rid INTEGER PRIMARY KEY, passed INTEGER)")
    reads, qc = db.table("reads"), db.table("qc")
    for i in range(4_000):
        reads.insert_row({"rid": i, "sample": i % 40, "score": (i * 37) % 1000 * 0.1})
        qc.insert_row({"rid": i, "passed": i % 3})
    cur.execute("CREATE INDEX ix_reads_score ON reads (score) USING btree")
    cur.execute("ANALYZE")

    # A selective range predicate on the indexed column becomes a B-tree
    # IndexRangeScan; the matching ORDER BY costs no sort at all.
    print("\nEXPLAIN of a range window + ORDER BY on a 4000-row table:")
    explained = db.explain(
        "SELECT rid, score FROM reads WHERE score > 1 AND score < 3 ORDER BY score")
    print("  " + explained.message.replace("\n", "\n  "))

    # The hash join's build side (4000 qc rows) exceeds the 500-row budget:
    # the planner predicts the Grace-hash spill and EXPLAIN shows it.
    join = ("SELECT reads.rid, qc.passed FROM reads, qc "
            "WHERE reads.rid = qc.rid AND qc.passed > 0")
    db.config.join_strategy = "hash"
    print("\nEXPLAIN of a join whose build side exceeds memory_budget_rows:")
    explained = db.explain(join)
    print("  " + explained.message.replace("\n", "\n  "))

    # Executing it really spills: partitions go to temp files and come back,
    # and engine.last_spill reports what happened.
    result = cur.execute(join).fetchall()
    stats = db.engine.last_spill
    print(f"\nJoin over budget returned {len(result)} rows; spill activity:")
    for event in stats.operators:
        print(f"  {event}")
    print(f"  total spill I/O: {stats.spill_files} temp file(s), "
          f"{stats.spilled_rows} row writes, "
          f"{stats.spilled_bytes / 1e3:.0f} KB")

    # GROUP BY over the budget partitions on the group key the same way.
    summary = cur.execute("SELECT sample, COUNT(*), AVG(score) FROM reads "
                          "GROUP BY sample").fetchall()
    events = [e for e in db.engine.last_spill.operators
              if e["operator"] == "group_by"]
    print(f"\nGROUP BY over budget: {len(summary)} groups via "
          f"{events[0]['partitions']} spill partitions")


def demo_server() -> None:
    """The same DB-API surface, served over TCP (docs/SERVER.md).

    ``start_server`` spins up the asyncio front end on an ephemeral port in
    a background thread; ``repro.client.connect`` returns a PEP 249
    connection whose cursors, parameters, transactions, and A-SQL
    annotation queries behave exactly like the in-process ones.
    """
    import repro.client
    from repro.server import start_server

    server = start_server()  # in-memory database, ephemeral 127.0.0.1 port
    try:
        conn = repro.client.connect(port=server.port, user="admin")
        cur = conn.cursor()
        cur.execute("CREATE TABLE samples (id INTEGER PRIMARY KEY, "
                    "name TEXT)")
        cur.executemany("INSERT INTO samples VALUES (?, ?)",
                        [(1, "liver"), (2, "kidney"), (3, "cortex")])
        cur.execute("SELECT name FROM samples WHERE id >= ? ORDER BY id",
                    (2,))
        print(f"\nRows over the wire: {[row[0] for row in cur.fetchall()]}")

        # Annotations survive the wire as real objects on each row.
        cur.execute("CREATE ANNOTATION TABLE note ON samples")
        cur.execute("ADD ANNOTATION TO samples.note VALUE 'checked' "
                    "ON (SELECT s.name FROM samples s WHERE s.id = 2)")
        cur.execute("SELECT name FROM samples ANNOTATION(note) "
                    "WHERE id = 2")
        row = cur.fetchone()
        bodies = [a.body for column in row.annotations for a in column]
        print(f"Annotated over the wire: {tuple(row)} -> {bodies}")

        # Transactions are per-session; rollback works like in-process.
        cur.execute("BEGIN")
        cur.execute("DELETE FROM samples WHERE id = 1")
        conn.rollback()
        cur.execute("SELECT COUNT(*) FROM samples")
        print(f"Rows after rollback over the wire: {cur.fetchone()[0]}")
        conn.close()
    finally:
        server.shutdown()


if __name__ == "__main__":
    main()
