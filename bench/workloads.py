"""The four workloads: how each builds its database and runs one op.

Everything goes through the product's public surface — DB-API cursors,
``repro.client`` connections, and the documented manager objects on
``Database`` (dependency rules, group membership and the approval review
have no SQL form).  Engine, server and pool configuration are the product's
defaults unless the workload's rationale says otherwise (``analytic_scan``
sets the ROADMAP's 10 % ``memory_budget_rows``).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro
import repro.client
from repro.annotations import annotation_text
from repro.dependencies.rules import DependencyRule, Procedure

from bench import REPO_ROOT, datagen
from bench.datagen import CheckRow, Op

_TEXT_OF_BODY: Dict[str, str] = {}


def _text(body: str) -> str:
    text = _TEXT_OF_BODY.get(body)
    if text is None:
        text = _TEXT_OF_BODY[body] = annotation_text(body)
    return text


def check_rows(rows: Sequence[Any]) -> List[CheckRow]:
    """Engine rows as the oracles read them: values + annotation texts."""
    converted = []
    for row in rows:
        if row.has_annotations():
            annotations = tuple(frozenset(_text(a.body) for a in column)
                                for column in row.annotations)
        else:
            annotations = (frozenset(),) * len(row.values)
        converted.append((row.values, annotations))
    return converted


def peak_rss_mb() -> float:
    """Peak resident set of the calling process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One database instance of a workload, from set-up to shutdown."""

    name = ""
    #: Extra ``repro.connect`` keyword arguments (engine knobs).
    connect_kwargs: Dict[str, Any] = {}

    def __init__(self, seed: int, quick: bool = False):
        self.data = datagen.DATASETS[self.name](seed, quick)
        self.path = ""
        self.conn: Any = None
        self.cursor: Any = None

    # -- lifecycle ------------------------------------------------------
    def setup(self, directory: str, trace: bool = False) -> None:
        """Load the data and leave the workload ready to execute ops."""
        self.path = os.path.join(directory, f"{self.name}.db")
        self.conn = repro.connect(self.path, **self.connect_kwargs)
        self.cursor = self.conn.cursor()
        self.load()
        self.cursor.execute("ANALYZE")
        self.conn.commit()

    def load(self) -> None:
        raise NotImplementedError

    @property
    def database(self) -> Any:
        """The embedded ``Database`` (``None`` when the engine is remote)."""
        return self.conn.database

    def shutdown(self) -> Dict[str, Any]:
        """Close the engine; returns what its process reported."""
        self.conn.close()
        return {"peak_rss_mb": peak_rss_mb()}

    def reopen(self) -> Any:
        """A fresh connection on the closed database file."""
        return repro.connect(self.path, **self.connect_kwargs)

    def stored_bytes(self) -> int:
        return sum(os.path.getsize(path)
                   for path in (self.path, self.path + ".wal")
                   if os.path.exists(path))

    def setup_user_bytes(self) -> int:
        """User bytes (values and annotation texts) the load wrote."""
        return self.data.user_bytes

    def run_user_bytes(self) -> int:
        """User bytes the ops judged so far wrote (0: a read workload)."""
        return 0

    def verify_durable(self, conn: Any) -> Tuple[int, int]:
        """Re-read acked writes after a reopen; ``(attempted, failed)``."""
        return 0, 0

    # -- ops ------------------------------------------------------------
    def execute(self, op: Op, session: int = 0) -> Any:
        """Run one query to its last row."""
        self.cursor.execute(op.sql, op.params)
        return self.cursor.fetchall()

    def check(self, op: Op, result: Any) -> bool:
        return self.data.check(op, check_rows(result))

    @staticmethod
    def rows_out(result: Any) -> int:
        return len(result) if isinstance(result, list) else 1

    def annotation_tables(self) -> List[Any]:
        """Every annotation table of the embedded database."""
        if self.database is None:
            return []
        return [table
                for name in self.database.table_names()
                for table in self.database.annotations.tables_for(name)]

    def _bulk_insert(self, table: str, rows: Sequence[Tuple[Any, ...]]) -> None:
        marks = ", ".join("?" * len(rows[0]))
        self.cursor.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)


class ServedPointRead(Workload):
    """Point reads over the wire against a server in its own process."""

    name = "served_point_read"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.child: Optional[subprocess.Popen] = None
        self.clients: List[Any] = []
        self.cursors: List[Any] = []
        self._report_path = ""
        self._stats_mark: Dict[str, int] = {}

    def load(self) -> None:
        self.cursor.execute("CREATE TABLE Gene (GID INTEGER PRIMARY KEY, "
                            "GName TEXT, GSequence SEQUENCE)")
        self._bulk_insert("Gene", self.data.rows)
        # PRIMARY KEY builds no index the planner can use; the B-tree does.
        self.cursor.execute("CREATE INDEX gene_gid ON Gene (GID)")

    def setup(self, directory: str, trace: bool = False) -> None:
        super().setup(directory, trace)
        self.conn.close()
        self.conn = self.cursor = None
        self._report_path = os.path.join(directory, "server-report.json")
        self.child = subprocess.Popen(
            [sys.executable, "-m", "bench.server_child", "--path", self.path,
             "--trace", str(int(trace)), "--report", self._report_path],
            cwd=REPO_ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited before listening")
        port = json.loads(line)["port"]
        self.clients = [repro.client.connect(port=port)
                        for _ in range(self.data.sessions)]
        self.cursors = [client.cursor() for client in self.clients]

    @property
    def database(self) -> Any:
        return None

    def execute(self, op: Op, session: int = 0) -> Any:
        cursor = self.cursors[session]
        cursor.execute(op.sql, op.params)
        row = cursor.fetchone()
        return [] if row is None else [row]

    # -- the child's side of the measurements ---------------------------
    def _wire_stats(self) -> Dict[str, int]:
        return self.clients[0].request({"op": "stats"})["stats"]

    def mark(self) -> None:
        """Start of a measured pass: the child snapshots its counters."""
        self._stats_mark = self._wire_stats()
        self.child.stdin.write("mark\n")
        self.child.stdin.flush()
        self.child.stdout.readline()

    def wire_stats_delta(self) -> Dict[str, int]:
        now = self._wire_stats()
        return {key: now[key] - self._stats_mark.get(key, 0) for key in now}

    def shutdown(self) -> Dict[str, Any]:
        for client in self.clients:
            client.close()
        self.clients = self.cursors = []
        child, self.child = self.child, None
        if child is None:
            return {}
        try:
            child.communicate("stop\n", timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"server child exited with {child.returncode}")
        with open(self._report_path) as handle:
            return json.load(handle)


class AnnotatedQuery(Workload):
    """A-SQL queries that propagate annotations; embedded, fits the pool."""

    name = "annotated_query"

    def load(self) -> None:
        execute = self.cursor.execute
        execute("CREATE TABLE Gene (GID INTEGER PRIMARY KEY, GName TEXT, "
                "Organism TEXT, GSequence SEQUENCE)")
        execute("CREATE TABLE Protein (PID INTEGER PRIMARY KEY, GID INTEGER, "
                "PName TEXT, PSequence SEQUENCE)")
        self._bulk_insert("Gene", self.data.genes)
        self._bulk_insert("Protein", self.data.proteins)
        execute("CREATE INDEX gene_gid ON Gene (GID)")
        execute("CREATE INDEX protein_gid ON Protein (GID)")
        execute("CREATE ANNOTATION TABLE Lineage ON Gene")
        execute("CREATE ANNOTATION TABLE GAnnotation ON Gene")
        execute("CREATE ANNOTATION TABLE PNote ON Protein")
        for statement in self.data.annotation_statements():
            execute(statement)


class CurationWrite(Workload):
    """Curated writes: dependency rules, annotations, content approval."""

    name = "curation_write"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.member: Any = None
        self.member_cursor: Any = None

    def load(self) -> None:
        execute = self.cursor.execute
        execute("CREATE TABLE Gene (GID INTEGER PRIMARY KEY, GName TEXT, "
                "GSequence SEQUENCE)")
        execute("CREATE TABLE Protein (PID INTEGER PRIMARY KEY, GID INTEGER, "
                "PSequence SEQUENCE, PFunction TEXT)")
        execute("CREATE TABLE Submission (SID INTEGER PRIMARY KEY, "
                "Status TEXT, Payload SEQUENCE)")
        self._bulk_insert("Gene", self.data.genes)
        self._bulk_insert("Protein", self.data.proteins)
        self._bulk_insert("Submission", self.data.submissions)
        execute("CREATE INDEX gene_gid ON Gene (GID)")
        execute("CREATE INDEX protein_gid ON Protein (GID)")
        execute("CREATE INDEX submission_sid ON Submission (SID)")
        execute("CREATE ANNOTATION TABLE Curation ON Gene")
        self._register_rules()
        access = self.database.access
        access.create_group("lab_members", ["lab_member"])
        access.add_superuser("lab_admin")
        execute("GRANT SELECT, UPDATE ON Submission TO lab_members")
        execute("START CONTENT APPROVAL ON Submission COLUMNS Payload "
                "APPROVED BY lab_admin")
        self.member = self.database.connect(user="lab_member")
        self.member_cursor = self.member.cursor()

    def _register_rules(self) -> None:
        def predict(source: Dict[str, Any], target: Dict[str, Any]) -> str:
            sequence = next(value for key, value in source.items()
                            if key.lower() == "gsequence")
            return datagen.translate(sequence)

        tracker = self.database.tracker
        tracker.register_rule(DependencyRule.create(
            name="gene_to_protein_sequence",
            sources=[("Gene", "GSequence")], targets=[("Protein", "PSequence")],
            procedure=Procedure("prediction tool", executable=True,
                                implementation=predict),
            source_key="GID", target_key="GID"))
        tracker.register_rule(DependencyRule.create(
            name="protein_sequence_to_function",
            sources=[("Protein", "PSequence")], targets=[("Protein", "PFunction")],
            procedure=Procedure("lab experiment", executable=False)))

    def setup_user_bytes(self) -> int:
        return self.data.setup_user_bytes

    def run_user_bytes(self) -> int:
        return self.data.run_user_bytes

    def execute(self, op: Op, session: int = 0) -> Any:
        """Run one write and its ``commit()``; returns what was acked."""
        if op.cls == "review":
            approval = self.database.approval
            pending = approval.pending_operations()
            changes = None
            if pending:
                review = approval.approve if op.tag else approval.disapprove
                review(pending[0].op_id, "lab_admin")
                changes = pending[0].changes
            self.conn.commit()
            return changes
        if op.cls == "monitored_update":
            self.member_cursor.execute(op.sql, op.params)
            self.member.commit()
            return self.member_cursor.rowcount
        self.cursor.execute(op.sql, op.params)
        self.conn.commit()
        return self.cursor.rowcount

    def check(self, op: Op, result: Any) -> bool:
        return self.data.check(op, result)

    def shutdown(self) -> Dict[str, Any]:
        self.member.close()
        return super().shutdown()

    def verify_durable(self, conn: Any) -> Tuple[int, int]:
        cursor = conn.cursor()
        probes = self.data.durable_probes()
        failed = 0
        for sql, params, expected in probes:
            cursor.execute(sql, params)
            failed += check_rows(cursor.fetchall()) != expected
        return len(probes), failed


class AnalyticScan(Workload):
    """Scans, joins and spilling breakers over a table larger than the pool."""

    name = "analytic_scan"

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.connect_kwargs = {
            "memory_budget_rows": self.data.memory_budget_rows}

    def load(self) -> None:
        execute = self.cursor.execute
        execute("CREATE TABLE Gene (GID INTEGER PRIMARY KEY, GName TEXT, "
                "Organism TEXT)")
        execute("CREATE TABLE Expr (EID INTEGER PRIMARY KEY, GID INTEGER, "
                "Tissue TEXT, Level FLOAT, Note TEXT)")
        self._bulk_insert("Gene", self.data.genes)
        self._bulk_insert("Expr", self.data.expr)


WORKLOADS = {cls.name: cls for cls in
             (ServedPointRead, AnnotatedQuery, CurationWrite, AnalyticScan)}
