"""Seeded inputs for the four workloads: datasets, op sequences and oracles.

Everything here is pure Python over ``random.Random`` streams derived from
the seed, so the same seed yields byte-identical inputs and a different seed
changes keys and parameters but never sizes or the op mix.  The engine under
test sees only what these classes generate; each ``check`` is the oracle for
the rows an op returned, as ``(values, per-column annotation-text sets)``.

Op sequences are organised in *rounds*: every round of a workload holds the
same number of ops of every class, so a run that stops at a round boundary
has the same mix whatever its length.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Any, Dict, List, NamedTuple, Sequence, Set, Tuple

DNA = "ACGT"
RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
LETTERS = "abcdefghijklmnopqrstuvwxyz"

#: One result row as the oracles see it.
CheckRow = Tuple[Tuple[Any, ...], Tuple[frozenset, ...]]


class Op(NamedTuple):
    """One benchmark operation: its class, statement text and parameters."""

    cls: str
    sql: str
    params: Tuple[Any, ...] = ()
    #: Oracle-side detail (query shape, review verdict, ...).
    tag: Any = None


def _rng(seed: int, *stream: Any) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed,) + stream))


def dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(DNA, k=length))


def word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choices(LETTERS, k=rng.randint(low, high)))


def gene_name(rng: random.Random, index: int) -> str:
    """Unique at any size: a seeded prefix plus the row index."""
    return f"{word(rng, 3, 3)}{index:06d}"


def translate(sequence: str) -> str:
    """The executable procedure of the Gene -> Protein dependency rule."""
    residues = [RESIDUES[sum(map(ord, sequence[i:i + 3])) % len(RESIDUES)]
                for i in range(0, len(sequence) - 2, 3)]
    return "".join(residues) or "M"


def value_bytes(values: Sequence[Any]) -> int:
    """Bytes of user data in a row: text length, 8 per number."""
    return sum(len(v.encode()) if isinstance(v, str) else 8 for v in values)


def _plain(rows: Sequence[CheckRow]) -> List[Tuple[Any, ...]]:
    return [values for values, _ in rows]


# ---------------------------------------------------------------------------
# served_point_read
# ---------------------------------------------------------------------------
class PointReadData:
    """``Gene`` rows and per-connection uniform key streams."""

    classes = ("point_read",)
    sessions = 2
    round_size = 50
    SELECT = "SELECT GName, GSequence FROM Gene WHERE GID = ?"

    def __init__(self, seed: int, quick: bool = False):
        self.num_rows = 400 if quick else 20_000
        keys_per_session = 200 if quick else 25_000
        self.warmup_ops_per_session = 20 if quick else 500
        rng = _rng(seed, "spr", "rows")
        self.rows = [(gid, gene_name(rng, gid), dna(rng, 60))
                     for gid in range(self.num_rows)]
        self.keys = []
        for session in range(self.sessions):
            key_rng = _rng(seed, "spr", "keys", session)
            self.keys.append([key_rng.randrange(self.num_rows)
                              for _ in range(keys_per_session)])
        self.user_bytes = sum(value_bytes(row) for row in self.rows)

    def warmup(self, session: int = 0) -> List[Op]:
        keys = self.keys[session][-self.warmup_ops_per_session:]
        return [Op("point_read", self.SELECT, (key,)) for key in keys]

    def round(self, index: int, session: int = 0) -> List[Op]:
        keys = self.keys[session]
        start = index * self.round_size
        return [Op("point_read", self.SELECT,
                   (keys[(start + i) % len(keys)],))
                for i in range(self.round_size)]

    def check(self, op: Op, rows: Sequence[CheckRow]) -> bool:
        return _plain(rows) == [self.rows[op.params[0]][1:]]


# ---------------------------------------------------------------------------
# annotated_query
# ---------------------------------------------------------------------------
class AnnotatedQueryData:
    """``Gene``/``Protein`` plus an annotation spec and its Python oracle."""

    classes = ("ann_point", "ann_range", "ann_full")
    sessions = 1
    FULL_SHAPES = ("scan", "join", "group", "awhere", "intersect")
    #: Ten ops per block — 7 point, 2 range, 1 full — and one block per
    #: full shape, so a round holds every statement text.
    round_size = 10 * len(FULL_SHAPES)

    GENE_COLUMNS = ("GID", "GName", "Organism", "GSequence")
    POINT = ("SELECT GID, GName, GSequence FROM Gene "
             "ANNOTATION(GAnnotation, Lineage) WHERE GID = ?")
    RANGE = ("SELECT GID, GName, GSequence FROM Gene "
             "ANNOTATION(GAnnotation, Lineage) WHERE GID >= ? AND GID < ?")
    RANGE_PROMOTE = ("SELECT GID PROMOTE (GSequence), GName FROM Gene "
                     "ANNOTATION(GAnnotation, Lineage) "
                     "WHERE GID >= ? AND GID < ?")
    FULL = {
        "scan": ("SELECT GID, GName, GSequence FROM Gene "
                 "ANNOTATION(GAnnotation, Lineage)"),
        "join": ("SELECT G.GName, P.PName FROM Gene ANNOTATION(GAnnotation) G, "
                 "Protein ANNOTATION(PNote) P "
                 "WHERE G.GID = P.GID AND G.Organism = ?"),
        "group": ("SELECT Organism, COUNT(*) FROM Gene "
                  "ANNOTATION(GAnnotation) GROUP BY Organism"),
        "awhere": ("SELECT GID, GSequence FROM Gene ANNOTATION(GAnnotation) "
                   "AWHERE annotation.value LIKE ?"),
        "intersect": ("SELECT GID FROM Gene ANNOTATION(Lineage) WHERE GID < ? "
                      "INTERSECT SELECT GID FROM Protein ANNOTATION(PNote) "
                      "WHERE GID >= ?"),
    }

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.num_rows = 100 if quick else 1_000
        num_organisms = 5 if quick else 20
        num_cells = 8 if quick else 80
        num_blocks = 5 if quick else 20
        self.range_width = self.num_rows // 10
        self.block_rows = self.num_rows // num_blocks
        rng = _rng(seed, "aq", "rows")
        labels = [f"org{i:02d}" for i in range(num_organisms)]
        rng.shuffle(labels)
        self.organisms = sorted(labels)
        self.genes = [(gid, gene_name(rng, gid), labels[gid % num_organisms],
                       dna(rng, 60)) for gid in range(self.num_rows)]
        self.proteins = [(pid, pid, f"prot{pid:06d}", translate(gene[3]))
                         for pid, gene in enumerate(self.genes)]
        self.lineage = "loaded from RegulonDB release 5"
        self.slice_text = {label: f"curated batch for organism {label}"
                           for label in labels}
        self.cell_text = {gid: f"sequence verified, note {gid}"
                          for gid in rng.sample(range(self.num_rows), num_cells)}
        self.block_text = [f"assay block {block}" for block in range(num_blocks)]
        self.user_bytes = (
            sum(value_bytes(row) for row in self.genes + self.proteins)
            + sum(len(text) for text in
                  [self.lineage, *self.slice_text.values(),
                   *self.cell_text.values(), *self.block_text]))

    # -- set-up statements ----------------------------------------------
    def annotation_statements(self) -> List[str]:
        """The ``ADD ANNOTATION`` statements that realise the spec."""
        statements = [
            f"ADD ANNOTATION TO Gene.Lineage VALUE '{self.lineage}' "
            f"ON (SELECT G.* FROM Gene G)"]
        for label in self.organisms:
            statements.append(
                f"ADD ANNOTATION TO Gene.GAnnotation "
                f"VALUE '{self.slice_text[label]}' "
                f"ON (SELECT G.GName, G.GSequence FROM Gene G "
                f"WHERE G.Organism = '{label}')")
        for gid, text in sorted(self.cell_text.items()):
            statements.append(
                f"ADD ANNOTATION TO Gene.GAnnotation VALUE '{text}' "
                f"ON (SELECT G.GSequence FROM Gene G WHERE G.GID = {gid})")
        for block, text in enumerate(self.block_text):
            low = block * self.block_rows
            statements.append(
                f"ADD ANNOTATION TO Protein.PNote VALUE '{text}' "
                f"ON (SELECT P.* FROM Protein P "
                f"WHERE P.PID >= {low} AND P.PID < {low + self.block_rows})")
        return statements

    # -- annotation oracle ----------------------------------------------
    def gene_cell(self, gid: int, column: str,
                  tables: Sequence[str]) -> frozenset:
        """Annotation texts the spec puts on one ``Gene`` cell."""
        texts: Set[str] = set()
        if "Lineage" in tables:
            texts.add(self.lineage)
        if "GAnnotation" in tables:
            if column in ("GName", "GSequence"):
                texts.add(self.slice_text[self.genes[gid][2]])
            if column == "GSequence" and gid in self.cell_text:
                texts.add(self.cell_text[gid])
        return frozenset(texts)

    def gene_tuple(self, gid: int, tables: Sequence[str]) -> frozenset:
        return frozenset().union(*(self.gene_cell(gid, column, tables)
                                   for column in self.GENE_COLUMNS))

    def protein_cell(self, pid: int) -> frozenset:
        return frozenset({self.block_text[pid // self.block_rows]})

    # -- op sequence ----------------------------------------------------
    def _point(self, rng: random.Random) -> Op:
        return Op("ann_point", self.POINT, (rng.randrange(self.num_rows),))

    def _range(self, rng: random.Random, promote: bool) -> Op:
        low = rng.randrange(self.num_rows - self.range_width + 1)
        return Op("ann_range", self.RANGE_PROMOTE if promote else self.RANGE,
                  (low, low + self.range_width), "promote" if promote else "plain")

    def _full(self, rng: random.Random, shape: str) -> Op:
        params: Tuple[Any, ...] = ()
        if shape == "join":
            params = (rng.choice(self.organisms),)
        elif shape == "awhere":
            params = (f"%organism {rng.choice(self.organisms)}%",)
        elif shape == "intersect":
            high = rng.randrange(self.num_rows // 2, self.num_rows)
            params = (high, high - self.num_rows // 5)
        return Op("ann_full", self.FULL[shape], params, shape)

    def warmup(self, session: int = 0) -> List[Op]:
        """Every statement text once."""
        rng = _rng(self.seed, "aq", "warmup")
        return ([self._point(rng), self._range(rng, False),
                 self._range(rng, True)]
                + [self._full(rng, shape) for shape in self.FULL_SHAPES])

    def round(self, index: int, session: int = 0) -> List[Op]:
        rng = _rng(self.seed, "aq", "round", index)
        ops: List[Op] = []
        for block, shape in enumerate(self.FULL_SHAPES):
            chunk = [self._point(rng) for _ in range(7)]
            chunk += [self._range(rng, promote=False),
                      self._range(rng, promote=True)]
            chunk.append(self._full(rng, shape))
            rng.shuffle(chunk)
            ops.extend(chunk)
        return ops

    # -- result oracle --------------------------------------------------
    def expected(self, op: Op) -> List[CheckRow]:
        both = ("GAnnotation", "Lineage")
        if op.cls == "ann_point" or (op.cls == "ann_range" and op.tag == "plain"):
            low, high = (op.params[0], op.params[0] + 1) \
                if op.cls == "ann_point" else op.params
            return [((gid, self.genes[gid][1], self.genes[gid][3]),
                     tuple(self.gene_cell(gid, column, both)
                           for column in ("GID", "GName", "GSequence")))
                    for gid in range(low, high)]
        if op.cls == "ann_range":
            return [((gid, self.genes[gid][1]),
                     (self.gene_cell(gid, "GID", both)
                      | self.gene_cell(gid, "GSequence", both),
                      self.gene_cell(gid, "GName", both)))
                    for gid in range(*op.params)]
        shape = op.tag
        if shape == "scan":
            return [((gid, name, sequence),
                     tuple(self.gene_cell(gid, column, both)
                           for column in ("GID", "GName", "GSequence")))
                    for gid, name, _, sequence in self.genes]
        only = ("GAnnotation",)
        if shape == "join":
            return [((name, self.proteins[gid][2]),
                     (self.gene_cell(gid, "GName", only), self.protein_cell(gid)))
                    for gid, name, organism, _ in self.genes
                    if organism == op.params[0]]
        if shape == "group":
            rows = []
            for label in self.organisms:
                members = [gene[0] for gene in self.genes if gene[2] == label]
                union = frozenset().union(
                    *(self.gene_tuple(gid, only) for gid in members))
                rows.append(((label, len(members)), (union, union)))
            return rows
        if shape == "awhere":
            needle = op.params[0].strip("%")
            return [((gid, sequence),
                     (self.gene_cell(gid, "GID", only),
                      self.gene_cell(gid, "GSequence", only)))
                    for gid, _, _, sequence in self.genes
                    if any(needle in text for text in self.gene_tuple(gid, only))]
        high, low = op.params  # intersect
        return [((gid,), (self.gene_cell(gid, "GID", ("Lineage",))
                          | self.protein_cell(gid),))
                for gid in range(low, high)]

    def check(self, op: Op, rows: Sequence[CheckRow]) -> bool:
        # No statement has ORDER BY, so row order is not part of the contract.
        by_values = lambda row: row[0]
        return sorted(rows, key=by_values) == sorted(self.expected(op),
                                                     key=by_values)


# ---------------------------------------------------------------------------
# curation_write
# ---------------------------------------------------------------------------
class CurationWriteData:
    """Write mix over ``Gene``/``Protein``/``Submission`` and a state model.

    The model mirrors what every acknowledged op must leave behind; it is
    advanced by :meth:`check` in op order and read back by
    :meth:`durable_probes` after the database has been closed and reopened.
    """

    classes = ("insert_gene", "update_sequence", "add_annotation",
               "monitored_update", "review")
    sessions = 1
    #: 2 insert, 4 update, 2 add_annotation, 1 monitored, 1 review per round.
    #: With this mix the median op is an ``add_annotation`` and the 95th
    #: percentile an ``update_sequence``: neither sits on the border between
    #: two classes whose latencies differ by an order of magnitude.
    MIX = ("insert_gene",) * 2 + ("update_sequence",) * 4 \
        + ("add_annotation",) * 2 + ("monitored_update", "review")
    round_size = len(MIX)

    INSERT = "INSERT INTO Gene VALUES (?, ?, ?)"
    UPDATE = "UPDATE Gene SET GSequence = ? WHERE GID = ?"
    MONITORED = "UPDATE Submission SET Payload = ? WHERE SID = ?"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.num_rows = 150 if quick else 5_000
        self.num_submissions = 60 if quick else 2_000
        rng = _rng(seed, "cw", "rows")
        self.genes = [(gid, gene_name(rng, gid), dna(rng, 60))
                      for gid in range(self.num_rows)]
        self.proteins = [(gid, gid, translate(gene[2]), f"function {gid % 7}")
                         for gid, gene in enumerate(self.genes)]
        self.submissions = [(sid, "new", dna(rng, 40))
                            for sid in range(self.num_submissions)]
        self.setup_user_bytes = sum(
            value_bytes(row)
            for row in self.genes + self.proteins + self.submissions)
        #: User bytes written by the ops checked so far.
        self.run_user_bytes = 0
        # -- the state model --
        self.sequence: Dict[int, str] = {g[0]: g[2] for g in self.genes}
        self.derived: Set[int] = set()      # genes whose protein was recomputed
        self.notes: Dict[int, Set[str]] = {}
        self.payload: Dict[int, str] = {s[0]: s[2] for s in self.submissions}
        self.touched_submissions: Set[int] = set()
        self.pending: deque = deque()       # (sid, old payload, new payload)
        self._notes_issued = 0

    def _op(self, cls: str, rng: random.Random, new_gid: int,
            approve: bool) -> Op:
        if cls == "insert_gene":
            return Op(cls, self.INSERT,
                      (new_gid, gene_name(rng, new_gid), dna(rng, 60)))
        if cls == "update_sequence":
            return Op(cls, self.UPDATE,
                      (dna(rng, 60), rng.randrange(self.num_rows)))
        if cls == "add_annotation":
            # A fresh statement text per op: A-SQL takes no parameters.
            gid = rng.randrange(self.num_rows)
            text = f"curated {word(rng, 6, 12)} {new_gid}"
            return Op(cls,
                      f"ADD ANNOTATION TO Gene.Curation VALUE '{text}' "
                      f"ON (SELECT G.GSequence FROM Gene G WHERE G.GID = {gid})",
                      (), (gid, text))
        if cls == "monitored_update":
            return Op(cls, self.MONITORED,
                      (dna(rng, 40), rng.randrange(self.num_submissions)))
        return Op("review", "", (), approve)

    def warmup(self, session: int = 0) -> List[Op]:
        """Every statement shape once, plus one extra monitored update so a
        review always finds a pending operation."""
        rng = _rng(self.seed, "cw", "warmup")
        classes = ("monitored_update", "monitored_update", "insert_gene",
                   "update_sequence", "add_annotation", "review")
        return [self._op(cls, rng, 10_000_000 + i, approve=True)
                for i, cls in enumerate(classes)]

    def round(self, index: int, session: int = 0) -> List[Op]:
        rng = _rng(self.seed, "cw", "round", index)
        classes = list(self.MIX)
        rng.shuffle(classes)
        # Distinct per (round, position), so inserted keys and annotation
        # texts never collide.
        return [self._op(cls, rng, self.num_rows + index * self.round_size + i,
                         approve=index % 2 == 0)
                for i, cls in enumerate(classes)]

    def check(self, op: Op, result: Any) -> bool:
        """Validate the op's acknowledgement and advance the model."""
        if op.cls == "review":
            if not self.pending:
                return result is None
            sid, old, new = self.pending.popleft()
            if not op.tag:
                self.payload[sid] = old
            return result == {"Payload": new}
        if result != 1:
            return False
        if op.cls == "insert_gene":
            self.sequence[op.params[0]] = op.params[2]
            self.run_user_bytes += value_bytes(op.params)
        elif op.cls == "update_sequence":
            self.sequence[op.params[1]] = op.params[0]
            self.derived.add(op.params[1])
            self.run_user_bytes += len(op.params[0])
        elif op.cls == "add_annotation":
            gid, text = op.tag
            self.notes.setdefault(gid, set()).add(text)
            self.run_user_bytes += len(text)
        else:
            new, sid = op.params
            self.pending.append((sid, self.payload[sid], new))
            self.payload[sid] = new
            self.touched_submissions.add(sid)
            self.run_user_bytes += len(new)
        return True

    def durable_probes(self) -> List[Tuple[str, Tuple[Any, ...], List[CheckRow]]]:
        """``(sql, params, expected rows)`` for every acknowledged write."""
        none = (frozenset(),)
        probes = []
        touched = set(self.derived) | set(self.notes) \
            | {gid for gid in self.sequence if gid >= self.num_rows}
        for gid in sorted(touched):
            notes = frozenset(self.notes.get(gid, ()))
            probes.append((
                "SELECT GSequence FROM Gene ANNOTATION(Curation) WHERE GID = ?",
                (gid,), [((self.sequence[gid],), (notes,))]))
        for gid in sorted(self.derived):
            probes.append((
                "SELECT PSequence FROM Protein WHERE GID = ?", (gid,),
                [((translate(self.sequence[gid]),), none)]))
        for sid in sorted(self.touched_submissions):
            probes.append((
                "SELECT Payload FROM Submission WHERE SID = ?", (sid,),
                [((self.payload[sid],), none)]))
        return probes


# ---------------------------------------------------------------------------
# analytic_scan
# ---------------------------------------------------------------------------
class AnalyticScanData:
    """``Expr``/``Gene`` and seven query shapes with a pure-Python reference."""

    SHAPES = {
        "filter_scan": "SELECT EID, Level FROM Expr WHERE Level > ? AND Tissue = ?",
        "hash_join": ("SELECT E.EID, G.GName FROM Expr E, Gene G "
                      "WHERE E.GID = G.GID AND E.Level > ?"),
        "group_by": ("SELECT GID, COUNT(*), AVG(Level) FROM Expr "
                     "WHERE Level > ? GROUP BY GID"),
        "join_group": ("SELECT G.Organism, COUNT(*), MAX(E.Level) "
                       "FROM Expr E, Gene G "
                       "WHERE E.GID = G.GID AND E.Level > ? GROUP BY G.Organism"),
        "topk_sort": ("SELECT EID, Level FROM Expr WHERE Level < ? "
                      "ORDER BY Level DESC, EID LIMIT 20"),
        "full_sort": "SELECT EID, Note FROM Expr WHERE Level > ? ORDER BY Note, EID",
        "distinct": "SELECT DISTINCT GID, Tissue FROM Expr WHERE Level > ?",
    }
    classes = tuple(SHAPES)
    sessions = 1
    #: Ten ops per round, in ascending cost: the four cheaper shapes once,
    #: ``topk_sort`` three times, ``group_by`` twice, ``join_group`` once.
    #: The slowest shape is then exactly one op in ten, so the 95th
    #: percentile is that shape's median and not a point in a sparse tail,
    #: and the median op falls inside ``topk_sort``; both are spilling shapes.
    MIX = classes + ("topk_sort", "topk_sort", "group_by")
    round_size = len(MIX)
    ORDERED = ("topk_sort", "full_sort")

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        num_expr = 600 if quick else 10_000
        num_genes = 50 if quick else 800
        num_tissues = 8 if quick else 40
        #: The ROADMAP's 10 % budget: every breaker over ``Expr`` spills.
        self.memory_budget_rows = num_expr // 10
        rng = _rng(seed, "as", "rows")
        self.tissues = [f"tissue{i:02d}" for i in range(num_tissues)]
        self.genes = [(gid, gene_name(rng, gid), f"org{gid % 20:02d}")
                      for gid in range(num_genes)]
        self.expr = [(eid, rng.randrange(num_genes), rng.choice(self.tissues),
                      round(rng.uniform(0.0, 100.0), 3), word(rng, 5, 40))
                     for eid in range(num_expr)]
        self.user_bytes = sum(value_bytes(row) for row in self.genes + self.expr)

    def _op(self, shape: str, rng: random.Random) -> Op:
        # Thresholds vary per op but keep each shape's selectivity (and so
        # its cost) within a few percent.
        if shape == "filter_scan":
            params: Tuple[Any, ...] = (round(rng.uniform(45, 55), 3),
                                       rng.choice(self.tissues))
        elif shape == "hash_join":
            params = (round(rng.uniform(88, 92), 3),)
        elif shape == "topk_sort":
            params = (round(rng.uniform(93, 97), 3),)
        elif shape in ("full_sort", "distinct"):
            params = (round(rng.uniform(48, 52), 3),)
        else:
            params = (round(rng.uniform(3, 7), 3),)
        return Op(shape, self.SHAPES[shape], params)

    def warmup(self, session: int = 0) -> List[Op]:
        rng = _rng(self.seed, "as", "warmup")
        return [self._op(shape, rng) for shape in self.SHAPES]

    def round(self, index: int, session: int = 0) -> List[Op]:
        rng = _rng(self.seed, "as", "round", index)
        ops = [self._op(shape, rng) for shape in self.MIX]
        rng.shuffle(ops)
        return ops

    def expected(self, op: Op) -> List[Tuple[Any, ...]]:
        level = op.params[0]
        shape = op.cls
        if shape == "filter_scan":
            return [(e[0], e[3]) for e in self.expr
                    if e[3] > level and e[2] == op.params[1]]
        if shape == "topk_sort":
            rows = [(e[0], e[3]) for e in self.expr if e[3] < level]
            return sorted(rows, key=lambda r: (-r[1], r[0]))[:20]
        kept = [e for e in self.expr if e[3] > level]
        if shape == "hash_join":
            return [(e[0], self.genes[e[1]][1]) for e in kept]
        if shape == "full_sort":
            return sorted(((e[0], e[4]) for e in kept), key=lambda r: (r[1], r[0]))
        if shape == "distinct":
            return list({(e[1], e[2]) for e in kept})
        groups: Dict[Any, List[float]] = {}
        for e in kept:
            key = e[1] if shape == "group_by" else self.genes[e[1]][2]
            groups.setdefault(key, []).append(e[3])
        if shape == "group_by":
            return [(key, len(levels), math.fsum(levels) / len(levels))
                    for key, levels in groups.items()]
        return [(key, len(levels), max(levels)) for key, levels in groups.items()]

    def check(self, op: Op, rows: Sequence[CheckRow]) -> bool:
        got, want = _plain(rows), self.expected(op)
        if op.cls not in self.ORDERED:
            got, want = sorted(got), sorted(want)
        if op.cls != "group_by":
            return got == want
        # AVG sums floats in the engine's own order: compare to 1e-9.
        return len(got) == len(want) and all(
            g[:2] == w[:2] and math.isclose(g[2], w[2], rel_tol=1e-9)
            for g, w in zip(got, want))


DATASETS = {
    "served_point_read": PointReadData,
    "annotated_query": AnnotatedQueryData,
    "curation_write": CurationWriteData,
    "analytic_scan": AnalyticScanData,
}
