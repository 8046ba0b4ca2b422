"""Workload builders that reproduce the paper's running examples.

* :func:`build_gene_tables` creates the DB1_Gene / DB2_Gene pair of Figures 2
  and 3, including annotations A1–A3 and B1–B5 shaped like the paper's, with
  a configurable number of genes and a configurable overlap between the two
  tables (the overlap is what the INTERSECT example queries).
* :func:`build_gene_protein_pipeline` creates the Gene / Protein /
  GeneMatching schema of Figure 9 together with its procedural dependency
  rules (prediction tool P, the lab experiment, and BLAST-2.2.15).

Both take a :class:`~repro.core.database.Database` and load it through a
DB-API cursor of their own (``db.connect()``), as the admin user.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.database import Database
from repro.dependencies.rules import DependencyRule, Procedure
from repro.workloads.sequences import (
    dna_sequence,
    gene_identifier,
    gene_name,
    protein_sequence,
)


def build_gene_tables(db: Database, num_genes: int = 50, overlap: float = 0.4,
                      seed: int = 21, annotation_scheme: Optional[str] = None,
                      sequence_length: int = 60) -> Dict[str, List[str]]:
    """Create and populate DB1_Gene and DB2_Gene with annotations.

    Returns a mapping with the gene ids loaded into each table and the ids of
    the genes common to both (``"common"``).
    """
    if annotation_scheme is not None:
        db.config.default_annotation_scheme = annotation_scheme
    rng = random.Random(seed)
    cur = db.connect().cursor()
    cur.execute(
        "CREATE TABLE DB1_Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)"
    )
    cur.execute(
        "CREATE TABLE DB2_Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)"
    )
    cur.execute("CREATE ANNOTATION TABLE GAnnotation ON DB1_Gene")
    cur.execute("CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene")

    num_common = int(num_genes * overlap)
    db1_ids: List[str] = []
    db2_ids: List[str] = []
    common: List[str] = []

    def insert_gene(table: str, index: int, gid: str, name: str, seq: str) -> None:
        cur.execute(f"INSERT INTO {table} VALUES (?, ?, ?)", (gid, name, seq))

    # Genes present in both tables (same data, different annotations).
    for index in range(num_common):
        gid = gene_identifier(index)
        name = gene_name(index, rng)
        seq = dna_sequence(sequence_length, rng)
        insert_gene("DB1_Gene", index, gid, name, seq)
        insert_gene("DB2_Gene", index, gid, name, seq)
        db1_ids.append(gid)
        db2_ids.append(gid)
        common.append(gid)
    # Genes unique to DB1.
    for index in range(num_common, num_genes):
        gid = gene_identifier(index)
        insert_gene("DB1_Gene", index, gid, gene_name(index, rng),
                    dna_sequence(sequence_length, rng))
        db1_ids.append(gid)
    # Genes unique to DB2.
    for index in range(num_genes, num_genes + (num_genes - num_common)):
        gid = gene_identifier(index)
        insert_gene("DB2_Gene", index, gid, gene_name(index, rng),
                    dna_sequence(sequence_length, rng))
        db2_ids.append(gid)

    # Annotations shaped like the paper's A1-A3 / B1-B5.
    half = db1_ids[: max(1, len(db1_ids) // 2)]
    half_list = ", ".join(f"'{gid}'" for gid in half)
    cur.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation "
        "VALUE 'These genes are published in J. Bact. 2006' "
        f"ON (SELECT G.GID, G.GName FROM DB1_Gene G WHERE G.GID IN ({half_list}))"
    )
    cur.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation "
        "VALUE 'These genes were obtained from RegulonDB' "
        "ON (SELECT G.* FROM DB1_Gene G)"
    )
    first_gid = db1_ids[0]
    cur.execute(
        "ADD ANNOTATION TO DB1_Gene.GAnnotation "
        "VALUE 'Involved in methyltransferase activity' "
        f"ON (SELECT G.GSequence FROM DB1_Gene G WHERE G.GID = '{first_gid}')"
    )
    cur.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation "
        "VALUE 'obtained from GenoBase' "
        "ON (SELECT G.GSequence FROM DB2_Gene G)"
    )
    cur.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation "
        "VALUE 'Curated by user admin' "
        f"ON (SELECT G.* FROM DB2_Gene G WHERE G.GID = '{db2_ids[0]}')"
    )
    cur.execute(
        "ADD ANNOTATION TO DB2_Gene.GAnnotation "
        "VALUE 'This gene has an unknown function' "
        f"ON (SELECT G.* FROM DB2_Gene G WHERE G.GID = '{db2_ids[-1]}')"
    )
    return {"db1": db1_ids, "db2": db2_ids, "common": common}


def _derive_protein_sequence(source_row: Dict[str, object],
                             target_row: Dict[str, object]) -> str:
    """Deterministic stand-in for the prediction tool P of Figure 9.

    Maps DNA codON triplets to a pseudo-residue alphabet so that re-running
    the "tool" on a changed gene sequence yields a changed protein sequence.
    """
    gene = str(source_row.get("gsequence") or source_row.get("GSequence") or "")
    alphabet = "ACDEFGHIKLMNPQRSTVWY"
    residues = []
    for index in range(0, max(len(gene) - 2, 0), 3):
        codon = gene[index:index + 3]
        residues.append(alphabet[sum(ord(c) for c in codon) % len(alphabet)])
    return "".join(residues) or "M"


def _blast_evalue(source_row: Dict[str, object],
                  target_row: Dict[str, object]) -> float:
    """Deterministic stand-in for BLAST-2.2.15's Evalue computation."""
    gene1 = str(source_row.get("gene1", ""))
    gene2 = str(source_row.get("gene2", ""))
    matches = sum(1 for a, b in zip(gene1, gene2) if a == b)
    length = max(len(gene1), len(gene2), 1)
    return round(10 ** (-10 * matches / length), 12)


def build_gene_protein_pipeline(db: Database, num_genes: int = 30, seed: int = 33,
                                sequence_length: int = 60,
                                with_matching: bool = True) -> Dict[str, List[int]]:
    """Create the Figure 9 schema, data, and procedural dependency rules.

    Returns the tuple ids inserted into each table, keyed by table name.
    """
    rng = random.Random(seed)
    cur = db.connect().cursor()
    cur.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    cur.execute(
        "CREATE TABLE Protein (PName TEXT PRIMARY KEY, GID TEXT, "
        "PSequence SEQUENCE, PFunction TEXT)"
    )
    gene_ids: List[int] = []
    protein_ids: List[int] = []
    functions = ["Hypothetical protein", "Cell wall formation", "Exhibitor",
                 "Transcription factor", "Membrane transport"]
    gene_rows = []
    for index in range(num_genes):
        gid = gene_identifier(index)
        name = gene_name(index, rng)
        seq = dna_sequence(sequence_length, rng)
        gene_rows.append((gid, name, seq))
        cur.execute("INSERT INTO Gene VALUES (?, ?, ?)", (gid, name, seq))
        gene_ids.append(cur.lastrowid)
        pseq = _derive_protein_sequence({"gsequence": seq}, {})
        function = functions[index % len(functions)]
        cur.execute("INSERT INTO Protein VALUES (?, ?, ?, ?)",
                    (name, gid, pseq, function))
        protein_ids.append(cur.lastrowid)

    prediction_tool = Procedure("Prediction tool P", executable=True,
                                invertible=False,
                                implementation=_derive_protein_sequence)
    lab_experiment = Procedure("Lab experiment", executable=False, invertible=False)
    db.tracker.register_rule(DependencyRule.create(
        name="gene_to_protein_sequence",
        sources=[("Gene", "GSequence")],
        targets=[("Protein", "PSequence")],
        procedure=prediction_tool,
        source_key="GID", target_key="GID",
    ))
    db.tracker.register_rule(DependencyRule.create(
        name="protein_sequence_to_function",
        sources=[("Protein", "PSequence")],
        targets=[("Protein", "PFunction")],
        procedure=lab_experiment,
    ))

    matching_ids: List[int] = []
    if with_matching:
        cur.execute(
            "CREATE TABLE GeneMatching (Gene1 SEQUENCE, Gene2 SEQUENCE, Evalue FLOAT)"
        )
        blast = Procedure("BLAST-2.2.15", executable=True, invertible=False,
                          implementation=_blast_evalue)
        db.tracker.register_rule(DependencyRule.create(
            name="blast_evalue",
            sources=[("GeneMatching", "Gene1"), ("GeneMatching", "Gene2")],
            targets=[("GeneMatching", "Evalue")],
            procedure=blast,
        ))
        for index in range(0, num_genes - 1, 2):
            gene1 = gene_rows[index][2]
            gene2 = gene_rows[index + 1][2]
            evalue = _blast_evalue({"gene1": gene1, "gene2": gene2}, {})
            cur.execute("INSERT INTO GeneMatching VALUES (?, ?, ?)",
                        (gene1, gene2, evalue))
            matching_ids.append(cur.lastrowid)
    return {"gene": gene_ids, "protein": protein_ids, "genematching": matching_ids}
