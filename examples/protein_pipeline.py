"""A gene -> protein analysis pipeline with local dependency tracking.

Reproduces Figures 9 and 10: protein sequences are derived from gene
sequences by a prediction tool the database can execute; protein functions
come from wet-lab experiments the database cannot re-run; BLAST E-values
depend on pairs of gene sequences.  When gene sequences change, bdbms
re-computes what it can and marks the rest outdated, reporting it through
query answers until a curator revalidates it.

Run with:  python examples/protein_pipeline.py
"""

from __future__ import annotations

import random

from repro import Database
from repro.workloads import build_gene_protein_pipeline, dna_sequence


def show_outdated(db: Database) -> None:
    report = db.tracker.outdated_report()
    if not report:
        print("  (no outdated items)")
        return
    for table, cells in report.items():
        for tuple_id, column in cells:
            print(f"  {table}[{tuple_id}].{column} is OUTDATED")


def main() -> None:
    rng = random.Random(2026)
    db = Database()
    build_gene_protein_pipeline(db, num_genes=8, seed=17)
    cur = db.connect().cursor()

    print("registered procedural dependency rules:")
    for rule in db.tracker.rules:
        print(f"  {rule}")
    print("\nderived rules (chaining, like the paper's rule 4):")
    for rule in db.tracker.rules.derive_chained_rules():
        print(f"  {rule}")

    # -- a gene sequence is re-sequenced -------------------------------------
    print("\nre-sequencing gene JW0002 ...")
    protein = "SELECT PName, PSequence FROM Protein WHERE GID = ?"
    before = cur.execute(protein, ("JW0002",)).fetchone()
    cur.execute("UPDATE Gene SET GSequence = ? WHERE GID = ?",
                (dna_sequence(60, rng), "JW0002"))
    after = cur.execute(protein, ("JW0002",)).fetchone()
    print(f"  re-computed automatically : Protein {after[0]} PSequence "
          f"{before[1][:12]}... -> {after[1][:12]}...")
    print("outdated items after the update:")
    show_outdated(db)

    # -- outdated status rides along with query answers -----------------------
    cur.execute("SELECT PName, PFunction FROM Protein")
    print("\nquerying Protein — answers involving outdated items carry a warning:")
    for row in cur.fetchall():
        bodies = sorted(a.body for a in row.all_annotations())
        marker = " <-- " + bodies[0] if bodies else ""
        print(f"  {row.values[0]:<10} {row.values[1]}{marker}")

    # -- the wet lab re-verifies the protein function --------------------------
    outdated_cells = db.tracker.outdated_cells("Protein")
    tuple_id, column = outdated_cells[0]
    print(f"\nlab re-verifies Protein[{tuple_id}].{column}; revalidating ...")
    db.tracker.revalidate("Protein", tuple_id, column, new_value="Methyltransferase")
    show_outdated(db)

    # -- a new BLAST version is installed --------------------------------------
    print("\nBLAST-2.2.15 upgraded: re-evaluating its closure ...")
    impact = db.tracker.procedure_changed("BLAST-2.2.15")
    print(f"  re-computed {len(impact.recomputed)} E-value(s), "
          f"marked {len(impact.marked_outdated)} outdated")
    print(f"  columns depending on BLAST-2.2.15: "
          f"{sorted(db.tracker.rules.procedure_closure('BLAST-2.2.15'))}")

    # -- instance-level dependencies -------------------------------------------
    print("\nregistering an instance-level dependency (manual curation note):")
    db.tracker.register_instance_dependency(
        ("Protein", 0, "PFunction"), ("Protein", 1, "PFunction"),
        procedure="curator analogy", executable=False,
    )
    cur.execute("UPDATE Protein SET PFunction = ? WHERE PName = ?",
                ("Cell division", db.table("Protein").read_cell(0, "PName")))
    show_outdated(db)


if __name__ == "__main__":
    main()
