"""A community-curated gene database: provenance + content-based approval.

Models the scenario of Sections 4 and 6: data integrated from several source
databases with system-maintained provenance, lab members performing updates
that the lab administrator reviews based on their *content*, and disapproved
changes rolled back by the automatically generated inverse statements.

Run with:  python examples/curated_gene_database.py
"""

from __future__ import annotations

import random
from datetime import datetime

from repro import Database
from repro.workloads import dna_sequence


def load_from_sources(db: Database, rng: random.Random) -> None:
    """Integration tools load genes from two source databases with provenance."""
    cur = db.connect().cursor()
    cur.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    db.provenance.register_tool("regulondb-loader")
    db.provenance.register_tool("genobase-loader")
    loads = [("RegulonDB", "regulondb-loader", 0, 8),
             ("GenoBase", "genobase-loader", 8, 14)]
    for source, tool, start, end in loads:
        tuple_ids = []
        for index in range(start, end):
            cur.execute("INSERT INTO Gene VALUES (?, ?, ?)",
                        (f"JW{index:04d}", f"g{index}", dna_sequence(45, rng)))
            tuple_ids.append(cur.lastrowid)
        cells = db.annotations.cells_for("Gene", tuple_ids)
        db.provenance.record("Gene", cells, source=source, operation="copy",
                             agent=tool, program=tool,
                             time=datetime(2006, 1, 1 + start))
        print(f"loaded {end - start} genes from {source} (provenance recorded)")


def curate(db: Database, rng: random.Random) -> None:
    """Lab members update sequences; the administrator reviews the changes."""
    cur = db.connect().cursor()
    cur.execute("GRANT SELECT, INSERT, UPDATE, DELETE ON Gene TO lab_members")
    db.access.create_group("lab_members", ["alice", "bob"])
    cur.execute("START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY lab_admin")
    db.access.add_superuser("lab_admin")

    # Each member's statements run on a connection bound to that user.
    alice, bob = db.connect(user="alice"), db.connect(user="bob")
    alice.execute("UPDATE Gene SET GSequence = 'ATG" + "C" * 20 + "' WHERE GID = 'JW0001'")
    bob.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(45, rng)}' "
                "WHERE GID = 'JW0002'")
    bob.execute("UPDATE Gene SET GSequence = 'NNNNNN' WHERE GID = 'JW0003'")

    print("\npending operations awaiting review:")
    for op in db.approval.pending_operations():
        print(f"  #{op.op_id} {op.op_type.value} by {op.user} on {op.table} "
              f"tuple {op.tuple_id}: {op.changes}")

    # The administrator reviews *content*: the suspicious all-N sequence is
    # rejected, the others are accepted.
    for op in db.approval.pending_operations():
        new_sequence = op.changes.get("GSequence", "")
        if set(new_sequence) == {"N"}:
            db.approval.disapprove(op.op_id, "lab_admin")
            print(f"  -> disapproved #{op.op_id} (sequence is all Ns); "
                  f"inverse statement executed")
        else:
            db.approval.approve(op.op_id, "lab_admin")
            print(f"  -> approved #{op.op_id}")

    cur.execute("SELECT GSequence FROM Gene WHERE GID = ?", ("JW0003",))
    restored = cur.fetchone()[0]
    print(f"\nJW0003 sequence after disapproval rollback: {restored[:20]}... "
          f"(original restored: {set(restored) != {'N'}})")


def audit(db: Database) -> None:
    """Queries over provenance: where did each value come from, and when?"""
    print("\nprovenance summary per source:")
    for source, count in sorted(db.provenance.sources_of_table("Gene").items()):
        print(f"  {source}: {count} provenance record(s)")

    tuple_id = db.table("Gene").tuple_ids[0]
    record = db.provenance.source_at("Gene", tuple_id, "GSequence")
    print(f"\ncurrent source of the first gene's sequence: {record.source} "
          f"(loaded {record.time.date()} by {record.program})")

    cur = db.connect().cursor()
    cur.execute(
        "SELECT GID FROM Gene ANNOTATION(provenance) "
        "AWHERE annotation.value LIKE '%GenoBase%'"
    )
    print(f"genes whose provenance mentions GenoBase: "
          f"{[row[0] for row in cur.fetchall()]}")
    print(f"\napproval log statistics: {db.approval.statistics()}")


def main() -> None:
    rng = random.Random(11)
    db = Database()
    load_from_sources(db, rng)
    curate(db, rng)
    audit(db)


if __name__ == "__main__":
    main()
