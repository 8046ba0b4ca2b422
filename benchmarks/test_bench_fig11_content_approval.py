"""E6 — Figure 11: content-based approval.

A lab member issues a stream of INSERT/UPDATE/DELETE operations over a
monitored table; the lab administrator then approves or disapproves them at a
sweep of disapproval ratios.  The benchmark reports log size, verifies that
every disapproved operation's inverse statement restores the pre-operation
state, and times the logged-update and review paths.
"""

from __future__ import annotations

import random

import pytest

from bench_utils import make_db, print_table
from repro.workloads import dna_sequence

NUM_OPS = 90
DISAPPROVAL_RATIOS = (0.0, 0.25, 0.5)


def build(monitored: bool = True):
    db = make_db()
    db.execute("CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    db.execute("GRANT SELECT, INSERT, UPDATE, DELETE ON Gene TO lab_member")
    rng = random.Random(7)
    # The curated base data is loaded *before* approval monitoring starts, so
    # only the lab member's subsequent operations appear in the update log.
    for index in range(30):
        db.execute(f"INSERT INTO Gene VALUES ('JW{index:04d}', 'g{index}', "
                   f"'{dna_sequence(40, rng)}')")
    if monitored:
        db.execute("START CONTENT APPROVAL ON Gene APPROVED BY lab_admin")
        db.access.add_superuser("lab_admin")
    return db, rng


def run_member_workload(db, rng, num_ops=NUM_OPS):
    member = db.connect(user="lab_member")
    next_id = 1000
    for step in range(num_ops):
        choice = step % 3
        if choice == 0:
            member.execute(f"INSERT INTO Gene VALUES ('JW{next_id}', 'new', "
                           f"'{dna_sequence(40, rng)}')")
            next_id += 1
        elif choice == 1:
            gid = f"JW{rng.randrange(30):04d}"
            member.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(40, rng)}' "
                           f"WHERE GID = '{gid}'")
        else:
            member.execute(f"DELETE FROM Gene WHERE GID = 'JW{next_id - 1}'")


def test_review_sweep_and_inverse_correctness():
    rows = []
    for ratio in DISAPPROVAL_RATIOS:
        db, rng = build()
        snapshot = {gid: (name, seq) for gid, name, seq
                    in db.query("SELECT * FROM Gene").values()}
        run_member_workload(db, rng)
        pending = db.approval.pending_operations()
        disapproved = 0
        for index, op in enumerate(pending):
            if index < int(len(pending) * ratio):
                db.approval.disapprove(op.op_id, "lab_admin")
                disapproved += 1
            else:
                db.approval.approve(op.op_id, "lab_admin")
        stats = db.approval.statistics()
        rows.append([f"{ratio:.0%}", stats["TOTAL"], stats["APPROVED"],
                     stats["DISAPPROVED"]])
        assert stats["TOTAL"] == NUM_OPS
        assert stats["PENDING"] == 0
        assert stats["DISAPPROVED"] == disapproved
    print_table("E6/Figure 11 — content-approval review sweep",
                ["disapproval ratio", "logged ops", "approved", "disapproved"], rows)


def test_full_disapproval_restores_monitored_updates():
    """Disapproving every UPDATE restores the original sequences."""
    db, rng = build()
    original = dict((gid, seq) for gid, _, seq in db.query("SELECT * FROM Gene").values())
    member = db.connect(user="lab_member")
    for gid in list(original)[:10]:
        member.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(40, rng)}' "
                       f"WHERE GID = '{gid}'")
    for op in db.approval.pending_operations():
        db.approval.disapprove(op.op_id, "lab_admin")
    restored = dict((gid, seq) for gid, _, seq in db.query("SELECT * FROM Gene").values())
    assert restored == original


def test_bench_monitored_update(benchmark):
    db, rng = build(monitored=True)
    member = db.connect(user="lab_member")

    def run():
        gid = f"JW{rng.randrange(30):04d}"
        member.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(40, rng)}' "
                       f"WHERE GID = '{gid}'")

    benchmark(run)
    assert db.approval.log_size() > 0


def test_bench_unmonitored_update(benchmark):
    db, rng = build(monitored=False)
    member = db.connect(user="lab_member")

    def run():
        gid = f"JW{rng.randrange(30):04d}"
        member.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(40, rng)}' "
                       f"WHERE GID = '{gid}'")

    benchmark(run)
    assert db.approval.log_size() == 0


def test_bench_disapprove_rollback(benchmark):
    db, rng = build()
    member = db.connect(user="lab_member")
    for index in range(200):
        gid = f"JW{index % 30:04d}"
        member.execute(f"UPDATE Gene SET GSequence = '{dna_sequence(40, rng)}' "
                       f"WHERE GID = '{gid}'")
    pending = iter(db.approval.pending_operations())

    def run():
        op = next(pending)
        db.approval.disapprove(op.op_id, "lab_admin")

    benchmark.pedantic(run, rounds=30, iterations=1)
