"""Tests for GRANT/REVOKE and the content-based approval mechanism (Section 6)."""

from __future__ import annotations

import pytest

from repro import Database
from repro.authorization.approval import OperationStatus, OperationType
from repro.authorization.grants import AccessControl
from repro.core.errors import (
    ApprovalError,
    AuthorizationError,
    OperationalError,
)
from sql_helpers import fetch, run, values


class TestAccessControl:
    def test_grant_and_check(self):
        access = AccessControl()
        access.grant(["SELECT", "INSERT"], "Gene", "alice")
        assert access.has_privilege("alice", "select", "gene")
        assert not access.has_privilege("alice", "DELETE", "Gene")

    def test_all_privilege(self):
        access = AccessControl()
        access.grant(["ALL"], "Gene", "alice")
        assert access.has_privilege("alice", "DELETE", "Gene")

    def test_unknown_privilege_rejected(self):
        access = AccessControl()
        with pytest.raises(AuthorizationError):
            access.grant(["FLY"], "Gene", "alice")

    def test_revoke(self):
        access = AccessControl()
        access.grant(["SELECT"], "Gene", "alice")
        assert access.revoke(["SELECT"], "Gene", "alice") == 1
        assert not access.has_privilege("alice", "SELECT", "Gene")

    def test_groups(self):
        access = AccessControl()
        access.create_group("lab_members", ["alice", "bob"])
        access.grant(["UPDATE"], "Gene", "lab_members")
        assert access.has_privilege("bob", "UPDATE", "Gene")
        access.remove_from_group("lab_members", "bob")
        assert not access.has_privilege("bob", "UPDATE", "Gene")

    def test_public_grants(self):
        access = AccessControl()
        access.grant(["SELECT"], "Gene", "public")
        assert access.has_privilege("random_person", "SELECT", "Gene")

    def test_superuser_bypasses_checks(self):
        access = AccessControl()
        assert access.has_privilege("admin", "DELETE", "anything")
        access.add_superuser("root")
        assert access.has_privilege("root", "DELETE", "anything")

    def test_is_member(self):
        access = AccessControl()
        access.create_group("curators", ["carol"])
        assert access.is_member("carol", "curators")
        assert access.is_member("carol", "carol")
        assert not access.is_member("dave", "curators")

    def test_check_raises(self):
        access = AccessControl()
        with pytest.raises(AuthorizationError):
            access.check("eve", "SELECT", "Gene")


@pytest.fixture
def approval_db(db):
    """A monitored table with a lab-member user, per Figure 11."""
    run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
    run(db, "GRANT SELECT, INSERT, UPDATE, DELETE ON Gene TO lab_member")
    run(db, "START CONTENT APPROVAL ON Gene APPROVED BY lab_admin")
    db.access.add_superuser("lab_admin")
    return db


class TestContentApproval:
    def test_operations_are_logged_with_inverse(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        member.execute("UPDATE Gene SET GSequence = 'ATGCCC' WHERE GID = 'JW1'")
        member.execute("DELETE FROM Gene WHERE GID = 'JW1'")
        log = approval_db.approval.log_entries()
        assert [op.op_type for op in log] == [
            OperationType.INSERT, OperationType.UPDATE, OperationType.DELETE,
        ]
        assert all(op.is_pending for op in log)
        assert log[1].inverse.values == {"GSequence": "ATG"}
        assert log[2].inverse.op_type is OperationType.INSERT

    def test_pending_data_remains_visible(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        assert len(fetch(approval_db, "SELECT * FROM Gene")) == 1

    def test_approve_keeps_change(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        op = approval_db.approval.pending_operations()[0]
        approved = approval_db.approval.approve(op.op_id, "lab_admin")
        assert approved.status is OperationStatus.APPROVED
        assert len(fetch(approval_db, "SELECT * FROM Gene")) == 1

    def test_disapprove_insert_removes_row(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        op = approval_db.approval.pending_operations()[0]
        approval_db.approval.disapprove(op.op_id, "lab_admin")
        assert len(fetch(approval_db, "SELECT * FROM Gene")) == 0

    def test_disapprove_update_restores_old_values(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        member.execute("UPDATE Gene SET GSequence = 'TTTT' WHERE GID = 'JW1'")
        update_op = approval_db.approval.log_entries()[-1]
        approval_db.approval.disapprove(update_op.op_id, "lab_admin")
        assert values(approval_db, "SELECT GSequence FROM Gene") == [("ATG",)]

    def test_disapprove_delete_restores_row(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        member.execute("DELETE FROM Gene WHERE GID = 'JW1'")
        delete_op = approval_db.approval.log_entries()[-1]
        approval_db.approval.disapprove(delete_op.op_id, "lab_admin")
        assert values(approval_db, "SELECT GID FROM Gene") == [("JW1",)]

    def test_only_designated_approver_can_review(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        op = approval_db.approval.pending_operations()[0]
        with pytest.raises(AuthorizationError):
            approval_db.approval.approve(op.op_id, "lab_member")

    def test_double_review_rejected(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        op = approval_db.approval.pending_operations()[0]
        approval_db.approval.approve(op.op_id, "lab_admin")
        with pytest.raises(ApprovalError):
            approval_db.approval.disapprove(op.op_id, "lab_admin")

    def test_column_scoped_monitoring(self, db):
        run(db, "CREATE TABLE Gene (GID TEXT PRIMARY KEY, GName TEXT, GSequence SEQUENCE)")
        run(db, "GRANT ALL ON Gene TO lab_member")
        run(db, "START CONTENT APPROVAL ON Gene COLUMNS GSequence APPROVED BY admin")
        member = db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        member.execute("UPDATE Gene SET GName = 'renamed' WHERE GID = 'JW1'")
        member.execute("UPDATE Gene SET GSequence = 'TTT' WHERE GID = 'JW1'")
        ops = db.approval.log_entries()
        # The GName-only update is not monitored.
        assert len(ops) == 2
        assert {op.op_type for op in ops} == {OperationType.INSERT, OperationType.UPDATE}

    def test_stop_content_approval(self, approval_db):
        run(approval_db, "STOP CONTENT APPROVAL ON Gene")
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW9', 'x', 'ATG')")
        assert approval_db.approval.log_size() == 0

    def test_stop_without_start_raises(self, db):
        run(db, "CREATE TABLE T (a INTEGER)")
        with pytest.raises(OperationalError) as info:
            run(db, "STOP CONTENT APPROVAL ON T")
        assert isinstance(info.value.__cause__, ApprovalError)

    def test_disapproval_triggers_dependency_invalidation(self, pipeline_db):
        db = pipeline_db
        run(db, "GRANT ALL ON Gene TO member")
        run(db, "START CONTENT APPROVAL ON Gene APPROVED BY admin")
        run(db, "UPDATE Gene SET GSequence = 'ATGTTT' WHERE GID = 'JW0001'",
                   user="member")
        op = db.approval.pending_operations()[0]
        _, impact = db.approval.disapprove(op.op_id, "admin")
        # Undoing the update re-runs dependency tracking on the restored value.
        assert impact.total_affected >= 1

    def test_statistics(self, approval_db):
        member = approval_db.connect(user="lab_member")
        member.execute("INSERT INTO Gene VALUES ('JW1', 'a', 'ATG')")
        member.execute("INSERT INTO Gene VALUES ('JW2', 'b', 'ATG')")
        ops = approval_db.approval.pending_operations()
        approval_db.approval.approve(ops[0].op_id, "lab_admin")
        approval_db.approval.disapprove(ops[1].op_id, "lab_admin")
        stats = approval_db.approval.statistics()
        assert stats["APPROVED"] == 1
        assert stats["DISAPPROVED"] == 1
        assert stats["TOTAL"] == 2
