"""Identity-based authorization: the classical GRANT/REVOKE model.

The paper's content-based approval mechanism (Section 6) works *with*, not in
replacement of, the existing GRANT/REVOKE model.  This module provides that
base model: users, groups, and per-table privileges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.errors import AuthorizationError

#: Privileges understood by the access control component.
PRIVILEGES = {"SELECT", "INSERT", "UPDATE", "DELETE", "ANNOTATE", "APPROVE",
              "PROVENANCE", "ALL"}


@dataclass
class GrantRecord:
    """One granted privilege on one table to one grantee."""

    privilege: str
    table: str
    grantee: str

    def key(self) -> Tuple[str, str, str]:
        return (self.privilege.upper(), self.table.lower(), self.grantee.lower())


class AccessControl:
    """Users, groups, superusers, and GRANT/REVOKE bookkeeping."""

    def __init__(self) -> None:
        self._grants: Dict[Tuple[str, str, str], GrantRecord] = {}
        self._groups: Dict[str, Set[str]] = {}
        self._superusers: Set[str] = {"admin"}

    # ------------------------------------------------------------------
    # Principals
    # ------------------------------------------------------------------
    def add_superuser(self, user: str) -> None:
        self._superusers.add(user.lower())

    def is_superuser(self, user: str) -> bool:
        return user.lower() in self._superusers

    def create_group(self, group: str, members: Optional[Iterable[str]] = None) -> None:
        key = group.lower()
        if key in self._groups:
            raise AuthorizationError(f"group {group!r} already exists")
        self._groups[key] = {member.lower() for member in (members or [])}

    def add_to_group(self, group: str, user: str) -> None:
        key = group.lower()
        if key not in self._groups:
            raise AuthorizationError(f"group {group!r} does not exist")
        self._groups[key].add(user.lower())

    def remove_from_group(self, group: str, user: str) -> None:
        key = group.lower()
        if key not in self._groups:
            raise AuthorizationError(f"group {group!r} does not exist")
        self._groups[key].discard(user.lower())

    def groups_of(self, user: str) -> Set[str]:
        lowered = user.lower()
        return {group for group, members in self._groups.items() if lowered in members}

    def is_member(self, user: str, principal: str) -> bool:
        """True when ``user`` is ``principal`` itself or a member of that group."""
        lowered, principal = user.lower(), principal.lower()
        if lowered == principal:
            return True
        return principal in self._groups and lowered in self._groups[principal]

    # ------------------------------------------------------------------
    # Grants
    # ------------------------------------------------------------------
    def grant(self, privileges: Iterable[str], table: str, grantee: str) -> List[GrantRecord]:
        records = []
        for privilege in privileges:
            privilege = privilege.upper()
            if privilege not in PRIVILEGES:
                raise AuthorizationError(f"unknown privilege {privilege!r}")
            record = GrantRecord(privilege, table, grantee)
            self._grants[record.key()] = record
            records.append(record)
        return records

    def revoke(self, privileges: Iterable[str], table: str, grantee: str) -> int:
        removed = 0
        for privilege in privileges:
            key = (privilege.upper(), table.lower(), grantee.lower())
            if key in self._grants:
                del self._grants[key]
                removed += 1
        return removed

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def has_privilege(self, user: str, privilege: str, table: str) -> bool:
        if self.is_superuser(user):
            return True
        privilege = privilege.upper()
        table = table.lower()
        principals = {user.lower()} | self.groups_of(user) | {"public"}
        for candidate_privilege in (privilege, "ALL"):
            for principal in principals:
                if (candidate_privilege, table, principal) in self._grants:
                    return True
        return False

    def check(self, user: str, privilege: str, table: str) -> None:
        """Raise :class:`AuthorizationError` when the privilege is missing."""
        if not self.has_privilege(user, privilege, table):
            raise AuthorizationError(
                f"user {user!r} lacks {privilege.upper()} privilege on table {table!r}"
            )
