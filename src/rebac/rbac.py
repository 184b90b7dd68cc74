"""Flat RBAC baseline: role tables and the privileges they grant.

No role hierarchy (roles arrive pre-flattened) and no sessions: every
role assigned to a user counts as active on every request.  The role
check itself is ``engine.check`` in ``rbac-only`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class RbacTables:
    roles: frozenset[str]
    privilege_assignment: Mapping[str, frozenset[str]]  # role -> privileges
    user_assignment: Mapping[str, frozenset[str]]  # user -> roles


def empty_tables() -> RbacTables:
    return RbacTables(frozenset(), {}, {})


def rbac_privileges(tables: RbacTables, user: str) -> frozenset[str]:
    """Union of the privilege sets of every role assigned to the user.

    Unknown users and unassigned roles contribute nothing.
    """
    assigned = tables.privilege_assignment
    return frozenset().union(*[assigned.get(role, frozenset())
                               for role in tables.user_assignment.get(user, ())])

