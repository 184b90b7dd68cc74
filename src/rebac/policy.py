"""Privileges, guards, principals, rule maps, and the loadable policy document.

A guard states an operation's privilege requirement: ``one-of(P)`` is met
by holding any privilege in P, ``all-of(P)`` by holding every one.  An
authorization principal is a role-like abstraction whose membership is
decided per request by its relationship predicate; its matching rule maps
it to a formula and its authorization rule grants it a privilege set.
Only positive privileges exist and every rule applies to all resources.

The whole policy lives in one JSON document::

    {
      "relations":           [{"name", "category"}],
      "formulas":            [{"id", "vars": [..], "text"}],
      "matching_rules":      [{"principal", "formula_id"}],
      "authorization_rules": [{"principal", "privileges": [..]}],
      "rbac":                {"roles": [{"name", "privileges": [..]}],
                              "user_roles": [{"user", "roles": [..]}]},
      "admin_actions":       [{"id", "enabling", "participants": [..],
                               "applicability",
                               "effects": [{"op", "rel", "x", "y"}]}],
      "owners":              [{"resource", "owner"}]
    }

``load_policy`` builds the store and records recoverable problems;
``validate`` returns the full diagnostics list, empty iff the store is
sound.  The store is immutable after load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, TYPE_CHECKING

from . import hl
from .admin import PRIMARY_PARTICIPANTS, AdminActionDecl, Update
from .errors import PolicyError, RebacError
from .graph import ACCESS_CONTROL, RELATION_CATEGORIES, AuthorizationGraph

if TYPE_CHECKING:
    from .rbac import RbacTables

ONE_OF = "one-of"
ALL_OF = "all-of"
GUARD_KINDS = (ONE_OF, ALL_OF)


@dataclass(frozen=True)
class Guard:
    kind: str
    privileges: frozenset[str]

    def __post_init__(self):
        if self.kind not in GUARD_KINDS:
            raise ValueError(f"guard kind must be one of {GUARD_KINDS}, got {self.kind!r}")
        if not self.privileges:
            raise ValueError("guard privilege set must be non-empty")
        object.__setattr__(self, "privileges", frozenset(self.privileges))

    @classmethod
    def one_of(cls, *privileges: str) -> "Guard":
        return cls(ONE_OF, frozenset(privileges))

    @classmethod
    def all_of(cls, *privileges: str) -> "Guard":
        return cls(ALL_OF, frozenset(privileges))

    def to_json(self) -> dict:
        return {"kind": self.kind, "privileges": sorted(self.privileges)}


def satisfies(granted: AbstractSet[str], guard: Guard) -> bool:
    """one-of: the sets intersect; all-of: the requirement is a subset."""
    if guard.kind == ONE_OF:
        return not guard.privileges.isdisjoint(granted)
    return guard.privileges <= granted


def guard_from_json(obj) -> Guard:
    if not isinstance(obj, Mapping):
        raise PolicyError(f"guard must be an object, got {type(obj).__name__}")
    try:
        return Guard(obj["kind"], frozenset(obj["privileges"]))
    except KeyError as exc:
        raise PolicyError(f"guard missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise PolicyError(f"bad guard: {exc}") from exc


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass
class PolicyStore:
    relations: dict[str, str] = field(default_factory=dict)
    formulas: hl.FormulaLibrary = field(default_factory=dict)
    matching_rules: dict[str, str] = field(default_factory=dict)
    authorization_rules: dict[str, frozenset[str]] = field(default_factory=dict)
    rbac: "RbacTables | None" = None
    admin_actions: dict[str, AdminActionDecl] = field(default_factory=dict)
    owners: dict[str, tuple[str, ...]] = field(default_factory=dict)
    load_issues: list[Diagnostic] = field(default_factory=list)

    def __post_init__(self):
        if self.rbac is None:
            from .rbac import empty_tables
            self.rbac = empty_tables()


def _entries(doc: Mapping, key: str) -> Iterable[Mapping]:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise PolicyError(f"{key!r} must be a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, Mapping):
            raise PolicyError(f"{key}[{i}] must be an object")
        yield entry


def _str_field(entry: Mapping, key: str, where: str) -> str:
    try:
        value = entry[key]
    except KeyError:
        raise PolicyError(f"{where} missing field {key!r}") from None
    if not isinstance(value, str):
        raise PolicyError(f"{where}.{key} must be a string")
    return value


def _str_list(entry: Mapping, key: str, where: str) -> list[str]:
    value = entry.get(key, [])
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise PolicyError(f"{where}.{key} must be a list of strings")
    return value


def load_policy(doc: Mapping) -> PolicyStore:
    """Build a PolicyStore from a parsed policy document.

    Structurally malformed documents raise PolicyError; recoverable
    semantic problems (bad formula text, duplicate ids) are recorded and
    reported by validate().
    """
    if not isinstance(doc, Mapping):
        raise PolicyError("policy document must be a JSON object")
    issues: list[Diagnostic] = []

    relations: dict[str, str] = {}
    for entry in _entries(doc, "relations"):
        name = _str_field(entry, "name", "relations")
        category = _str_field(entry, "category", "relations")
        if category not in RELATION_CATEGORIES:
            raise PolicyError(f"relation {name!r} has unknown category {category!r}")
        if name in relations and relations[name] != category:
            issues.append(Diagnostic("duplicate-relation", name,
                                     "declared with conflicting categories"))
        relations[name] = category

    formulas: hl.FormulaLibrary = {}
    for entry in _entries(doc, "formulas"):
        fid = _str_field(entry, "id", "formulas")
        text = _str_field(entry, "text", "formulas")
        fvars = _str_list(entry, "vars", f"formulas[{fid}]")
        if fid in formulas:
            issues.append(Diagnostic("duplicate-formula", fid, "formula id declared twice"))
            continue
        try:
            formulas[fid] = hl.parse(text, fvars)
        except RebacError as exc:
            issues.append(Diagnostic("invalid-formula", fid, str(exc)))

    matching: dict[str, str] = {}
    for entry in _entries(doc, "matching_rules"):
        principal = _str_field(entry, "principal", "matching_rules")
        fid = _str_field(entry, "formula_id", "matching_rules")
        if principal in matching:
            issues.append(Diagnostic("duplicate-principal", principal,
                                     "more than one principal matching rule"))
            continue
        matching[principal] = fid

    authorization: dict[str, frozenset[str]] = {}
    for entry in _entries(doc, "authorization_rules"):
        principal = _str_field(entry, "principal", "authorization_rules")
        privileges = frozenset(_str_list(entry, "privileges", "authorization_rules"))
        if principal in authorization:
            issues.append(Diagnostic("duplicate-principal", principal,
                                     "more than one authorization rule"))
            continue
        authorization[principal] = privileges

    rbac_doc = doc.get("rbac", {})
    if not isinstance(rbac_doc, Mapping):
        raise PolicyError("'rbac' must be an object")
    privilege_assignment: dict[str, frozenset[str]] = {}
    for entry in _entries(rbac_doc, "roles"):
        role = _str_field(entry, "name", "rbac.roles")
        privilege_assignment[role] = frozenset(_str_list(entry, "privileges", "rbac.roles"))
    user_assignment: dict[str, frozenset[str]] = {}
    for entry in _entries(rbac_doc, "user_roles"):
        user = _str_field(entry, "user", "rbac.user_roles")
        user_assignment[user] = frozenset(_str_list(entry, "roles", "rbac.user_roles"))
    from .rbac import RbacTables
    tables = RbacTables(frozenset(privilege_assignment), privilege_assignment, user_assignment)

    actions: dict[str, AdminActionDecl] = {}
    for entry in _entries(doc, "admin_actions"):
        aid = _str_field(entry, "id", "admin_actions")
        if aid in actions:
            issues.append(Diagnostic("duplicate-action", aid, "action id declared twice"))
            continue
        effect_entries = entry.get("effects", [])
        if not isinstance(effect_entries, list):
            raise PolicyError(f"admin_actions[{aid}].effects must be a list")
        effects = []
        for i, eff in enumerate(effect_entries):
            if not isinstance(eff, Mapping):
                raise PolicyError(f"admin_actions[{aid}].effects[{i}] must be an object")
            where = f"admin_actions[{aid}].effects"
            op = _str_field(eff, "op", where)
            if op not in ("add", "del"):
                raise PolicyError(f"{where}[{i}].op must be 'add' or 'del'")
            effects.append(Update(op, _str_field(eff, "rel", where),
                                  _str_field(eff, "x", where), _str_field(eff, "y", where)))
        actions[aid] = AdminActionDecl(
            id=aid,
            enabling=_str_field(entry, "enabling", f"admin_actions[{aid}]"),
            participants=tuple(_str_list(entry, "participants", f"admin_actions[{aid}]")),
            applicability=_str_field(entry, "applicability", f"admin_actions[{aid}]"),
            effects=tuple(effects),
        )

    owners: dict[str, list[str]] = {}
    for entry in _entries(doc, "owners"):
        resource = _str_field(entry, "resource", "owners")
        owner = _str_field(entry, "owner", "owners")
        owners.setdefault(resource, []).append(owner)

    return PolicyStore(
        relations=relations,
        formulas=formulas,
        matching_rules=matching,
        authorization_rules=authorization,
        rbac=tables,
        admin_actions=actions,
        owners={r: tuple(os) for r, os in owners.items()},
        load_issues=issues,
    )


def load_policy_file(path) -> PolicyStore:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PolicyError(f"{path}: {exc}") from exc
    return load_policy(doc)


def validate(store: PolicyStore) -> list[Diagnostic]:
    """Every policy invariant, as a diagnostics list (empty iff valid)."""
    issues = list(store.load_issues)

    for principal, fid in store.matching_rules.items():
        formula = store.formulas.get(fid)
        if formula is None:
            issues.append(Diagnostic("dangling-formula", principal,
                                     f"matching rule references unknown formula {fid!r}"))
        elif formula.arity != 2:
            issues.append(Diagnostic("bad-arity", principal,
                                     f"formula {fid!r} has arity {formula.arity}, need 2"))
        if principal not in store.authorization_rules:
            issues.append(Diagnostic("unpaired-principal", principal,
                                     "matching rule without authorization rule"))
    for principal in store.authorization_rules:
        if principal not in store.matching_rules:
            issues.append(Diagnostic("unpaired-principal", principal,
                                     "authorization rule without matching rule"))

    tables = store.rbac
    for user, roles in tables.user_assignment.items():
        for role in roles - tables.roles:
            issues.append(Diagnostic("unknown-role", user,
                                     f"user assigned undeclared role {role!r}"))

    for decl in store.admin_actions.values():
        names = decl.all_participants
        if len(set(names)) != len(names):
            issues.append(Diagnostic("bad-participants", decl.id,
                                     "participant names must be distinct and "
                                     "disjoint from user/patient"))
        if not decl.effects:
            issues.append(Diagnostic("empty-effects", decl.id, "action declares no effects"))
        enabling = store.formulas.get(decl.enabling)
        if enabling is None:
            issues.append(Diagnostic("dangling-formula", decl.id,
                                     f"enabling formula {decl.enabling!r} not found"))
        elif enabling.vars != PRIMARY_PARTICIPANTS:
            issues.append(Diagnostic("bad-enabling", decl.id,
                                     f"enabling vars must be {PRIMARY_PARTICIPANTS}, "
                                     f"got {enabling.vars}"))
        applicability = store.formulas.get(decl.applicability)
        if applicability is None:
            issues.append(Diagnostic("dangling-formula", decl.id,
                                     f"applicability formula {decl.applicability!r} not found"))
        elif applicability.vars != names:
            issues.append(Diagnostic("bad-applicability", decl.id,
                                     f"applicability vars must be {names}, "
                                     f"got {applicability.vars}"))
        seen_triples: set[tuple[str, str, str]] = set()
        for update in decl.effects:
            for participant in (update.x, update.y):
                if participant not in names:
                    issues.append(Diagnostic("unknown-participant", decl.id,
                                             f"effect references {participant!r}"))
            category = store.relations.get(update.rel)
            if category != ACCESS_CONTROL:
                issues.append(Diagnostic("bad-effect-relation", decl.id,
                                         f"effect relation {update.rel!r} must be declared "
                                         f"access-control in the policy"))
            triple = (update.rel, update.x, update.y)
            if triple in seen_triples:
                issues.append(Diagnostic("conflicting-effects", decl.id,
                                         f"effects touch {triple} more than once"))
            seen_triples.add(triple)

    return issues


def attach_policy(graph: AuthorizationGraph, store: PolicyStore) -> None:
    """Bind a loaded policy to a graph: declare its relations and load the
    owner table into the graph's edge index as system-induced ``owner``
    edges.

    Resources and owners named by the table that are absent from the graph
    are added (kinds ``resource`` / ``patient``).
    """
    with graph.write():
        for name in sorted(store.relations):
            graph.ensure_relation(name, store.relations[name])
        if store.owners:
            for resource, owner_ids in store.owners.items():
                if not graph.has_vertex(resource):
                    graph.add_vertex(resource, "resource")
                for owner in owner_ids:
                    if not graph.has_vertex(owner):
                        graph.add_vertex(owner, "patient")
            graph.add_owners(store.owners)
