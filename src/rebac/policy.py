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
sound; ``policy_document`` writes it back.  The store is immutable after
load and groups its principals by formula once, when it is built.
``str_field`` and ``str_list`` check every JSON field that enters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from . import hl
from .errors import PolicyError, RebacError
from .graph import ACCESS_CONTROL, RELATION_CATEGORIES, AuthorizationGraph
from .rbac import RbacTables, empty_tables

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
    kind = str_field(obj, "kind", "guard")
    privileges = frozenset(str_list(obj, "privileges", "guard"))
    try:
        return Guard(kind, privileges)
    except ValueError as exc:
        raise PolicyError(f"bad guard: {exc}") from exc


PRIMARY_PARTICIPANTS = ("user", "patient")


@dataclass(frozen=True)
class Update:
    op: str  # "add" | "del"
    rel: str  # must be an access-control relation
    x: str  # participant name (primary or auxiliary)
    y: str


@dataclass(frozen=True)
class AdminActionDecl:
    id: str
    enabling: str  # formula id over vars (user, patient)
    participants: tuple[str, ...]  # auxiliary participant names
    applicability: str  # formula id over vars (user, patient, *participants)
    effects: tuple[Update, ...]

    @property
    def all_participants(self) -> tuple[str, ...]:
        return PRIMARY_PARTICIPANTS + self.participants


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.subject}: {self.message}"


class PrincipalGroup(NamedTuple):
    """The principals that share one matching formula, as ``(id, grants)``
    in id order, and the union of the grants of this and every later group."""

    formula_id: str
    members: tuple[tuple[str, frozenset[str]], ...]
    ahead: frozenset[str]


@dataclass(frozen=True)
class PolicyStore:
    relations: dict[str, str] = field(default_factory=dict)
    formulas: hl.FormulaLibrary = field(default_factory=dict)
    matching_rules: dict[str, str] = field(default_factory=dict)
    authorization_rules: dict[str, frozenset[str]] = field(default_factory=dict)
    rbac: RbacTables = field(default_factory=empty_tables)
    admin_actions: dict[str, AdminActionDecl] = field(default_factory=dict)
    owners: dict[str, tuple[str, ...]] = field(default_factory=dict)
    load_issues: list[Diagnostic] = field(default_factory=list)
    principal_groups: tuple[PrincipalGroup, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # group by formula id; groups in the id order of their first member
        members: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for ap, fid in sorted(self.matching_rules.items()):
            members.setdefault(fid, []).append((ap, self.authorization_rules.get(ap, frozenset())))
        groups, ahead = [], frozenset()
        for fid, group in reversed(members.items()):
            ahead = ahead.union(*(grants for _, grants in group))
            groups.append(PrincipalGroup(fid, tuple(group), ahead))
        object.__setattr__(self, "principal_groups", tuple(reversed(groups)))


def _entries(doc: Mapping, key: str, where: str = "") -> Iterable[Mapping]:
    where = where or key
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise PolicyError(f"{where} must be a list")
    for i, entry in enumerate(value):
        if not isinstance(entry, Mapping):
            raise PolicyError(f"{where}[{i}] must be an object")
        yield entry


def _first_declarations(doc: Mapping, section: str, key: str, read: Callable[[Mapping], Any],
                        code: str, repeat: str, issues: list[Diagnostic],
                        where: str = "") -> Iterator[tuple[str, Any]]:
    """Yield ``(id, read(entry))`` for the first entry of each ``key`` value
    in a keyed section.  Every entry is read, so a malformed repeat still
    raises; each repeat is recorded as a ``code`` diagnostic and skipped."""
    seen: set[str] = set()
    for entry in _entries(doc, section):
        ident = str_field(entry, key, where or section)
        value = read(entry)
        if ident in seen:
            issues.append(Diagnostic(code, ident, repeat))
            continue
        seen.add(ident)
        yield ident, value


def str_field(entry: Mapping, key: str, where: str) -> str:
    try:
        value = entry[key]
    except KeyError:
        raise PolicyError(f"{where} missing field {key!r}") from None
    if not isinstance(value, str):
        raise PolicyError(f"{where}.{key} must be a string")
    return value


def str_list(entry: Mapping, key: str, where: str) -> list[str]:
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
        name = str_field(entry, "name", "relations")
        category = str_field(entry, "category", "relations")
        if category not in RELATION_CATEGORIES:
            raise PolicyError(f"relation {name!r} has unknown category {category!r}")
        if name in relations and relations[name] != category:
            issues.append(Diagnostic("duplicate-relation", name,
                                     "declared with conflicting categories"))
        relations[name] = category

    formulas: hl.FormulaLibrary = {}
    for fid, (text, fvars) in _first_declarations(
            doc, "formulas", "id", lambda e: (str_field(e, "text", "formulas"),
                                              str_list(e, "vars", f"formulas[{e['id']}]")),
            "duplicate-formula", "formula id declared twice", issues):
        try:
            formulas[fid] = hl.parse(text, fvars)
        except RebacError as exc:
            issues.append(Diagnostic("invalid-formula", fid, str(exc)))

    matching = dict(_first_declarations(
        doc, "matching_rules", "principal", lambda e: str_field(e, "formula_id", "matching_rules"),
        "duplicate-principal", "more than one principal matching rule", issues))
    authorization = dict(_first_declarations(
        doc, "authorization_rules", "principal",
        lambda e: frozenset(str_list(e, "privileges", "authorization_rules")),
        "duplicate-principal", "more than one authorization rule", issues))

    rbac_doc = doc.get("rbac", {})
    if not isinstance(rbac_doc, Mapping):
        raise PolicyError("'rbac' must be an object")
    privilege_assignment = dict(_first_declarations(
        rbac_doc, "roles", "name", lambda e: frozenset(str_list(e, "privileges", "rbac.roles")),
        "duplicate-role", "role declared twice", issues, "rbac.roles"))
    user_assignment = dict(_first_declarations(
        rbac_doc, "user_roles", "user",
        lambda e: frozenset(str_list(e, "roles", "rbac.user_roles")),
        "duplicate-user", "user declared twice", issues, "rbac.user_roles"))
    tables = RbacTables(frozenset(privilege_assignment), privilege_assignment, user_assignment)

    actions: dict[str, AdminActionDecl] = {}
    # a repeated action is skipped before its other fields are read
    for aid, entry in _first_declarations(doc, "admin_actions", "id", lambda e: e,
                                          "duplicate-action", "action id declared twice", issues):
        where = f"admin_actions[{aid}].effects"
        effects = []
        for i, eff in enumerate(_entries(entry, "effects", where)):
            op = str_field(eff, "op", where)
            if op not in ("add", "del"):
                raise PolicyError(f"{where}[{i}].op must be 'add' or 'del'")
            effects.append(Update(op, str_field(eff, "rel", where),
                                  str_field(eff, "x", where), str_field(eff, "y", where)))
        actions[aid] = AdminActionDecl(
            id=aid,
            enabling=str_field(entry, "enabling", f"admin_actions[{aid}]"),
            participants=tuple(str_list(entry, "participants", f"admin_actions[{aid}]")),
            applicability=str_field(entry, "applicability", f"admin_actions[{aid}]"),
            effects=tuple(effects),
        )

    owners: dict[str, list[str]] = {}
    for entry in _entries(doc, "owners"):
        resource = str_field(entry, "resource", "owners")
        owner = str_field(entry, "owner", "owners")
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


def policy_document(store: PolicyStore) -> dict:
    """Policy JSON document (deterministically ordered) for a store."""
    tables = store.rbac
    return {
        "relations": [{"name": n, "category": c} for n, c in sorted(store.relations.items())],
        "formulas": [
            {"id": fid, "vars": list(f.vars), "text": hl.unparse(f)}
            for fid, f in sorted(store.formulas.items())
        ],
        "matching_rules": [
            {"principal": ap, "formula_id": fid}
            for ap, fid in sorted(store.matching_rules.items())
        ],
        "authorization_rules": [
            {"principal": ap, "privileges": sorted(ps)}
            for ap, ps in sorted(store.authorization_rules.items())
        ],
        "rbac": {
            "roles": [
                {"name": r, "privileges": sorted(tables.privilege_assignment.get(r, ()))}
                for r in sorted(tables.roles)
            ],
            "user_roles": [
                {"user": u, "roles": sorted(rs)}
                for u, rs in sorted(tables.user_assignment.items())
            ],
        },
        "admin_actions": [
            {
                "id": a.id,
                "enabling": a.enabling,
                "participants": list(a.participants),
                "applicability": a.applicability,
                "effects": [{"op": u.op, "rel": u.rel, "x": u.x, "y": u.y} for u in a.effects],
            }
            for a in store.admin_actions.values()
        ],
        "owners": [
            {"resource": r, "owner": o}
            for r in sorted(store.owners)
            for o in store.owners[r]
        ],
    }


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
