"""Access requests and the relationship-based principal-matching loop.

A request is the triple (resource, user, guard).  A principal is enabled
for a request when its relationship predicate holds over (resource, user).
Two grant semantics exist:

* liberal -- privileges pooled from every enabled principal may together
  satisfy the guard;
* strict -- some single enabled principal must satisfy the guard alone.

One loop serves both semantics and both matching strategies.  It walks
the store's principal groups (the principals sharing a formula, grouped
once when the store is built), evaluates each group's formula at most
once, and pools the grants of each enabled principal.  Eager matching runs
to the end and records the enabled set.  Lazy matching skips principals
whose privileges cannot contribute, allows as soon as the guard is met,
and denies once the grants of the groups left cannot meet it.

Strategies never change the decision, only the work done; the trace on
each Decision records that work.  The fixed visiting order keeps traces
and benchmarks reproducible.

Combined mode runs the legacy role check first and consults the
relationship engine only when roles already grant access; the request is
allowed when both mechanisms allow it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from . import hl
from .errors import EvaluationError, RebacError
from .graph import AuthorizationGraph
from .policy import ALL_OF, Guard, PolicyStore, satisfies
from .rbac import RbacTables, rbac_privileges

SEMANTICS = ("liberal", "strict")
STRATEGIES = ("eager", "lazy")
MODES = ("rbac-only", "rebac-only", "both")


@dataclass
class Trace:
    """What one check did: principal loop size, predicate work, cache reuse.

    ``enabled_principals`` is populated only when the full enabled set was
    computed (eager matching); lazy matching leaves it ``None``.
    """

    principals_considered: int = 0
    formulas_evaluated: int = 0
    cache_hits: int = 0
    enabled_principals: frozenset[str] | None = None
    elapsed_us: float = 0.0

    def to_json(self) -> dict:
        enabled = self.enabled_principals
        return {**vars(self), "enabled_principals": None if enabled is None else sorted(enabled)}


@dataclass
class Decision:
    """The answer to one request, with the work counters of the check."""

    allow: bool
    trace: Trace = field(default_factory=Trace)

    def to_json(self) -> dict:
        return {"allow": self.allow, "trace": self.trace.to_json()}


@dataclass(frozen=True)
class AccessRequest:
    resource: str
    user: str
    guard: Guard


@dataclass(frozen=True)
class EngineConfig:
    semantics: str = "liberal"
    strategy: str = "lazy"
    mode: str = "both"

    def __post_init__(self):
        if self.semantics not in SEMANTICS:
            raise ValueError(f"semantics must be one of {SEMANTICS}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def _match(store: PolicyStore, graph: AuthorizationGraph, resource: str, user: str,
           guard: Guard | None, lazy: bool, strict: bool) -> Decision:
    """The one principal-matching loop.  Allow once the pooled grants
    (liberal) or the enabled principal's own grants (strict) satisfy the
    guard; with ``guard=None`` an eager pass only collects the enabled set.
    The caller holds the graph's read section."""
    evaluations = hits = considered = 0
    enabled: list[str] = []
    pooled: set[str] = set()
    # lazy liberal skips a principal that grants none of the missing privileges
    missing = set(guard.privileges) if guard is not None else set()
    need = guard.privileges if strict else missing  # what the grants ahead must meet
    all_of = guard is not None and guard.kind == ALL_OF
    allow = False
    for fid, members, ahead in store.principal_groups:
        if lazy and (not need <= ahead if all_of else need.isdisjoint(ahead)):
            break  # no principal in this or a later group can meet the guard: deny
        holds = None
        for ap, grants in members:
            considered += 1
            if lazy and not (satisfies(grants, guard) if strict
                             else not missing.isdisjoint(grants)):
                continue
            # Under lazy strict a reused result is always False: a true
            # predicate would already have allowed the request.
            if holds is not None:
                hits += 1
            else:
                formula = store.formulas.get(fid)
                if formula is None:
                    raise EvaluationError(ap, KeyError(f"unknown formula {fid!r}"))
                try:
                    holds = hl.relationship_predicate(formula, graph, resource, user)
                except RebacError as exc:
                    raise EvaluationError(ap, exc) from exc
                evaluations += 1
            if not holds:
                continue
            enabled.append(ap)
            if guard is None:
                continue
            pooled |= grants
            missing -= grants
            if satisfies(grants if strict else pooled, guard):
                if lazy:
                    return Decision(True, Trace(considered, evaluations, hits))
                allow = True
    return Decision(allow, Trace(considered, evaluations, hits,
                                 None if lazy else frozenset(enabled)))


def enabled_principals(store: PolicyStore, graph: AuthorizationGraph,
                       resource: str, user: str) -> set[str]:
    """Exactly the principals whose relationship predicate holds for
    (resource, user); each distinct formula is evaluated at most once."""
    with graph.read():
        graph._check_query((resource, user))
        return set(_match(store, graph, resource, user, None, lazy=False,
                          strict=False).trace.enabled_principals)


def check(store: PolicyStore, graph: AuthorizationGraph, tables: RbacTables,
          req: AccessRequest, cfg: EngineConfig) -> Decision:
    """Authorize one request under the configured mode.

    Combined mode checks roles first and runs relationship matching only
    when the role check grants; access requires both mechanisms to allow.
    """
    start = time.perf_counter()
    with graph.read():
        graph._check_query((req.resource, req.user))
        if cfg.mode == "rbac-only":
            decision = Decision(satisfies(rbac_privileges(tables, req.user), req.guard))
        elif cfg.mode == "both" and not satisfies(rbac_privileges(tables, req.user),
                                                  req.guard):
            decision = Decision(False)
        else:
            decision = _match(store, graph, req.resource, req.user, req.guard,
                              lazy=cfg.strategy == "lazy", strict=cfg.semantics == "strict")
    decision.trace.elapsed_us = (time.perf_counter() - start) * 1e6
    return decision


def filter_collection(store: PolicyStore, graph: AuthorizationGraph, tables: RbacTables,
                      user: str, guard: Guard, resources: Iterable[str],
                      cfg: EngineConfig) -> list[str]:
    """Order-preserving subset of resources the user may access."""
    with graph.read():
        return [
            r for r in resources
            if check(store, graph, tables, AccessRequest(r, user, guard), cfg).allow
        ]
