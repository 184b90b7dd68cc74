"""Access requests and the relationship-based principal-matching loop.

A request is the triple (resource, user, guard).  A principal is enabled
for a request when its relationship predicate holds over (resource, user).
Two grant semantics exist:

* liberal -- privileges pooled from every enabled principal may together
  satisfy the guard;
* strict -- some single enabled principal must satisfy the guard alone.

One loop serves both semantics and both matching strategies.  It visits
principals in lexicographic id order, memoizes predicate evaluations by
formula id, and pools the grants of each enabled principal.  Eager
matching runs the loop to the end and records the enabled set; lazy
matching adds only a skip test for principals whose privileges cannot
contribute and an early exit as soon as the request is allowed.

Strategies never change the decision, only the work done; the trace on
each Decision records that work.  The fixed visiting order keeps traces
and benchmarks reproducible.

Combined mode runs the legacy role check first and consults the
relationship engine only when roles already grant access; the request is
allowed when both mechanisms allow it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from . import hl
from .decision import Decision, Trace
from .errors import EvaluationError, RebacError, UnknownVertex
from .graph import AuthorizationGraph
from .policy import Guard, PolicyStore, satisfies
from .rbac import RbacTables, rbac_privileges

SEMANTICS = ("liberal", "strict")
STRATEGIES = ("eager", "lazy")
MODES = ("rbac-only", "rebac-only", "both")


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
    guard; with ``guard=None`` an eager pass only collects the enabled set."""
    memo: dict[str, bool] = {}
    evaluations = hits = considered = 0
    enabled: list[str] = []
    pooled: set[str] = set()
    allow = False
    with graph.read():
        for ap in sorted(store.matching_rules):
            considered += 1
            grants = store.authorization_rules.get(ap, frozenset())
            if lazy and not (satisfies(grants, guard) if strict
                             else (grants - pooled) & guard.privileges):
                continue
            fid = store.matching_rules[ap]
            # Under lazy strict a memo hit is always False: a true
            # predicate would already have allowed the request.
            if fid in memo:
                hits += 1
            else:
                formula = store.formulas.get(fid)
                if formula is None:
                    raise EvaluationError(ap, KeyError(f"unknown formula {fid!r}"))
                try:
                    memo[fid] = hl.relationship_predicate(formula, graph, resource, user)
                except RebacError as exc:
                    raise EvaluationError(ap, exc) from exc
                evaluations += 1
            if not memo[fid]:
                continue
            enabled.append(ap)
            if guard is None:
                continue
            pooled |= grants
            if satisfies(grants if strict else pooled, guard):
                allow = True
                if lazy:
                    break
    return Decision(allow, Trace(considered, evaluations, hits,
                                 None if lazy else frozenset(enabled)))


def enabled_principals(store: PolicyStore, graph: AuthorizationGraph,
                       resource: str, user: str) -> set[str]:
    """Exactly the principals whose relationship predicate holds for
    (resource, user); each distinct formula is evaluated at most once."""
    return set(_match(store, graph, resource, user, None, lazy=False,
                      strict=False).trace.enabled_principals)


def check_eager_liberal(store: PolicyStore, graph: AuthorizationGraph,
                        req: AccessRequest) -> Decision:
    return _match(store, graph, req.resource, req.user, req.guard, lazy=False, strict=False)


def check_eager_strict(store: PolicyStore, graph: AuthorizationGraph,
                       req: AccessRequest) -> Decision:
    return _match(store, graph, req.resource, req.user, req.guard, lazy=False, strict=True)


def check_lazy_liberal(store: PolicyStore, graph: AuthorizationGraph,
                       req: AccessRequest) -> Decision:
    return _match(store, graph, req.resource, req.user, req.guard, lazy=True, strict=False)


def check_lazy_strict(store: PolicyStore, graph: AuthorizationGraph,
                      req: AccessRequest) -> Decision:
    return _match(store, graph, req.resource, req.user, req.guard, lazy=True, strict=True)


def check(store: PolicyStore, graph: AuthorizationGraph, tables: RbacTables,
          req: AccessRequest, cfg: EngineConfig) -> Decision:
    """Authorize one request under the configured mode.

    Combined mode checks roles first and runs relationship matching only
    when the role check grants; access requires both mechanisms to allow.
    """
    start = time.perf_counter()
    with graph.read():
        for v in (req.resource, req.user):
            if not graph.has_vertex(v):
                raise UnknownVertex(v)
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
