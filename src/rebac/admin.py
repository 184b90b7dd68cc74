"""Administrative actions: precondition-guarded, atomic edge updates.

An action lets a qualified non-administrator (the ``user``) update
access-control relationships around a ``patient``: a referral, a team
assignment, and so on.  Its declaration, ``policy.AdminActionDecl``,
names an enabling precondition over (user, patient), a list of auxiliary
participants, an applicability precondition over all participants, and
a list of add/del edge effects; this module executes it.

Execution re-checks both preconditions inside the exclusive write
transaction (closing the time-of-check-to-time-of-use window) and then
applies the effects atomically: all of them, or none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import hl
from .errors import (
    EvaluationError,
    NotApplicable,
    NotEnabled,
    PolicyError,
    RebacError,
    UnboundParticipant,
    UnknownAction,
)
from .graph import ACCESS_CONTROL, AuthorizationGraph
from .policy import PRIMARY_PARTICIPANTS, PolicyStore

# Binding: participant name -> vertex id, total over the declaration's
# participants plus the two primaries.
Binding = Mapping[str, str]


@dataclass(frozen=True)
class ExecutionReport:
    action: str
    applied: tuple[tuple[str, str, str, str], ...]  # (op, rel, src, dst)


def bind(user: str, patient: str, participants: Mapping[str, str]) -> dict[str, str]:
    """The binding of one run: the acting ``user``, the ``patient`` and the
    named auxiliary participants.  An auxiliary name may not be a primary
    one, which would move the enabling check onto someone else."""
    for name in PRIMARY_PARTICIPANTS:
        if name in participants:
            raise PolicyError(f"binding may not rename the primary participant {name!r}")
    return {"user": user, "patient": patient, **participants}


def _holds(store: PolicyStore, graph: AuthorizationGraph, action_id: str,
           formula_id: str, valuation: Mapping[str, str]) -> bool:
    formula = store.formulas.get(formula_id)
    if formula is None:
        raise EvaluationError(f"action {action_id}", PolicyError(f"unknown formula {formula_id!r}"))
    try:
        return hl.evaluate(formula, graph, valuation)
    except RebacError as exc:
        raise EvaluationError(f"action {action_id}", exc) from exc


def enabled_actions(store: PolicyStore, graph: AuthorizationGraph,
                    user: str, patient: str) -> list[str]:
    """Ids of actions whose enabling precondition holds for (user, patient),
    in declaration order."""
    valuation = {"user": user, "patient": patient}
    with graph.read():
        return [
            decl.id
            for decl in store.admin_actions.values()
            if _holds(store, graph, decl.id, decl.enabling, valuation)
        ]


def execute_action(store: PolicyStore, graph: AuthorizationGraph,
                   action_id: str, binding: Binding) -> ExecutionReport:
    """Run one administrative action atomically.

    Inside one exclusive write transaction: re-evaluate the enabling and
    applicability preconditions, check that every effect targets an
    access-control relation, then apply the effects in order.  The graph
    rejects an add of a present edge, a del of a missing one and an
    unknown vertex; on any failure the applied effects are undone in
    reverse, so the graph is left exactly as it was.
    """
    decl = store.admin_actions.get(action_id)
    if decl is None:
        raise UnknownAction(action_id)
    for name in decl.all_participants:
        if name not in binding:
            raise UnboundParticipant(f"{action_id}: participant {name!r} not bound")

    with graph.write():
        if not _holds(store, graph, action_id, decl.enabling, binding):
            raise NotEnabled(action_id)
        if not _holds(store, graph, action_id, decl.applicability, binding):
            raise NotApplicable(action_id)

        resolved = [(u.op, u.rel, binding[u.x], binding[u.y]) for u in decl.effects]
        for _, rel, _, _ in resolved:
            if graph.relation_category(rel) != ACCESS_CONTROL:
                raise PolicyError(f"{action_id}: effect relation {rel!r} is not access-control")

        applied: list[tuple[str, str, str, str]] = []
        try:
            for op, rel, s, d in resolved:
                if op == "add":
                    graph.add_edge(s, rel, d)
                else:
                    graph.del_edge(s, rel, d)
                applied.append((op, rel, s, d))
        except BaseException:
            for op, rel, s, d in reversed(applied):
                if op == "add":
                    graph.del_edge(s, rel, d)
                else:
                    graph.add_edge(s, rel, d)
            raise

    return ExecutionReport(action_id, tuple(resolved))
