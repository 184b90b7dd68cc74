"""Relationship-based access control: graph, formulas, policy, engine.

The protection state is an edge-labelled directed authorization graph;
policies name authorization principals whose membership is decided per
request by hybrid-logic relationship predicates.  The engine implements
liberal/strict grant semantics under eager or lazy principal matching,
combined with a flat RBAC baseline, plus an administrative model for
atomic access-control edge updates, a workload synthesizer, a TCP
decision service and a CLI.
"""

from .engine import (AccessRequest, Decision, EngineConfig, Trace, check, enabled_principals,
                     filter_collection)
from .errors import RebacError
from .graph import AuthorizationGraph, load_graph, save_graph
from .hl import Formula, evaluate, parse, relationship_predicate, unparse
from .policy import Guard, PolicyStore, attach_policy, load_policy, satisfies, validate
from .rbac import RbacTables, rbac_privileges

__all__ = [
    "AccessRequest",
    "AuthorizationGraph",
    "Decision",
    "EngineConfig",
    "Formula",
    "Guard",
    "PolicyStore",
    "RbacTables",
    "RebacError",
    "Trace",
    "attach_policy",
    "check",
    "enabled_principals",
    "evaluate",
    "filter_collection",
    "load_graph",
    "load_policy",
    "parse",
    "rbac_privileges",
    "relationship_predicate",
    "satisfies",
    "save_graph",
    "unparse",
    "validate",
]
