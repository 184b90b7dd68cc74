"""Shared test machinery: the brute-force model-checking oracle, random
graph/formula generators, and relationship-only decisions.

The oracle computes, bottom-up, the full satisfaction set of every
subformula over all worlds; an anchored formula holds iff its set is the
whole world set.  It never shares code with the recursive checker it
cross-validates.
"""

from __future__ import annotations

import random

from rebac.decision import Decision
from rebac.engine import AccessRequest, EngineConfig, check
from rebac.graph import USER_MANAGED, AuthorizationGraph
from rebac.hl import And, At, Const, Diamond, Formula, Node, Not, Or, Var
from rebac.policy import PolicyStore


def satisfaction_set(node: Node, g: AuthorizationGraph, valuation: dict[str, str],
                     worlds: frozenset[str]) -> frozenset[str]:
    if isinstance(node, Const):
        return worlds if node.value else frozenset()
    if isinstance(node, Var):
        return frozenset({valuation[node.name]}) & worlds
    if isinstance(node, Not):
        return worlds - satisfaction_set(node.sub, g, valuation, worlds)
    if isinstance(node, And):
        return (satisfaction_set(node.left, g, valuation, worlds)
                & satisfaction_set(node.right, g, valuation, worlds))
    if isinstance(node, Or):
        return (satisfaction_set(node.left, g, valuation, worlds)
                | satisfaction_set(node.right, g, valuation, worlds))
    if isinstance(node, At):
        inner = satisfaction_set(node.sub, g, valuation, worlds)
        return worlds if valuation[node.var] in inner else frozenset()
    # Diamond
    inner = satisfaction_set(node.sub, g, valuation, worlds)
    if node.inverse:
        return frozenset(w for w in worlds if g.in_neighbors(w, node.rel) & inner)
    return frozenset(w for w in worlds if g.out_neighbors(w, node.rel) & inner)


def brute_force_evaluate(formula: Formula, g: AuthorizationGraph,
                         valuation: dict[str, str]) -> bool:
    worlds = frozenset(g.vertices())
    return satisfaction_set(formula.body, g, valuation, worlds) == worlds


def random_graph(rng: random.Random, max_vertices: int = 8, n_relations: int = 3,
                 density: float = 0.15) -> tuple[AuthorizationGraph, list[str], list[str]]:
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    relations = [f"r{i}" for i in range(n_relations)]
    g = AuthorizationGraph()
    with g.write():
        for rel in relations:
            g.declare_relation(rel, USER_MANAGED)
        for v in vertices:
            g.add_vertex(v, "entity")
        for s in vertices:
            for rel in relations:
                for d in vertices:
                    if rng.random() < density:
                        g.add_edge(s, rel, d)
    return g, vertices, relations


def random_body(rng: random.Random, vars: tuple[str, ...], relations: list[str],
                depth: int, positive: bool) -> Node:
    if depth <= 0:
        if rng.random() < 0.7:
            return Var(rng.choice(vars))
        return Const(rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.25:
        return random_body(rng, vars, relations, 0, positive)
    if roll < 0.55:
        return Diamond(rng.choice(relations), rng.random() < 0.5,
                       random_body(rng, vars, relations, depth - 1, positive))
    if roll < 0.70:
        return And(random_body(rng, vars, relations, depth - 1, positive),
                   random_body(rng, vars, relations, depth - 1, positive))
    if roll < 0.85 or positive:
        return Or(random_body(rng, vars, relations, depth - 1, positive),
                  random_body(rng, vars, relations, depth - 1, positive))
    return Not(random_body(rng, vars, relations, depth - 1, positive))


def random_anchored(rng: random.Random, vars: tuple[str, ...], relations: list[str],
                    depth: int, positive: bool = False) -> Node:
    if depth <= 1 or rng.random() < 0.4:
        return At(rng.choice(vars), random_body(rng, vars, relations, depth - 1, positive))
    roll = rng.random()
    if roll < 0.35:
        return And(random_anchored(rng, vars, relations, depth - 1, positive),
                   random_anchored(rng, vars, relations, depth - 1, positive))
    if roll < 0.70 or positive:
        return Or(random_anchored(rng, vars, relations, depth - 1, positive),
                  random_anchored(rng, vars, relations, depth - 1, positive))
    if roll < 0.85:
        return Not(random_anchored(rng, vars, relations, depth - 1, positive))
    return Const(rng.random() < 0.5)


def random_formula(rng: random.Random, relations: list[str], depth: int = 5,
                   vars: tuple[str, ...] = ("x", "y"), positive: bool = False) -> Formula:
    return Formula(vars, random_anchored(rng, vars, relations, depth, positive))


def random_valuation(rng: random.Random, vars: tuple[str, ...],
                     vertices: list[str]) -> dict[str, str]:
    return {v: rng.choice(vertices) for v in vars}


def rebac_decision(store: PolicyStore, graph: AuthorizationGraph, req: AccessRequest,
                   strategy: str, semantics: str) -> Decision:
    """``engine.check`` in relationship-only mode."""
    cfg = EngineConfig(semantics=semantics, strategy=strategy, mode="rebac-only")
    return check(store, graph, store.rbac, req, cfg)
