"""Shared test machinery: the brute-force model-checking oracle, random
graph/formula generators, relationship-only decisions, the replay of the
paper's configuration matrix that criteria 05, 06 and 09 time, and a line
client for the decision service.

The oracle computes, bottom-up, the full satisfaction set of every
subformula over all worlds; an anchored formula holds iff its set is the
whole world set.  It never shares code with the recursive checker it
cross-validates.
"""

from __future__ import annotations

import json
import random
import socket
import statistics
import time
from types import SimpleNamespace

from rebac.engine import AccessRequest, Decision, EngineConfig, check
from rebac.graph import USER_MANAGED, AuthorizationGraph
from rebac.hl import And, At, Const, Diamond, Formula, Node, Not, Or, Var
from rebac.policy import PolicyStore
from rebac.prng import stream
from rebac.synth import SynthesizedWorkload


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


def run_warmup(graph: AuthorizationGraph, seed: int) -> int:
    """Issue the paper's 250 distinct neighbour queries, drawn from the
    seed's "warmup" stream; returns how many were issued."""
    vertices, relations = sorted(graph.vertices()), sorted(graph.relations())
    rng = stream(seed, "warmup")
    total = min(250, len(vertices) * len(relations))
    issued: set[tuple[int, int]] = set()
    while len(issued) < total:
        key = (rng.randrange(len(vertices)), rng.randrange(len(relations)))
        if key not in issued:
            issued.add(key)
            graph.out_neighbors(vertices[key[0]], relations[key[1]])
    return total


def run_bench(name: str, workload: SynthesizedWorkload) -> SimpleNamespace:
    """Replay one of the paper's eight configurations, named as in its
    tables: Ro/Re mode, One/All guard kind, Eg/Lz strategy, Lib/Str
    semantics (RoOne, ReAllLzStr, ...).  After the warmup and the untimed
    first half of the requests, report the second half's mean check
    latency (``mean_us``) and formula evaluations (``mean_formula_evals``)."""
    cfg = EngineConfig(mode="rbac-only" if name.startswith("Ro") else "rebac-only",
                       strategy="lazy" if "Lz" in name else "eager",
                       semantics="strict" if name.endswith("Str") else "liberal")
    requests = workload.requests["one-of" if "One" in name else "all-of"]
    graph, store = workload.graph, workload.store
    run_warmup(graph, workload.cfg.seed)
    latencies_us, evals = [], []
    for i, req in enumerate(requests):
        start = time.perf_counter()
        decision = check(store, graph, store.rbac, req, cfg)
        elapsed_us = (time.perf_counter() - start) * 1e6
        if i >= len(requests) // 2:
            latencies_us.append(elapsed_us)
            evals.append(decision.trace.formulas_evaluated)
    return SimpleNamespace(mean_us=statistics.fmean(latencies_us),
                           mean_formula_evals=statistics.fmean(evals))


class PdpClient:
    """Minimal line-oriented client of ``rebac.service.PdpServer``."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def call(self, request: dict) -> dict:
        return self.call_raw(json.dumps(request).encode("utf-8"))

    def call_raw(self, line: bytes) -> dict:
        self._file.write(line + b"\n")
        self._file.flush()
        reply = self._file.readline()
        if not reply:
            raise ConnectionError("server closed connection")
        return json.loads(reply)

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
