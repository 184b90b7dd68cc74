"""The paper's eight engine configurations, timed by acceptance criteria
05, 06 and 09.

Each configuration fixes the mechanism, guard kind, matching strategy and
grant semantics:

    RoOne / RoAll          role check only, one-of / all-of guards
    ReOneEg / ReOneLz      relationship check, one-of guards, eager / lazy
    ReAllEgLib / ReAllEgStr  all-of guards, eager, liberal / strict
    ReAllLzLib / ReAllLzStr  all-of guards, lazy, liberal / strict

A run replays a synthesized request list in order after 250 distinct
neighbor-retrieval warmup queries; the first half of the requests is
further warmup and only the second half is timed.  The report holds every
decision, plus the latency and predicate-evaluation count of each timed
request.

Runs are single-threaded; the timer wraps the check call only.  The
benchmark behind performance claims is ``perfbench/run.py``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from .engine import EngineConfig, check
from .graph import AuthorizationGraph
from .prng import stream
from .synth import SynthesizedWorkload

WARMUP_QUERIES = 250

# name -> (mode, guard kind, strategy, semantics)
CONFIGURATIONS: dict[str, tuple[str, str, str, str]] = {
    "RoOne": ("rbac-only", "one-of", "eager", "liberal"),
    "RoAll": ("rbac-only", "all-of", "eager", "liberal"),
    "ReOneEg": ("rebac-only", "one-of", "eager", "liberal"),
    "ReOneLz": ("rebac-only", "one-of", "lazy", "liberal"),
    "ReAllEgLib": ("rebac-only", "all-of", "eager", "liberal"),
    "ReAllEgStr": ("rebac-only", "all-of", "eager", "strict"),
    "ReAllLzLib": ("rebac-only", "all-of", "lazy", "liberal"),
    "ReAllLzStr": ("rebac-only", "all-of", "lazy", "strict"),
}


@dataclass(frozen=True)
class BenchConfig:
    configuration: str
    seed: int
    scale: float = 1.0  # names the workload; run_bench checks it matches

    def __post_init__(self):
        if self.configuration not in CONFIGURATIONS:
            raise ValueError(f"unknown configuration {self.configuration!r}; "
                             f"choose from {sorted(CONFIGURATIONS)}")

    def engine_config(self) -> EngineConfig:
        mode, _, strategy, semantics = CONFIGURATIONS[self.configuration]
        return EngineConfig(semantics=semantics, strategy=strategy, mode=mode)

    @property
    def guard_kind(self) -> str:
        return CONFIGURATIONS[self.configuration][1]


@dataclass
class BenchReport:
    allows_full: list[bool] = field(default_factory=list)  # warmup included
    latencies_us: list[float] = field(default_factory=list)
    formula_evals: list[int] = field(default_factory=list)

    @property
    def mean_us(self) -> float:
        return statistics.fmean(self.latencies_us)

    @property
    def mean_formula_evals(self) -> float:
        return statistics.fmean(self.formula_evals)


def run_warmup(graph: AuthorizationGraph, seed: int) -> int:
    """Issue the store-warming neighborhood queries; returns the count."""
    vertices = sorted(graph.vertices())
    relations = sorted(graph.relations())
    rng = stream(seed, "warmup")
    total = min(WARMUP_QUERIES, len(vertices) * len(relations))
    issued: set[tuple[int, int]] = set()
    while len(issued) < total:
        key = (rng.randrange(len(vertices)), rng.randrange(len(relations)))
        if key in issued:
            continue
        issued.add(key)
        graph.out_neighbors(vertices[key[0]], relations[key[1]])
    return total


def run_bench(cfg: BenchConfig, workload: SynthesizedWorkload) -> BenchReport:
    """Execute one configuration on a workload synthesized with the
    config's seed and scale."""
    if (workload.cfg.seed, workload.cfg.scale) != (cfg.seed, cfg.scale):
        raise ValueError(f"workload has seed {workload.cfg.seed} and scale "
                         f"{workload.cfg.scale}; {cfg.configuration} asks for "
                         f"seed {cfg.seed} and scale {cfg.scale}")
    requests = workload.requests[cfg.guard_kind]
    engine_cfg = cfg.engine_config()
    graph, store, tables = workload.graph, workload.store, workload.store.rbac
    first_measured = len(requests) // 2

    run_warmup(graph, cfg.seed)
    report = BenchReport()
    for i, req in enumerate(requests):
        start = time.perf_counter()
        decision = check(store, graph, tables, req, engine_cfg)
        elapsed_us = (time.perf_counter() - start) * 1e6
        report.allows_full.append(decision.allow)
        if i >= first_measured:
            report.latencies_us.append(elapsed_us)
            report.formula_evals.append(decision.trace.formulas_evaluated)
    return report
