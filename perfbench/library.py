"""paper-mix and related-mix: the eight configurations, in process.

One caller replays a request list through ``engine.check`` in a closed
loop.  A pass runs every configuration in the paper's order, each after the
paper's warm-up (250 neighbour queries, then the first half of its list
untimed); passes repeat until the run's time is up.  The timer wraps the
``engine.check`` call only.  The median latency and the throughput are
medians of per-pass figures, so one slow second of a shared host moves
one pass and not the run's figure.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import layers
import stats
from spans import Tracer

US = 1e6
SETUPS = 3
READ_PROBE_ITERATIONS = 10_000

# name -> (mode, guard kind, strategy, semantics), in the paper's order
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
# Pairs that must decide identically (eager vs lazy), and (strict, liberal)
# pairs where every strict allow must also be a liberal allow.
AGREE = (("ReOneEg", "ReOneLz"), ("ReAllEgLib", "ReAllLzLib"), ("ReAllEgStr", "ReAllLzStr"))
CONTAINED = (("ReAllEgStr", "ReAllEgLib"), ("ReAllLzStr", "ReAllLzLib"))


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # correctness failures
    info: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_system(graph_path, policy_path):
    """The start-up path of ``rebac serve``: graph, policy, validate, attach.
    Returns (graph, store, graph seconds, policy seconds)."""
    from rebac.graph import load_graph_file
    from rebac.policy import attach_policy, load_policy_file, validate

    t0 = time.perf_counter()
    graph = load_graph_file(graph_path)
    t1 = time.perf_counter()
    store = load_policy_file(policy_path)
    issues = validate(store)
    if issues:
        raise RuntimeError(f"{policy_path}: {issues[0]}")
    attach_policy(graph, store)
    t2 = time.perf_counter()
    return graph, store, t1 - t0, t2 - t1


def to_request(doc: dict):
    from rebac.engine import AccessRequest
    from rebac.policy import guard_from_json
    return AccessRequest(doc["resource"], doc["user"], guard_from_json(doc["guard"]))


def decision_digest(allows) -> dict:
    bits = "".join("1" if a else "0" for a in allows)
    return {"allows": bits.count("1"), "of": len(bits),
            "sha256": hashlib.sha256(bits.encode()).hexdigest()[:16]}


def read_section_us(graph) -> float:
    """Uncontended cost of one empty ``with graph.read()`` section."""
    per = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(READ_PROBE_ITERATIONS):
            with graph.read():
                pass
        per.append((time.perf_counter() - start) / READ_PROBE_ITERATIONS)
    return statistics.median(per) * US


class Matrix:
    """Closed-loop replay of the eight configurations over two request lists."""

    def __init__(self, graph, store, lists: dict, warmup: list):
        self.graph, self.store, self.lists, self.warmup = graph, store, lists, warmup
        self.latencies = {name: [] for name in CONFIGURATIONS}
        self.samples: list[float] = []  # every timed check, in time order
        self.pass_p50: list[float] = []  # per pass: median timed check
        self.pass_rate: list[float] = []  # per pass: timed checks / timed seconds
        self.decisions: dict[str, tuple] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.one_pass()
            if time.perf_counter() >= deadline:
                return

    def one_pass(self) -> None:
        from rebac import engine
        from rebac.errors import RebacError

        check = engine.check  # looked up per pass: a traced pass wraps it
        graph, store, tables = self.graph, self.store, self.store.rbac
        first_sample, busy_s = len(self.samples), 0.0
        for name, (mode, kind, strategy, semantics) in CONFIGURATIONS.items():
            cfg = engine.EngineConfig(semantics=semantics, strategy=strategy, mode=mode)
            requests = self.lists[kind]
            half = len(requests) // 2
            for v, rel in self.warmup:
                graph.out_neighbors(v, rel)
            allows = []
            latencies, samples = self.latencies[name], self.samples
            start = 0.0
            for i, req in enumerate(requests):
                if i == half:
                    start = time.perf_counter()
                t0 = time.perf_counter()
                try:
                    decision = check(store, graph, tables, req, cfg)
                except RebacError as exc:
                    self.failed += 1
                    self.errors.append(f"{name}[{i}]: {exc}")
                    allows.append(None)
                    continue
                t1 = time.perf_counter()
                allows.append(decision.allow)
                if i >= half:
                    latencies.append(t1 - t0)
                    samples.append(t1 - t0)
            busy_s += time.perf_counter() - start
            self.attempted += len(requests)
            first = self.decisions.setdefault(name, tuple(allows))
            if first != tuple(allows):
                self.errors.append(f"{name}: decisions changed between passes")
        timed = self.samples[first_sample:]
        if timed:
            self.pass_p50.append(statistics.median(timed))
            self.pass_rate.append(len(timed) / busy_s)

    def pass_size(self) -> int:
        """Timed checks per pass: the window for tail percentiles."""
        return sum(len(self.lists[kind]) - len(self.lists[kind]) // 2
                   for _, kind, _, _ in CONFIGURATIONS.values())

    def verify(self, expected: dict | None) -> list[str]:
        errors = list(self.errors)
        d = self.decisions
        for a, b in AGREE:
            if d[a] != d[b]:
                errors.append(f"{a} and {b} decide differently")
        for strict, liberal in CONTAINED:
            if any(s and not lib for s, lib in zip(d[strict], d[liberal])):
                errors.append(f"{strict} allows a request {liberal} denies")
        if expected is not None:
            for name in CONFIGURATIONS:
                if decision_digest(d[name]) != expected[name]:
                    errors.append(f"{name}: decisions differ from the committed digest "
                                  f"({decision_digest(d[name])} != {expected[name]})")
        return errors

    def allow_share(self, names) -> float:
        allows = [a for name in names for a in self.decisions[name]]
        return sum(1 for a in allows if a) / len(allows)


def run(workload: str, fx, seconds: float, trace: bool, expected: dict | None) -> Result:
    """Run paper-mix or related-mix; ``fx`` is the loaded fixture."""
    result = Result()
    setups, graph_s, policy_s = [], [], []
    graph = store = None
    for _ in range(SETUPS):
        graph = store = None  # release the previous copy before loading again
        t0 = time.perf_counter()
        graph, store, g_s, p_s = load_system(fx.graph_path, fx.policy_path)
        setups.append(time.perf_counter() - t0)
        graph_s.append(g_s)
        policy_s.append(p_s)

    lists = fx.paper if workload == "paper-mix" else fx.related
    requests = {kind: [to_request(r) for r in docs] for kind, docs in lists.items()}
    matrix = Matrix(graph, store, requests, fx.warmup)
    m = result.metrics
    if not trace:
        matrix.run(seconds)
    else:
        # untraced and traced passes alternate, so both see the same host
        read_us = read_section_us(graph)
        tracer = Tracer()
        traced = Matrix(graph, store, requests, fx.warmup)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            matrix.one_pass()
            layers.install(tracer, [store])
            try:
                traced.one_pass()
            finally:
                tracer.unpatch()
    rss = peak_rss_mb()

    result.errors = matrix.verify(expected)
    result.attempted = matrix.attempted
    result.failed = matrix.failed
    timed = stats.summary((t * US for t in matrix.samples), matrix.pass_size())
    result.info["check_tail_pct"] = timed["tail_pct"]
    result.info["check_tail_run_pct"] = timed["tail_run_pct"]
    result.info["passes"] = timed["windows"]
    result.info["load"] = "closed loop, one caller"
    if not trace:
        m["setup_s"] = (statistics.median(setups), "s", len(setups))
        m["check_p50_us"] = (stats.median_of(matrix.pass_p50) * US, "us", timed["n"])
        m["check_p99_us"] = (timed["tail"], "us", timed["n"])
        m["check_tail_run_us"] = (timed["tail_run"], "us", timed["n"])
        m["checks_per_s"] = (stats.median_of(matrix.pass_rate), "1/s", timed["n"])
        m["peak_rss_mb"] = (rss, "MB", 1)
        return result

    per_layer = layers.derive(tracer)
    layers.closure(result, per_layer, stats.mean(matrix.samples) * US)
    result.info["absent"] = tracer.absent
    traced_p50 = stats.summary(t * US for t in traced.samples)["p50"]
    m["graph.load_s"] = (statistics.median(graph_s), "s", len(graph_s))
    m["policy.load_s"] = (statistics.median(policy_s), "s", len(policy_s))
    m["graph.read_section_us"] = (read_us, "us", 5)
    m.update(per_layer)
    for name in CONFIGURATIONS:
        s = stats.summary(t * US for t in matrix.latencies[name])
        m[f"engine.{name}.p50_us"] = (s["p50"], "us", s["n"])
        m[f"engine.{name}.p99_us"] = (s["tail"], "us", s["n"])
    m["engine.allow_share.one-of"] = (matrix.allow_share(["ReOneEg", "ReOneLz"]), "ratio",
                                      2 * len(requests["one-of"]))
    all_of = [n for n, c in CONFIGURATIONS.items() if c[0] == "rebac-only" and c[1] == "all-of"]
    m["engine.allow_share.all-of"] = (matrix.allow_share(all_of), "ratio",
                                      len(all_of) * len(requests["all-of"]))
    for semantics in ("liberal", "strict"):
        names = [n for n in all_of if CONFIGURATIONS[n][3] == semantics]
        m[f"engine.allow_share.all-of.{semantics}"] = (
            matrix.allow_share(names), "ratio", len(names) * len(requests["all-of"]))
    m["trace.overhead_ratio"] = (traced_p50 / timed["p50"], "ratio", timed["n"])
    result.errors += traced.verify(None)
    return result
