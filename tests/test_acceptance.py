"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s

The heavyweight fixtures are shared: ``desk_workload`` is the full-size
configuration matrix workload (67 principals, 10 formulas, 1M-edge
generated graph) used for the latency-ordering and adjacency-floor
criteria; ``tenth_workload`` is the scale-0.1 state used for the
decision-level equivalence criteria.
"""

import random
import statistics
import time

import pytest

from rebac import hl
from rebac.admin import execute_action
from rebac.engine import SEMANTICS, AccessRequest, EngineConfig, check
from rebac.errors import AddExistingEdge
from rebac.graph import AuthorizationGraph
from rebac.policy import Guard, PolicyStore
from rebac.prng import stream
from rebac.service import PdpServer
from rebac.synth import (
    GeneratedGraph,
    SynthConfig,
    synth_rbac,
    synth_requests,
    synthesize,
    write_fixture,
)

from .conftest import build_referral_system
from .helpers import (
    PdpClient,
    brute_force_evaluate,
    random_formula,
    random_graph,
    random_valuation,
    rebac_decision,
    run_bench,
    run_warmup,
)
from .test_admin import BATCH_BINDING, build_batch_system, inject_fault_at

SEED = 1_009


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}", flush=True)


@pytest.fixture(scope="module")
def desk_workload():
    # scale-1 policy state over the default desk-scale generated graph
    # (100,000 nodes / 1,000,000 edges)
    return synthesize(SynthConfig(seed=SEED, scale=1.0))


@pytest.fixture(scope="module")
def tenth_workload():
    cfg = SynthConfig(seed=SEED + 1, scale=0.1)
    workload = synthesize(cfg)
    requests = {
        kind: synth_requests(cfg, kind, users=workload.users,
                             patients=workload.patients,
                             privileges=workload.privileges, count=1_000)
        for kind in ("one-of", "all-of")
    }
    return workload, requests


def test_criterion_01_model_checker_matches_bruteforce_oracle():
    rng = random.Random(SEED)
    cases = 10_000
    mismatches = 0
    started = time.perf_counter()
    g, vertices, relations = random_graph(rng)
    for case in range(cases):
        if case % 25 == 0:
            g, vertices, relations = random_graph(rng, max_vertices=8, n_relations=3)
        formula = random_formula(rng, relations, depth=5)
        valuation = random_valuation(rng, formula.vars, vertices)
        with g.read():
            if hl.evaluate(formula, g, valuation) != brute_force_evaluate(formula, g, valuation):
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0
    report(1, f"{cases} random instances, 0 mismatches, {elapsed:.1f}s")


def _decisions(store, graph, requests, strategy, semantics):
    return [rebac_decision(store, graph, req, strategy, semantics).allow for req in requests]


def test_criterion_02_lazy_and_eager_decide_identically(tenth_workload):
    workload, requests = tenth_workload
    store, graph = workload.store, workload.graph
    total = 0
    for kind in ("one-of", "all-of"):
        corpus = requests[kind]
        for semantics in SEMANTICS:
            assert _decisions(store, graph, corpus, "eager", semantics) == \
                _decisions(store, graph, corpus, "lazy", semantics)
            total += len(corpus)
    report(2, f"{total} request/semantics combinations, 0 strategy mismatches")


def test_criterion_03_containment_and_one_of_agreement(tenth_workload):
    workload, requests = tenth_workload
    store, graph = workload.store, workload.graph
    liberal = _decisions(store, graph, requests["all-of"], "eager", "liberal")
    strict = _decisions(store, graph, requests["all-of"], "eager", "strict")
    for lib, stc in zip(liberal, strict):
        assert lib or not stc, "strict granted where liberal denied"
    one_lib = _decisions(store, graph, requests["one-of"], "eager", "liberal")
    one_str = _decisions(store, graph, requests["one-of"], "eager", "strict")
    assert one_lib == one_str
    report(3, f"containment on {len(strict)} all-of requests "
              f"({sum(strict)} strict allows within {sum(liberal)} liberal); "
              f"exact one-of agreement on {len(one_lib)}")


def test_criterion_04_pooling_counterexample():
    g = AuthorizationGraph()
    with g.write():
        g.add_vertex("r", "resource")
        g.add_vertex("u", "user")
    always = hl.parse("true", ["resource", "requestor"])
    store = PolicyStore(
        formulas={"always": always},
        matching_rules={"AP1": "always", "AP2": "always"},
        authorization_rules={"AP1": frozenset({"p1"}), "AP2": frozenset({"p2"})},
    )
    req = AccessRequest("r", "u", Guard.all_of("p1", "p2"))
    liberal = rebac_decision(store, g, req, "eager", "liberal")
    strict = rebac_decision(store, g, req, "eager", "strict")
    assert liberal.trace.enabled_principals == {"AP1", "AP2"}
    assert liberal.allow is True
    assert strict.allow is False
    assert rebac_decision(store, g, req, "lazy", "liberal").allow is True
    assert rebac_decision(store, g, req, "lazy", "strict").allow is False
    report(4, "two enabled principals pooling {p1},{p2}: liberal allows, strict denies")


@pytest.fixture(scope="module")
def suite_reports(desk_workload):
    names = ["RoOne", "RoAll", "ReOneEg", "ReOneLz",
             "ReAllEgLib", "ReAllEgStr", "ReAllLzLib", "ReAllLzStr"]
    return {
        name: run_bench(name, desk_workload)
        for name in names
    }


def test_criterion_05_lazy_match_reduces_work(suite_reports):
    ratios = []
    for eager_name, lazy_name in [("ReAllEgLib", "ReAllLzLib"),
                                  ("ReAllEgStr", "ReAllLzStr")]:
        eager, lazy = suite_reports[eager_name], suite_reports[lazy_name]
        assert lazy.mean_formula_evals < eager.mean_formula_evals, \
            f"{lazy_name} did not evaluate fewer formulas than {eager_name}"
        assert lazy.mean_us < eager.mean_us, \
            f"{lazy_name} was not faster than {eager_name}"
        ratios.append((eager_name, lazy_name,
                       eager.mean_formula_evals / max(lazy.mean_formula_evals, 1e-9),
                       eager.mean_us / lazy.mean_us))
    summary = "; ".join(
        f"{e}->{l}: evals x{er:.2f}, latency x{lr:.2f}" for e, l, er, lr in ratios)
    report(5, f"lazy strictly below eager on work and latency ({summary}; target x2)")


def test_criterion_06_rbac_baseline_is_fastest(suite_reports):
    rbac_means = {n: suite_reports[n].mean_us for n in ("RoOne", "RoAll")}
    rebac_means = {n: r.mean_us for n, r in suite_reports.items()
                   if n.startswith("Re")}
    for rbac_name, rbac_mean in rbac_means.items():
        for rebac_name, rebac_mean in rebac_means.items():
            assert rbac_mean < rebac_mean, f"{rbac_name} >= {rebac_name}"
    report(6, f"Ro* means {sorted(round(v, 1) for v in rbac_means.values())}us below "
              f"every Re* mean (min {min(rebac_means.values()):.1f}us)")


def test_criterion_07_admin_atomicity():
    for index in range(3):
        graph, store = build_batch_system()
        snapshot = graph.edge_set()
        inject_fault_at(graph, index)
        with pytest.raises(RuntimeError):
            execute_action(store, graph, "Batch", BATCH_BINDING)
        assert graph.edge_set() == snapshot, f"rollback failed at effect {index}"

    graph, store = build_referral_system()
    binding = {"user": "d1", "patient": "p1", "specialist": "s1"}
    execute_action(store, graph, "Referral", binding)
    snapshot = graph.edge_set()
    with pytest.raises(AddExistingEdge):
        execute_action(store, graph, "Referral", binding)
    assert graph.edge_set() == snapshot
    report(7, "injected faults at all 3 effect indexes rolled back byte-identically; "
              "double referral raised add_existing_edge without mutation")


def test_criterion_08_synth_counts_and_reproducibility(tmp_path):
    tables, privileges = synth_rbac(SynthConfig(seed=SEED, scale=1.0))
    users = set()
    for user in tables.user_assignment:
        users.add(user)
    pa_pairs = sum(len(v) for v in tables.privilege_assignment.values())
    ua_pairs = sum(len(v) for v in tables.user_assignment.values())
    assert len(privileges) == 200
    assert len(tables.roles) == 67
    assert pa_pairs == 469
    assert ua_pairs == 50_000
    assert len(users) <= 10_000  # 10,000-user universe, not all carry roles

    cfg = SynthConfig(seed=SEED, scale=1.0, graph_source=GeneratedGraph(5_000, 50_000))
    first = write_fixture(synthesize(cfg), tmp_path / "run1")
    second = write_fixture(synthesize(cfg), tmp_path / "run2")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
    report(8, "scale 1 emits (10000 users, 200 privileges, 67 roles, 469 PA, 50000 UA); "
              "two same-seed runs byte-identical across all fixture files")


def test_criterion_09_neighbor_retrieval_floor(desk_workload):
    graph = desk_workload.graph
    assert len(graph.edge_set()) == 1_000_000
    issued = run_warmup(graph, SEED)
    assert issued == 250

    vertices = sorted(graph.vertices())
    relations = sorted(graph.relations())
    rng = stream(SEED, "floor-probe")
    samples = []
    for _ in range(1_000):
        v = vertices[rng.randrange(len(vertices))]
        rel = relations[rng.randrange(len(relations))]
        started = time.perf_counter()
        graph.out_neighbors(v, rel)
        samples.append((time.perf_counter() - started) * 1e6)
    mean_us = statistics.fmean(samples)
    assert mean_us <= 100.0
    report(9, f"mean adjacency query {mean_us:.2f}us over 1000 probes "
              f"on a 1M-edge graph after the 250-query warmup")


def test_criterion_10_wire_matches_library(tenth_workload):
    workload, requests = tenth_workload
    cfg = EngineConfig(semantics="liberal", strategy="lazy", mode="rebac-only")
    corpus = requests["one-of"][:250] + requests["all-of"][:250]
    server = PdpServer(("127.0.0.1", 0), workload.graph, workload.store, cfg).start()
    mismatches = 0
    try:
        host, port = server.address
        with PdpClient(host, port) as client:
            for req in corpus:
                wire = client.call({
                    "op": "check", "resource": req.resource, "user": req.user,
                    "guard": req.guard.to_json(),
                })
                assert wire["ok"] is True
                expected = check(workload.store, workload.graph,
                                 workload.store.rbac, req, cfg).to_json()
                got = wire["result"]
                expected["trace"].pop("elapsed_us")
                got["trace"].pop("elapsed_us")
                if got != expected:
                    mismatches += 1
    finally:
        server.stop()
    assert mismatches == 0
    report(10, f"{len(corpus)} wire checks equal library results field-for-field "
               f"(latency excluded)")
