import pytest

from rebac.bench import CONFIGURATIONS, run_bench
from rebac.engine import EngineConfig
from rebac.policy import GUARD_KINDS
from rebac.synth import GeneratedGraph, SynthConfig, synthesize

BENCH_CFG = SynthConfig(seed=21, scale=0.1, graph_source=GeneratedGraph(500, 3000))


@pytest.fixture(scope="module")
def workload():
    return synthesize(BENCH_CFG)


def test_configuration_matrix_is_complete():
    assert set(CONFIGURATIONS) == {
        "RoOne", "RoAll", "ReOneEg", "ReOneLz",
        "ReAllEgLib", "ReAllEgStr", "ReAllLzLib", "ReAllLzStr",
    }
    for name, (mode, guard_kind, strategy, semantics) in CONFIGURATIONS.items():
        assert guard_kind in GUARD_KINDS
        EngineConfig(semantics=semantics, strategy=strategy, mode=mode)  # valid values
        # the name spells out its configuration
        assert name.startswith("Ro") == (mode == "rbac-only")
        assert ("One" in name) == (guard_kind == "one-of")
        if mode != "rbac-only":
            assert ("Lz" in name) == (strategy == "lazy")
        if guard_kind == "all-of" and mode != "rbac-only":
            assert ("Str" in name) == (semantics == "strict")


def test_unknown_configuration_rejected(workload):
    with pytest.raises(ValueError):
        run_bench("ReAllEager", workload)


def test_report_measures_second_half(workload):
    report = run_bench("RoOne", workload)
    total = len(workload.requests["one-of"])
    assert len(report.latencies_us) == total - total // 2
    assert len(report.allows_full) == total
    assert report.mean_us > 0


def test_decision_invariance_between_strategies(workload):
    pairs = [("ReOneEg", "ReOneLz"), ("ReAllEgLib", "ReAllLzLib"),
             ("ReAllEgStr", "ReAllLzStr")]
    for eager_name, lazy_name in pairs:
        eager = run_bench(eager_name, workload)
        lazy = run_bench(lazy_name, workload)
        assert eager.allows_full == lazy.allows_full, (eager_name, lazy_name)
        assert lazy.mean_formula_evals <= eager.mean_formula_evals


def test_strict_allows_are_liberal_allows(workload):
    liberal = run_bench("ReAllEgLib", workload)
    strict = run_bench("ReAllEgStr", workload)
    for s, l in zip(strict.allows_full, liberal.allows_full):
        assert l or not s
