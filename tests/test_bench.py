import pytest

from rebac.bench import CONFIGURATIONS, BenchConfig, run_bench
from rebac.synth import GeneratedGraph, SynthConfig, synthesize

BENCH_CFG = SynthConfig(seed=21, scale=0.1, graph_source=GeneratedGraph(500, 3000))


@pytest.fixture(scope="module")
def workload():
    return synthesize(BENCH_CFG)


def bench(name, workload):
    return run_bench(BenchConfig(name, BENCH_CFG.seed, BENCH_CFG.scale), workload)


def test_configuration_matrix_is_complete():
    assert set(CONFIGURATIONS) == {
        "RoOne", "RoAll", "ReOneEg", "ReOneLz",
        "ReAllEgLib", "ReAllEgStr", "ReAllLzLib", "ReAllLzStr",
    }
    for name, (mode, guard_kind, strategy, semantics) in CONFIGURATIONS.items():
        cfg = BenchConfig(name, seed=1)
        assert cfg.guard_kind == guard_kind
        engine_cfg = cfg.engine_config()
        assert engine_cfg.mode == mode
        assert engine_cfg.strategy == strategy
        assert engine_cfg.semantics == semantics


def test_unknown_configuration_rejected():
    with pytest.raises(ValueError):
        BenchConfig("ReAllEager", seed=1)


def test_report_measures_second_half(workload):
    report = bench("RoOne", workload)
    total = len(workload.requests["one-of"])
    assert len(report.latencies_us) == total - total // 2
    assert len(report.allows_full) == total
    assert report.mean_us > 0


@pytest.mark.parametrize("seed, scale", [(BENCH_CFG.seed + 1, BENCH_CFG.scale),
                                         (BENCH_CFG.seed, 1.0)])
def test_workload_must_match_seed_and_scale(workload, seed, scale):
    with pytest.raises(ValueError):
        run_bench(BenchConfig("RoOne", seed, scale), workload)


def test_decision_invariance_between_strategies(workload):
    pairs = [("ReOneEg", "ReOneLz"), ("ReAllEgLib", "ReAllLzLib"),
             ("ReAllEgStr", "ReAllLzStr")]
    for eager_name, lazy_name in pairs:
        eager = bench(eager_name, workload)
        lazy = bench(lazy_name, workload)
        assert eager.allows_full == lazy.allows_full, (eager_name, lazy_name)
        assert lazy.mean_formula_evals <= eager.mean_formula_evals


def test_strict_allows_are_liberal_allows(workload):
    liberal = bench("ReAllEgLib", workload)
    strict = bench("ReAllEgStr", workload)
    for s, l in zip(strict.allows_full, liberal.allows_full):
        assert l or not s
