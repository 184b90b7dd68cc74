"""Decision benchmark for the rebac policy decision point.

    python3 perfbench/run.py --workload paper-mix|related-mix|wire-mixed \\
        [--seed 7] [--seconds 20] [--trace 0|1] [--scale 1.0]

Builds (or reuses) the synthesized fixture for (seed, scale) in a child
process, loads it the way ``rebac serve`` does, runs the workload and
prints every metric with its unit and sample count.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The exit code
is non-zero when any decision or invariant check fails.

A result file with the run's settings and environment is written under
``.bench_build/perfbench/results``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-mix", "related-mix", "wire-mixed")
DEFAULT_SEED = 7
DEFAULT_SCALE = 1.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _expected(workload: str, fx) -> tuple[dict | None, list[str]]:
    """The committed decision digest for this workload, when the run uses
    the default seed and scale, plus any mismatch in the input files."""
    if (fx.seed, fx.scale) != (DEFAULT_SEED, DEFAULT_SCALE):
        return None, []
    doc = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    errors = [f"{name} differs from the committed input ({fx.sha256(name)[:16]})"
              for name, digest in doc["inputs_sha256"].items()
              if fx.sha256(name) != digest]
    return doc["decisions"][workload], errors


def _line(result, name: str, value: float, unit: str, n: int, note: str = "") -> None:
    if n == 0:
        note += "  (not exercised by this workload)"
    tail = result.info.get(name.replace("_p99_us", "_tail_pct")
                           .replace("_tail_run_us", "_tail_run_pct"))
    if name.endswith(("_p99_us", "_tail_run_us")) and tail is not None:
        note += f"  (p{tail:g}: highest percentile with >=10 samples beyond)"
    print(f"  {name:44s} {value:14.4f} {unit:6s} n={n}{note}")


def _report(args, result, declared: list[dict]) -> dict:
    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"seconds={args.seconds} trace={args.trace}")
    for spec in declared:
        name = spec["name"]
        if name in result.info.get("absent_metrics", ()):
            print(f"  {name:44s} absent (traced call site no longer exists)")
            continue
        value, unit, n = result.metrics.get(name, (0.0, spec["unit"], 0))
        if unit != spec["unit"]:
            raise RuntimeError(f"{name}: measured in {unit}, declared in {spec['unit']}")
        _line(result, name, value, unit, n)
        metrics[name] = {"value": value, "unit": unit}
    for name in sorted(set(result.metrics) - {s["name"] for s in declared}):
        _line(result, name, *result.metrics[name], "  (not in BENCHMARK.json)")
    ratio = result.failed / result.attempted if result.attempted else 0.0
    print(f"  {'error_ratio':44s} {ratio:14.6f} ratio  n={result.attempted}")
    print(f"  load: {result.info['load']}")
    for phase in result.info.get("loadgen", ()):
        print(f"  loadgen {phase['mode']:6s} {phase['duration_s']:6.2f} s  sent {phase['sent']}"
              f"  succeeded {phase['succeeded']}  failed {phase['failed']}")
    for error in result.errors[:20]:
        print(f"  ERROR {error}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rebac" / "__init__.py").is_file():
        return _fail(f"no rebac sources under {ROOT / 'src'}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json missing at the checkout root")
    if args.seconds <= 0 or args.scale <= 0:
        return _fail("--seconds and --scale must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    import rebac
    if Path(rebac.__file__).resolve().parent != ROOT / "src" / "rebac":
        return _fail(f"imported rebac from {rebac.__file__}, not from this checkout")

    import fixture
    import library
    import wire

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    fx = fixture.load(args.seed, args.scale)
    expected, input_errors = _expected(args.workload, fx)
    if args.workload == "wire-mixed":
        result = wire.run(fx, args.seconds, bool(args.trace), expected)
    else:
        result = library.run(args.workload, fx, args.seconds, bool(args.trace), expected)
    result.errors = input_errors + result.errors
    if args.trace:
        result.metrics["synth.build_s"] = (fx.build_s, "s", 1)
        import layers
        result.info["absent_metrics"] = [
            s["name"] for s in declared["per_layer"]
            if layers.lost(s["name"], result.info.get("absent", []))]

    metrics = _report(args, result, declared["per_layer" if args.trace else "end_to_end"])
    correct = not result.errors
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": _commit(),
        "offered_rate": result.info.get("offered_rate"),
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "errors": result.errors,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in result.metrics.items()},
        "info": result.info,
    }
    out = fixture.CACHE / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = record["when"].replace(":", "").replace("+0000", "Z")
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
