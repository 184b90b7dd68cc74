"""Regenerate perfbench/expected.json: input hashes and decision digests at
the default seed and scale.

    python3 perfbench/expected.py

Run it only when a change is meant to alter the synthesized inputs or the
decisions; every benchmark run at the default seed compares against the
committed file and fails on any difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fixture  # noqa: E402
import library  # noqa: E402
from run import DEFAULT_SCALE, DEFAULT_SEED  # noqa: E402

# base/: rebac synth's own files at the default seed, plus the wire policy;
# seed/: the per-seed traffic (its paper lists must hash like base/'s)
INPUTS = ("base/graph.txt", "base/policy.json", "base/requests_one_of.json",
          "base/requests_all_of.json", "base/policy_wire.json",
          "seed/requests_one_of.json", "seed/requests_all_of.json", "seed/related.json",
          "seed/warmup.json", "seed/wire.json")


def main() -> int:
    from rebac import engine
    from rebac.policy import attach_policy, load_policy_file

    fx = fixture.load(DEFAULT_SEED, DEFAULT_SCALE)
    graph, store, _, _ = library.load_system(fx.graph_path, fx.policy_path)
    decisions = {}
    for workload, lists in (("paper-mix", fx.paper), ("related-mix", fx.related)):
        requests = {kind: [library.to_request(r) for r in docs] for kind, docs in lists.items()}
        matrix = library.Matrix(graph, store, requests, fx.warmup)
        matrix.one_pass()
        decisions[workload] = {name: library.decision_digest(allows)
                               for name, allows in matrix.decisions.items()}
    wire_store = load_policy_file(fx.wire_policy_path)
    attach_policy(graph, wire_store)
    allows = [engine.check(wire_store, graph, wire_store.rbac, library.to_request(op),
                           engine.EngineConfig()).allow for op in fx.wire_reads]
    decisions["wire-mixed"] = {"EngineConfig()": library.decision_digest(allows)}
    doc = {"seed": DEFAULT_SEED, "scale": DEFAULT_SCALE,
           "inputs_sha256": {name: fx.sha256(name) for name in INPUTS},
           "decisions": decisions}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(json.dumps(decisions, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
