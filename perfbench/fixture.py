"""Synthesized inputs for the benchmark, built out of process and cached.

The system under test -- the labelled preferential-attachment graph, the
role tables and the principal policy -- is drawn once from ``GRAPH_SEED``
(the paper's default seed) and shared by every benchmark seed; the graph
is also by far the slowest part to synthesize.  The traffic is drawn from
the benchmark ``--seed``: the paper's two request lists (the paper's
recipe, over that graph), the related-pair lists, the warm-up queries
and the wire schedule.  At seed ``GRAPH_SEED`` the graph, policy and
request files equal what ``rebac synth --seed 7`` writes, byte for byte:
the base folder is written by ``synth.write_fixture`` itself, and
perfbench/expected.json holds the hashes of both copies of the lists.

Cache layout under ``<checkout>/.bench_build/perfbench``::

    base-<scale>-<key>/    graph.txt, policy.json, requests_*.json (as
                           ``rebac synth`` writes them), policy_wire.json,
                           base.json (populations, walk index),
                           meta.json (edge digest, build time)
    seed<n>-<scale>-<key>/ requests_*.json, related.json, warmup.json,
                           wire.json, meta.json

``<key>`` hashes every source file of ``rebac`` plus this file, so a change
to the synthesizer (or anything it calls) rebuilds the cache.  Builders run
as ``python3 perfbench/fixture.py base|seed ...`` in a child process, so the
measured process never holds synthesis state.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "perfbench"

GRAPH_SEED = 7
GUARD_KINDS = ("one-of", "all-of")
WARMUP_QUERIES = 250
BUILD_TIMEOUT_S = 600

# Related-pair walk: patient --gp--> u1 [<-referrer-- requestor]
#                    patient --register-ward--> u1 [--ward-nurse--> requestor]
FIRST_HOPS = ("gp", "register-ward")
SECOND_HOP = {"gp": "referrer_in", "register-ward": "ward-nurse"}

# wire-mixed: admin writes add and delete (patient, consult, specialist)
# edges; one added principal's predicate reads that relation.
CONSULT_REL = "consult"
CONSULT_PRINCIPAL = "ap-consult"
ADMIN_TRIPLES = 32


def cache_key(scale: float) -> str:
    h = hashlib.sha256(f"scale={scale!r}\n".encode())
    for path in sorted((ROOT / "src" / "rebac").glob("*.py")) + [Path(__file__).resolve()]:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def edge_digest(edges) -> tuple[int, str]:
    """Order-independent digest of an edge set: (count, hex sum of hashes)."""
    total = 0
    count = 0
    for s, rel, d in edges:
        raw = hashlib.blake2b(f"{s}\t{rel}\t{d}".encode(), digest_size=8).digest()
        total = (total + int.from_bytes(raw, "big")) & ((1 << 64) - 1)
        count += 1
    return count, f"{total:016x}"


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _request_doc(requests) -> list[dict]:
    return [{"user": r.user, "resource": r.resource, "guard": r.guard.to_json()}
            for r in requests]


# --- base: what ``rebac synth`` writes, and what the per-seed builder needs ---


def build_base(out: Path, scale: float) -> None:
    """``rebac synth --seed GRAPH_SEED``'s files (graph.txt, policy.json and
    the paper's request lists at that seed), plus the wire policy and the
    populations and walk index the per-seed builder draws from."""
    from rebac import synth
    from rebac.prng import stream

    start = time.perf_counter()
    w = synth.synthesize(synth.SynthConfig(GRAPH_SEED, scale))
    synth.write_fixture(w, out)
    g = w.graph
    _dump(out / "policy_wire.json", wire_policy(synth.policy_document(w.store),
                                                stream(GRAPH_SEED, "wire-policy"),
                                                w.privileges))
    walk: dict[str, dict[str, list[str]]] = {rel: {} for rel in FIRST_HOPS}
    for p in w.patients:
        for rel in FIRST_HOPS:
            targets = g.out_neighbors(p, rel)
            if targets:
                walk[rel][p] = sorted(targets)
    walk["referrer_in"] = {}
    walk["ward-nurse"] = {}
    for u in w.users:
        referrers = g.in_neighbors(u, "referrer")
        if referrers:
            walk["referrer_in"][u] = sorted(referrers)
        nurses = g.out_neighbors(u, "ward-nurse")
        if nurses:
            walk["ward-nurse"][u] = sorted(nurses)
    count, digest = edge_digest(g.edge_set())
    _dump(out / "base.json", {"users": w.users, "patients": w.patients,
                              "privileges": w.privileges,
                              "relations": sorted(g.relations()), "walk": walk})
    _dump(out / "meta.json", {"graph_seed": GRAPH_SEED, "scale": scale,
                              "edge_count": count, "edge_digest": digest,
                              "build_s": time.perf_counter() - start})


# --- per seed: request lists, warm-up, wire schedule ---


def related_requests(walk: dict, privileges: list[str], rng, kind: str,
                     count: int) -> list[dict]:
    """Requests whose (patient, clinician) pair is joined by a corpus path.

    Each request draws its guard as the paper does (1-3 distinct
    privileges), then a patient with a ``gp`` or ``register-ward`` edge,
    the first hop, and, when the clinician reached has one, an optional
    second hop (``<-referrer`` after ``gp``, ``ward-nurse`` after
    ``register-ward``).
    """
    patients = sorted(set(walk["gp"]) | set(walk["register-ward"]))
    max_size = min(3, len(privileges))
    out = []
    for _ in range(count):
        size = 1 + rng.randrange(max_size)
        guard = sorted(rng.sample(privileges, size))
        patient = rng.choice(patients)
        hops = [rel for rel in FIRST_HOPS if patient in walk[rel]]
        first = rng.choice(hops)
        user = rng.choice(walk[first][patient])
        further = walk[SECOND_HOP[first]].get(user)
        if further and rng.randrange(2):
            user = rng.choice(further)
        out.append({"user": user, "resource": patient,
                    "guard": {"kind": kind, "privileges": guard}})
    return out


def warmup_queries(vertices: list[str], relations: list[str], rng,
                   total: int) -> list[list[str]]:
    """The paper's warm-up: distinct (vertex, relation) neighbour queries,
    drawn in the order the paper's harness draws them."""
    total = min(total, len(vertices) * len(relations))
    issued: set[tuple[int, int]] = set()
    out = []
    while len(issued) < total:
        key = (rng.randrange(len(vertices)), rng.randrange(len(relations)))
        if key in issued:
            continue
        issued.add(key)
        out.append([vertices[key[0]], relations[key[1]]])
    return out


def wire_policy(doc: dict, rng, privileges: list[str]) -> dict:
    """The paper policy plus one access-control relation, a principal whose
    predicate reads it, and the refer/unrefer actions that write it."""
    doc = copy.deepcopy(doc)
    doc["relations"].append({"name": CONSULT_REL, "category": "access-control"})
    doc["formulas"] += [
        {"id": "rp-consult", "vars": ["patient", "requestor"],
         "text": f"@patient <{CONSULT_REL}> requestor"},
        {"id": "refer-enabling", "vars": ["user", "patient"], "text": "@patient <gp> user"},
        {"id": "refer-applicable", "vars": ["user", "patient", "specialist"],
         "text": "@patient <gp> user"},
    ]
    doc["matching_rules"].append({"principal": CONSULT_PRINCIPAL, "formula_id": "rp-consult"})
    doc["authorization_rules"].append(
        {"principal": CONSULT_PRINCIPAL, "privileges": sorted(rng.sample(privileges, 3))})
    doc["admin_actions"] = [
        {"id": action, "enabling": "refer-enabling", "participants": ["specialist"],
         "applicability": "refer-applicable",
         "effects": [{"op": op, "rel": CONSULT_REL, "x": "patient", "y": "specialist"}]}
        for action, op in (("refer", "add"), ("unrefer", "del"))
    ]
    return doc


def admin_triples(walk: dict, users: list[str], checked: set[tuple[str, str]],
                  rng, count: int) -> list[list[str]]:
    """Distinct (gp, patient, specialist) bindings whose (patient,
    specialist) pair is never a checked pair, so no check's decision
    depends on the writes."""
    patients = sorted(walk["gp"])
    seen: set[tuple[str, str]] = set()
    out = []
    while len(out) < count:
        patient = rng.choice(patients)
        specialist = rng.choice(users)
        pair = (patient, specialist)
        if pair in checked or pair in seen:
            continue
        seen.add(pair)
        out.append([rng.choice(walk["gp"][patient]), patient, specialist])
    return out


def build_seed(base_dir: Path, out: Path, seed: int, scale: float) -> None:
    from rebac import synth
    from rebac.prng import stream

    start = time.perf_counter()
    base = json.loads((base_dir / "base.json").read_text(encoding="utf-8"))
    users, patients, walk = base["users"], base["patients"], base["walk"]
    privileges = base["privileges"]
    cfg = synth.SynthConfig(seed, scale)
    count = synth.scaled(synth.BASE_REQUESTS, scale)
    related = {}
    for kind in GUARD_KINDS:
        paper = synth.synth_requests(cfg, kind, users=users, patients=patients,
                                     privileges=privileges)
        _dump(out / f"requests_{kind.replace('-', '_')}.json", _request_doc(paper))
        related[kind] = related_requests(walk, privileges,
                                         stream(seed, f"related-mix/{kind}"), kind, count)
    _dump(out / "related.json", related)

    _dump(out / "warmup.json", warmup_queries(
        sorted(users + patients), base["relations"], stream(seed, "warmup"), WARMUP_QUERIES))

    reads = [r for pair in zip(related["one-of"], related["all-of"]) for r in pair]
    checked = {(r["resource"], r["user"]) for r in reads}
    _dump(out / "wire.json", {
        "reads": [{"op": "check", **r} for r in reads],
        "admin": admin_triples(walk, users, checked, stream(seed, "wire"), ADMIN_TRIPLES),
    })
    _dump(out / "meta.json", {"seed": seed, "scale": scale,
                              "build_s": time.perf_counter() - start})


# --- cache (checked in the benchmark process, built in a child) ---


def _build(kind: str, final: Path, args: list[str]) -> None:
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), kind,
                        "--out", str(tmp), *args],
                       env=env, check=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclass
class Fixture:
    """What the measured process reads: file paths and the small inputs."""

    seed: int
    scale: float
    graph_path: Path
    policy_path: Path
    wire_policy_path: Path
    wire_path: Path  # the load generator's schedule
    paper: dict  # guard kind -> request docs
    related: dict  # guard kind -> request docs
    warmup: list  # [vertex, relation]
    wire_reads: list  # check ops
    admin: list  # [user, patient, specialist]
    edge_count: int
    edge_digest: str
    build_s: float

    def sha256(self, name: str) -> str:
        """Hash of a fixture file named ``base/<file>`` or ``seed/<file>``."""
        folder, file = name.split("/", 1)
        path = (self.graph_path if folder == "base" else self.wire_path).parent / file
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        return h.hexdigest()


def load(seed: int, scale: float) -> Fixture:
    """The fixture for (seed, scale), building what the cache lacks."""
    base, per_seed = ensure(seed, scale)

    def read(path: Path):
        return json.loads(path.read_text(encoding="utf-8"))

    base_meta, seed_meta, wire = read(base / "meta.json"), read(per_seed / "meta.json"), \
        read(per_seed / "wire.json")
    return Fixture(
        seed=seed, scale=scale,
        graph_path=base / "graph.txt",
        policy_path=base / "policy.json",
        wire_policy_path=base / "policy_wire.json",
        wire_path=per_seed / "wire.json",
        paper={kind: read(per_seed / f"requests_{kind.replace('-', '_')}.json")
               for kind in GUARD_KINDS},
        related=read(per_seed / "related.json"),
        warmup=read(per_seed / "warmup.json"),
        wire_reads=wire["reads"],
        admin=wire["admin"],
        edge_count=base_meta["edge_count"],
        edge_digest=base_meta["edge_digest"],
        build_s=base_meta["build_s"] + seed_meta["build_s"],
    )


def ensure(seed: int, scale: float) -> tuple[Path, Path]:
    """Base and per-seed fixture directories, building what is missing."""
    key = cache_key(scale)
    base = CACHE / f"base-{scale!r}-{key}"
    if not (base / "meta.json").exists():
        _build("base", base, ["--scale", repr(scale)])
    per_seed = CACHE / f"seed{seed}-{scale!r}-{key}"
    if not (per_seed / "meta.json").exists():
        _build("seed", per_seed, ["--base", str(base), "--seed", str(seed),
                                  "--scale", repr(scale)])
    return base, per_seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("base", "seed"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=GRAPH_SEED)
    parser.add_argument("--base", type=Path)
    args = parser.parse_args(argv)
    if args.kind == "base":
        build_base(args.out, args.scale)
    else:
        build_seed(args.base, args.out, args.seed, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
