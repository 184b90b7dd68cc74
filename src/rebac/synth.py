"""Deterministic synthetic workloads: role tables, labelled graph, policy,
and request lists, reproducing the benchmark recipe at a configurable scale.

Baseline counts at scale 1 (scaled counts round half-up, minimum 1):

* 10,000 users, 200 privileges, 67 roles (one role per ~3 privileges),
  469 privilege-role pairs (~7 per role), 50,000 user-role pairs (~5 per
  user), all sampled uniformly without replacement;
* 400 access requests per guard kind, each guard holding 1-3 privileges,
  pairing the i-th sampled clinician with the i-th sampled patient; the
  harness treats the first half as warmup;
* a generated preferential-attachment digraph of 100,000 nodes and
  1,000,000 edges (both scale with the scale knob and can be overridden),
  with the top in-degree ~0.625% of nodes labelled as users and the rest
  as patients.

Each directed edge is labelled uniformly among the relation identifiers
matching its endpoint kinds:

    patient->user     gp, register-ward
    user->user        referrer, ward-nurse, appoint-team, team
    patient->patient  agent
    user->patient     dummy

``member`` appears in the formula corpus but not in the identifier table;
it is declared (user->user) so formulas referencing it evaluate over an
empty relation instead of erroring.

All randomness flows through named substreams of one 64-bit seed
(``graph``, ``labels``, ``rbac``, ``policy``, ``requests/<kind>``), so a
(seed, scale) pair yields byte-identical fixture files on every platform.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

from . import hl
from .engine import AccessRequest
from .errors import InfeasibleScale
from .graph import USER_MANAGED, AuthorizationGraph, save_graph
from .policy import Guard, PolicyStore
from .prng import Xoshiro256, stream
from .rbac import RbacTables

BASE_USERS = 10_000
BASE_PRIVILEGES = 200
BASE_ROLES = 67
BASE_PA_PAIRS = 469
BASE_UA_PAIRS = 50_000
BASE_REQUESTS = 400

BASE_GRAPH_NODES = 100_000
BASE_GRAPH_EDGES = 1_000_000
USER_FRACTION = 10_000 / 1_600_000

EDGE_LABELS: dict[tuple[str, str], tuple[str, ...]] = {
    ("patient", "user"): ("gp", "register-ward"),
    ("user", "user"): ("referrer", "ward-nurse", "appoint-team", "team"),
    ("patient", "patient"): ("agent",),
    ("user", "patient"): ("dummy",),
}

# Declared but never used to label generated edges.
EXTRA_RELATIONS = ("member",)

RELATION_NAMES = tuple(sorted(
    {name for labels in EDGE_LABELS.values() for name in labels} | set(EXTRA_RELATIONS)
))

REQUEST_VARS = ("patient", "requestor")

# Ten candidate clinician-patient predicates; composites are expanded by
# reference so each library entry is self-contained.
_RP01 = "@patient <gp> requestor"
_RP02 = "@patient <gp> <-referrer> requestor"
_RP04 = "@patient <gp> <-referrer> <appoint-team> requestor"
_RP05 = "@patient <gp> <-referrer> <appoint-team> (requestor | <member> requestor)"
_RP07 = "@patient <register-ward> requestor"
_RP08 = "@patient <register-ward> (requestor | <ward-nurse> requestor)"

FORMULA_CORPUS: tuple[tuple[str, str], ...] = (
    ("rp01", _RP01),
    ("rp02", _RP02),
    ("rp03", f"{_RP01} | {_RP02}"),
    ("rp04", _RP04),
    ("rp05", _RP05),
    ("rp06", f"{_RP01} | {_RP02} | {_RP05}"),
    ("rp07", _RP07),
    ("rp08", _RP08),
    ("rp09", f"{_RP01} | {_RP02} | {_RP05} | {_RP08}"),
    ("rp10", f"{_RP01} | @patient <-agent> <gp> requestor"),
)


def corpus_library() -> hl.FormulaLibrary:
    return {fid: hl.parse(text, REQUEST_VARS) for fid, text in FORMULA_CORPUS}


@dataclass(frozen=True)
class GeneratedGraph:
    """Generate a preferential-attachment digraph; None means desk-scale
    defaults multiplied by the config's scale."""

    nodes: int | None = None
    edges: int | None = None


GraphSource = Union[GeneratedGraph, str, Path]


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    scale: float = 1.0
    graph_source: GraphSource = GeneratedGraph()

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def scaled(base: int, scale: float) -> int:
    """Nearest integer (half away from zero), minimum 1."""
    return max(1, int(base * scale + 0.5))


def _pad(i: int, total: int) -> str:
    return f"{i:0{len(str(max(total - 1, 1)))}d}"


def synth_rbac(cfg: SynthConfig,
               user_ids: Sequence[str] | None = None) -> tuple[RbacTables, list[str]]:
    """Role tables plus the privilege list.

    ``user_ids`` seeds the user universe (the pipeline passes the graph's
    clinician vertices, so request users carry roles); synthetic ids fill
    any remainder up to the scaled user count.
    """
    n_users = scaled(BASE_USERS, cfg.scale)
    n_privs = scaled(BASE_PRIVILEGES, cfg.scale)
    n_roles = scaled(BASE_ROLES, cfg.scale)
    n_pa = scaled(BASE_PA_PAIRS, cfg.scale)
    n_ua = scaled(BASE_UA_PAIRS, cfg.scale)
    if n_pa > n_roles * n_privs:
        raise InfeasibleScale(f"{n_pa} privilege-role pairs exceed {n_roles}x{n_privs}")
    if n_ua > n_users * n_roles:
        raise InfeasibleScale(f"{n_ua} user-role pairs exceed {n_users}x{n_roles}")

    privileges = [f"priv{_pad(i, n_privs)}" for i in range(n_privs)]
    roles = [f"role{_pad(i, n_roles)}" for i in range(n_roles)]
    users = list(user_ids[:n_users]) if user_ids else []
    taken = set(users)
    i = len(users)
    while len(users) < n_users:
        candidate = f"user{_pad(i, n_users)}"
        if candidate not in taken:
            users.append(candidate)
        i += 1

    rng = stream(cfg.seed, "rbac")
    privilege_assignment: dict[str, set[str]] = {role: set() for role in roles}
    for idx in rng.sample_indices(n_roles * n_privs, n_pa):
        role_i, priv_i = divmod(idx, n_privs)
        privilege_assignment[roles[role_i]].add(privileges[priv_i])
    user_assignment: dict[str, set[str]] = {}
    for idx in rng.sample_indices(n_users * n_roles, n_ua):
        user_i, role_i = divmod(idx, n_roles)
        user_assignment.setdefault(users[user_i], set()).add(roles[role_i])

    tables = RbacTables(
        roles=frozenset(roles),
        privilege_assignment={r: frozenset(ps) for r, ps in privilege_assignment.items()},
        user_assignment={u: frozenset(rs) for u, rs in user_assignment.items()},
    )
    return tables, privileges


def _generate_pairs(rng: Xoshiro256, n_nodes: int,
                    n_edges: int) -> tuple[list[str], list[tuple[int, int]]]:
    max_pairs = n_nodes * (n_nodes - 1)
    if n_edges > max_pairs // 2:
        raise ValueError(f"{n_edges} edges too dense for {n_nodes} nodes")
    ids = [f"n{_pad(i, n_nodes)}" for i in range(n_nodes)]
    targets = list(range(n_nodes))
    seen: set[int] = set()
    pairs: list[tuple[int, int]] = []
    while len(pairs) < n_edges:
        src = rng.randrange(n_nodes)
        dst = targets[rng.randrange(len(targets))]
        if src == dst:
            continue
        key = src * n_nodes + dst
        if key in seen:
            continue
        seen.add(key)
        pairs.append((src, dst))
        targets.append(dst)
    return ids, pairs


def _load_pairs(path) -> tuple[list[str], list[tuple[int, int]]]:
    """Raw social-graph input: one ``src dst`` pair per line, ``#`` comments.
    Self-loops and duplicate pairs are dropped."""
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}: expected 'src dst', got {line!r}")
            src, dst = fields
            if src == dst:
                continue
            si = index.setdefault(src, len(index))
            di = index.setdefault(dst, len(index))
            if (si, di) in seen:
                continue
            seen.add((si, di))
            pairs.append((si, di))
    ids = sorted(index, key=index.get)
    return ids, pairs


def synth_graph(cfg: SynthConfig) -> AuthorizationGraph:
    """Labelled authorization graph from the configured source.

    The top in-degree nodes become users (ties broken by ascending node
    id); every edge is labelled uniformly among the identifiers matching
    its endpoint kinds.
    """
    if isinstance(cfg.graph_source, GeneratedGraph):
        n_nodes = cfg.graph_source.nodes or scaled(BASE_GRAPH_NODES, cfg.scale)
        n_edges = cfg.graph_source.edges if cfg.graph_source.edges is not None \
            else scaled(BASE_GRAPH_EDGES, cfg.scale)
        ids, pairs = _generate_pairs(stream(cfg.seed, "graph"), n_nodes, n_edges)
        user_count = max(1, int(len(ids) * USER_FRACTION + 0.5))
    else:
        ids, pairs = _load_pairs(cfg.graph_source)
        user_count = scaled(BASE_USERS, cfg.scale)
    if user_count > len(ids):
        raise InfeasibleScale(f"{user_count} users exceed {len(ids)} graph nodes")

    indegree = Counter(d for _, d in pairs)
    by_rank = sorted(range(len(ids)), key=lambda i: (-indegree[i], ids[i]))
    is_user = [False] * len(ids)
    for i in by_rank[:user_count]:
        is_user[i] = True

    rng = stream(cfg.seed, "labels")
    g = AuthorizationGraph()
    with g.write():
        for name in RELATION_NAMES:
            g.declare_relation(name, USER_MANAGED)
        for i, vid in enumerate(ids):
            g.add_vertex(vid, "user" if is_user[i] else "patient")
        for src, dst in pairs:
            kinds = ("user" if is_user[src] else "patient",
                     "user" if is_user[dst] else "patient")
            g.add_edge(ids[src], rng.choice(EDGE_LABELS[kinds]), ids[dst])
    return g


def synth_policy(cfg: SynthConfig, tables: RbacTables
                 ) -> tuple[dict[str, str], dict[str, frozenset[str]], hl.FormulaLibrary]:
    """One principal per role, granting the role's privileges, matched by a
    uniformly chosen corpus formula.  Returns (matching rules,
    authorization rules, formula library)."""
    rng = stream(cfg.seed, "policy")
    corpus_ids = [fid for fid, _ in FORMULA_CORPUS]
    matching: dict[str, str] = {}
    authorization: dict[str, frozenset[str]] = {}
    for role in sorted(tables.roles):
        principal = f"ap-{role}"
        matching[principal] = corpus_ids[rng.randrange(len(corpus_ids))]
        authorization[principal] = tables.privilege_assignment.get(role, frozenset())
    return matching, authorization, corpus_library()


def synth_requests(cfg: SynthConfig, guard_kind: str, *,
                   users: Sequence[str],
                   patients: Sequence[str],
                   privileges: Sequence[str],
                   count: int | None = None) -> list[AccessRequest]:
    """Request list for one guard kind: guards first, then the clinician
    list, then the patient list; request i pairs clinician i with patient i."""
    n = count if count is not None else scaled(BASE_REQUESTS, cfg.scale)
    max_size = min(3, len(privileges))

    rng = stream(cfg.seed, f"requests/{guard_kind}")
    guards = []
    for _ in range(n):
        size = 1 + rng.randrange(max_size)
        guards.append(Guard(guard_kind, frozenset(rng.sample(privileges, size))))
    clinicians = [users[rng.randrange(len(users))] for _ in range(n)]
    subjects = [patients[rng.randrange(len(patients))] for _ in range(n)]
    return [AccessRequest(subjects[i], clinicians[i], guards[i]) for i in range(n)]


@dataclass
class SynthesizedWorkload:
    cfg: SynthConfig
    graph: AuthorizationGraph
    store: PolicyStore
    privileges: list[str]
    users: list[str]
    patients: list[str]
    requests: dict[str, list[AccessRequest]]  # guard kind -> requests


def synthesize(cfg: SynthConfig) -> SynthesizedWorkload:
    """The full pipeline: graph, role tables over the graph's clinicians,
    principal policy, and both request lists."""
    g = synth_graph(cfg)
    kinds = g.vertices()
    users = sorted(v for v, k in kinds.items() if k == "user")
    patients = sorted(v for v, k in kinds.items() if k == "patient")
    tables, privileges = synth_rbac(cfg, user_ids=users)
    matching, authorization, formulas = synth_policy(cfg, tables)
    store = PolicyStore(
        relations=g.relations(),
        formulas=formulas,
        matching_rules=matching,
        authorization_rules=authorization,
        rbac=tables,
    )
    requests = {
        kind: synth_requests(cfg, kind, users=users, patients=patients,
                             privileges=privileges)
        for kind in ("one-of", "all-of")
    }
    return SynthesizedWorkload(cfg, g, store, privileges, users, patients, requests)


def policy_document(store: PolicyStore) -> dict:
    """Policy JSON document (deterministically ordered) for a store."""
    tables = store.rbac
    return {
        "relations": [{"name": n, "category": c} for n, c in sorted(store.relations.items())],
        "formulas": [
            {"id": fid, "vars": list(f.vars), "text": hl.unparse(f)}
            for fid, f in sorted(store.formulas.items())
        ],
        "matching_rules": [
            {"principal": ap, "formula_id": fid}
            for ap, fid in sorted(store.matching_rules.items())
        ],
        "authorization_rules": [
            {"principal": ap, "privileges": sorted(ps)}
            for ap, ps in sorted(store.authorization_rules.items())
        ],
        "rbac": {
            "roles": [
                {"name": r, "privileges": sorted(tables.privilege_assignment.get(r, ()))}
                for r in sorted(tables.roles)
            ],
            "user_roles": [
                {"user": u, "roles": sorted(rs)}
                for u, rs in sorted(tables.user_assignment.items())
            ],
        },
        "admin_actions": [
            {
                "id": a.id,
                "enabling": a.enabling,
                "participants": list(a.participants),
                "applicability": a.applicability,
                "effects": [{"op": u.op, "rel": u.rel, "x": u.x, "y": u.y} for u in a.effects],
            }
            for a in store.admin_actions.values()
        ],
        "owners": [
            {"resource": r, "owner": o}
            for r in sorted(store.owners)
            for o in store.owners[r]
        ],
    }


def write_fixture(workload: SynthesizedWorkload, outdir) -> list[Path]:
    """Write graph.txt, policy.json and the two request files; returns paths."""
    out = Path(outdir)
    os.makedirs(out, exist_ok=True)
    paths = []

    graph_path = out / "graph.txt"
    graph_path.write_text(save_graph(workload.graph), encoding="utf-8")
    paths.append(graph_path)

    policy_path = out / "policy.json"
    policy_path.write_text(
        json.dumps(policy_document(workload.store), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    paths.append(policy_path)

    for kind, requests in sorted(workload.requests.items()):
        req_path = out / f"requests_{kind.replace('-', '_')}.json"
        doc = [
            {"user": r.user, "resource": r.resource, "guard": r.guard.to_json()}
            for r in requests
        ]
        req_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        paths.append(req_path)
    return paths
