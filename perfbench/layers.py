"""Per-layer metrics of a traced run, from spans around the rebac layers.

Wrapped calls (span name <- call site):

    engine.check              rebac.engine.check
    hl.relationship_predicate rebac.hl.relationship_predicate
    hl.evaluate               rebac.hl.evaluate
    graph.lookup              AuthorizationGraph._out / ._in (what hl reads)
    graph.read / graph.write  entering AuthorizationGraph.read() / .write()
    rbac.privileges           rebac.engine.rbac_privileges
    admin.execute_action      rebac.admin.execute_action
    service.dispatch          PdpServer.dispatch

A check request is a span tree that contains ``engine.check``: its root is
that span in-process and ``service.dispatch`` on the wire.  Self times
include the wrappers' own cost, charged to the parent span's layer.

Closure check: per traced check, the self times of ``engine.check`` and
every span under it add up to the traced check.  Their mean must stay
within ``CLOSURE_BOUND`` of the untraced mean check time, or the run is
invalid: that bounds the tracer overhead the per-layer split carries, and
catches an ``engine.check`` span that no longer covers the decision.
"""

from __future__ import annotations

from collections import defaultdict

import stats
from spans import Span, Tracer, by_request, self_times, subtree_self

US = 1e6
FORMULA_IDS = tuple(f"rp{i:02d}" for i in range(1, 11))

# Mean traced check (sum of its layers' self times) over the untraced mean
# check time must lie within [1 / CLOSURE_BOUND, CLOSURE_BOUND].  The
# wrappers cost one to three microseconds per span, and a paper-mix check
# has about 30 spans: 1.4-1.6x on wire-mixed and 1.6-1.8x in process were seen.
CLOSURE_BOUND = 2.5


def install(tracer: Tracer, stores) -> None:
    from rebac import admin, engine, hl
    from rebac.graph import AuthorizationGraph
    from rebac.service import PdpServer

    fids = {id(f): fid for store in stores for fid, f in store.formulas.items()}

    def decision_tag(args, d):
        return (d.allow, d.trace.principals_considered, d.trace.cache_hits)

    tracer.patch(engine, "check", "engine.check", decision_tag)
    tracer.patch(hl, "relationship_predicate", "hl.relationship_predicate",
                 lambda args, r: (fids.get(id(args[0])), r))
    tracer.patch(hl, "evaluate", "hl.evaluate", lambda args, r: r)
    tracer.patch(AuthorizationGraph, "_out", "graph.lookup", lambda args, r: len(r))
    tracer.patch(AuthorizationGraph, "_in", "graph.lookup", lambda args, r: len(r))
    tracer.patch(AuthorizationGraph, "read", "graph.read", entry=True)
    tracer.patch(AuthorizationGraph, "write", "graph.write", entry=True)
    tracer.patch(engine, "rbac_privileges", "rbac.privileges")
    tracer.patch(admin, "execute_action", "admin.execute_action")
    tracer.patch(PdpServer, "dispatch", "service.dispatch")


def _median_us(spans: list[Span]) -> float:
    return stats.summary(s.duration * US for s in spans)["p50"]


def derive(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics: name -> (value, unit, samples)."""
    spans = tracer.records()
    selfs = self_times(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    check_groups = []
    admin_groups = []
    for group in by_request(spans).values():
        names = {s.name for s in group}
        if "engine.check" in names:
            check_groups.append(group)
        elif "admin.execute_action" in names:
            admin_groups.append(group)
    in_checks = [s for g in check_groups for s in g]
    n_checks = len(check_groups)

    def per_check(pred) -> float:
        return sum(1 for s in in_checks if pred(s)) / n_checks if n_checks else 0.0

    def self_per_check(layer: str) -> float:
        total = sum(selfs[s.sid] for s in in_checks if s.layer == layer)
        return total * US / n_checks if n_checks else 0.0

    rp = [s for s in in_checks if s.name == "hl.relationship_predicate"]
    lookups = named["graph.lookup"]
    checks = [s for s in named["engine.check"] if s.tag != "error"]
    # checks that reached the relationship engine (not rbac-only, not
    # stopped by the role gate)
    considered = [s.tag[1] for s in checks if s.tag[1] > 0]
    admin_spans = named["admin.execute_action"]
    admin_evals = sum(1 for g in admin_groups for s in g if s.name == "hl.evaluate")
    read_wait = stats.summary(s.duration * US for s in named["graph.read"])
    write_wait = stats.summary(s.duration * US for s in named["graph.write"])

    out: dict[str, tuple[float, str, int]] = {
        "graph.read_wait_p99_us": (read_wait["tail"], "us", read_wait["n"]),
        "graph.write_wait_p99_us": (write_wait["tail"], "us", write_wait["n"]),
        "graph.lookups_per_check": (per_check(lambda s: s.name == "graph.lookup"),
                                    "count", n_checks),
        "graph.lookup_us": (_median_us(lookups), "us", len(lookups)),
        "graph.neighbors_per_lookup": (stats.mean(s.tag for s in lookups), "count",
                                       len(lookups)),
        "hl.evals_per_check": (len(rp) / n_checks if n_checks else 0.0, "count", n_checks),
        "hl.memo_hits_per_check": (stats.mean(s.tag[2] for s in checks), "count",
                                   len(checks)),
        "hl.true_ratio": (sum(1 for s in rp if s.tag[1] is True) / len(rp) if rp else 0.0,
                          "ratio", len(rp)),
        "hl.self_us_per_check": (self_per_check("hl"), "us", n_checks),
        "rbac.privileges_us": (_median_us(named["rbac.privileges"]), "us",
                               len(named["rbac.privileges"])),
        "engine.principals_considered_per_check": (stats.mean(considered), "count",
                                                   len(considered)),
        "engine.self_us_per_check": (self_per_check("engine"), "us", n_checks),
        "admin.exec_us": (_median_us(admin_spans), "us", len(admin_spans)),
        "admin.evals_per_exec": (admin_evals / len(admin_groups) if admin_groups else 0.0,
                                 "count", len(admin_groups)),
        "admin.rejected_ratio": (
            sum(1 for s in admin_spans if s.tag == "error") / len(admin_spans)
            if admin_spans else 0.0, "ratio", len(admin_spans)),
        "service.dispatch_us": (
            _median_us([s for s in in_checks if s.name == "service.dispatch"]), "us",
            sum(1 for s in in_checks if s.name == "service.dispatch")),
    }
    for fid in FORMULA_IDS:
        evals = [s for s in rp if s.tag[0] == fid]
        out[f"hl.eval_us.{fid}"] = (_median_us(evals), "us", len(evals))
    check_sums = [subtree_self(g, selfs, s) for g in check_groups for s in g
                  if s.name == "engine.check"]
    out["trace.check_self_sum_us"] = (stats.mean(check_sums) * US, "us", len(check_sums))
    return {name: value for name, value in out.items() if not lost(name, tracer.absent)}


def closure(result, metrics: dict, untraced_check_us: float) -> None:
    """Add ``trace.closure_ratio`` and fail the run when it is out of bounds."""
    traced = metrics.get("trace.check_self_sum_us")
    if traced is None or untraced_check_us <= 0:
        return
    ratio = traced[0] / untraced_check_us
    metrics["trace.closure_ratio"] = (ratio, "ratio", traced[2])
    if not 1 / CLOSURE_BOUND <= ratio <= CLOSURE_BOUND:
        result.errors.append(f"traced checks' layer self times sum to {ratio:.2f}x the "
                             f"untraced check time, outside 1/{CLOSURE_BOUND:g}..{CLOSURE_BOUND:g}")


# metric name prefix -> span names it is built from
_SOURCES = {
    "graph.read_wait": ("graph.read",),
    "graph.write_wait": ("graph.write",),
    "graph.lookup": ("graph.lookup",),
    "graph.neighbors": ("graph.lookup",),
    "hl.": ("hl.relationship_predicate",),
    "rbac.": ("rbac.privileges",),
    "engine.": ("engine.check",),
    "admin.": ("admin.execute_action",),
    "service.dispatch": ("service.dispatch",),
    "trace.check_self_sum": ("engine.check",),
    "trace.closure": ("engine.check",),
}


def lost(metric: str, absent: list[str]) -> bool:
    """Whether a metric is built from a span whose call site is absent."""
    return any(metric.startswith(prefix) and set(names) & set(absent)
               for prefix, names in _SOURCES.items())
