"""Command-line front end.

Exit codes: 0 on success (and on "allow"), 1 on deny or invalid input,
2 on usage errors.  Guards are passed as inline JSON, or from a file with
an ``@path`` prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import admin as admin_mod
from . import engine as engine_mod
from . import hl, service, synth
from .errors import PolicyError, RebacError
from .graph import AuthorizationGraph, load_graph_file, save_graph_file
from .policy import PolicyStore, attach_policy, guard_from_json, load_policy_file, validate


def _load_system(args) -> tuple[AuthorizationGraph, PolicyStore]:
    graph = load_graph_file(args.graph)
    store = load_policy_file(args.policy)
    issues = validate(store)
    if issues:
        for issue in issues:
            print(f"policy: {issue}", file=sys.stderr)
        raise SystemExit(1)
    attach_policy(graph, store)
    return graph, store


def _parse_guard(text: str):
    if text.startswith("@"):
        text = Path(text[1:]).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PolicyError(f"guard is not valid JSON: {exc}") from exc
    return guard_from_json(doc)


def _engine_config(args) -> engine_mod.EngineConfig:
    return engine_mod.EngineConfig(semantics=args.semantics, strategy=args.strategy,
                                   mode=args.mode)


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="edge-list graph file")
    p.add_argument("--policy", required=True, help="policy JSON file")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="both", choices=engine_mod.MODES)
    p.add_argument("--semantics", default="liberal", choices=engine_mod.SEMANTICS)
    p.add_argument("--strategy", default="lazy", choices=engine_mod.STRATEGIES)


def _cmd_check(args) -> int:
    graph, store = _load_system(args)
    req = engine_mod.AccessRequest(args.resource, args.user, _parse_guard(args.guard))
    decision = engine_mod.check(store, graph, store.rbac, req, _engine_config(args))
    print("allow" if decision.allow else "deny")
    if args.trace:
        print(json.dumps(decision.trace.to_json(), indent=2))
    return 0 if decision.allow else 1


def _cmd_match(args) -> int:
    graph, store = _load_system(args)
    for principal in sorted(engine_mod.enabled_principals(store, graph,
                                                          args.resource, args.user)):
        print(principal)
    return 0


def _cmd_filter(args) -> int:
    graph, store = _load_system(args)
    resources = [r for r in args.resources.split(",") if r]
    allowed = engine_mod.filter_collection(store, graph, store.rbac, args.user,
                                           _parse_guard(args.guard), resources,
                                           _engine_config(args))
    for resource in allowed:
        print(resource)
    return 0


def _cmd_admin_list(args) -> int:
    graph, store = _load_system(args)
    for action in admin_mod.enabled_actions(store, graph, args.user, args.patient):
        print(action)
    return 0


def _cmd_admin_exec(args) -> int:
    graph, store = _load_system(args)
    binding = {"user": args.user, "patient": args.patient}
    for pair in args.bind:
        name, sep, vertex = pair.partition("=")
        if not sep or not name or not vertex:
            print(f"--bind expects name=vertex, got {pair!r}", file=sys.stderr)
            return 2
        binding[name] = vertex
    report = admin_mod.execute_action(store, graph, args.action, binding)
    for op, rel, src, dst in report.applied:
        print(f"{op} {rel} {src} {dst}")
    save_graph_file(graph, args.save or args.graph)
    return 0


def _cmd_synth(args) -> int:
    source: synth.GraphSource
    if args.graph_file:
        source = args.graph_file
    else:
        source = synth.GeneratedGraph(args.nodes, args.edges)
    cfg = synth.SynthConfig(seed=args.seed, scale=args.scale, graph_source=source)
    workload = synth.synthesize(cfg)
    for path in synth.write_fixture(workload, args.out):
        print(path)
    return 0


def _cmd_serve(args) -> int:
    graph, store = _load_system(args)
    print(f"listening on {args.listen}", file=sys.stderr)
    service.serve(args.listen, graph, store, _engine_config(args))
    return 0


def _cmd_fmt_check(args) -> int:
    """Parse and validate each formula in a JSON corpus (a bare list of
    {id, vars, text} or a policy document's 'formulas' key)."""
    doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
    entries = doc.get("formulas", []) if isinstance(doc, dict) else doc
    failures = 0
    for i, entry in enumerate(entries):
        fid = entry.get("id", f"#{i}") if isinstance(entry, dict) else f"#{i}"
        try:
            if not isinstance(entry, dict):
                raise PolicyError("formula entry must be an object")
            hl.parse(entry["text"], entry.get("vars", []))
        except (RebacError, KeyError, TypeError) as exc:
            failures += 1
            print(f"error {fid}: {exc}")
        else:
            print(f"ok {fid}")
    return 1 if failures else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebac",
        description="Relationship-based access control decision engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="authorize one (resource, user, guard) request")
    _add_system_flags(p)
    _add_engine_flags(p)
    p.add_argument("--resource", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--guard", required=True, help="guard JSON or @file")
    p.add_argument("--trace", action="store_true", help="print the decision trace")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("match", help="list enabled principals for (resource, user)")
    _add_system_flags(p)
    p.add_argument("--resource", required=True)
    p.add_argument("--user", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("filter", help="keep only the resources the user may access")
    _add_system_flags(p)
    _add_engine_flags(p)
    p.add_argument("--user", required=True)
    p.add_argument("--guard", required=True)
    p.add_argument("--resources", required=True, help="comma-separated resource ids")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("admin", help="administrative actions")
    admin_sub = p.add_subparsers(dest="admin_command", required=True)
    q = admin_sub.add_parser("list", help="actions enabled for (user, patient)")
    _add_system_flags(q)
    q.add_argument("--user", required=True)
    q.add_argument("--patient", required=True)
    q.set_defaults(func=_cmd_admin_list)
    q = admin_sub.add_parser("exec", help="execute an action and save the graph")
    _add_system_flags(q)
    q.add_argument("--action", required=True)
    q.add_argument("--user", required=True)
    q.add_argument("--patient", required=True)
    q.add_argument("--bind", action="append", default=[], metavar="NAME=VERTEX",
                   help="bind an auxiliary participant (repeatable)")
    q.add_argument("--save", help="write the updated graph here (default: --graph)")
    q.set_defaults(func=_cmd_admin_exec)

    p = sub.add_parser("synth", help="write a synthetic fixture directory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, help="generated graph node count")
    p.add_argument("--edges", type=int, help="generated graph edge count")
    p.add_argument("--graph-file", help="raw 'src dst' pair file instead of generation")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("serve", help="run the TCP decision service")
    _add_system_flags(p)
    _add_engine_flags(p)
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("fmt", help="formula tooling")
    fmt_sub = p.add_subparsers(dest="fmt_command", required=True)
    q = fmt_sub.add_parser("check", help="parse-check a formula corpus file")
    q.add_argument("file")
    q.set_defaults(func=_cmd_fmt_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RebacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
