"""wire-mixed: the decision service in this process, load from another.

The service runs with the default ``EngineConfig`` (lazy, liberal, mode
``both``) on the wire policy.  ``loadgen.py`` runs as a separate
single-threaded process over ``CONNECTIONS`` connections, first open loop
at ``OFFERED_RATE`` operations/s for a third of the run, then closed loop
for the rest.  One operation in ``loadgen.ADMIN_EVERY`` is an
``admin.exec`` write; the rest are checks drawn from the related-pair
lists.

The latencies reported as ``check_*`` and ``admin_*`` and ``checks_per_s``
come from the closed loop, where both connections always have a request
in flight.  In the open loop the service idles between requests, and on
a virtual machine its wake-ups cost a varying few hundred microseconds,
so open-loop tails moved by a factor of five between back-to-back
phases.  Open-loop latencies are reported as ``open_check_p50_us`` and
``open_check_p99_us``.

Correctness: every wire result equals the library result for the same
request, no operation fails, and the graph's edge set at the end equals
the fixture's.
"""

from __future__ import annotations

import json
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fixture
import layers
import stats
from library import SETUPS, Result, decision_digest, load_system, peak_rss_mb, \
    read_section_us, to_request
from loadgen import canonical
from spans import Tracer

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
OFFERED_RATE = 1000.0  # operations/s, about a third of closed-loop capacity
OPEN_SHARE = 1 / 3  # of the run, before the closed loop
# A run whose generator noticed its operations this late (p99 lag, upper
# quartile over windows) is invalid: latency from due time would then
# measure the generator, not the service.
LAG_P99_BOUND_US = 5000.0
ANSWER_TIMEOUT_S = 30.0
WARMUP_S = 1.0  # closed loop before measuring: connections, caches, CPU clocks
READ_WINDOW = 1000
ADMIN_WINDOW = 1000
TRACE_ROUNDS = 3  # untraced/traced closed-loop pairs in a traced run


def first_answer(port: int, op: dict) -> None:
    """Block until the service answers one check on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=ANSWER_TIMEOUT_S) as sock:
        sock.sendall(json.dumps(op).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("service closed the connection before answering")
            buf += chunk
    reply = json.loads(buf)
    if not reply.get("ok"):
        raise RuntimeError(f"service refused its first check: {reply.get('error')}")


def phase(port: int, schedule: Path, mode: str, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "loadgen.py"), "--port", str(port),
           "--schedule", str(schedule), "--mode", mode, "--seconds", repr(seconds),
           "--connections", str(CONNECTIONS)]
    if mode == "open":
        cmd += ["--rate", repr(OFFERED_RATE)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 60)
    if proc.returncode:
        raise RuntimeError(f"loadgen {mode} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def merge(reports: list[dict]) -> dict:
    """One report for consecutive phases of the same mode."""
    out = {"mode": reports[0]["mode"],
           "duration_s": sum(r["duration_s"] for r in reports),
           "connections_answered": min(r["connections_answered"] for r in reports)}
    for key in ("read_us", "admin_us", "server_us", "check_us"):
        out[key] = [v for r in reports for v in r[key]]
    return out


def verify(graph, store, fx, reports: list[dict], expected: dict | None) -> tuple[list, list]:
    """Errors, and the library decision of every scheduled read."""
    from rebac import engine

    errors = []
    cfg = engine.EngineConfig()
    library = [engine.check(store, graph, store.rbac, to_request(op), cfg)
               for op in fx.wire_reads]
    for report in reports:
        errors += [f"{report['mode']}: {e}" for e in report["errors"]]
        for index, seen in report["results"].items():
            want = canonical(library[int(index)].to_json())
            if seen != [want]:
                errors.append(f"{report['mode']}: read {index} answered {seen} over the wire, "
                              f"library says {want}")
                break
    allows = [d.allow for d in library]
    if expected is not None and decision_digest(allows) != expected["EngineConfig()"]:
        errors.append(f"wire reads: library decisions differ from the committed digest "
                      f"({decision_digest(allows)} != {expected['EngineConfig()']})")
    count, digest = fixture.edge_digest(graph.edge_set())
    if (count, digest) != (fx.edge_count, fx.edge_digest):
        errors.append(f"edge set changed: {count} edges {digest}, "
                      f"started with {fx.edge_count} edges {fx.edge_digest}")
    return errors, allows


def run(fx, seconds: float, trace: bool, expected: dict | None) -> Result:
    from rebac.engine import EngineConfig
    from rebac.service import PdpServer

    result = Result()
    setups, graph_s, policy_s = [], [], []
    server = graph = store = None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        server = graph = store = None  # release the previous copy first
        t0 = time.perf_counter()
        graph, store, g_s, p_s = load_system(fx.graph_path, fx.wire_policy_path)
        server = PdpServer(("127.0.0.1", 0), graph, store, EngineConfig()).start()
        first_answer(server.address[1], fx.wire_reads[0])
        setups.append(time.perf_counter() - t0)
        graph_s.append(g_s)
        policy_s.append(p_s)

    port, schedule = server.address[1], fx.wire_path
    tracer = Tracer()
    try:
        if trace:
            read_us = read_section_us(graph)
        reports = [phase(port, schedule, "closed", WARMUP_S)]
        if not trace:
            opened = phase(port, schedule, "open", seconds * OPEN_SHARE)
            closed = phase(port, schedule, "closed", seconds * (1 - OPEN_SHARE))
            reports += [opened, closed]
        else:
            # untraced and traced closed loops alternate, so both see the
            # same host; the open loop (for the generator's lag) is traced
            untraced, traced = [], []
            for _ in range(TRACE_ROUNDS):
                untraced.append(phase(port, schedule, "closed", seconds / 3 / TRACE_ROUNDS))
                layers.install(tracer, [store])
                try:
                    traced.append(phase(port, schedule, "closed", seconds / 3 / TRACE_ROUNDS))
                finally:
                    tracer.unpatch()
            layers.install(tracer, [store])
            try:
                opened = phase(port, schedule, "open", seconds / 3)
            finally:
                tracer.unpatch()
            baseline, closed = merge(untraced), merge(traced)
            reports += untraced + traced + [opened]
    finally:
        server.stop()
    rss = peak_rss_mb()

    result.errors, allows = verify(graph, store, fx, reports, expected)
    result.attempted = sum(r["sent"] for r in reports)
    result.failed = sum(r["failed"] for r in reports)
    lag = stats.summary(opened["lag_us"], READ_WINDOW)
    if lag["tail"] > LAG_P99_BOUND_US:
        result.errors.append(f"load generator ran late: p{lag['tail_pct']:g} lag "
                             f"{lag['tail']:.0f} us > {LAG_P99_BOUND_US:.0f} us; run invalid")
    reads = stats.summary(closed["read_us"], READ_WINDOW)
    admin = stats.summary(closed["admin_us"], ADMIN_WINDOW)
    open_reads = stats.summary(opened["read_us"], READ_WINDOW)
    closed_reads = len(closed["read_us"])
    result.info.update({
        "offered_rate": OFFERED_RATE, "connections": CONNECTIONS,
        "check_tail_pct": reads["tail_pct"], "admin_tail_pct": admin["tail_pct"],
        "check_tail_run_pct": reads["tail_run_pct"],
        "open_check_tail_pct": open_reads["tail_pct"],
        "lag_p50_us": lag["p50"], "lag_tail_us": lag["tail"], "lag_tail_pct": lag["tail_pct"],
        "load": f"open loop at {OFFERED_RATE:g} ops/s, then closed loop, "
                f"{CONNECTIONS} connections",
        "loadgen": [{k: r[k] for k in ("mode", "duration_s", "sent", "succeeded", "failed")}
                    for r in reports],
    })
    m = result.metrics
    if not trace:
        m["setup_s"] = (statistics.median(setups), "s", len(setups))
        m["check_p50_us"] = (reads["p50"], "us", reads["n"])
        m["check_p99_us"] = (reads["tail"], "us", reads["n"])
        m["check_tail_run_us"] = (reads["tail_run"], "us", reads["n"])
        m["checks_per_s"] = (closed_reads / closed["duration_s"], "1/s", closed_reads)
        m["admin_p50_us"] = (admin["p50"], "us", admin["n"])
        m["admin_p99_us"] = (admin["tail"], "us", admin["n"])
        m["open_check_p50_us"] = (open_reads["p50"], "us", open_reads["n"])
        m["open_check_p99_us"] = (open_reads["tail"], "us", open_reads["n"])
        m["peak_rss_mb"] = (rss, "MB", 1)
        return result

    per_layer = layers.derive(tracer)
    layers.closure(result, per_layer, stats.mean(baseline["check_us"]))
    result.info["absent"] = tracer.absent
    server_us = stats.summary(closed["server_us"])["p50"]
    m["graph.load_s"] = (statistics.median(graph_s), "s", len(graph_s))
    m["policy.load_s"] = (statistics.median(policy_s), "s", len(policy_s))
    m["graph.read_section_us"] = (read_us, "us", 5)
    m.update(per_layer)
    m["service.server_us"] = (server_us, "us", len(closed["server_us"]))
    if "service.dispatch_us" in m:
        m["service.frame_us"] = (server_us - m["service.dispatch_us"][0], "us",
                                 m["service.dispatch_us"][2])
    m["service.transport_us"] = (reads["p50"] - server_us, "us", reads["n"])
    m["service.connections"] = (closed["connections_answered"], "count", 1)
    m["loadgen.lag_p99_us"] = (lag["tail"], "us", lag["n"])
    one_of = allows[0::2]
    all_of = allows[1::2]
    m["engine.allow_share.one-of"] = (sum(one_of) / len(one_of), "ratio", len(one_of))
    m["engine.allow_share.all-of"] = (sum(all_of) / len(all_of), "ratio", len(all_of))
    m["engine.allow_share.all-of.liberal"] = m["engine.allow_share.all-of"]
    m["trace.overhead_ratio"] = (reads["p50"] / stats.summary(baseline["read_us"])["p50"],
                                 "ratio", reads["n"])
    return result
