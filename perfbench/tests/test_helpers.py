"""Tests for the benchmark's own helpers, at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import fixture  # noqa: E402
import loadgen  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, self_times, subtree_self  # noqa: E402

from rebac.prng import stream  # noqa: E402


# --- the "highest percentile with >= 10 samples beyond" rule ---


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 98.0
    assert stats.tail_percentile(400) == 97.5
    assert stats.tail_percentile(200) == 95.0
    assert stats.tail_percentile(20) == 50.0
    for n in (20, 57, 199, 200, 999, 1000, 12345):
        assert stats.samples_beyond(n, stats.tail_percentile(n)) >= stats.MIN_BEYOND


def test_tail_percentile_falls_back_to_median_for_tiny_samples():
    assert stats.tail_percentile(5) == 50.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 99.0) == 99
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile([7.0], 99.0) == 7.0


QUIET = [float(i % 100) for i in range(1000)]
STALLED = QUIET[:980] + [10_000.0] * 20


def test_windowed_tail_ignores_a_stall_in_one_window():
    # eight windows of 1000; one holds a stall that must not set the figure
    s = stats.summary(QUIET * 7 + STALLED, window=1000)
    assert s["windows"] == 8 and s["tail_pct"] == 99.0
    assert s["tail"] == stats.percentile(QUIET, 99.0)
    assert s["tail_run"] == stats.percentile(QUIET * 7 + STALLED, 99.0)
    assert stats.summary(STALLED)["tail"] == 10_000.0


def test_windowed_tail_shows_stalls_in_a_quarter_of_the_windows():
    s = stats.summary(QUIET * 5 + STALLED * 3, window=1000)
    assert s["tail"] == 10_000.0
    # the plain tail of the whole run sees stalls in more than 1% of the samples
    assert stats.summary([1.0] * 980 + [9.0] * 30, window=100)["tail_run"] == 9.0


def test_windows_cover_every_sample_once():
    values = list(range(2500))
    parts = stats.windows(values, 1000)
    assert len(parts) == 2 and sum(parts, []) == values


# --- self time from nested spans ---


def test_self_time_subtracts_child_coverage():
    spans = [
        Span(1, 0, 1, "engine.check", 0.0, 10.0),
        Span(2, 1, 1, "hl.evaluate", 1.0, 4.0),
        Span(3, 1, 1, "hl.evaluate", 5.0, 7.0),
        Span(4, 3, 1, "graph.lookup", 5.5, 6.0),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 5.0, 2: 3.0, 3: 1.5, 4: 0.5}
    assert subtree_self(spans, selfs, spans[0]) == 10.0
    assert subtree_self(spans, selfs, spans[2]) == 2.0


def test_self_time_clips_children_to_their_parent():
    spans = [Span(1, 0, 1, "a.x", 0.0, 2.0), Span(2, 1, 1, "b.y", 1.0, 3.0)]
    selfs = self_times(spans)
    assert selfs[1] == 1.0
    assert subtree_self(spans, selfs, spans[0]) == 3.0  # the child leaks out


class _Layers:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def test_tracer_records_nesting_and_requests():
    tracer = Tracer()
    assert tracer.patch(_Layers, "outer", "engine.outer")
    assert tracer.patch(_Layers, "inner", "hl.inner", lambda args, r: r)
    assert not tracer.patch(_Layers, "gone", "graph.gone")
    try:
        obj = _Layers()
        assert obj.outer() == 2 and obj.outer() == 2
    finally:
        tracer.unpatch()
    assert _Layers.__dict__["outer"].__name__ == "outer"
    assert tracer.absent == ["graph.gone"]
    spans = tracer.records()
    roots = [s for s in spans if s.parent == 0]
    assert [s.name for s in roots] == ["engine.outer", "engine.outer"]
    for root in roots:
        children = [s for s in spans if s.parent == root.sid]
        assert [c.name for c in children] == ["hl.inner", "hl.inner"]
        assert all(c.request == root.sid and c.tag == 1 for c in children)
    selfs = self_times(spans)
    for root in roots:
        assert abs(subtree_self(spans, selfs, root) - root.duration) < 1e-9


# --- lag and latency accounting from due time ---


class _StallingService(socketserver.ThreadingTCPServer):
    """Answers every line; one request stalls the whole service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, stall_on: int, stall_s: float):
        super().__init__(("127.0.0.1", 0), _StallingHandler)
        self.lock = threading.Lock()
        self.count = 0
        self.stall_on, self.stall_s = stall_on, stall_s


class _StallingHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            request = json.loads(line)
            with self.server.lock:
                self.server.count += 1
                if self.server.count == self.server.stall_on:
                    time.sleep(self.server.stall_s)
            result = {"allow": True, "trace": {"elapsed_us": 1.0}} \
                if request["op"] == "check" else {"applied": []}
            self.wfile.write(json.dumps({"ok": True, "result": result,
                                         "latency_us": 1.0}).encode() + b"\n")


def _run_open_loop(service, rate, seconds):
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    try:
        reads = [{"op": "check", "resource": "p", "user": "u",
                  "guard": {"kind": "one-of", "privileges": ["x"]}}]
        gen = loadgen.LoadGen(service.server_address[1], reads, [["u", "p", "s"]], 2)
        try:
            gen.open_loop(rate, seconds)
        finally:
            gen.close()
    finally:
        service.shutdown()
        service.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    return gen


def test_open_loop_times_requests_from_their_due_time():
    stall_s = 0.08
    gen = _run_open_loop(_StallingService(stall_on=10, stall_s=stall_s), rate=200, seconds=0.3)
    total = 60
    assert len(gen.lag_us) == total
    assert gen.failed == 0
    latencies = gen.read_us + gen.admin_us
    assert len(latencies) == total
    # requests due during the stall queue behind it: timed from their due
    # time, several of them carry most of the stall
    assert sum(1 for us in latencies if us > stall_s * 1e6 / 2) >= 3
    # the generator itself kept to its schedule while the service stalled
    assert stats.percentile(gen.lag_us, 50.0) < stall_s * 1e6 / 4


def test_open_loop_balances_every_write():
    gen = _run_open_loop(_StallingService(stall_on=0, stall_s=0.0), rate=400, seconds=0.1)
    assert gen.writes % 2 == 0 and gen.failed == 0
    assert gen.writes >= 40 // loadgen.ADMIN_EVERY


# --- the related-pair walk ---


WALK = {
    "gp": {"p1": ["u1", "u2"], "p2": ["u2"]},
    "register-ward": {"p2": ["u3"], "p3": ["u1"]},
    "referrer_in": {"u1": ["u4"], "u2": ["u1", "u3"]},
    "ward-nurse": {"u3": ["u5"]},
}
PRIVILEGES = [f"priv{i}" for i in range(6)]


def _walk(seed, kind="all-of", count=50):
    return fixture.related_requests(WALK, PRIVILEGES, stream(seed, f"related-mix/{kind}"),
                                    kind, count)


def test_related_walk_is_deterministic_per_seed():
    assert _walk(7) == _walk(7)
    assert _walk(7) != _walk(8)


def test_related_walk_follows_a_corpus_path():
    for req in _walk(3, "one-of", 200):
        patient, user = req["resource"], req["user"]
        paths = set(WALK["gp"].get(patient, [])) | set(WALK["register-ward"].get(patient, []))
        paths |= {r for u in WALK["gp"].get(patient, []) for r in WALK["referrer_in"].get(u, [])}
        paths |= {n for u in WALK["register-ward"].get(patient, [])
                  for n in WALK["ward-nurse"].get(u, [])}
        assert user in paths
        guard = req["guard"]
        assert guard["kind"] == "one-of" and 1 <= len(guard["privileges"]) <= 3
        assert set(guard["privileges"]) <= set(PRIVILEGES)
