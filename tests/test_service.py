import json
import socket
import statistics
import struct
import threading
import time

import pytest

from rebac.engine import AccessRequest, EngineConfig, check
from rebac.policy import guard_from_json
from rebac.service import MAX_LINE_BYTES, PdpClient, PdpServer

from .conftest import build_referral_system

GUARD = {"kind": "one-of", "privileges": ["view-record"]}


@pytest.fixture
def server():
    graph, store = build_referral_system()
    srv = PdpServer(("127.0.0.1", 0), graph, store, EngineConfig(mode="both")).start()
    yield srv
    srv.stop()


def client_for(server):
    host, port = server.address
    return PdpClient(host, port)


def match_line(user):
    return json.dumps({"op": "match", "resource": "rec1", "user": user}).encode() + b"\n"


class TestOps:
    def test_check_allow_and_deny(self, server):
        with client_for(server) as c:
            allowed = c.call({"op": "check", "resource": "rec1", "user": "d1",
                              "guard": GUARD})
            assert allowed["ok"] is True
            assert allowed["result"]["allow"] is True
            assert allowed["latency_us"] > 0
            denied = c.call({"op": "check", "resource": "rec1", "user": "s1",
                             "guard": GUARD})
            assert denied["result"]["allow"] is False

    def test_match(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "match", "resource": "rec1", "user": "d1"})
            assert reply["result"] == {"principals": ["treating-clinician"]}

    def test_filter(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "filter", "user": "d1", "guard": GUARD,
                            "resources": ["rec1", "p2", "rec1"]})
            assert reply["result"] == {"allowed": ["rec1", "rec1"]}
            empty = c.call({"op": "filter", "user": "d1", "guard": GUARD,
                            "resources": []})
            assert empty["result"] == {"allowed": []}

    def test_admin_roundtrip_flips_decision(self, server):
        with client_for(server) as c:
            enabled = c.call({"op": "admin.enabled", "user": "d1", "patient": "p1"})
            assert enabled["result"] == {"actions": ["Referral"]}
            before = c.call({"op": "check", "resource": "rec1", "user": "s1",
                             "guard": GUARD})
            assert before["result"]["allow"] is False
            executed = c.call({"op": "admin.exec", "action": "Referral", "user": "d1",
                               "patient": "p1", "bindings": {"specialist": "s1"}})
            assert executed["ok"] is True
            assert executed["result"]["applied"] == [
                ["add", "referred-clinician", "p1", "s1"]]
            after = c.call({"op": "check", "resource": "rec1", "user": "s1",
                            "guard": GUARD})
            assert after["result"]["allow"] is True

    def test_admin_exec_error_surfaces_code(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "admin.exec", "action": "Referral", "user": "s1",
                            "patient": "p1", "bindings": {"specialist": "s1"}})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "not_enabled"


class TestProtocol:
    def test_malformed_line_keeps_connection_open(self, server):
        with client_for(server) as c:
            bad = c.call_raw(b"{not json")
            assert bad["ok"] is False
            assert bad["error"]["code"] == "parse"
            good = c.call({"op": "match", "resource": "rec1", "user": "d1"})
            assert good["ok"] is True

    def test_deeply_nested_line_keeps_connection_open(self, server):
        with client_for(server) as c:
            bad = c.call_raw(b"[" * 100_000)
            assert bad["ok"] is False
            assert bad["error"]["code"] == "parse"
            good = c.call({"op": "match", "resource": "rec1", "user": "d1"})
            assert good["ok"] is True

    @pytest.mark.parametrize("length, refused", [
        (MAX_LINE_BYTES, False),
        (MAX_LINE_BYTES + 1, True),
        (3 * MAX_LINE_BYTES, True),
    ])
    def test_line_length_cap_keeps_connection_open(self, server, length, refused):
        # a valid request padded with blanks to ``length`` bytes, newline excluded
        padded = match_line("s1").rstrip(b"\n").ljust(length) + b"\n"
        with socket.create_connection(server.address, timeout=10) as sock, \
                sock.makefile("rb") as replies:
            sock.sendall(padded + match_line("d1"))
            first, good = json.loads(replies.readline()), json.loads(replies.readline())
        if refused:
            assert first["ok"] is False
            assert first["error"]["code"] == "parse"
        else:
            assert first["result"] == {"principals": []}
        assert good["result"] == {"principals": ["treating-clinician"]}

    def test_pipelined_requests_answered_in_order_without_delay(self, server):
        # four requests in one write; with Nagle's algorithm on the server
        # each reply after the first waits for the client's delayed ACK
        users = ["d1", "s1", "s1", "d1"]
        expected = [{"principals": ["treating-clinician"] if u == "d1" else []}
                    for u in users]
        rounds = []
        with socket.create_connection(server.address, timeout=10) as sock, \
                sock.makefile("rb") as replies:
            for _ in range(5):
                start = time.perf_counter()
                sock.sendall(b"".join(match_line(u) for u in users))
                got = [json.loads(replies.readline())["result"] for _ in users]
                rounds.append(time.perf_counter() - start)
                assert got == expected
        assert statistics.median(rounds) < 0.020

    def test_client_reset_is_not_a_handler_error(self, server, monkeypatch):
        errors = []
        closed = threading.Event()
        shutdown_request = server.shutdown_request

        def record_shutdown(request):
            shutdown_request(request)
            closed.set()

        monkeypatch.setattr(server, "handle_error", lambda *args: errors.append(args))
        monkeypatch.setattr(server, "shutdown_request", record_shutdown)
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(match_line("d1") * 200)
        # close with replies unread and linger 0: the kernel sends a reset
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        assert closed.wait(10)
        assert errors == []
        with client_for(server) as c:
            assert c.call(json.loads(match_line("d1")))["ok"] is True

    def test_unexpected_failure_is_internal_error(self, server, monkeypatch):
        def broken(request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "dispatch", broken)
        with client_for(server) as c:
            reply = c.call({"op": "match", "resource": "rec1", "user": "d1"})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "internal"
            monkeypatch.undo()
            good = c.call({"op": "match", "resource": "rec1", "user": "d1"})
            assert good["ok"] is True

    def test_unknown_op(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "reticulate"})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "policy"

    def test_engine_error_code(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "check", "resource": "ghost", "user": "d1",
                            "guard": GUARD})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "unknown_vertex"

    def test_missing_field(self, server):
        with client_for(server) as c:
            reply = c.call({"op": "check", "resource": "rec1", "guard": GUARD})
            assert reply["ok"] is False
            assert reply["error"]["code"] == "policy"

    def test_non_object_request(self, server):
        with client_for(server) as c:
            reply = c.call_raw(json.dumps(["check"]).encode())
            assert reply["ok"] is False

    def test_responses_in_request_order(self, server):
        with client_for(server) as c:
            users = ["d1", "s1", "d1", "s1", "d1"]
            expected = [u == "d1" for u in users]
            got = [
                c.call({"op": "check", "resource": "rec1", "user": u,
                        "guard": GUARD})["result"]["allow"]
                for u in users
            ]
            assert got == expected


def test_stop_returns_promptly():
    graph, store = build_referral_system()
    srv = PdpServer(("127.0.0.1", 0), graph, store).start()
    with client_for(srv) as c:
        assert c.call(json.loads(match_line("d1")))["ok"] is True
    start = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - start < 0.25


def test_concurrent_clients_get_isolated_answers(server):
    errors = []

    def worker(user, expected):
        try:
            with client_for(server) as c:
                for _ in range(25):
                    reply = c.call({"op": "check", "resource": "rec1", "user": user,
                                    "guard": GUARD})
                    assert reply["result"]["allow"] is expected
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=("d1", True)) for _ in range(3)]
    threads.append(threading.Thread(target=worker, args=("s1", False)))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []


def test_wire_results_mirror_library(server):
    graph, store, cfg = server.graph, server.store, server.cfg
    with client_for(server) as c:
        for resource, user in [("rec1", "d1"), ("rec1", "s1")]:
            req = AccessRequest(resource, user, guard_from_json(GUARD))
            expected = check(store, graph, store.rbac, req, cfg).to_json()
            got = c.call({"op": "check", "resource": resource, "user": user,
                          "guard": GUARD})["result"]
            expected["trace"].pop("elapsed_us")
            got["trace"].pop("elapsed_us")
            assert got == expected
