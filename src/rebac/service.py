"""Newline-delimited JSON policy decision point over plain TCP.

One JSON object per line in, one per line out, in request order per
connection.  Requests name an ``op`` plus its operands; responses carry
``ok`` with either ``result`` or a structured ``error``, plus the
server-side ``latency_us``::

    {"op": "check", "resource": "rec1", "user": "d1",
     "guard": {"kind": "one-of", "privileges": ["p1"]}}
    {"ok": true, "result": {"allow": true, "trace": {...}}, "latency_us": 42.0}

Supported ops: ``check``, ``filter``, ``match``, ``admin.enabled``,
``admin.exec``.  Results mirror the corresponding library calls exactly.
A malformed line (including JSON nested too deeply to decode) yields a
``parse`` error response and the connection stays open; so does a line
longer than ``MAX_LINE_BYTES``, whose rest is read and discarded in
bounded chunks.  Any other unexpected failure while serving a request is
logged and yields an ``internal`` error response, so one bad request
never ends the connection.  A client that resets its connection with
replies unread ends its handler quietly, without a traceback.  Each
connection has its own handler thread; the graph is guarded by one
reentrant mutex, so readers take it in turn and ``admin.exec`` holds it
for its whole write transaction.  Replies are sent with Nagle's algorithm
off, so pipelined requests are not delayed.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time
from typing import Mapping

from . import admin, engine
from .errors import PolicyError, RebacError
from .graph import AuthorizationGraph
from .policy import PolicyStore, guard_from_json

_log = logging.getLogger(__name__)

# Longest request line accepted, newline excluded.
MAX_LINE_BYTES = 1 << 20

# Shutdown poll interval of the start() thread: stop() waits up to this long.
_SHUTDOWN_POLL_S = 0.05


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self):
        try:
            self._serve_lines()
        except ConnectionError:
            pass  # reset or broken pipe: the client is gone, so nothing to answer

    def _serve_lines(self) -> None:
        server: PdpServer = self.server  # type: ignore[assignment]
        while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
            start = time.perf_counter()
            if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
                self._discard_rest_of_line()
                self._reply({"ok": False, "error": {
                    "code": "parse",
                    "message": f"line longer than {MAX_LINE_BYTES} bytes"}}, start)
                continue
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                self._reply({"ok": False, "error": {"code": "parse", "message": str(exc)}},
                            start)
                continue
            try:
                result = server.dispatch(request)
                response = {"ok": True, "result": result}
            except RebacError as exc:
                response = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
            except (KeyError, TypeError, ValueError) as exc:
                response = {"ok": False,
                            "error": {"code": "bad_request", "message": repr(exc)}}
            except Exception as exc:
                _log.exception("unexpected error in dispatch")
                response = {"ok": False,
                            "error": {"code": "internal", "message": repr(exc)}}
            self._reply(response, start)

    def _discard_rest_of_line(self) -> None:
        while chunk := self.rfile.readline(MAX_LINE_BYTES):
            if chunk.endswith(b"\n"):
                return

    def _reply(self, response: dict, start: float) -> None:
        response["latency_us"] = (time.perf_counter() - start) * 1e6
        self.wfile.write(json.dumps(response).encode("utf-8") + b"\n")
        self.wfile.flush()


class PdpServer(socketserver.ThreadingTCPServer):
    """Serves one graph/policy snapshot; one handler thread per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], graph: AuthorizationGraph,
                 store: PolicyStore, cfg: engine.EngineConfig | None = None):
        super().__init__(address, _Handler)
        self.graph = graph
        self.store = store
        self.cfg = cfg or engine.EngineConfig()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> "PdpServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        args=(_SHUTDOWN_POLL_S,), daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    # --- request dispatch ---

    def dispatch(self, request) -> dict:
        if not isinstance(request, Mapping):
            raise PolicyError("request must be a JSON object")
        op = request.get("op")
        if op == "check":
            req = engine.AccessRequest(
                resource=self._field(request, "resource"),
                user=self._field(request, "user"),
                guard=guard_from_json(request["guard"]),
            )
            return engine.check(self.store, self.graph, self.store.rbac, req,
                                self.cfg).to_json()
        if op == "filter":
            resources = request.get("resources", [])
            if not isinstance(resources, list):
                raise PolicyError("'resources' must be a list")
            allowed = engine.filter_collection(
                self.store, self.graph, self.store.rbac,
                self._field(request, "user"), guard_from_json(request["guard"]),
                resources, self.cfg)
            return {"allowed": allowed}
        if op == "match":
            enabled = engine.enabled_principals(
                self.store, self.graph,
                self._field(request, "resource"), self._field(request, "user"))
            return {"principals": sorted(enabled)}
        if op == "admin.enabled":
            actions = admin.enabled_actions(
                self.store, self.graph,
                self._field(request, "user"), self._field(request, "patient"))
            return {"actions": actions}
        if op == "admin.exec":
            bindings = request.get("bindings", {})
            if not isinstance(bindings, Mapping):
                raise PolicyError("'bindings' must be an object")
            binding = {
                "user": self._field(request, "user"),
                "patient": self._field(request, "patient"),
                **{str(k): str(v) for k, v in bindings.items()},
            }
            report = admin.execute_action(
                self.store, self.graph, self._field(request, "action"), binding)
            return {"action": report.action,
                    "applied": [list(u) for u in report.applied]}
        raise PolicyError(f"unknown op {op!r}")

    @staticmethod
    def _field(request: Mapping, key: str) -> str:
        value = request.get(key)
        if not isinstance(value, str):
            raise PolicyError(f"{key!r} must be a string")
        return value


def serve(listen: str, graph: AuthorizationGraph, store: PolicyStore,
          cfg: engine.EngineConfig | None = None) -> None:
    """Blocking entry point: ``listen`` is ``host:port``."""
    host, _, port = listen.rpartition(":")
    server = PdpServer((host or "127.0.0.1", int(port)), graph, store, cfg)
    with server:
        server.serve_forever()


class PdpClient:
    """Minimal line-oriented client, mainly for tests and scripting."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def call(self, request: dict) -> dict:
        return self.call_raw(json.dumps(request).encode("utf-8"))

    def call_raw(self, line: bytes) -> dict:
        self._file.write(line + b"\n")
        self._file.flush()
        reply = self._file.readline()
        if not reply:
            raise ConnectionError("server closed connection")
        return json.loads(reply)

    def close(self) -> None:
        self._file.close()
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
