"""Load generator for wire-mixed: one thread, one event loop, N connections.

Runs as its own process (``python3 perfbench/loadgen.py ...``) against a
running decision service and prints one JSON report on stdout.

Each connection carries one request at a time, like a client's connection
pool: a request is sent on an idle connection and the next one waits for
a free connection.  (Pipelining several requests on one connection makes
each reply wait for the next request's ACK -- the service does not set
TCP_NODELAY -- so latency would track the send interval, not the service.)

Operations are numbered in send order.  Every ``ADMIN_EVERY``-th one is an
``admin.exec`` write, the rest are ``check`` reads taken in order from the
schedule.  Writes alternate refer/unrefer over the admin bindings, one
write in flight at a time, so each delete follows its add and a phase that
ends after an add sends the matching delete (untimed): the graph returns
to its start state.

open    operation k is due at ``t0 + k / rate``.  It joins a FIFO queue when
        due and is sent when a connection is free; its latency runs from the
        due time, so queueing counts.  ``lag`` is how late the generator
        itself noticed each due time.  Between due times the generator
        polls its sockets without sleeping: a sleep in select() can
        overshoot by hundreds of microseconds on a virtual machine.
closed  every connection sends its next operation as soon as its previous
        reply arrives; latency runs from the send.
"""

from __future__ import annotations

import argparse
import json
import selectors
import socket
import sys
import time
from collections import deque

ADMIN_EVERY = 10
REPLY_TIMEOUT_S = 10.0

_now = time.perf_counter


def is_admin(k: int) -> bool:
    """Whether operation k (in send order) is an admin write."""
    return k % ADMIN_EVERY == ADMIN_EVERY - 1


def canonical(result: dict) -> str:
    """A check result without its timing, for comparison with the library."""
    result = dict(result)
    result["trace"] = {k: v for k, v in result["trace"].items() if k != "elapsed_us"}
    return json.dumps(result, sort_keys=True)


class Conn:
    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = b""
        self.wbuf = b""
        self.pending = None  # (kind, read index, due) of the request in flight
        self.answered = False


class LoadGen:
    def __init__(self, port: int, reads: list, admin: list, connections: int):
        self.reads = reads
        self.admin = admin
        self.sel = selectors.SelectSelector()  # select() takes a microsecond timeout
        self.conns = [Conn(("127.0.0.1", port)) for _ in range(connections)]
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.k = 0  # next operation number
        self.next_read = 0
        self.writes = 0
        self.write_in_flight = False
        self.sent = self.succeeded = self.failed = 0
        self.read_us: list[float] = []
        self.admin_us: list[float] = []
        self.server_us: list[float] = []
        self.check_us: list[float] = []  # engine.check time each reply reports
        self.lag_us: list[float] = []
        self.results: dict[int, set] = {}
        self.errors: list[str] = []

    # --- I/O ---

    def _write_op(self) -> dict:
        user, patient, specialist = self.admin[(self.writes // 2) % len(self.admin)]
        action = "refer" if self.writes % 2 == 0 else "unrefer"
        self.writes += 1
        return {"op": "admin.exec", "action": action, "user": user, "patient": patient,
                "bindings": {"specialist": specialist}}

    def try_send(self, due: float, drain: bool = False) -> bool:
        """Send the next operation (with drain: the balancing delete) if a
        connection is idle and, for a write, no other write is in flight."""
        conn = next((c for c in self.conns if c.pending is None), None)
        write = drain or is_admin(self.k)
        if conn is None or (write and self.write_in_flight):
            return False
        if drain:
            index, op, kind = -1, self._write_op(), "drain"
        elif write:
            index, op, kind = -1, self._write_op(), "admin"
        else:
            index = self.next_read % len(self.reads)
            self.next_read += 1
            op, kind = self.reads[index], "read"
        self.k += not drain
        self.write_in_flight |= write
        conn.pending = (kind, index, due)
        conn.wbuf += json.dumps(op).encode() + b"\n"
        self.sent += 1
        self._flush(conn)
        return True

    def _flush(self, conn: Conn) -> None:
        if conn.wbuf:
            try:
                n = conn.sock.send(conn.wbuf)
            except BlockingIOError:
                n = 0
            conn.wbuf = conn.wbuf[n:]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.wbuf else 0)
        self.sel.modify(conn.sock, events, conn)

    def poll(self, timeout: float) -> None:
        """Wait up to timeout and record every reply that arrived."""
        for key, events in self.sel.select(max(0.0, timeout)):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if not events & selectors.EVENT_READ:
                continue
            data = conn.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("connection closed by the service")
            conn.rbuf += data
            *lines, conn.rbuf = conn.rbuf.split(b"\n")
            for line in lines:
                self._record(conn, json.loads(line), _now())

    def _record(self, conn: Conn, reply: dict, now: float) -> None:
        kind, index, due = conn.pending
        conn.pending = None
        conn.answered = True
        if kind != "read":
            self.write_in_flight = False
        if not reply.get("ok"):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {reply.get('error')}")
            return
        self.succeeded += 1
        if kind == "drain":
            return
        (self.admin_us if kind == "admin" else self.read_us).append((now - due) * 1e6)
        if kind == "read":
            self.server_us.append(reply["latency_us"])
            self.check_us.append(reply["result"]["trace"]["elapsed_us"])
            self.results.setdefault(index, set()).add(canonical(reply["result"]))

    def _busy(self) -> bool:
        return any(c.pending for c in self.conns)

    def drain(self) -> None:
        """Wait for every reply, balancing a trailing add with its delete."""
        deadline = _now() + REPLY_TIMEOUT_S
        while self.writes % 2 and _now() < deadline:
            if not self.try_send(_now(), drain=True):
                self.poll(deadline - _now())
        while self._busy() and _now() < deadline:
            self.poll(deadline - _now())
        unanswered = [c for c in self.conns if c.pending]
        self.failed += len(unanswered) + self.writes % 2
        for c in unanswered:
            c.pending = None

    # --- phases ---

    def open_loop(self, rate: float, seconds: float) -> float:
        queue: deque = deque()  # due times of operations not yet sent

        def dispatch():
            while queue and self.try_send(queue[0]):
                queue.popleft()

        total = int(rate * seconds)
        t0 = _now() + 0.01
        for k in range(total):
            due = t0 + k / rate
            while (now := _now()) < due:
                self.poll(0.0)
                dispatch()
            self.lag_us.append((now - due) * 1e6)
            queue.append(due)
            dispatch()
        deadline = _now() + REPLY_TIMEOUT_S
        while queue and _now() < deadline:
            self.poll(deadline - _now())
            dispatch()
        self.failed += len(queue)  # never sent
        end = _now()
        self.drain()
        return end - t0

    def closed_loop(self, seconds: float) -> float:
        t0 = _now()
        deadline = t0 + seconds
        while (now := _now()) < deadline:
            while self.try_send(_now()):
                pass
            self.poll(deadline - now)
        end = _now()
        self.drain()
        return end - t0

    def answered(self) -> int:
        return sum(1 for c in self.conns if c.answered)

    def close(self) -> None:
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.sock.close()
        self.sel.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--schedule", required=True, help="wire.json of the fixture")
    parser.add_argument("--mode", choices=("open", "closed"), required=True)
    parser.add_argument("--rate", type=float, default=0.0, help="open loop: operations/s")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--connections", type=int, default=2)
    args = parser.parse_args(argv)
    with open(args.schedule, encoding="utf-8") as fh:
        schedule = json.load(fh)
    gen = LoadGen(args.port, schedule["reads"], schedule["admin"], args.connections)
    try:
        if args.mode == "open":
            duration = gen.open_loop(args.rate, args.seconds)
        else:
            duration = gen.closed_loop(args.seconds)
    finally:
        gen.close()
    json.dump({
        "mode": args.mode, "rate": args.rate, "connections": args.connections,
        "duration_s": duration, "sent": gen.sent, "succeeded": gen.succeeded,
        "failed": gen.failed, "errors": gen.errors,
        "read_us": gen.read_us, "admin_us": gen.admin_us, "server_us": gen.server_us,
        "check_us": gen.check_us,
        "lag_us": gen.lag_us, "connections_answered": gen.answered(),
        "results": {str(i): sorted(rs) for i, rs in gen.results.items()},
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
