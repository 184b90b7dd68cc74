"""In-memory span tracing around the calls one layer makes into the next.

``Tracer.patch`` replaces a function or method with a wrapper that records
a span (id, parent id, request id, name, start, end, tag) for every call.
A span opened with no enclosing span starts a new request; its id is the
request id of every span nested under it on the same thread.  Spans stay
in memory, as plain tuples the garbage collector stops tracking, until
the run ends and the wrappers are removed; ``records()`` turns them into
``Span`` values for analysis.

A name that no longer exists (a later refactor renamed or removed it) is
recorded in ``Tracer.absent`` instead of failing the run; metrics built on
it are then reported as absent.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

_now = time.perf_counter


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a request's root span
    request: int
    name: str
    start: float
    end: float
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Stacks(threading.local):
    """Per thread: (span id, request id) of every open span."""

    def __init__(self):
        self.stack: list[tuple[int, int]] = []


class Tracer:
    def __init__(self):
        self.raw: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = _Stacks()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, tagger=None):
        """fn with a span around every call; ``tagger(args, result)`` labels it.
        The bookkeeping is inlined: it runs around every wrapped call."""
        local, ids, record = self._local, self._ids, self.raw.append

        def traced(*args, **kwargs):
            stack = local.stack
            sid = next(ids)
            parent, request = stack[-1] if stack else (0, sid)
            stack.append((sid, request))
            start = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _now()
                stack.pop()
                record((sid, parent, request, name, start, end, "error"))
                raise
            end = _now()
            stack.pop()
            record((sid, parent, request, name, start, end,
                    tagger(args, result) if tagger else None))
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_entry(self, fn, name: str):
        """For a method returning a context manager (``graph.read()``): a span
        around entering it, which is where a lock is waited for."""
        local, ids, record = self._local, self._ids, self.raw.append

        class _Entry:
            __slots__ = ("_cm",)

            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                stack = local.stack
                sid = next(ids)
                parent, request = stack[-1] if stack else (0, sid)
                start = _now()
                try:
                    return self._cm.__enter__()
                finally:
                    record((sid, parent, request, name, start, _now(), None))

            def __exit__(self, *exc):
                return self._cm.__exit__(*exc)

        def entered(*args, **kwargs):
            return _Entry(fn(*args, **kwargs))
        entered.__wrapped__ = fn
        return entered

    def patch(self, owner, attr: str, name: str, tagger=None, entry: bool = False) -> bool:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            if name not in self.absent:
                self.absent.append(name)
            return False
        wrapper = self.wrap_entry(fn, name) if entry else self.wrap(fn, name, tagger)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))
        return True

    def records(self) -> list[Span]:
        return [Span._make(t) for t in self.raw]

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.sid] = s.duration - covered
    return out


def by_request(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        out[s.request].append(s)
    return out


def subtree_self(spans: list[Span], selfs: dict[int, float], root: Span) -> float:
    """Sum of the self times of ``root`` and every span nested under it;
    ``spans`` holds at least root's request."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    total, todo = 0.0, [root]
    while todo:
        s = todo.pop()
        total += selfs[s.sid]
        todo += children.get(s.sid, ())
    return total
