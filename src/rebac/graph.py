"""Authorization graph: typed vertices and labelled directed edges.

The protection state is an edge-labelled directed graph over users,
patients, resources and abstract entities.  Every relation falls into
one of three categories:

* ``user-managed`` -- articulated by end users (interpersonal records),
* ``system-induced`` -- loaded from backing data (e.g. the policy's
  resource ownership table); read-only to every mutation API,
* ``access-control`` -- pure protection state, changed only through
  administrative actions and the administrative edit operations.

Edges of all three categories live in one index, kept in both directions
and keyed by relation, then vertex (``_fwd[rel][v]``, ``_rev[rel][v]``),
so ``out_neighbors``, ``in_neighbors`` and ``has_edge`` are dictionary
lookups and no key is a tuple.

Concurrency: one reentrant mutex; readers take it in turn.  Every
mutation must run inside ``with graph.write(): ...``, which holds the
same mutex, so a read section sees the state before or after a write
transaction, never a torn intermediate.  An operation opens one section:
``engine.check`` and ``enabled_principals`` a read, administrative actions
a read or a write; the formula evaluation they run (``hl``) opens none.
"""

from __future__ import annotations

import io
import os
import re
import secrets
import stat
import threading
from contextlib import contextmanager
from typing import AbstractSet, Iterable, Iterator, Mapping

from .errors import (
    AddExistingEdge,
    DeleteMissingEdge,
    DuplicateRelation,
    ParseError,
    ReadOnlyRelation,
    TransactionRequired,
    UnknownRelation,
    UnknownVertex,
)

VERTEX_KINDS = frozenset({"user", "patient", "resource", "entity"})

USER_MANAGED = "user-managed"
SYSTEM_INDUCED = "system-induced"
ACCESS_CONTROL = "access-control"
RELATION_CATEGORIES = frozenset({USER_MANAGED, SYSTEM_INDUCED, ACCESS_CONTROL})

# Relation names and formula variables; match with fullmatch.
IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")

Edge = tuple[str, str, str]  # (src, relation, dst)

_EMPTY: frozenset[str] = frozenset()


class AuthorizationGraph:
    """Protection state: typed vertices, categorized relations and one
    edge index over every category, keyed forward and reverse by
    relation, then vertex."""

    def __init__(self):
        self._vertices: dict[str, str] = {}
        self._relations: dict[str, str] = {}
        self._fwd: dict[str, dict[str, set[str]]] = {}
        self._rev: dict[str, dict[str, set[str]]] = {}
        self._lock = threading.RLock()
        self._writer: int | None = None

    # --- locking ---

    def read(self) -> threading.RLock:
        """Read section: the graph's one reentrant lock."""
        return self._lock

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive write transaction; required for every mutation.

        Nests, also inside a read section of the same thread.  A mutation
        from a thread that does not own the transaction raises
        ``TransactionRequired`` at once instead of waiting for it."""
        with self._lock:
            outer, self._writer = self._writer, threading.get_ident()
            try:
                yield
            finally:
                self._writer = outer

    def _require_write(self) -> None:
        if self._writer != threading.get_ident():
            raise TransactionRequired("mutation outside a write transaction")

    # --- vertices / relations ---

    def add_vertex(self, vid: str, kind: str) -> None:
        self._require_write()
        if kind not in VERTEX_KINDS:
            raise ValueError(f"unknown vertex kind {kind!r}")
        if vid.split() != [vid]:
            raise ValueError(f"invalid vertex id {vid!r}")
        if vid in self._vertices:
            raise ValueError(f"vertex {vid!r} already present")
        self._vertices[vid] = kind

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vertices

    def vertices(self) -> dict[str, str]:
        with self.read():
            return dict(self._vertices)

    def declare_relation(self, name: str, category: str) -> None:
        self._require_write()
        if not IDENT.fullmatch(name):
            raise ValueError(f"invalid relation name {name!r}")
        if category not in RELATION_CATEGORIES:
            raise ValueError(f"unknown relation category {category!r}")
        if name in self._relations:
            raise DuplicateRelation(name)
        self._relations[name] = category
        self._fwd[name] = {}
        self._rev[name] = {}

    def ensure_relation(self, name: str, category: str) -> None:
        """Idempotent declare; conflicting category is an error."""
        existing = self._relations.get(name)
        if existing is None:
            self.declare_relation(name, category)
        elif existing != category:
            raise DuplicateRelation(
                f"relation {name!r} declared as both {existing} and {category}"
            )

    def relations(self) -> dict[str, str]:
        with self.read():
            return dict(self._relations)

    def relation_category(self, name: str) -> str:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelation(name) from None

    # --- queries ---

    def _check_query(self, vertices: Iterable[str], relations: AbstractSet[str] = _EMPTY) -> None:
        """The one query check: the calling thread holds a section, every
        vertex exists and every relation is declared."""
        if not self._lock._is_owned():
            raise TransactionRequired("graph query outside a read or write section")
        for v in vertices:
            if v not in self._vertices:
                raise UnknownVertex(v)
        if not self._relations.keys() >= relations:
            raise UnknownRelation(min(relations - self._relations.keys()))

    def _out(self, v: str, rel: str):
        """No-copy neighbor set; rel is declared, caller holds a read section."""
        return self._fwd[rel].get(v, _EMPTY)

    def _in(self, v: str, rel: str):
        return self._rev[rel].get(v, _EMPTY)

    def out_neighbors(self, v: str, rel: str) -> set[str]:
        with self.read():
            self._check_query((v,), {rel})
            return set(self._out(v, rel))

    def in_neighbors(self, v: str, rel: str) -> set[str]:
        with self.read():
            self._check_query((v,), {rel})
            return set(self._in(v, rel))

    def has_edge(self, s: str, rel: str, d: str) -> bool:
        with self.read():
            self._check_query((s,), {rel})
            return d in self._out(s, rel)

    def _edges(self) -> Iterator[Edge]:
        for rel, successors in self._fwd.items():
            for src, dsts in successors.items():
                for dst in dsts:
                    yield (src, rel, dst)

    def edge_set(self) -> frozenset[Edge]:
        """Every edge currently observable, in every relation category."""
        with self.read():
            return frozenset(self._edges())

    # --- mutation ---

    def _require_edge_update(self, s: str, rel: str, d: str) -> None:
        self._require_write()
        if self.relation_category(rel) == SYSTEM_INDUCED:
            raise ReadOnlyRelation(rel)
        self._check_query((s, d))

    def _link(self, s: str, rel: str, d: str) -> None:
        self._fwd[rel].setdefault(s, set()).add(d)
        self._rev[rel].setdefault(d, set()).add(s)

    def add_edge(self, s: str, rel: str, d: str) -> None:
        self._require_edge_update(s, rel, d)
        if d in self._out(s, rel):
            raise AddExistingEdge(f"edge ({s}, {rel}, {d}) already present")
        self._link(s, rel, d)

    def del_edge(self, s: str, rel: str, d: str) -> None:
        self._require_edge_update(s, rel, d)
        if d not in self._out(s, rel):
            raise DeleteMissingEdge(f"edge ({s}, {rel}, {d}) not present")
        for index, v, n in ((self._fwd[rel], s, d), (self._rev[rel], d, s)):
            index[v].remove(n)
            if not index[v]:  # drop the vertex key with its last neighbor
                del index[v]

    def add_owners(self, owners: Mapping[str, Iterable[str]]) -> None:
        """Load a resource->owners table as system-induced ``owner`` edges.

        Loading an edge that is already present changes nothing, so the
        same table may be loaded twice.
        """
        self._require_write()
        self.ensure_relation("owner", SYSTEM_INDUCED)
        for resource, owner_ids in owners.items():
            for owner in owner_ids:
                self._check_query((resource, owner))
                self._link(resource, "owner", owner)


# --- edge-list text format ---
#
#   # comment
#   R <name> <category>
#   V <id> <kind>
#   E <src> <rel> <dst>
#
# Relation declarations precede the edges that use them; fields are
# whitespace-separated and identifiers carry no whitespace.  The format
# persists the user-managed and access-control relations only; the
# system-induced ones are reloaded from the policy's owner table.


def load_graph(text: str) -> AuthorizationGraph:
    # Universal newlines, as a file read in text mode splits its lines.
    return _load_lines(io.StringIO(text, newline=None))


def _load_lines(lines: Iterable[str]) -> AuthorizationGraph:
    g = AuthorizationGraph()
    # Each vertex id and relation name maps to itself, so the index keeps
    # the string its V or R line created, not fresh copies from each E line.
    ids: dict[str, str] = {}
    names: dict[str, str] = {}
    with g.write():
        for lineno, raw in enumerate(lines, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            tag = fields[0]
            try:
                if tag == "E":
                    if len(fields) != 4:
                        raise ParseError("E line needs <src> <rel> <dst>", lineno)
                    _, s, rel, d = fields
                    g.add_edge(ids.get(s, s), names.get(rel, rel), ids.get(d, d))
                elif tag == "V":
                    if len(fields) != 3:
                        raise ParseError("V line needs <id> <kind>", lineno)
                    g.add_vertex(fields[1], fields[2])
                    ids[fields[1]] = fields[1]
                elif tag == "R":
                    if len(fields) != 3:
                        raise ParseError("R line needs <name> <category>", lineno)
                    g.declare_relation(fields[1], fields[2])
                    names[fields[1]] = fields[1]
                else:
                    raise ParseError(f"unknown directive {tag!r}", lineno)
            except (ValueError, DuplicateRelation, AddExistingEdge, UnknownVertex,
                    UnknownRelation, ReadOnlyRelation) as exc:
                raise ParseError(str(exc), lineno) from exc
    return g


def save_graph(g: AuthorizationGraph) -> str:
    with g.read():
        lines = [f"R {name} {category}" for name, category in sorted(g._relations.items())
                 if category != SYSTEM_INDUCED]
        lines += [f"V {vid} {kind}" for vid, kind in sorted(g._vertices.items())]
        stored = (e for e in g._edges() if g._relations[e[1]] != SYSTEM_INDUCED)
        lines += [f"E {s} {rel} {d}" for s, rel, d in sorted(stored)]
    return "\n".join(lines) + "\n"


def load_graph_file(path) -> AuthorizationGraph:
    """Load an edge-list file one line at a time.  Every stored edge
    endpoint is its vertex's own id string, shared by all its edges."""
    with open(path, "r", encoding="utf-8") as fh:
        return _load_lines(fh)


def save_graph_file(g: AuthorizationGraph, path) -> None:
    """Atomically and durably replace ``path`` with the saved graph: write
    and fsync a temp file in the same directory, rename it over the
    target, then fsync the directory, so a crash leaves the old graph or
    the new one and never a partial file.

    An existing target keeps its permission bits; a new one gets the mode
    ``open(path, "w")`` would give it, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f"{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(save_graph(g))
            fh.flush()
            os.fsync(fh.fileno())
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
