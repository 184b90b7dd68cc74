import os
import random
import stat
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebac.errors import (
    AddExistingEdge,
    DeleteMissingEdge,
    DuplicateRelation,
    ParseError,
    ReadOnlyRelation,
    TransactionRequired,
    UnknownRelation,
    UnknownVertex,
)
from rebac import graph as graph_mod
from rebac.graph import (
    ACCESS_CONTROL,
    USER_MANAGED,
    AuthorizationGraph,
    load_graph,
    load_graph_file,
    save_graph,
    save_graph_file,
)


def tiny_graph():
    g = AuthorizationGraph()
    with g.write():
        g.declare_relation("gp", USER_MANAGED)
        g.declare_relation("referrer", USER_MANAGED)
        for vid, kind in [("p", "patient"), ("d1", "user"), ("d2", "user"), ("s", "user")]:
            g.add_vertex(vid, kind)
        g.add_edge("p", "gp", "d1")
        g.add_edge("p", "gp", "d2")
        g.add_edge("s", "referrer", "d1")
    return g


class TestQueries:
    def test_out_neighbors(self):
        g = tiny_graph()
        assert g.out_neighbors("p", "gp") == {"d1", "d2"}
        assert g.out_neighbors("d1", "gp") == set()

    def test_out_neighbors_empty_relation(self):
        g = tiny_graph()
        assert g.out_neighbors("p", "referrer") == set()

    def test_in_neighbors(self):
        g = tiny_graph()
        assert g.in_neighbors("d1", "referrer") == {"s"}
        assert g.in_neighbors("d1", "gp") == {"p"}
        assert g.in_neighbors("s", "gp") == set()

    def test_has_edge(self):
        g = tiny_graph()
        assert g.has_edge("p", "gp", "d1")
        assert not g.has_edge("d1", "gp", "p")

    def test_unknown_vertex(self):
        g = tiny_graph()
        with pytest.raises(UnknownVertex):
            g.out_neighbors("nope", "gp")
        with pytest.raises(UnknownVertex):
            g.in_neighbors("nope", "gp")

    def test_unknown_relation(self):
        g = tiny_graph()
        with pytest.raises(UnknownRelation):
            g.out_neighbors("p", "undeclared")


@contextmanager
def _outside_any_section(g):
    yield


@contextmanager
def _inside_read_section(g):
    with g.read():
        yield


@contextmanager
def _while_another_thread_writes(g):
    held, release = threading.Event(), threading.Event()

    def hold():
        with g.write():
            held.set()
            release.wait(timeout=5)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=5)
    start = time.perf_counter()
    try:
        yield
    finally:
        release.set()
    assert time.perf_counter() - start < 1.0  # refused at once, not after the lock
    holder.join(timeout=5)
    assert not holder.is_alive()


@contextmanager
def _after_nested_write(g):
    with g.write():
        with g.write():
            g.add_edge("s", "referrer", "d2")
        g.del_edge("s", "referrer", "d2")  # the inner exit restored the outer owner
    yield


@contextmanager
def _after_failed_write(g):
    with pytest.raises(RuntimeError), g.write():
        raise RuntimeError("abort")

    def write_elsewhere():
        with g.write():
            g.add_edge("s", "referrer", "d2")

    other = threading.Thread(target=write_elsewhere, daemon=True)
    other.start()
    other.join(timeout=5)
    assert g.has_edge("s", "referrer", "d2")  # the failed transaction released the lock
    yield


@contextmanager
def _after_write_inside_read_section(g):
    with g.read():
        with g.write():
            g.add_edge("s", "referrer", "d2")
        yield


class TestMutation:
    def test_add_then_query(self):
        g = tiny_graph()
        with g.write():
            g.add_edge("d1", "referrer", "d2")
        assert g.has_edge("d1", "referrer", "d2")
        assert "d1" in g.in_neighbors("d2", "referrer")

    def test_add_existing_edge_is_error(self):
        g = tiny_graph()
        with g.write(), pytest.raises(AddExistingEdge):
            g.add_edge("p", "gp", "d1")

    def test_delete_missing_edge_is_error(self):
        g = tiny_graph()
        with g.write(), pytest.raises(DeleteMissingEdge):
            g.del_edge("p", "gp", "s")

    def test_delete_removes_both_directions(self):
        g = tiny_graph()
        with g.write():
            g.del_edge("p", "gp", "d1")
        assert not g.has_edge("p", "gp", "d1")
        assert g.in_neighbors("d1", "gp") == set()

    def test_add_then_delete_leaves_no_empty_neighbor_sets(self):
        g = tiny_graph()
        fwd = {rel: {v: set(n) for v, n in adj.items()} for rel, adj in g._fwd.items()}
        rev = {rel: {v: set(n) for v, n in adj.items()} for rel, adj in g._rev.items()}
        with g.write():
            g.add_edge("d1", "referrer", "d2")
            g.del_edge("d1", "referrer", "d2")
        assert g._fwd == fwd
        assert g._rev == rev

    @pytest.mark.parametrize("situation", [
        _outside_any_section,
        _inside_read_section,
        _while_another_thread_writes,
        _after_nested_write,
        _after_failed_write,
        _after_write_inside_read_section,
    ])
    def test_mutation_requires_transaction(self, situation):
        # in each situation this thread owns no write transaction
        g = tiny_graph()
        with situation(g):
            with pytest.raises(TransactionRequired):
                g.add_edge("d1", "referrer", "d2")
            with pytest.raises(TransactionRequired):
                g.del_edge("p", "gp", "d1")
        assert not g.has_edge("d1", "referrer", "d2")
        assert g.has_edge("p", "gp", "d1")

    def test_add_edge_unknown_vertex(self):
        g = tiny_graph()
        with g.write(), pytest.raises(UnknownVertex):
            g.add_edge("p", "gp", "ghost")

    def test_duplicate_relation_declaration(self):
        g = tiny_graph()
        with g.write(), pytest.raises(DuplicateRelation):
            g.declare_relation("gp", USER_MANAGED)

    @pytest.mark.parametrize("vid", ["rec 1", "", "rec1\n", "\t"],
                             ids=["space", "empty", "trailing-newline", "tab"])
    def test_vertex_id_must_be_one_edge_list_field(self, vid):
        g = tiny_graph()
        with g.write(), pytest.raises(ValueError, match="invalid vertex id"):
            g.add_vertex(vid, "resource")
        assert load_graph(save_graph(g)).vertices() == g.vertices()

    @pytest.mark.parametrize("name", ["gp\n", "", "g p", "1gp"],
                             ids=["trailing-newline", "empty", "space", "leading-digit"])
    def test_relation_name_must_be_an_identifier(self, name):
        g = tiny_graph()
        with g.write(), pytest.raises(ValueError, match="invalid relation name"):
            g.declare_relation(name, USER_MANAGED)

    def test_ensure_relation_idempotent_but_category_strict(self):
        g = tiny_graph()
        with g.write():
            g.ensure_relation("gp", USER_MANAGED)
            with pytest.raises(DuplicateRelation):
                g.ensure_relation("gp", ACCESS_CONTROL)


class TestOwnerProvider:
    def build(self):
        g = tiny_graph()
        with g.write():
            g.add_vertex("rec", "resource")
            g.add_owners({"rec": ("p",)})
        return g

    def test_computed_edges_queryable(self):
        g = self.build()
        assert g.out_neighbors("rec", "owner") == {"p"}
        assert g.in_neighbors("p", "owner") == {"rec"}
        assert g.has_edge("rec", "owner", "p")

    def test_system_induced_relations_are_read_only(self):
        g = self.build()
        with g.write(), pytest.raises(ReadOnlyRelation):
            g.add_edge("rec", "owner", "d1")
        with g.write(), pytest.raises(ReadOnlyRelation):
            g.del_edge("rec", "owner", "p")

    def test_provider_union_with_stored_edges(self):
        # composed answers are the union across providers, and stored-edge
        # mutations never disturb what a provider computes
        g = self.build()
        before = {e for e in g.edge_set() if e[1] == "owner"}
        with g.write():
            g.add_edge("d1", "referrer", "d2")
            g.del_edge("p", "gp", "d2")
        after = {e for e in g.edge_set() if e[1] == "owner"}
        assert before == after == {("rec", "owner", "p")}

    def test_add_owners_is_idempotent(self):
        g = self.build()
        before = g.edge_set()
        with g.write():
            g.add_owners({"rec": ("p",)})
        assert g.edge_set() == before

    def test_add_owners_requires_write_and_known_vertices(self):
        g = self.build()
        with pytest.raises(TransactionRequired):
            g.add_owners({"rec": ("p",)})
        with g.write(), pytest.raises(UnknownVertex):
            g.add_owners({"rec": ("ghost",)})
        with g.write(), pytest.raises(UnknownVertex):
            g.add_owners({"ghost": ("p",)})


MALFORMED_EDGE_LISTS = [
    ("R gp\n", 1),
    ("V p patient\nE p gp p\n", 2),  # undeclared relation
    ("R gp user-managed\nE p gp d\n", 2),  # undeclared vertices
    ("X what\n", 1),
    ("V p vegetable\n", 1),
    ("R gp user-managed\nR gp user-managed\n", 2),
    ("R gp made-up-category\n", 1),
    ("R 9gp user-managed\n", 1),
    ("R gp user-managed\nV p patient\nV p patient\n", 3),
    ("R owner system-induced\nV r resource\nV p patient\nE r owner p\n", 4),  # read-only
    ("R gp user-managed\nV d user\nE p gp d\n", 3),  # unknown source
    ("R gp user-managed\nV p patient\nE p gp d\n", 3),  # unknown destination
    ("R gp user-managed\nV p patient\nE p gp\n", 3),
    ("R gp user-managed\nV p patient\nE p gp p p\n", 3),
    ("R gp user-managed\nV p patient\nV d user\nV e user\nE p gp d\nE p gp e\nE p gp d\n", 7),
    ("R gp user-managed\x85V p patient\n", 1),  # \x85 does not end a line
    ("R gp user-managed\nV p patient\u2028V d user\n", 2),  # nor does \u2028
]


class TestEdgeListFormat:
    def test_empty_text_gives_empty_graph(self):
        g = load_graph("")
        assert g.vertices() == {}
        assert g.edge_set() == frozenset()

    def test_small_file_parsed_by_hand(self):
        text = "R gp user-managed\nV p patient\nV d user\nE p gp d\n"
        g = load_graph(text)
        assert g.vertices() == {"p": "patient", "d": "user"}
        assert g.edge_set() == frozenset({("p", "gp", "d")})

    def test_comments_and_blanks_ignored(self):
        g = load_graph("# heading\n\nR gp user-managed\nV a user\n")
        assert g.vertices() == {"a": "user"}

    @pytest.mark.parametrize("text,lineno", MALFORMED_EDGE_LISTS)
    def test_parse_error_carries_line_number(self, text, lineno):
        with pytest.raises(ParseError) as exc:
            load_graph(text)
        assert exc.value.location == lineno

    @pytest.mark.parametrize("text,lineno", MALFORMED_EDGE_LISTS)
    def test_file_and_text_fail_at_the_same_line(self, tmp_path, text, lineno):
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as from_text:
            load_graph(text)
        with pytest.raises(ParseError) as from_file:
            load_graph_file(path)
        assert from_file.value.location == from_text.value.location == lineno

    @pytest.mark.parametrize("vertices,named", [
        ("V d user\n", "p"), ("V p patient\n", "d"), ("", "p"),  # source first, as add_edge
    ], ids=["source", "destination", "both"])
    def test_unknown_endpoint_is_named(self, vertices, named):
        with pytest.raises(ParseError, match=f"^{named} "):
            load_graph(f"R gp user-managed\n{vertices}E p gp d\n")

    def test_crlf_file_loads_like_its_lf_copy(self, tmp_path):
        text = save_graph(tiny_graph())
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert b"\r\n" in crlf.read_bytes()
        assert load_graph_file(crlf).edge_set() == load_graph_file(lf).edge_set()
        assert load_graph_file(lf).edge_set() == tiny_graph().edge_set()

    @pytest.mark.parametrize("from_file", [True, False], ids=["file", "text"])
    def test_only_newlines_end_a_line(self, tmp_path, from_file):
        # the comment runs on past \u2028 and \x85, hiding both E lines
        text = ("R gp user-managed\nV pat1 patient\nV doc1 user\nV doc2 user\n"
                "# note\u2028E pat1 gp doc1\x85E pat1 gp doc2\n")
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        g = load_graph_file(path) if from_file else load_graph(text)
        assert g.edge_set() == frozenset()
        assert len(g.vertices()) == 3

    @pytest.mark.parametrize("from_file", [True, False], ids=["file", "text"])
    def test_edges_share_the_vertex_and_relation_strings(self, tmp_path, from_file):
        # multi-character ids: CPython caches one-character strings anyway
        text = ("R gp user-managed\nR referrer access-control\nV pat1 patient\n"
                "V doc1 user\nV doc2 user\nE pat1 gp doc1\nE pat1 gp doc2\n"
                "E doc2 referrer doc1\n")
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        g = load_graph_file(path) if from_file else load_graph(text)
        vertex = {v: v for v in g._vertices}
        relation = {r: r for r in g._relations}
        assert len(g.edge_set()) == 3
        for index in (g._fwd, g._rev):
            for rel, adjacency in index.items():
                assert rel is relation[rel]
                for v, neighbors in adjacency.items():
                    assert v is vertex[v]
                    assert all(n is vertex[n] for n in neighbors)

    def test_duplicate_edge_rejected(self):
        text = "R gp user-managed\nV p patient\nV d user\nE p gp d\nE p gp d\n"
        with pytest.raises(ParseError) as exc:
            load_graph(text)
        assert exc.value.location == 5

    def test_round_trip_on_random_graph(self):
        rng = random.Random(20_240_501)
        g = AuthorizationGraph()
        with g.write():
            g.declare_relation("knows", USER_MANAGED)
            g.declare_relation("granted", ACCESS_CONTROL)
            ids = [f"v{i}" for i in range(30)]
            for vid in ids:
                g.add_vertex(vid, rng.choice(["user", "patient", "entity"]))
            added = set()
            while len(added) < 100:
                triple = (rng.choice(ids), rng.choice(["knows", "granted"]), rng.choice(ids))
                if triple in added:
                    continue
                added.add(triple)
                g.add_edge(*triple)
        reloaded = load_graph(save_graph(g))
        assert reloaded.vertices() == g.vertices()
        assert reloaded.edge_set() == g.edge_set()
        assert reloaded.relations() == g.relations()

    def test_save_excludes_computed_providers(self):
        g = tiny_graph()
        with g.write():
            g.add_vertex("rec", "resource")
            g.add_owners({"rec": ("p",)})
        text = save_graph(g)
        assert "owner" not in text
        reloaded = load_graph(text)
        assert ("rec", "owner", "p") not in reloaded.edge_set()


class TestSaveGraphFile:
    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_save_leaves_original_untouched(self, tmp_path, monkeypatch, failing):
        path = tmp_path / "graph.txt"
        original = b"R gp user-managed\nV p patient\n"
        path.write_bytes(original)
        real_fdopen = os.fdopen

        class HalfWriter:
            """Writes half of the text, then fails like a full disk."""

            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                self._fh.flush()
                raise OSError("no space left on device")

        def fail(*args, **kwargs):
            raise OSError("rename failed")

        if failing == "write":
            monkeypatch.setattr(graph_mod.os, "fdopen",
                                lambda *a, **k: HalfWriter(real_fdopen(*a, **k)))
        else:
            monkeypatch.setattr(graph_mod.os, "replace", fail)
        with pytest.raises(OSError):
            save_graph_file(tiny_graph(), path)
        monkeypatch.undo()
        assert path.read_bytes() == original
        assert list(tmp_path.glob("*.tmp")) == []

    def test_save_fsyncs_file_before_rename_and_directory_after(self, tmp_path,
                                                                  monkeypatch):
        path = tmp_path / "graph.txt"
        size = len(save_graph(tiny_graph()).encode("utf-8"))
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            st = os.fstat(fd)
            calls.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(graph_mod.os, "fsync", fsync)
        monkeypatch.setattr(graph_mod.os, "replace", replace)
        save_graph_file(tiny_graph(), path)
        assert calls == [("fsync", size), ("replace", "graph.txt"), ("fsync", "dir")]
        assert path.read_text(encoding="utf-8") == save_graph(tiny_graph())

    @pytest.mark.parametrize("existing", [True, False], ids=["existing-0644", "new"])
    def test_save_keeps_the_mode_open_would_give(self, tmp_path, existing):
        path = tmp_path / "graph.txt"
        if existing:
            path.write_text("", encoding="utf-8")
            os.chmod(path, 0o644)
            expected = 0o644
        else:
            probe = tmp_path / "probe.txt"
            with open(probe, "w"):
                pass
            expected = stat.S_IMODE(os.stat(probe).st_mode)
        save_graph_file(tiny_graph(), path)
        assert stat.S_IMODE(os.stat(path).st_mode) == expected
        assert load_graph_file(path).edge_set() == tiny_graph().edge_set()


@given(st.sets(st.tuples(st.sampled_from("abcde"), st.sampled_from(["r0", "r1"]),
                         st.sampled_from("abcde")), max_size=25))
@settings(max_examples=200, deadline=None)
def test_index_symmetry(edges):
    g = AuthorizationGraph()
    with g.write():
        g.declare_relation("r0", USER_MANAGED)
        g.declare_relation("r1", USER_MANAGED)
        for v in "abcde":
            g.add_vertex(v, "entity")
        for s, rel, d in edges:
            g.add_edge(s, rel, d)
    for s, rel, d in edges:
        assert d in g.out_neighbors(s, rel)
        assert s in g.in_neighbors(d, rel)
        assert g.has_edge(s, rel, d)
    for v in "abcde":
        for rel in ("r0", "r1"):
            for d in g.out_neighbors(v, rel):
                assert (v, rel, d) in edges


def test_no_torn_reads_under_concurrent_writes():
    # a transaction adds or removes BOTH edges; a reader holding one read
    # section must never observe just one of them
    g = AuthorizationGraph()
    with g.write():
        g.declare_relation("r", USER_MANAGED)
        for v in ("a", "b", "c"):
            g.add_vertex(v, "entity")
    stop = threading.Event()
    torn = []

    def writer():
        present = False
        while not stop.is_set():
            with g.write():
                if present:
                    g.del_edge("a", "r", "b")
                    g.del_edge("a", "r", "c")
                else:
                    g.add_edge("a", "r", "b")
                    g.add_edge("a", "r", "c")
            present = not present

    def reader():
        while not stop.is_set():
            with g.read():
                first = g.has_edge("a", "r", "b")
                second = g.has_edge("a", "r", "c")
            if first != second:
                torn.append((first, second))
                return

    threads = [threading.Thread(target=writer)] + \
        [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join(timeout=10)
    assert torn == []


def test_readers_block_during_write_transaction():
    g = tiny_graph()
    entered = threading.Event()
    release = threading.Event()
    observed = []

    def writer():
        with g.write():
            g.add_edge("d1", "referrer", "d2")
            entered.set()
            release.wait(timeout=5)

    def reader():
        observed.append(g.out_neighbors("d1", "referrer"))

    w = threading.Thread(target=writer)
    w.start()
    assert entered.wait(timeout=5)
    r = threading.Thread(target=reader)
    r.start()
    time.sleep(0.05)
    # reader must not have observed the half-open transaction
    assert observed == []
    release.set()
    w.join(timeout=5)
    r.join(timeout=5)
    assert observed == [{"d2"}]
