import json

import pytest

from rebac import hl
from rebac.errors import InfeasibleScale
from rebac.policy import PolicyStore, validate
from rebac.synth import (
    EDGE_LABELS,
    FORMULA_CORPUS,
    GeneratedGraph,
    SynthConfig,
    corpus_library,
    scaled,
    synth_graph,
    synth_policy,
    synth_rbac,
    synth_requests,
    synthesize,
    write_fixture,
)

SMALL = SynthConfig(seed=5, scale=0.02, graph_source=GeneratedGraph(600, 4000))


class TestScaling:
    def test_scale_one_matches_baseline_counts(self):
        cfg = SynthConfig(seed=1, scale=1.0)
        tables, privileges = synth_rbac(cfg)
        assert len(privileges) == 200
        assert len(tables.roles) == 67
        assert sum(len(v) for v in tables.privilege_assignment.values()) == 469
        assert sum(len(v) for v in tables.user_assignment.values()) == 50_000
        users = set()
        for u in tables.user_assignment:
            users.add(u)
        assert len(users) <= 10_000

    def test_scale_hundredth_rounds_correctly(self):
        counts = [scaled(base, 0.01) for base in (10_000, 200, 67, 469, 50_000)]
        assert counts == [100, 2, 1, 5, 500]
        # ...but 5 pairs cannot be drawn without replacement from a 1x2
        # cross product, so generation at that scale refuses
        with pytest.raises(InfeasibleScale):
            synth_rbac(SynthConfig(seed=1, scale=0.01))

    def test_scaled_rounding_rule(self):
        assert scaled(67, 0.01) == 1
        assert scaled(469, 0.01) == 5
        assert scaled(10, 0.04) == 1  # minimum one
        assert scaled(3, 0.5) == 2  # half rounds up

    def test_same_seed_same_tables(self):
        a = synth_rbac(SynthConfig(seed=9, scale=0.1))
        b = synth_rbac(SynthConfig(seed=9, scale=0.1))
        assert a == b
        c = synth_rbac(SynthConfig(seed=10, scale=0.1))
        assert a != c


class TestGraph:
    def test_edge_labels_respect_endpoint_kinds(self):
        g = synth_graph(SMALL)
        kinds = g.vertices()
        for s, rel, d in g.edge_set():
            assert rel in EDGE_LABELS[(kinds[s], kinds[d])], (s, rel, d)

    def test_user_to_patient_edges_are_dummy(self):
        g = synth_graph(SMALL)
        kinds = g.vertices()
        for s, rel, d in g.edge_set():
            if kinds[s] == "user" and kinds[d] == "patient":
                assert rel == "dummy"
            if rel == "gp":
                assert kinds[s] == "patient" and kinds[d] == "user"

    def test_member_declared_but_unused(self):
        g = synth_graph(SMALL)
        assert "member" in g.relations()
        assert all(rel != "member" for _, rel, _ in g.edge_set())

    def test_requested_sizes(self):
        g = synth_graph(SMALL)
        assert len(g.vertices()) == 600
        assert len(g.edge_set()) == 4000

    @pytest.mark.parametrize("edges, error", [(0, InfeasibleScale), (10, ValueError)])
    def test_zero_nodes_is_honoured_not_defaulted(self, edges, error):
        with pytest.raises(error):
            synth_graph(SynthConfig(seed=1, scale=0.1, graph_source=GeneratedGraph(0, edges)))

    def test_users_are_top_indegree_nodes(self, tmp_path):
        raw = tmp_path / "pairs.txt"
        raw.write_text("# toy digraph\na b\nc b\na c\nd c\nb d\n", encoding="utf-8")
        # in-degrees: b=2, c=2, d=1, a=0
        cfg = SynthConfig(seed=3, scale=0.0002, graph_source=str(raw))  # 2 users
        kinds = synth_graph(cfg).vertices()
        assert {v for v, k in kinds.items() if k == "user"} == {"b", "c"}

    def test_indegree_ties_break_by_ascending_id(self, tmp_path):
        raw = tmp_path / "pairs.txt"
        raw.write_text("a c\nb c\na d\nb d\n", encoding="utf-8")  # c and d tied at 2
        cfg = SynthConfig(seed=3, scale=0.0001, graph_source=str(raw))  # 1 user
        kinds = synth_graph(cfg).vertices()
        assert {v for v, k in kinds.items() if k == "user"} == {"c"}

    def test_too_many_users_for_file(self, tmp_path):
        raw = tmp_path / "pairs.txt"
        raw.write_text("a b\n", encoding="utf-8")
        with pytest.raises(InfeasibleScale):
            synth_graph(SynthConfig(seed=3, scale=1.0, graph_source=str(raw)))


class TestCorpus:
    def test_ten_formulas_with_expected_shapes(self):
        library = corpus_library()
        assert len(library) == 10
        assert hl.unparse(library["rp01"]) == "@patient <gp> requestor"
        assert hl.unparse(library["rp10"]) == (
            "@patient <gp> requestor | @patient <-agent> <gp> requestor")
        for formula in library.values():
            assert formula.vars == ("patient", "requestor")

    def test_composites_expand_their_parts(self):
        texts = dict(FORMULA_CORPUS)
        assert texts["rp03"] == f"{texts['rp01']} | {texts['rp02']}"
        assert texts["rp06"] == f"{texts['rp03']} | {texts['rp05']}"
        assert texts["rp09"] == f"{texts['rp06']} | {texts['rp08']}"

    def test_parse_unparse_identity_over_whole_corpus(self):
        for fid, text in FORMULA_CORPUS:
            assert hl.unparse(hl.parse(text, ["patient", "requestor"])) == text, fid


class TestPolicy:
    def test_one_principal_per_role_granting_role_privileges(self):
        cfg = SynthConfig(seed=5, scale=0.1)
        tables, _ = synth_rbac(cfg)
        matching, authorization, formulas = synth_policy(cfg, tables)
        assert len(matching) == len(tables.roles)
        corpus_ids = {fid for fid, _ in FORMULA_CORPUS}
        for role in tables.roles:
            principal = f"ap-{role}"
            assert matching[principal] in corpus_ids
            assert authorization[principal] == tables.privilege_assignment[role]
        store = PolicyStore(formulas=formulas, matching_rules=matching,
                            authorization_rules=authorization, rbac=tables)
        assert validate(store) == []


class TestRequests:
    USERS = [f"u{i}" for i in range(20)]
    PATIENTS = [f"p{i}" for i in range(50)]
    PRIVS = [f"priv{i}" for i in range(30)]

    def make(self, kind, scale=1.0, count=None, seed=2):
        cfg = SynthConfig(seed=seed, scale=scale)
        return synth_requests(cfg, kind, users=self.USERS, patients=self.PATIENTS,
                              privileges=self.PRIVS, count=count)

    def test_scale_one_yields_400_requests(self):
        requests = self.make("one-of")
        assert len(requests) == 400
        assert all(r.guard.kind == "one-of" for r in requests)

    def test_guard_sizes_between_one_and_three(self):
        for kind in ("one-of", "all-of"):
            sizes = {len(r.guard.privileges) for r in self.make(kind)}
            assert sizes == {1, 2, 3}

    def test_guard_privileges_drawn_from_list(self):
        for r in self.make("all-of", count=50):
            assert r.guard.privileges <= set(self.PRIVS)
            assert r.user in self.USERS
            assert r.resource in self.PATIENTS

    def test_determinism_and_kind_independence(self):
        assert self.make("one-of") == self.make("one-of")
        one = self.make("one-of", count=30)
        all_ = self.make("all-of", count=30)
        assert [r.guard.privileges for r in one] != [r.guard.privileges for r in all_]


class TestFixtureFiles:
    def test_write_twice_byte_identical(self, tmp_path):
        cfg = SynthConfig(seed=13, scale=0.1, graph_source=GeneratedGraph(300, 1500))
        first = write_fixture(synthesize(cfg), tmp_path / "a")
        second = write_fixture(synthesize(cfg), tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_fixture_contents_consistent(self, tmp_path):
        cfg = SynthConfig(seed=13, scale=0.1, graph_source=GeneratedGraph(300, 1500))
        workload = synthesize(cfg)
        paths = write_fixture(workload, tmp_path)
        names = {p.name for p in paths}
        assert names == {"graph.txt", "policy.json", "requests_one_of.json",
                         "requests_all_of.json"}
        policy_doc = json.loads((tmp_path / "policy.json").read_text())
        assert len(policy_doc["matching_rules"]) == len(workload.store.matching_rules)
        requests_doc = json.loads((tmp_path / "requests_one_of.json").read_text())
        assert len(requests_doc) == len(workload.requests["one-of"])
        assert set(requests_doc[0]) == {"user", "resource", "guard"}

    def test_workload_users_enter_role_tables(self):
        cfg = SynthConfig(seed=13, scale=0.1, graph_source=GeneratedGraph(400, 2000))
        workload = synthesize(cfg)
        # the graph's clinicians are the first citizens of the role tables
        with_roles = set(workload.store.rbac.user_assignment)
        assert set(workload.users) & with_roles
