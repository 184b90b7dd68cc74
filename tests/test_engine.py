import random

import pytest

from rebac import hl
from rebac.engine import (
    AccessRequest,
    EngineConfig,
    check,
    check_eager_liberal,
    check_eager_strict,
    check_lazy_liberal,
    check_lazy_strict,
    enabled_principals,
    filter_collection,
)
from rebac.errors import EvaluationError, UnknownVertex
from rebac.graph import ACCESS_CONTROL, AuthorizationGraph
from rebac.policy import Guard, PolicyStore, load_policy
from rebac.rbac import RbacTables, empty_tables

from .helpers import random_formula, random_graph

REBAC_ONLY = {
    ("eager", "liberal"): check_eager_liberal,
    ("eager", "strict"): check_eager_strict,
    ("lazy", "liberal"): check_lazy_liberal,
    ("lazy", "strict"): check_lazy_strict,
}


def untimed(decision):
    out = decision.to_json()
    out["trace"].pop("elapsed_us")
    return out


def treating_clinician_system():
    """Record owned by a patient whose family doctor (or referred
    specialist) should match the treating-clinician principal."""
    g = AuthorizationGraph()
    with g.write():
        g.declare_relation("family-doctor", ACCESS_CONTROL)
        g.declare_relation("referred-clinician", ACCESS_CONTROL)
        g.add_vertex("rec", "resource")
        g.add_vertex("p", "patient")
        g.add_vertex("d", "user")
        g.add_vertex("x", "user")
        g.add_edge("p", "family-doctor", "d")
        g.add_owners({"rec": ("p",)})
    store = load_policy({
        "formulas": [{
            "id": "treating", "vars": ["resource", "requestor"],
            "text": "@resource <owner> (<family-doctor> requestor"
                    " | <referred-clinician> requestor)",
        }],
        "matching_rules": [{"principal": "treating-clinician", "formula_id": "treating"}],
        "authorization_rules": [{"principal": "treating-clinician",
                                 "privileges": ["view-record"]}],
    })
    return g, store


def const_store(assignments: dict[str, tuple[bool, frozenset[str]]]) -> PolicyStore:
    """Principals with constant-valued predicates: ap -> (enabled, grants)."""
    formulas = {}
    matching = {}
    authorization = {}
    for ap, (enabled, grants) in assignments.items():
        fid = "on" if enabled else "off"
        formulas.setdefault(fid, hl.parse("true" if enabled else "false",
                                          ["resource", "requestor"]))
        matching[ap] = fid
        authorization[ap] = grants
    return PolicyStore(formulas=formulas, matching_rules=matching,
                       authorization_rules=authorization)


def one_vertex_graph():
    g = AuthorizationGraph()
    with g.write():
        g.add_vertex("r", "resource")
        g.add_vertex("u", "user")
    return g


class TestEnabledPrincipals:
    def test_family_doctor_matches_owner_chain(self):
        g, store = treating_clinician_system()
        assert enabled_principals(store, g, "rec", "d") == {"treating-clinician"}
        assert enabled_principals(store, g, "rec", "x") == set()

    def test_referred_specialist_matches_after_edge(self):
        g, store = treating_clinician_system()
        with g.write():
            g.add_edge("p", "referred-clinician", "x")
        assert enabled_principals(store, g, "rec", "x") == {"treating-clinician"}

    def test_empty_policy(self):
        g, _ = treating_clinician_system()
        assert enabled_principals(PolicyStore(), g, "rec", "d") == set()

    def test_shared_formula_evaluated_once(self):
        store = const_store({"a": (True, frozenset({"p1"})),
                             "b": (True, frozenset({"p2"}))})
        g = one_vertex_graph()
        d = check_eager_liberal(store, g, AccessRequest("r", "u", Guard.one_of("p1")))
        assert d.trace.enabled_principals == {"a", "b"}
        assert d.trace.formulas_evaluated == 1
        assert d.trace.cache_hits == 1

    def test_evaluation_error_tagged_with_principal(self):
        g = one_vertex_graph()
        store = load_policy({
            "formulas": [{"id": "f", "vars": ["res", "req"], "text": "@res <ghost> req"}],
            "matching_rules": [{"principal": "ap1", "formula_id": "f"}],
            "authorization_rules": [{"principal": "ap1", "privileges": ["p"]}],
        })
        with pytest.raises(EvaluationError) as exc:
            enabled_principals(store, g, "r", "u")
        assert "ap1" in str(exc.value)


class TestGrantSemantics:
    def test_pooled_privileges_allow_only_liberal(self):
        # two enabled principals granting one privilege each, all-of guard
        store = const_store({"ap1": (True, frozenset({"p1"})),
                             "ap2": (True, frozenset({"p2"}))})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.all_of("p1", "p2"))
        assert check_eager_liberal(store, g, req).allow is True
        assert check_eager_strict(store, g, req).allow is False
        assert check_lazy_liberal(store, g, req).allow is True
        assert check_lazy_strict(store, g, req).allow is False

    def test_no_enabled_principals_denies(self):
        store = const_store({"ap1": (False, frozenset({"p1"}))})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.one_of("p1"))
        for fn in REBAC_ONLY.values():
            assert fn(store, g, req).allow is False

    def test_single_principal_satisfies_strict(self):
        store = const_store({"ap1": (True, frozenset({"p1", "p2", "p3"}))})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.all_of("p1", "p2"))
        assert check_eager_strict(store, g, req).allow is True
        assert check_lazy_strict(store, g, req).allow is True

    def test_one_of_guards_agree_across_semantics(self):
        store = const_store({"ap1": (True, frozenset({"p1"})),
                             "ap2": (False, frozenset({"p2"})),
                             "ap3": (True, frozenset())})
        g = one_vertex_graph()
        for privs in (("p1",), ("p2",), ("p1", "p2"), ("p9",)):
            req = AccessRequest("r", "u", Guard.one_of(*privs))
            liberal = check_eager_liberal(store, g, req).allow
            assert check_eager_strict(store, g, req).allow == liberal
            assert check_lazy_strict(store, g, req).allow == liberal


class TestLaziness:
    def test_irrelevant_principal_not_evaluated(self):
        # ap-a grants nothing the guard needs, so its formula must not run
        store = const_store({"ap-a": (True, frozenset({"px"})),
                             "ap-b": (True, frozenset({"p1"}))})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.one_of("p1"))
        lazy = check_lazy_liberal(store, g, req)
        assert lazy.allow is True
        assert lazy.trace.formulas_evaluated == 1

    def test_early_exit_skips_remaining_principals(self):
        store = const_store({f"ap{i}": (True, frozenset({"p1"})) for i in range(5)})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.one_of("p1"))
        lazy = check_lazy_liberal(store, g, req)
        assert lazy.allow is True
        assert lazy.trace.principals_considered == 1
        eager = check_eager_liberal(store, g, req)
        assert eager.trace.principals_considered == 5

    def test_lazy_strict_reuses_false_evaluations(self):
        store = const_store({"ap1": (False, frozenset({"p1"})),
                             "ap2": (False, frozenset({"p1"}))})
        g = one_vertex_graph()
        req = AccessRequest("r", "u", Guard.one_of("p1"))
        d = check_lazy_strict(store, g, req)
        assert d.allow is False
        assert d.trace.formulas_evaluated == 1
        assert d.trace.cache_hits == 1


class TestRandomizedEquivalence:
    def run_cases(self, n_cases, seed):
        rng = random.Random(seed)
        privs = [f"p{i}" for i in range(5)]
        for case in range(n_cases):
            g, vertices, relations = random_graph(rng, max_vertices=6,
                                                  n_relations=2, density=0.25)
            n_formulas = rng.randint(1, 4)
            formulas = {
                f"f{i}": random_formula(rng, relations, depth=3, vars=("res", "req"))
                for i in range(n_formulas)
            }
            matching, authorization = {}, {}
            for i in range(rng.randint(0, 6)):
                matching[f"ap{i}"] = f"f{rng.randrange(n_formulas)}"
                authorization[f"ap{i}"] = frozenset(rng.sample(privs, rng.randint(0, 3)))
            store = PolicyStore(formulas=formulas, matching_rules=matching,
                                authorization_rules=authorization)
            guard = Guard(rng.choice(["one-of", "all-of"]),
                          frozenset(rng.sample(privs, rng.randint(1, 3))))
            req = AccessRequest(rng.choice(vertices), rng.choice(vertices), guard)
            yield store, g, req

    def test_strategies_agree_and_lazy_does_less_work(self):
        for store, g, req in self.run_cases(400, seed=2024):
            decisions = {key: fn(store, g, req) for key, fn in REBAC_ONLY.items()}
            for (strategy, semantics), direct in decisions.items():
                cfg = EngineConfig(semantics=semantics, strategy=strategy, mode="rebac-only")
                assert untimed(check(store, g, store.rbac, req, cfg)) == untimed(direct)
            eager_lib = decisions[("eager", "liberal")]
            lazy_lib = decisions[("lazy", "liberal")]
            eager_str = decisions[("eager", "strict")]
            lazy_str = decisions[("lazy", "strict")]
            assert eager_lib.allow == lazy_lib.allow
            assert eager_str.allow == lazy_str.allow
            assert lazy_lib.trace.formulas_evaluated <= eager_lib.trace.formulas_evaluated
            assert lazy_str.trace.formulas_evaluated <= eager_str.trace.formulas_evaluated
            distinct = len(set(store.matching_rules.values()))
            assert eager_lib.trace.formulas_evaluated <= distinct
            # strict grant implies liberal grant
            if eager_str.allow:
                assert eager_lib.allow
            # one-of guards: the two semantics agree
            if req.guard.kind == "one-of":
                assert eager_lib.allow == eager_str.allow

    def test_determinism(self):
        for store, g, req in self.run_cases(40, seed=77):
            first = check_eager_liberal(store, g, req)
            second = check_eager_liberal(store, g, req)
            assert first.allow == second.allow
            assert first.trace.enabled_principals == second.trace.enabled_principals
            lazy_first = check_lazy_liberal(store, g, req)
            lazy_second = check_lazy_liberal(store, g, req)
            assert lazy_first.trace.principals_considered == lazy_second.trace.principals_considered


class TestCombinedMode:
    def build(self):
        g, store = treating_clinician_system()
        tables = RbacTables(
            roles=frozenset({"clinician"}),
            privilege_assignment={"clinician": frozenset({"view-record"})},
            user_assignment={"d": frozenset({"clinician"})},
        )
        return g, store, tables

    def test_rbac_denial_short_circuits_rebac(self):
        g, store, tables = self.build()
        req = AccessRequest("rec", "x", Guard.one_of("view-record"))  # x has no role
        d = check(store, g, tables, req, EngineConfig(mode="both"))
        assert d.allow is False
        assert d.trace.formulas_evaluated == 0

    def test_both_mechanisms_allow(self):
        g, store, tables = self.build()
        req = AccessRequest("rec", "d", Guard.one_of("view-record"))
        assert check(store, g, tables, req, EngineConfig(mode="both")).allow is True

    def test_rbac_allows_rebac_denies(self):
        g, store, tables = self.build()
        tables = RbacTables(tables.roles, tables.privilege_assignment,
                            {"x": frozenset({"clinician"}), **tables.user_assignment})
        req = AccessRequest("rec", "x", Guard.one_of("view-record"))
        d = check(store, g, tables, req, EngineConfig(mode="both"))
        assert d.allow is False
        assert d.trace.formulas_evaluated > 0

    def test_single_mechanism_modes(self):
        g, store, tables = self.build()
        req = AccessRequest("rec", "x", Guard.one_of("view-record"))
        assert check(store, g, tables, req, EngineConfig(mode="rbac-only")).allow is False
        rebac_only = check(store, g, empty_tables(), req, EngineConfig(mode="rebac-only"))
        assert rebac_only.allow is False

    def test_unknown_vertices_rejected(self):
        g, store, tables = self.build()
        with pytest.raises(UnknownVertex):
            check(store, g, tables, AccessRequest("ghost", "d", Guard.one_of("p")),
                  EngineConfig())
        with pytest.raises(UnknownVertex):
            check(store, g, tables, AccessRequest("rec", "ghost", Guard.one_of("p")),
                  EngineConfig())


class TestFilterCollection:
    def test_keeps_allowed_subset_in_order(self):
        g, store = treating_clinician_system()
        with g.write():
            g.add_vertex("rec2", "resource")
            g.add_vertex("p2", "patient")
            g.add_owners({"rec2": ("p2",)})
        cfg = EngineConfig(mode="rebac-only")
        guard = Guard.one_of("view-record")
        allowed = filter_collection(store, g, empty_tables(), "d", guard,
                                    ["rec2", "rec", "rec2", "rec"], cfg)
        assert allowed == ["rec", "rec"]

    def test_empty_input(self):
        g, store = treating_clinician_system()
        assert filter_collection(store, g, empty_tables(), "d",
                                 Guard.one_of("view-record"), [], EngineConfig()) == []

    def test_all_denied(self):
        g, store = treating_clinician_system()
        cfg = EngineConfig(mode="rebac-only")
        assert filter_collection(store, g, empty_tables(), "x",
                                 Guard.one_of("view-record"), ["rec"], cfg) == []
