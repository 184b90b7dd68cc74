import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebac.errors import PolicyError
from rebac.graph import SYSTEM_INDUCED, USER_MANAGED
from rebac.policy import (
    Guard,
    PolicyStore,
    attach_policy,
    guard_from_json,
    load_policy,
    policy_document,
    satisfies,
    validate,
)
from rebac.synth import SynthConfig, synth_policy, synth_rbac

from .conftest import REFERRAL_POLICY, build_referral_system

PRIVS = st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=4)


class TestGuards:
    def test_one_of_needs_any(self):
        assert satisfies({"p1"}, Guard.one_of("p1", "p2")) is True

    def test_all_of_needs_every(self):
        assert satisfies({"p1"}, Guard.all_of("p1", "p2")) is False
        assert satisfies({"p1", "p2", "p3"}, Guard.all_of("p1", "p2")) is True

    def test_empty_grant_fails_one_of(self):
        assert satisfies(set(), Guard.one_of("p1")) is False

    def test_guard_requires_privileges(self):
        with pytest.raises(ValueError):
            Guard("one-of", frozenset())

    def test_guard_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Guard("most-of", frozenset({"p"}))

    def test_guard_wire_round_trip(self):
        g = Guard.all_of("b", "a")
        assert guard_from_json(g.to_json()) == g
        with pytest.raises(PolicyError):
            guard_from_json({"kind": "one-of"})
        with pytest.raises(PolicyError):
            guard_from_json(["one-of"])

    @pytest.mark.parametrize("privileges", ["view-record", ["view-record", None], None],
                             ids=["string", "list-with-null", "null"])
    def test_guard_privileges_must_be_a_list_of_strings(self, privileges):
        with pytest.raises(PolicyError, match="guard.privileges"):
            guard_from_json({"kind": "one-of", "privileges": privileges})

    @given(q=st.frozensets(st.sampled_from("abcdef")), extra=st.frozensets(st.sampled_from("abcdef")),
           privileges=PRIVS, kind=st.sampled_from(["one-of", "all-of"]))
    @settings(max_examples=300, deadline=None)
    def test_satisfies_is_monotone(self, q, extra, privileges, kind):
        guard = Guard(kind, privileges)
        if satisfies(q, guard):
            assert satisfies(q | extra, guard)

    @given(parts=st.lists(st.frozensets(st.sampled_from("abcdef")), min_size=1, max_size=4),
           privileges=PRIVS)
    @settings(max_examples=300, deadline=None)
    def test_one_of_distributes_over_union(self, parts, privileges):
        guard = Guard("one-of", privileges)
        union = frozenset().union(*parts)
        assert satisfies(union, guard) == any(satisfies(q, guard) for q in parts)


class TestLoadAndValidate:
    def test_empty_policy_is_valid(self):
        store = load_policy({})
        assert validate(store) == []
        assert store.matching_rules == {} and store.authorization_rules == {}

    def test_policy_document_round_trips(self):
        store = load_policy(copy.deepcopy(REFERRAL_POLICY))
        assert store.admin_actions and store.owners
        assert load_policy(json.loads(json.dumps(policy_document(store)))) == store

    def test_repeated_formula_id_is_diagnosed_after_an_invalid_one(self):
        doc = {"formulas": [{"id": "f", "vars": [], "text": "<gp"},
                            {"id": "f", "vars": [], "text": "true"}]}
        codes = [d.code for d in load_policy(doc).load_issues]
        assert codes == ["invalid-formula", "duplicate-formula"]

    def test_referral_fixture_is_valid(self):
        store = load_policy(copy.deepcopy(REFERRAL_POLICY))
        assert validate(store) == []
        assert set(store.matching_rules) == set(store.authorization_rules) == {"treating-clinician"}

    def test_matching_rule_without_authorization_rule(self):
        store = load_policy({
            "formulas": [{"id": "f", "vars": ["r", "u"], "text": "@r u"}],
            "matching_rules": [{"principal": "ap", "formula_id": "f"}],
        })
        codes = [d.code for d in validate(store)]
        assert codes == ["unpaired-principal"]

    def test_authorization_rule_without_matching_rule(self):
        store = load_policy({
            "authorization_rules": [{"principal": "ap", "privileges": ["p"]}],
        })
        assert [d.code for d in validate(store)] == ["unpaired-principal"]

    def test_dangling_formula_reference(self):
        store = load_policy({
            "matching_rules": [{"principal": "ap", "formula_id": "ghost"}],
            "authorization_rules": [{"principal": "ap", "privileges": []}],
        })
        assert "dangling-formula" in [d.code for d in validate(store)]

    def test_duplicate_principal(self):
        store = load_policy({
            "formulas": [{"id": "f", "vars": ["r", "u"], "text": "@r u"}],
            "matching_rules": [
                {"principal": "ap", "formula_id": "f"},
                {"principal": "ap", "formula_id": "f"},
            ],
            "authorization_rules": [{"principal": "ap", "privileges": []}],
        })
        assert "duplicate-principal" in [d.code for d in validate(store)]

    def test_repeated_role_and_user_keep_the_first_declaration(self):
        store = load_policy({"rbac": {
            "roles": [{"name": "r", "privileges": ["a"]}, {"name": "r", "privileges": ["b"]}],
            "user_roles": [{"user": "u", "roles": ["r"]}, {"user": "u", "roles": []}]}})
        assert [d.code for d in validate(store)] == ["duplicate-role", "duplicate-user"]
        assert store.rbac.privilege_assignment == {"r": frozenset({"a"})}
        assert store.rbac.user_assignment == {"u": frozenset({"r"})}

    def test_store_is_frozen(self):
        store = load_policy(copy.deepcopy(REFERRAL_POLICY))
        with pytest.raises(dataclasses.FrozenInstanceError):
            store.formulas = {}

    def test_unparseable_formula_is_diagnosed(self):
        store = load_policy({"formulas": [{"id": "f", "vars": ["x"], "text": "<r> x"}]})
        assert [d.code for d in validate(store)] == ["invalid-formula"]

    @pytest.mark.parametrize("text", ["!" * 5000 + "true",
                                      "(" * 3000 + "true" + ")" * 3000,
                                      " | ".join(["true"] * 3000),
                                      " & ".join(["true"] * 3000)],
                             ids=["bangs", "parens", "or-chain", "and-chain"])
    def test_deeply_nested_formula_is_diagnosed(self, text):
        store = load_policy({"formulas": [{"id": "f", "vars": [], "text": text}]})
        issues = validate(store)
        assert [d.code for d in issues] == ["invalid-formula"]
        assert "nests deeper" in issues[0].message

    def test_matching_rule_formula_must_be_binary(self):
        store = load_policy({
            "formulas": [{"id": "f", "vars": ["x"], "text": "@x x"}],
            "matching_rules": [{"principal": "ap", "formula_id": "f"}],
            "authorization_rules": [{"principal": "ap", "privileges": []}],
        })
        assert "bad-arity" in [d.code for d in validate(store)]

    def test_rbac_unknown_role(self):
        store = load_policy({
            "rbac": {"roles": [], "user_roles": [{"user": "u", "roles": ["ghost"]}]},
        })
        assert "unknown-role" in [d.code for d in validate(store)]

    def test_structural_errors_raise(self):
        with pytest.raises(PolicyError):
            load_policy([])
        with pytest.raises(PolicyError):
            load_policy({"matching_rules": {}})
        with pytest.raises(PolicyError):
            load_policy({"matching_rules": [{"principal": "ap"}]})
        with pytest.raises(PolicyError):
            load_policy({"relations": [{"name": "r", "category": "imaginary"}]})

    def test_admin_action_diagnostics(self):
        doc = {
            "relations": [{"name": "soft", "category": "user-managed"}],
            "formulas": [
                {"id": "en", "vars": ["user", "patient"], "text": "true"},
                {"id": "ap2", "vars": ["user", "patient"], "text": "true"},
            ],
            "admin_actions": [{
                "id": "Bad",
                "enabling": "en",
                "participants": ["user"],  # collides with a primary name
                "applicability": "ap2",  # wrong arity for one participant
                "effects": [
                    {"op": "add", "rel": "soft", "x": "patient", "y": "stranger"},
                    {"op": "del", "rel": "soft", "x": "patient", "y": "stranger"},
                ],
            }],
        }
        codes = {d.code for d in validate(load_policy(doc))}
        assert {"bad-participants", "bad-applicability", "unknown-participant",
                "bad-effect-relation", "conflicting-effects"} <= codes

    def test_admin_action_without_effects(self):
        doc = {
            "formulas": [
                {"id": "en", "vars": ["user", "patient"], "text": "true"},
            ],
            "admin_actions": [{"id": "Noop", "enabling": "en", "participants": [],
                               "applicability": "en", "effects": []}],
        }
        assert "empty-effects" in {d.code for d in validate(load_policy(doc))}

    def test_synth_policy_validates_cleanly(self):
        cfg = SynthConfig(seed=11, scale=1.0)
        tables, _ = synth_rbac(cfg)
        matching, authorization, formulas = synth_policy(cfg, tables)
        store = PolicyStore(formulas=formulas, matching_rules=matching,
                            authorization_rules=authorization, rbac=tables)
        assert len(set(store.matching_rules) | set(store.authorization_rules)) == 67
        assert validate(store) == []


class TestAttach:
    def test_owner_provider_attached(self, referral_system):
        graph, store = referral_system
        assert graph.out_neighbors("rec1", "owner") == {"p1"}
        assert graph.vertices()["rec1"] == "resource"
        assert graph.relations()["owner"] == SYSTEM_INDUCED

    def test_relations_merged_idempotently(self):
        graph, store = build_referral_system()
        # both graph file and policy declare family-doctor; one declaration wins
        assert graph.relations()["family-doctor"] == "access-control"

    def test_attach_declares_policy_only_relations(self):
        store = load_policy({"relations": [{"name": "soft", "category": "user-managed"}]})
        from rebac.graph import AuthorizationGraph
        g = AuthorizationGraph()
        attach_policy(g, store)
        assert g.relations() == {"soft": USER_MANAGED}

    @pytest.mark.parametrize("doc", [
        {"owners": [{"resource": "rec 1", "owner": "p1"}]},
        {"owners": [{"resource": "", "owner": "p1"}]},
        {"relations": [{"name": "gp\n", "category": "user-managed"}]},
    ], ids=["resource-with-space", "empty-resource", "relation-with-newline"])
    def test_identifiers_the_edge_list_cannot_carry_are_rejected(self, doc):
        graph, _ = build_referral_system()
        with pytest.raises(ValueError):
            attach_policy(graph, load_policy(doc))
