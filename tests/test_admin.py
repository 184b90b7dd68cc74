import copy
import sys
import threading
import time

import pytest

from rebac.admin import enabled_actions, execute_action
from rebac.engine import AccessRequest, EngineConfig, check
from rebac.errors import (
    AddExistingEdge,
    DeleteMissingEdge,
    NotApplicable,
    NotEnabled,
    PolicyError,
    UnboundParticipant,
    UnknownAction,
)
from rebac.graph import load_graph
from rebac.policy import Guard, PolicyStore, attach_policy, load_policy, validate

from .conftest import REFERRAL_GRAPH, REFERRAL_POLICY

BATCH_GRAPH = """\
R ac-a access-control
R ac-b access-control
R ac-c access-control
R um user-managed
V u user
V p patient
V h user
E u ac-b p
E u um p
"""

BATCH_POLICY = {
    "relations": [
        {"name": "ac-a", "category": "access-control"},
        {"name": "ac-b", "category": "access-control"},
        {"name": "ac-c", "category": "access-control"},
        {"name": "um", "category": "user-managed"},
    ],
    "formulas": [
        {"id": "en", "vars": ["user", "patient"], "text": "true"},
        {"id": "app", "vars": ["user", "patient", "helper"], "text": "true"},
    ],
    "admin_actions": [{
        "id": "Batch", "enabling": "en", "participants": ["helper"],
        "applicability": "app",
        "effects": [
            {"op": "add", "rel": "ac-a", "x": "patient", "y": "helper"},
            {"op": "del", "rel": "ac-b", "x": "user", "y": "patient"},
            {"op": "add", "rel": "ac-c", "x": "helper", "y": "user"},
        ],
    }],
}

BATCH_BINDING = {"user": "u", "patient": "p", "helper": "h"}


def build_batch_system():
    graph = load_graph(BATCH_GRAPH)
    store = load_policy(copy.deepcopy(BATCH_POLICY))
    assert validate(store) == []
    attach_policy(graph, store)
    return graph, store


def inject_fault_at(graph, index: int):
    """Make the index-th mutation call raise once, then behave normally
    (so the rollback path still works)."""
    state = {"count": 0, "armed": True}
    original_add, original_del = graph.add_edge, graph.del_edge

    def flaky(fn):
        def wrapper(*args):
            if state["armed"] and state["count"] == index:
                state["armed"] = False
                raise RuntimeError("injected fault")
            state["count"] += 1
            return fn(*args)
        return wrapper

    graph.add_edge = flaky(original_add)
    graph.del_edge = flaky(original_del)
    return state


class TestEnabledActions:
    def test_family_doctor_sees_referral(self, referral_system):
        graph, store = referral_system
        assert enabled_actions(store, graph, "d1", "p1") == ["Referral"]

    def test_unrelated_clinician_sees_nothing(self, referral_system):
        graph, store = referral_system
        assert enabled_actions(store, graph, "s1", "p1") == []
        assert enabled_actions(store, graph, "d1", "p2") == []

    def test_empty_declaration_set(self, referral_system):
        graph, _ = referral_system
        assert enabled_actions(PolicyStore(), graph, "d1", "p1") == []


class TestExecute:
    def test_referral_adds_the_edge(self, referral_system):
        graph, store = referral_system
        report = execute_action(store, graph, "Referral",
                                {"user": "d1", "patient": "p1", "specialist": "s1"})
        assert graph.has_edge("p1", "referred-clinician", "s1")
        assert report.applied == (("add", "referred-clinician", "p1", "s1"),)

    def test_referral_flips_access_decision(self, referral_system):
        graph, store = referral_system
        req = AccessRequest("rec1", "s1", Guard.one_of("view-record"))
        cfg = EngineConfig(mode="both")
        assert check(store, graph, store.rbac, req, cfg).allow is False
        execute_action(store, graph, "Referral",
                       {"user": "d1", "patient": "p1", "specialist": "s1"})
        assert check(store, graph, store.rbac, req, cfg).allow is True

    def test_double_execution_is_an_error_without_mutation(self, referral_system):
        graph, store = referral_system
        binding = {"user": "d1", "patient": "p1", "specialist": "s1"}
        execute_action(store, graph, "Referral", binding)
        snapshot = graph.edge_set()
        with pytest.raises(AddExistingEdge):
            execute_action(store, graph, "Referral", binding)
        assert graph.edge_set() == snapshot

    def test_precondition_rechecked_inside_transaction(self, referral_system):
        graph, store = referral_system
        assert enabled_actions(store, graph, "d1", "p1") == ["Referral"]
        # the relationship changes between the check and the use
        with graph.write():
            graph.del_edge("d1", "family-doctor", "p1")
        snapshot = graph.edge_set()
        with pytest.raises(NotEnabled):
            execute_action(store, graph, "Referral",
                           {"user": "d1", "patient": "p1", "specialist": "s1"})
        assert graph.edge_set() == snapshot

    def test_absence_guard_blocks_repeat(self):
        doc = copy.deepcopy(REFERRAL_POLICY)
        for action in doc["admin_actions"]:
            action["applicability"] = "fresh-referral"
        graph = load_graph(REFERRAL_GRAPH)
        store = load_policy(doc)
        attach_policy(graph, store)
        binding = {"user": "d1", "patient": "p1", "specialist": "s1"}
        execute_action(store, graph, "Referral", binding)
        with pytest.raises(NotApplicable):
            execute_action(store, graph, "Referral", binding)

    def test_unbound_participant(self, referral_system):
        graph, store = referral_system
        with pytest.raises(UnboundParticipant):
            execute_action(store, graph, "Referral", {"user": "d1", "patient": "p1"})

    def test_unknown_action(self, referral_system):
        graph, store = referral_system
        with pytest.raises(UnknownAction):
            execute_action(store, graph, "Rename", {"user": "d1", "patient": "p1"})


class TestAtomicity:
    def test_batch_executes_fully(self):
        graph, store = build_batch_system()
        execute_action(store, graph, "Batch", BATCH_BINDING)
        assert graph.has_edge("p", "ac-a", "h")
        assert not graph.has_edge("u", "ac-b", "p")
        assert graph.has_edge("h", "ac-c", "u")

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_fault_at_every_effect_index_rolls_back(self, index):
        graph, store = build_batch_system()
        snapshot = graph.edge_set()
        inject_fault_at(graph, index)
        with pytest.raises(RuntimeError):
            execute_action(store, graph, "Batch", BATCH_BINDING)
        assert graph.edge_set() == snapshot

    def test_validation_failure_applies_nothing(self):
        graph, store = build_batch_system()
        with graph.write():
            graph.del_edge("u", "ac-b", "p")  # the del effect now targets a missing edge
        snapshot = graph.edge_set()
        with pytest.raises(DeleteMissingEdge):
            execute_action(store, graph, "Batch", BATCH_BINDING)
        assert graph.edge_set() == snapshot
        assert not graph.has_edge("p", "ac-a", "h")

    def test_aliased_participants_fail_and_roll_back(self):
        # two auxiliary participants bound to one vertex: the second add
        # meets the edge the first one just made
        doc = copy.deepcopy(BATCH_POLICY)
        doc["formulas"][1]["vars"].append("other")
        action = doc["admin_actions"][0]
        action["participants"].append("other")
        action["effects"] = [
            {"op": "add", "rel": "ac-a", "x": "patient", "y": "helper"},
            {"op": "add", "rel": "ac-a", "x": "patient", "y": "other"},
        ]
        graph = load_graph(BATCH_GRAPH)
        store = load_policy(doc)
        assert validate(store) == []
        attach_policy(graph, store)
        snapshot = graph.edge_set()
        with pytest.raises(AddExistingEdge):
            execute_action(store, graph, "Batch", {**BATCH_BINDING, "other": "h"})
        assert graph.edge_set() == snapshot

    def test_only_access_control_relations_change(self):
        graph, store = build_batch_system()
        def non_ac(g):
            return {e for e in g.edge_set() if g.relations()[e[1]] != "access-control"}
        before = non_ac(graph)
        execute_action(store, graph, "Batch", BATCH_BINDING)
        assert non_ac(graph) == before

    def test_effect_on_non_access_control_relation_rejected(self):
        graph, store = build_batch_system()
        doc = copy.deepcopy(BATCH_POLICY)
        doc["admin_actions"][0]["effects"] = [
            {"op": "add", "rel": "um", "x": "patient", "y": "helper"},
        ]
        bad_store = load_policy(doc)
        assert any(d.code == "bad-effect-relation" for d in validate(bad_store))
        snapshot = graph.edge_set()
        with pytest.raises(PolicyError):
            execute_action(bad_store, graph, "Batch", BATCH_BINDING)
        assert graph.edge_set() == snapshot


def test_admin_writes_never_torn_for_concurrent_readers():
    # one writer alternates the Batch action with a transaction restoring
    # its three edges; readers see the whole pre- or the whole post-state
    graph, store = build_batch_system()
    triples = (("p", "ac-a", "h"), ("u", "ac-b", "p"), ("h", "ac-c", "u"))
    pre, post = (False, True, False), (True, False, True)
    stop = threading.Event()
    seen, errors, rounds = [], [], [0]

    def writer():
        try:
            while not stop.is_set():
                execute_action(store, graph, "Batch", BATCH_BINDING)
                with graph.write():
                    graph.del_edge("p", "ac-a", "h")
                    graph.add_edge("u", "ac-b", "p")
                    graph.del_edge("h", "ac-c", "u")
                rounds[0] += 1
        except Exception as exc:  # surfaced by the assertions below
            errors.append(exc)

    def reader():
        try:
            while not stop.is_set():
                with graph.read():
                    state = tuple(graph.has_edge(*t) for t in triples)
                seen.append(state)
                if state not in (pre, post):
                    return
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + \
        [threading.Thread(target=reader) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave threads far more often than by default
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert rounds[0] > 0 and seen
    assert set(seen) <= {pre, post}


class TestApplicability:
    """Multi-participant applicability over insurer approval and shared region."""

    GRAPH = """\
    R insurance user-managed
    R approves user-managed
    R region user-managed
    R family-doctor access-control
    R referred-clinician access-control
    V p patient
    V d user
    V s1 user
    V s2 user
    V acme entity
    V north entity
    E d family-doctor p
    E p insurance acme
    E acme approves s1
    E acme approves s2
    E d region north
    E s1 region north
    """

    POLICY = {
        "relations": [
            {"name": "family-doctor", "category": "access-control"},
            {"name": "referred-clinician", "category": "access-control"},
        ],
        "formulas": [
            {"id": "can-refer", "vars": ["user", "patient"],
             "text": "@user <family-doctor> patient"},
            {"id": "approved-and-near", "vars": ["user", "patient", "specialist"],
             "text": "(@patient <insurance> <approves> specialist)"
                     " & (@user <region> <-region> specialist)"},
        ],
        "admin_actions": [{
            "id": "Referral", "enabling": "can-refer", "participants": ["specialist"],
            "applicability": "approved-and-near",
            "effects": [{"op": "add", "rel": "referred-clinician",
                         "x": "patient", "y": "specialist"}],
        }],
    }

    def build(self):
        graph = load_graph("\n".join(line.strip() for line in self.GRAPH.splitlines()))
        store = load_policy(copy.deepcopy(self.POLICY))
        assert validate(store) == []
        attach_policy(graph, store)
        return graph, store

    def test_applicable_specialist(self):
        graph, store = self.build()
        execute_action(store, graph, "Referral",
                       {"user": "d", "patient": "p", "specialist": "s1"})
        assert graph.has_edge("p", "referred-clinician", "s1")

    def test_out_of_region_specialist_rejected(self):
        graph, store = self.build()
        with pytest.raises(NotApplicable):
            execute_action(store, graph, "Referral",
                           {"user": "d", "patient": "p", "specialist": "s2"})
        assert not graph.has_edge("p", "referred-clinician", "s2")

    def test_enabling_must_hold_even_if_applicability_does(self):
        graph, store = self.build()
        with pytest.raises(NotEnabled):
            execute_action(store, graph, "Referral",
                           {"user": "s1", "patient": "p", "specialist": "s1"})
