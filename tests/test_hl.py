import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebac import hl
from rebac.errors import ArityMismatch, NotAnchored, ParseError, UnknownRelation, UnknownVariable
from rebac.graph import USER_MANAGED, AuthorizationGraph
from rebac.hl import And, At, Const, Diamond, Formula, Not, Or, Var

from .helpers import (
    brute_force_evaluate,
    random_formula,
    random_graph,
    random_valuation,
)


def graph_of(edges, vertices=None, relations=None):
    g = AuthorizationGraph()
    with g.write():
        for rel in relations or sorted({r for _, r, _ in edges}):
            g.declare_relation(rel, USER_MANAGED)
        for v in vertices or sorted({x for s, _, d in edges for x in (s, d)}):
            g.add_vertex(v, "entity")
        for s, rel, d in edges:
            g.add_edge(s, rel, d)
    return g


class TestParse:
    def test_anchored_step(self):
        f = hl.parse("@patient <gp> requestor", ["patient", "requestor"])
        assert f.body == At("patient", Diamond("gp", False, Var("requestor")))
        assert f.vars == ("patient", "requestor")

    def test_nested_inverse_step(self):
        f = hl.parse("@patient <gp> <-referrer> requestor", ["patient", "requestor"])
        assert f.body == At("patient",
                            Diamond("gp", False,
                                    Diamond("referrer", True, Var("requestor"))))

    def test_unanchored_top_level_rejected(self):
        with pytest.raises(NotAnchored):
            hl.parse("<gp> requestor", ["requestor"])

    def test_boolean_combination_of_anchors_accepted(self):
        f = hl.parse("!@x y & (@y x | true)", ["x", "y"])
        assert isinstance(f.body, And)

    def test_precedence_and_binds_tighter_than_or(self):
        f = hl.parse("@x true | @x false & @x true", ["x"])
        assert isinstance(f.body, Or)
        assert isinstance(f.body.right, And)

    def test_unary_binds_tighter_than_and(self):
        f = hl.parse("!@x true & @x false", ["x"])
        assert isinstance(f.body, And)
        assert isinstance(f.body.left, Not)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(UnknownVariable):
            hl.parse("@patient <gp> requestor", ["patient"])

    @pytest.mark.parametrize("vars, body", [
        (("x",), At("y", Const(True))),
        (("x", "x"), Const(True)),
        (("x", "true"), At("x", Var("true"))),
        (("false",), Const(True)),
    ], ids=["undeclared", "duplicate", "named-true", "named-false"])
    def test_construction_checks_declared_variables(self, vars, body):
        with pytest.raises(UnknownVariable):
            Formula(vars, body)

    @pytest.mark.parametrize("text", [
        "@patient <gp requestor",
        "@ <gp> requestor",
        "(@patient requestor",
        "@patient <gp> requestor extra",
        "@patient <*> requestor",
        "",
        "@patient <-> requestor",
    ])
    def test_malformed_text_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            hl.parse(text, ["patient", "requestor"])

    def test_hyphenated_identifiers(self):
        f = hl.parse("@resource <family-doctor> requestor", ["resource", "requestor"])
        assert f.body == At("resource", Diamond("family-doctor", False, Var("requestor")))


class TestNestingLimit:
    def test_nesting_at_the_limit_parses(self):
        text = "!" * (hl.MAX_NESTING - 1) + "true"
        assert hl.unparse(hl.parse(text, [])) == text

    def test_one_level_past_the_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nests deeper"):
            hl.parse("!" * hl.MAX_NESTING + "true", [])

    @pytest.mark.parametrize("op", ["|", "&"])
    def test_each_chain_link_is_a_level(self, op):
        at_limit = f" {op} ".join(["true"] * hl.MAX_NESTING)
        assert hl.unparse(hl.parse(at_limit, [])) == at_limit
        with pytest.raises(ParseError, match="nests deeper"):
            hl.parse(f" {op} ".join(["true"] * (hl.MAX_NESTING + 1)), [])


class TestUnparse:
    def test_round_trip_is_identity_on_text(self):
        texts = [
            "@patient <gp> requestor",
            "@patient <gp> <-referrer> requestor",
            "@patient <gp> requestor | @patient <-agent> <gp> requestor",
            "@patient <register-ward> (requestor | <ward-nurse> requestor)",
            "!@x true & (@y x | @x y)",
        ]
        for text in texts:
            assert hl.unparse(hl.parse(text, ["patient", "requestor", "x", "y"])) == text

    def test_right_nested_disjunction_keeps_parens(self):
        f = Formula(("x",), Or(At("x", Const(True)),
                               Or(At("x", Const(False)), At("x", Var("x")))))
        text = hl.unparse(f)
        assert text == "@x true | (@x false | @x x)"
        assert hl.parse(text, ["x"]) == f


class TestEvaluate:
    def test_direct_edge_predicate(self):
        g = graph_of([("p", "gp", "d")])
        f = hl.parse("@patient <gp> requestor", ["patient", "requestor"])
        assert hl.evaluate(f, g, {"patient": "p", "requestor": "d"}) is True
        assert hl.evaluate(f, g, {"patient": "d", "requestor": "p"}) is False

    def test_two_step_path_with_inverse(self):
        g = graph_of([("p", "gp", "d"), ("s", "referrer", "d")])
        f = hl.parse("@patient <gp> <-referrer> requestor", ["patient", "requestor"])
        assert hl.evaluate(f, g, {"patient": "p", "requestor": "s"}) is True
        assert hl.evaluate(f, g, {"patient": "p", "requestor": "d"}) is False

    def test_variable_atom_holds_exactly_at_binding(self):
        g = graph_of([], vertices=["v", "w"], relations=["r"])
        f = hl.parse("@resource requestor", ["resource", "requestor"])
        assert hl.evaluate(f, g, {"resource": "v", "requestor": "v"}) is True
        assert hl.evaluate(f, g, {"resource": "v", "requestor": "w"}) is False

    def test_undeclared_relation_raises(self):
        g = graph_of([], vertices=["v"], relations=["r"])
        f = hl.parse("@x <mystery> x", ["x"])
        with pytest.raises(UnknownRelation):
            hl.evaluate(f, g, {"x": "v"})

    def test_partial_valuation_rejected(self):
        g = graph_of([], vertices=["v"], relations=["r"])
        f = hl.parse("@x x", ["x"])
        with pytest.raises(UnknownVariable):
            hl.evaluate(f, g, {})

    def test_unanchored_formula_rejected(self):
        # evaluate does not re-check anchoring: no unanchored Formula exists
        with pytest.raises(NotAnchored):
            Formula(("x",), Var("x"))

    def test_relationship_predicate_binds_by_position(self):
        g = graph_of([("p", "gp", "d")])
        f = hl.parse("@patient <gp> requestor", ["patient", "requestor"])
        assert hl.relationship_predicate(f, g, "p", "d") is True
        assert hl.relationship_predicate(f, g, "d", "p") is False

    def test_relationship_predicate_arity(self):
        f = hl.parse("@x x", ["x"])
        with pytest.raises(ArityMismatch):
            hl.relationship_predicate(f, graph_of([], ["v"], ["r"]), "v", "v")

    def test_termination_on_cycles(self):
        g = graph_of([("a", "r", "b"), ("b", "r", "a"), ("a", "r", "a")])
        f = hl.parse("@x <r> <r> <r> <r> <r> y", ["x", "y"])
        assert hl.evaluate(f, g, {"x": "a", "y": "b"}) in (True, False)


class TestOracleAgreement:
    def test_seeded_bulk_agreement(self):
        rng = random.Random(97)
        for case in range(2_000):
            if case % 25 == 0:
                g, vertices, relations = random_graph(rng)
            f = random_formula(rng, relations, depth=5)
            valuation = random_valuation(rng, f.vars, vertices)
            assert hl.evaluate(f, g, valuation) == brute_force_evaluate(g=g, formula=f, valuation=valuation), \
                f"disagreement on {hl.unparse(f)} under {valuation}"

    def test_double_negation_and_true_identity(self):
        rng = random.Random(31)
        for case in range(300):
            if case % 20 == 0:
                g, vertices, relations = random_graph(rng)
            f = random_formula(rng, relations, depth=4)
            valuation = random_valuation(rng, f.vars, vertices)
            base = hl.evaluate(f, g, valuation)
            assert hl.evaluate(Formula(f.vars, Not(Not(f.body))), g, valuation) == base
            assert hl.evaluate(Formula(f.vars, And(f.body, Const(True))), g, valuation) == base

    def test_positive_fragment_monotone_under_edge_addition(self):
        rng = random.Random(53)
        for case in range(400):
            g, vertices, relations = random_graph(rng, max_vertices=6, density=0.1)
            f = random_formula(rng, relations, depth=4, positive=True)
            valuation = random_valuation(rng, f.vars, vertices)
            before = hl.evaluate(f, g, valuation)
            s, rel, d = rng.choice(vertices), rng.choice(relations), rng.choice(vertices)
            if g.has_edge(s, rel, d):
                continue
            with g.write():
                g.add_edge(s, rel, d)
            after = hl.evaluate(f, g, valuation)
            if before:
                assert after, f"adding ({s},{rel},{d}) flipped {hl.unparse(f)} to false"


# hypothesis cross-check with full shrinking on a compact domain

_VERTICES = ("u", "v", "w", "x")
_RELS = ("r0", "r1")
_VARS = ("a", "b")


def _nodes(depth):
    leaf = st.one_of(
        st.builds(Var, st.sampled_from(_VARS)),
        st.builds(Const, st.booleans()),
    )
    if depth == 0:
        return leaf
    sub = _nodes(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Diamond, st.sampled_from(_RELS), st.booleans(), sub),
    )


def _anchored(depth):
    base = st.one_of(
        st.builds(At, st.sampled_from(_VARS), _nodes(depth - 1)),
        st.builds(Const, st.booleans()),
    )
    if depth <= 1:
        return base
    sub = _anchored(depth - 1)
    return st.one_of(base, st.builds(Not, sub), st.builds(And, sub, sub),
                     st.builds(Or, sub, sub))


@given(
    edges=st.sets(st.tuples(st.sampled_from(_VERTICES), st.sampled_from(_RELS),
                            st.sampled_from(_VERTICES)), max_size=16),
    body=_anchored(4),
    binding=st.fixed_dictionaries({v: st.sampled_from(_VERTICES) for v in _VARS}),
)
@settings(max_examples=400, deadline=None)
def test_checker_matches_satisfaction_sets(edges, body, binding):
    g = graph_of(edges, vertices=list(_VERTICES), relations=list(_RELS))
    f = Formula(_VARS, body)
    assert hl.evaluate(f, g, binding) == brute_force_evaluate(f, g, binding)


@given(body=_anchored(4))
@settings(max_examples=300, deadline=None)
def test_parse_unparse_structural_identity(body):
    f = Formula(_VARS, body)
    assert hl.parse(hl.unparse(f), list(_VARS)) == f
