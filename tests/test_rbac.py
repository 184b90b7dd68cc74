from hypothesis import given, settings
from hypothesis import strategies as st

from rebac.engine import AccessRequest, EngineConfig, check
from rebac.graph import AuthorizationGraph
from rebac.policy import Guard, PolicyStore
from rebac.rbac import RbacTables, rbac_privileges


def tables(pa, ua):
    return RbacTables(
        roles=frozenset(pa),
        privilege_assignment={r: frozenset(ps) for r, ps in pa.items()},
        user_assignment={u: frozenset(rs) for u, rs in ua.items()},
    )


ROLE_GRAPH = AuthorizationGraph()
with ROLE_GRAPH.write():
    ROLE_GRAPH.add_vertex("rec", "resource")
    ROLE_GRAPH.add_vertex("u", "user")
    ROLE_GRAPH.add_vertex("stranger", "user")


def role_check(t, user, guard):
    """The role check: ``engine.check`` in rbac-only mode."""
    return check(PolicyStore(), ROLE_GRAPH, t, AccessRequest("rec", user, guard),
                 EngineConfig(mode="rbac-only"))


def test_single_role_privileges():
    t = tables({"r1": {"p1", "p2"}}, {"u": {"r1"}})
    assert rbac_privileges(t, "u") == {"p1", "p2"}


def test_unknown_user_has_no_privileges():
    t = tables({"r1": {"p1"}}, {})
    assert rbac_privileges(t, "stranger") == frozenset()


def test_privileges_union_across_roles():
    t = tables({"r1": {"p1"}, "r2": {"p1", "p3"}}, {"u": {"r1", "r2"}})
    assert rbac_privileges(t, "u") == {"p1", "p3"}


def test_check_composes_with_guards():
    t = tables({"r1": {"p1", "p2"}}, {"u": {"r1"}})
    assert role_check(t, "u", Guard.one_of("p2", "p9")).allow
    assert role_check(t, "u", Guard.all_of("p1", "p2")).allow
    assert not role_check(t, "u", Guard.all_of("p1", "p9")).allow
    assert not role_check(t, "stranger", Guard.one_of("p1")).allow


@given(
    assignments=st.dictionaries(st.sampled_from("rstu"),
                                st.frozensets(st.sampled_from("abcdef")), max_size=4),
    user_roles=st.frozensets(st.sampled_from("rstu"), max_size=4),
    new_role=st.sampled_from("rstu"),
    privileges=st.frozensets(st.sampled_from("abcdef"), min_size=1, max_size=3),
    kind=st.sampled_from(["one-of", "all-of"]),
)
@settings(max_examples=300, deadline=None)
def test_check_monotone_in_role_assignment(assignments, user_roles, new_role,
                                           privileges, kind):
    t = tables(assignments, {"u": user_roles})
    bigger = tables(assignments, {"u": user_roles | {new_role}})
    guard = Guard(kind, privileges)
    if role_check(t, "u", guard).allow:
        assert role_check(bigger, "u", guard).allow
