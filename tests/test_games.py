"""Game model: restriction, validation, imputation plumbing."""

import pickle
import random
from fractions import Fraction

import pytest

import helpers
from matchcore.formulations import build_dual
from matchcore.games import (
    Edge,
    GameKind,
    make_imputation,
    make_instance,
    restrict,
    validate,
)
from matchcore.instance_io import InstanceError, parse_instance, render_instance

F = Fraction


def test_restrict_to_all_agents_is_identity():
    g = helpers.two_team_b_matching()
    assert restrict(g, g.agents) == g


def test_equal_edges_and_instances_hash_equal():
    # Edge hashes its weight as (numerator, denominator): an int weight and
    # the equal Fraction give equal edges with equal hashes, and so do the
    # instances built from them and their restrict copies.
    assert Edge("a", "b", 2) == Edge("a", "b", Fraction(2))
    assert hash(Edge("a", "b", 2)) == hash(Edge("a", "b", Fraction(2)))
    assert Edge("a", "b", F(1, 2)) != Edge("a", "b", F(1, 3))
    assert Edge("a", "b", 1, 0, 2) != Edge("a", "b", 1, 0, None)
    rng = random.Random(2303)
    for _ in range(80):
        kind = rng.choice(helpers.ALL_BIPARTITE)
        g = helpers.random_bipartite(rng, kind)
        as_ints = make_instance(kind, g.side_u, g.side_v,
                                [Edge(e.u, e.v, int(e.weight), e.lower, e.upper)
                                 for e in g.edges],
                                g.capacities, g.uniform_capacity)
        assert all(type(e.weight) is int for e in as_ints.edges)
        assert as_ints == g and hash(as_ints) == hash(g)
        members = rng.sample(g.agents, rng.randint(0, len(g.agents)))
        sub, again = restrict(g, members), restrict(as_ints, members)
        assert sub == again and hash(sub) == hash(again)
        assert restrict(g, g.agents) == g and hash(restrict(g, g.agents)) == hash(g)
        assert all(hash(e) == hash(Edge(e.u, e.v, e.weight, e.lower, e.upper))
                   for e in sub.edges)


def test_an_instance_is_hashed_once_and_a_copy_hashes_afresh(monkeypatch):
    # The fields are hashed on the first hash() alone; later ones read the
    # kept value. A pickled copy leaves it behind, since a string hashes
    # differently in another process, and hashes its fields again.
    g = helpers.random_bipartite(random.Random(2511), GameKind.B_MATCHING)
    hashed = []
    original = Edge.__hash__
    monkeypatch.setattr(Edge, "__hash__", lambda e: hashed.append(e) or original(e))
    first = hash(g)
    assert hash(g) == first and len(hashed) == len(g.edges) > 0
    copy = pickle.loads(pickle.dumps(g))
    assert "_hash" not in vars(copy) and copy == g
    assert hash(copy) == first and len(hashed) == 2 * len(g.edges)


def test_restrict_induced_subgraph():
    g = helpers.two_team_b_matching()
    sub = restrict(g, {"u", "v2"})
    assert sub.agents == ("u", "v2")
    assert [e.key for e in sub.edges] == [("u", "v2")]
    assert sub.edges[0].weight == 3
    assert sub.kind is GameKind.B_MATCHING
    assert sub.capacity("u") == 2 and sub.capacity("v2") == 1


def test_restrict_unit_triangle_pair():
    g = helpers.unit_triangle()
    sub = restrict(g, {"i", "j"})
    assert [e.key for e in sub.edges] == [("i", "j")]
    assert sub.edges[0].weight == 1


def test_restrict_idempotent_and_commutes_with_intersection():
    rng = random.Random(5)
    for _ in range(60):
        kind = rng.choice(helpers.ALL_BIPARTITE + (GameKind.GENERAL,))
        g = (helpers.random_general(rng) if kind is GameKind.GENERAL
             else helpers.random_bipartite(rng, kind))
        agents = list(g.agents)
        s = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        t = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        assert restrict(restrict(g, s), s) == restrict(g, s)
        assert restrict(restrict(g, s), s & t) == restrict(g, s & t)
        assert restrict(restrict(g, s), s & t) == restrict(restrict(g, t), s & t)


def test_restrict_rejects_unknown_agents():
    with pytest.raises(ValueError):
        restrict(helpers.unit_triangle(), {"nope"})


def test_validate_well_formed_instances():
    for g in (helpers.seven_ring(), helpers.two_team_b_matching(),
              helpers.hk_mixed_bounds(), helpers.hk_edge_upper(),
              helpers.hk_edge_lower(), helpers.unit_triangle()):
        assert validate(g) == []


def test_validate_flags_nonpositive_weight():
    g = make_instance(GameKind.ASSIGNMENT, ["a"], ["b"], [("a", "b", 0)])
    assert any("non-positive weight" in v for v in validate(g))


def test_validate_flags_bipartite_violation_and_duplicates():
    g = make_instance(GameKind.ASSIGNMENT, ["a", "c"], ["b"],
                      [("a", "c", 1)])
    assert any("bipartition" in v for v in validate(g))
    g2 = make_instance(GameKind.GENERAL, ["a", "b"], [],
                       [("a", "b", 1), ("b", "a", 2)])
    assert any("parallel" in v for v in validate(g2))


def test_validate_flags_capacities_for_unknown_agents():
    g = make_instance(GameKind.B_MATCHING, ["a"], ["b"], [("a", "b", 1)],
                      capacities=[("a", 1), ("b", 1), ("ghost", 5)])
    assert validate(g) == ["capacity for unknown agent 'ghost'"]
    g = make_instance(GameKind.ASSIGNMENT, ["a"], ["b"], [("a", "b", 1)],
                      capacities={"ghost": 5})
    assert validate(g) == ["capacity for unknown agent 'ghost'"]


@pytest.mark.parametrize("kind", [GameKind.B_MATCHING, GameKind.ASSIGNMENT],
                         ids=lambda kind: kind.value)
def test_validate_reports_a_capacity_keyed_by_an_unhashable_name(kind):
    # A capacity names its agent; a name that is not a string is reported
    # as such, as for the agents themselves, even when it cannot be hashed.
    g = make_instance(kind, ["a"], ["b"], [("a", "b", 1)],
                      capacities=[(["a"], 1), ("a", 1), ("b", 1)])
    assert validate(g) == ["agent name ['a'] is not a string"]


def test_validate_flags_a_capacity_listed_twice_as_the_parser_does():
    # The file format allows one b line per agent; an instance built
    # through the API with two must be refused before it can be rendered
    # into a file that the parser would refuse.
    twice = make_instance(GameKind.B_MATCHING, ["a"], ["b"], [("a", "b", 1)],
                          capacities=[("a", 1), ("b", 1), ("a", 3)])
    assert validate(twice) == ["capacity for 'a' listed 2 times"]
    with pytest.raises(InstanceError, match="second b line for 'a'"):
        parse_instance(render_instance(twice))
    once = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a"], ["b"], [("a", "b", 1, 1, 2)],
                         capacities=[("b", 1), ("a", 3)])
    assert validate(once) == []
    assert parse_instance(render_instance(once)) == once


@pytest.mark.parametrize("kind", list(GameKind), ids=lambda kind: kind.value)
def test_validate_flags_capacity_data_the_kind_does_not_use(kind):
    # The parser refuses b lines outside b_matching and hoffman_kruskal,
    # and the renderer writes b_const for uniform_b alone; an API-built
    # instance carrying the other kinds' data must be refused likewise.
    sides = (["a", "b"], []) if kind is GameKind.GENERAL else (["a"], ["b"])
    used = {GameKind.UNIFORM_B: {"uniform_capacity": 2},
            GameKind.B_MATCHING: {"capacities": {"a": 2, "b": 1}},
            GameKind.HOFFMAN_KRUSKAL: {"capacities": {"a": 2, "b": 1}}}.get(kind, {})
    clean = make_instance(kind, *sides, [("a", "b", 1)], **used)
    assert validate(clean) == []
    assert parse_instance(render_instance(clean)) == clean
    if "capacities" in used:
        stray = {"uniform_capacity": 3}
        message = "a uniform capacity only applies to uniform_b instances"
    else:
        stray = {"capacities": {"a": 3, "b": 1}}
        message = ("per-vertex capacities only apply to b_matching and "
                   "hoffman_kruskal instances")
    g = make_instance(kind, *sides, [("a", "b", 1)], **{**used, **stray})
    assert validate(g) == [message]
    try:
        back = parse_instance(render_instance(g))
    except InstanceError as exc:
        assert "only apply to" in str(exc)
    else:
        assert back == clean != g


@pytest.mark.parametrize("kind, sides, edges, data", [
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": 2.7, "b": 1}}),
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": True, "b": 1}}),
    ("uniform_b", (["a"], ["b"]), [("a", "b", 1)], {"uniform_capacity": 2.5}),
    ("hoffman_kruskal", (["a"], ["b"]), [("a", "b", 1, 0, 2.5)],
     {"capacities": {"a": 3, "b": 3}}),
    ("assignment", (["a"], ["b"]), [("a", "b", 1, 0.0, None)], {}),
    ("assignment", ([1], [2]), [(1, 2, 1)], {}),
    ("assignment", (["a"], ["b"]), [Edge("a", "b", 0.5)], {}),
], ids=["float-capacity", "bool-capacity", "float-uniform-capacity",
        "float-upper-bound", "float-lower-bound", "int-agent-names",
        "float-weight-in-an-edge-object"])
def test_validate_reports_data_of_the_wrong_type(kind, sides, edges, data):
    # make_instance stores the data as given; validate alone judges it,
    # and reports each of these rather than letting it through or raising.
    g = make_instance(kind, *sides, edges, **data)
    assert dict(g.capacities) == data.get("capacities", {})
    assert validate(g) != []


def test_validate_flags_infeasible_lower_bounds_by_lp():
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a"], ["b"],
                      [("a", "b", 1, 3, None)],
                      capacities={"a": 2, "b": 2})
    assert "lower bounds infeasible" in validate(g)


def test_validate_flags_bounds_on_wrong_kind():
    g = make_instance(GameKind.B_MATCHING, ["a"], ["b"],
                      [("a", "b", 1, 1, 2)], capacities={"a": 1, "b": 1})
    assert any("bounds only apply" in v for v in validate(g))


def test_restriction_preserves_validity_up_to_lower_bounds():
    rng = random.Random(17)
    for _ in range(60):
        kind = rng.choice(helpers.ALL_BIPARTITE)
        g = helpers.random_bipartite(rng, kind)
        assert validate(g) == []
        agents = list(g.agents)
        s = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        new = set(validate(restrict(g, s)))
        assert new <= {"lower bounds infeasible"}


def test_make_imputation_fills_zero_and_rejects_bad_input():
    g = helpers.two_team_b_matching()
    imp = make_imputation(g, {"u": F(4)})
    assert imp["u"] == 4 and imp["v1"] == 0 and imp["v2"] == 0
    assert imp.total == 4
    with pytest.raises(ValueError):
        make_imputation(g, {"nope": 1})
    with pytest.raises(ValueError):
        make_imputation(g, {"u": -1})
    with pytest.raises(TypeError):
        make_imputation(g, {"u": 0.5})


def test_validate_rejects_names_that_clash_with_program_variables():
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["u,1"], ["v[2]"],
                      [("u,1", "v[2]", 1)], capacities={"u,1": 1, "v[2]": 1})
    problems = validate(g)
    assert any("'u,1'" in v for v in problems)
    assert any("'v[2]'" in v for v in problems)
    # The stopgap keeps LP column names unique: with commas in names,
    # two edges can name the same lower-bound dual.
    clash = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a,b", "a"], ["c", "b,c"],
                          [("a,b", "c", 1), ("a", "b,c", 1)],
                          capacities={"a,b": 1, "a": 1, "c": 1, "b,c": 1})
    assert validate(clash) != []
    with pytest.raises(ValueError, match="variable names must be unique"):
        build_dual(clash)
