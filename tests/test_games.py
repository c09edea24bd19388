"""Game model: restriction, validation, imputation plumbing."""

import random
from fractions import Fraction

import pytest

import helpers
from matchcore.games import (
    GameKind,
    make_imputation,
    make_instance,
    restrict,
    validate,
)

F = Fraction


def test_restrict_to_all_agents_is_identity():
    g = helpers.two_team_b_matching()
    assert restrict(g, g.agents) == g


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
