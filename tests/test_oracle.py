"""Brute-force oracle tests, cross-checked against a second, independent
exhaustive enumeration (cartesian product over edge multiplicities)."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import helpers
from matchcore.caps import CapExceededError, EnumerationCaps
from matchcore.games import GameKind, make_instance
from matchcore.oracle import (
    ClassLabel,
    InfeasibleInstanceError,
    classify_player,
    classify_team,
    enumerate_optima,
    is_degenerate,
    max_weight,
    worth,
)

F = Fraction


def as_key_set(matching):
    return frozenset(matching.entries)


def test_skewed_capacities_worth():
    value, witness = max_weight(helpers.two_team_b_matching())
    assert value == 4
    assert witness.weight(helpers.two_team_b_matching()) == 4


def test_mixed_bounds_worth_ten():
    value, witness = max_weight(helpers.hk_mixed_bounds())
    assert value == 10
    assert witness.multiplicity(("u", "v1")) == 1
    assert witness.multiplicity(("u", "v2")) == 3


def test_seven_ring_worth_and_optima():
    g = helpers.seven_ring()
    value, _ = max_weight(g)
    assert value == 4
    optima = enumerate_optima(g)
    assert len(optima) == 3
    assert all(m.contains(("v2", "v7")) for m in optima)
    rests = {frozenset(m.keys) - {("v2", "v7")} for m in optima}
    assert rests == {
        frozenset({("v1", "v6"), ("v4", "v5")}),
        frozenset({("v1", "v6"), ("v3", "v4")}),
        frozenset({("v3", "v4"), ("v5", "v6")}),
    }


def test_triangle_pendant_unique_optimum():
    g = helpers.triangle_pendant()
    optima = enumerate_optima(g)
    assert len(optima) == 1
    assert frozenset(optima[0].keys) == {("v1", "v4"), ("v2", "v3")}
    assert optima[0].weight(g) == 2


def test_single_edge_unique_optimum():
    g = helpers.single_edge()
    assert len(enumerate_optima(g)) == 1
    assert not is_degenerate(g)


def test_worth_examples():
    assert worth(helpers.unit_triangle(), {"i", "j"}) == 1
    assert worth(helpers.unit_triangle(), set()) == 0
    assert worth(helpers.two_team_uniform(2), {"u", "v2"}) == 6


def test_classify_players():
    ring = helpers.seven_ring()
    assert classify_player(ring, "v2") is ClassLabel.ESSENTIAL
    assert classify_player(ring, "v7") is ClassLabel.ESSENTIAL
    assert classify_player(ring, "v1") is ClassLabel.VIABLE
    pendant = helpers.triangle_pendant()
    assert classify_player(pendant, "v4") is ClassLabel.ESSENTIAL
    # A vertex that no optimum ever touches is subpar.
    g = make_instance(GameKind.ASSIGNMENT, ["a", "c"], ["b"],
                      [("a", "b", 5), ("c", "b", 1)])
    assert classify_player(g, "c") is ClassLabel.SUBPAR


def test_classify_teams():
    ring = helpers.seven_ring()
    assert classify_team(ring, ("v2", "v7")) is ClassLabel.ESSENTIAL
    assert classify_team(ring, ("v4", "v7")) is ClassLabel.SUBPAR
    assert classify_team(ring, ("v4", "v5")) is ClassLabel.VIABLE
    assert classify_team(ring, ("v3", "v7")) is ClassLabel.SUBPAR
    with pytest.raises(ValueError):
        classify_team(ring, ("v1", "v3"))


def test_degeneracy():
    assert is_degenerate(helpers.seven_ring())
    assert not is_degenerate(helpers.triangle_pendant())


def test_saturation_semantics_for_multi_matching():
    # Capacity-2 agent matched only once in the unique optimum counts as
    # not saturated, hence not essential.
    g = make_instance(GameKind.B_MATCHING, ["a"], ["b"],
                      [("a", "b", 2)], capacities={"a": 2, "b": 1})
    assert classify_player(g, "b") is ClassLabel.ESSENTIAL
    assert classify_player(g, "a") is ClassLabel.SUBPAR
    assert classify_team(g, ("a", "b")) is ClassLabel.ESSENTIAL


def test_infeasible_lower_bounds_raise():
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a"], ["b"],
                      [("a", "b", 1, 3, None)], capacities={"a": 2, "b": 2})
    with pytest.raises(InfeasibleInstanceError):
        max_weight(g)


def test_cap_exceeded_is_a_clean_refusal():
    g = helpers.seven_ring()
    with pytest.raises(CapExceededError):
        max_weight(g, EnumerationCaps(max_vertices=3))
    with pytest.raises(CapExceededError):
        max_weight(g, EnumerationCaps(max_edges=4))


def test_agreement_with_naive_enumeration():
    # Each game runs twice: as drawn, and with every weight divided by a
    # seeded integer from 1 to 6, so the search's integer scaling meets
    # mixed denominators. The naive oracle computes in Fraction.
    rng = random.Random(2024)
    divisors = random.Random(4202)
    fractional = set()
    for trial in range(150):
        kind = rng.choice(helpers.ALL_BIPARTITE + (GameKind.GENERAL,))
        g = (helpers.random_general(rng, max_vertices=5, max_edges=7)
             if kind is GameKind.GENERAL
             else helpers.random_bipartite(rng, kind, max_side=3, max_edges=6))
        divided = replace(g, edges=tuple(
            replace(e, weight=e.weight / divisors.randint(1, 6)) for e in g.edges))
        if any(e.weight.denominator > 1 for e in divided.edges):
            fractional.add(kind)
        for game in (g, divided):
            naive_best, naive_set = helpers.naive_optima(game)
            value, _ = max_weight(game)
            optima = enumerate_optima(game)
            assert value == naive_best
            assert {frozenset(m.entries) for m in optima} == naive_set
            assert all(m.weight(game) == value for m in optima)
    assert fractional == set(helpers.ALL_BIPARTITE + (GameKind.GENERAL,))


def test_enumeration_is_deterministic():
    g = helpers.seven_ring()
    a = enumerate_optima(g)
    b = enumerate_optima(helpers.seven_ring())
    assert a == b
