"""Instance file grammar: parsing, rendering, round trips, errors."""

import random
from fractions import Fraction

import pytest

import helpers
from matchcore.fixtures import fixture_by_name
from matchcore.games import GameKind
from matchcore.instance_io import (
    InstanceError,
    parse_instance,
    parse_instance_with_imputation,
    render_instance,
)

F = Fraction

THREE_AGENT = fixture_by_name("three_agent_b_matching").text


def test_parse_three_agent_file():
    g = parse_instance(THREE_AGENT)
    assert g.kind is GameKind.B_MATCHING
    assert g.agents == ("u", "v1", "v2")
    assert [e.weight for e in g.edges] == [1, 3]
    assert g.capacity("u") == 2 and g.capacity("v2") == 1


def test_rational_and_decimal_weights_parse_exactly():
    text = ("game general\nvertices a b c\n"
            "edge a b weight 3/2\nedge b c weight 1.5\n")
    g = parse_instance(text)
    assert g.edges[0].weight == F(3, 2)
    assert g.edges[1].weight == F(3, 2)


def test_empty_edge_list_is_valid():
    g = parse_instance("game assignment\nside_u a\nside_v b\n")
    assert g.edges == ()


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\ngame general  # trailing\nvertices a b\nedge a b weight 2\n"
    g = parse_instance(text)
    assert g.agents == ("a", "b")


def test_imputation_line_parsed():
    text = THREE_AGENT + "imputation u=4 v1=0 v2=0\n"
    g, payoffs = parse_instance_with_imputation(text)
    assert payoffs == {"u": F(4), "v1": F(0), "v2": F(0)}
    assert g.agents == ("u", "v1", "v2")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceError) as err:
        parse_instance("game assignment\nside_u a\nside_v b\nedge a b weight x\n")
    assert err.value.line == 4
    with pytest.raises(InstanceError) as err:
        parse_instance("game nope\n")
    assert err.value.line == 1
    with pytest.raises(InstanceError) as err:
        parse_instance("game general\nvertices a b\nfrobnicate a\n")
    assert err.value.line == 3


def test_repeated_or_unknown_names_are_refused():
    with pytest.raises(InstanceError, match="capacity for unknown agent 'ghost'"):
        parse_instance(THREE_AGENT + "b ghost 5\n")
    with pytest.raises(InstanceError, match="second b line for 'v1'") as err:
        parse_instance(THREE_AGENT.replace("b v2 1\n", "b v2 1\nb v1 3\n"))
    assert err.value.line == THREE_AGENT.splitlines().index("b v2 1") + 2
    with pytest.raises(InstanceError, match="second payoff for 'u'") as err:
        parse_instance_with_imputation(THREE_AGENT + "imputation u=4 v1=0\n"
                                       "imputation v2=0 u=1\n")
    assert err.value.line == len(THREE_AGENT.splitlines()) + 2


def test_missing_game_directive():
    with pytest.raises(InstanceError):
        parse_instance("side_u a\nside_v b\n")


def test_validation_failures_are_reported():
    with pytest.raises(InstanceError) as err:
        parse_instance("game assignment\nside_u a\nside_v b\nedge a b weight 0\n")
    assert "non-positive weight" in str(err.value)
    with pytest.raises(InstanceError) as err:
        parse_instance("game assignment\nside_u a\nside_v b\n"
                       "edge a b weight 1 lower 1\n")
    assert "bounds only apply" in str(err.value)


def test_wrong_section_for_kind():
    with pytest.raises(InstanceError):
        parse_instance("game general\nside_u a\nside_v b\n")
    with pytest.raises(InstanceError):
        parse_instance("game assignment\nvertices a b\n")
    with pytest.raises(InstanceError):
        parse_instance("game assignment\nside_u a\nside_v b\nb_const 2\n")
    with pytest.raises(InstanceError):
        parse_instance("game assignment\nside_u a\nside_v b\nb a 2\n")


def test_round_trip_fixtures_and_random_instances():
    rng = random.Random(3)
    candidates = [helpers.two_team_b_matching(), helpers.hk_mixed_bounds(),
                  helpers.hk_edge_upper(), helpers.hk_edge_lower(),
                  helpers.seven_ring(), helpers.triangle_pendant(),
                  helpers.unit_triangle(), helpers.two_team_uniform(2)]
    for _ in range(40):
        kind = rng.choice(helpers.ALL_BIPARTITE + (GameKind.GENERAL,))
        candidates.append(helpers.random_general(rng) if kind is GameKind.GENERAL
                          else helpers.random_bipartite(rng, kind))
    for g in candidates:
        assert parse_instance(render_instance(g)) == g


def test_round_trip_preserves_imputation():
    payoffs = {"u": F(7, 3), "v1": F(0), "v2": F(5, 3)}
    text = render_instance(helpers.two_team_b_matching(), payoffs)
    _, back = parse_instance_with_imputation(text)
    assert back == payoffs
