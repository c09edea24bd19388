"""Instance file grammar: parsing, rendering, round trips, errors."""

import hashlib
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
from matchcore.rationals import parse_rational

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
    # A second game or b_const line, or a bound repeated on one edge line,
    # would otherwise let the last value win silently.
    hk = "game hoffman_kruskal\nside_u a\nside_v b\nb a 2\nb b 2\n"
    for text, message, line in (
            ("game assignment\ngame general\nvertices a b\n", "second game line", 2),
            ("game uniform_b\nside_u a\nside_v b\nb_const 2\nb_const 5\n"
             "edge a b weight 1\n", "second b_const line", 5),
            (hk + "edge a b weight 1 upper 1 upper 3\n", "second upper on one edge line", 6),
            (hk + "edge a b weight 1 lower 0 upper 2 lower 1\n",
             "second lower on one edge line", 6)):
        with pytest.raises(InstanceError, match=message) as err:
            parse_instance(text)
        assert err.value.line == line


def test_numbers_are_a_sign_and_ascii_digits():
    # int() and Fraction() take "_" separators and other scripts' digits;
    # the grammar takes neither, so each is refused with its line number.
    head = "game b_matching\nside_u a\nside_v b\n"
    for body, token, line in (
            ("b a 1\nb b 1\nedge a b weight 1_000\n", "1_000", 6),
            ("b a 1_0\nb b 1\nedge a b weight 1\n", "1_0", 4),
            ("b a 1\nb b \u0662\nedge a b weight 1\n", "\u0662", 5),
            ("b a 1\nb b 1\nedge a b weight 1\nimputation a=1_0 b=0\n", "1_0", 7)):
        with pytest.raises(InstanceError, match=repr(token)) as err:
            parse_instance_with_imputation(head + body)
        assert err.value.line == line
    g, payoffs = parse_instance_with_imputation(
        head + "b a +2\nb b 1\nedge a b weight .5\nimputation a=1. b=-0/3\n")
    assert g.capacity("a") == 2 and g.edges[0].weight == F(1, 2)
    assert payoffs == {"a": 1, "b": 0}


@pytest.mark.parametrize("name", sorted(helpers.MALFORMED_FILES))
def test_each_malformed_line_is_refused_with_its_message(name):
    text, message = helpers.MALFORMED_FILES[name]
    with pytest.raises(InstanceError) as err:
        parse_instance_with_imputation(text)
    assert str(err.value) == message


def test_a_zero_denominator_is_not_a_rational():
    with pytest.raises(ValueError, match="not a rational literal: '1/0'"):
        parse_rational("1/0")
    assert parse_rational("0/1") == 0


def test_an_unknown_fixture_name_is_a_key_error():
    with pytest.raises(KeyError, match="no_such_fixture"):
        fixture_by_name("no_such_fixture")


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


# SHA-256 of each cap-set game as rendered; the cap-set figures recorded
# for earlier changes are comparable only while these files stay the same.
CAP_SET_SHA256 = {
    ("assignment", 0): "cf3e7cae270c9e2a1ee75b2a99d8a83486e950e30a09807a62730bb1bb6b73fe",
    ("assignment", 1): "a5682366e5d0007f5e3afad32e7cf648b00ccfe63d792c1351ea41d87ee5deff",
    ("assignment", 2): "3457e42b798d1bc0f74e6dfcade05760c8477cf96c100469f498f5e0c5121097",
    ("uniform_b", 0): "d8ba860faf4a223a48d8029c478ad7d5d8ec7a8b9689020f1dc5d714b09b7f2e",
    ("uniform_b", 1): "455a7d37019fa0d0ef8494d1f15539379333856eb660691a884bd7439223e482",
    ("uniform_b", 2): "c6e7279a4675dc16fde4b2cb878e74a0ebf4da8df846ba85666983fbafb08dea",
    ("b_matching", 0): "7703d3f31e094ab786d92c50b9a78374625b6b6a79d61e52ef8705414794a3d8",
    ("b_matching", 1): "51c86443a8f0f974c524259d00ebdc0eb75896a0ec3fbe7fced5c8f564e2e06f",
    ("b_matching", 2): "1a59934c032cc18aa48a08c6c7a8b3d5dbe06c3987e54558d8a5b498ed47c330",
    ("hoffman_kruskal", 0): "bbdf540fa79e1e43e6687d3421fcf7b942f20eee1b80c9a9fe7042510c2e9bec",
    ("hoffman_kruskal", 1): "4eeb7bc76ceb347dfb69b08a3ebb5eae37f3eecf92451b75e701d68d9514e2dd",
    ("hoffman_kruskal", 2): "e2f679a2eee75a7c5cbbc837c420f290fdfdfb3e078796b08221be8525a8c8af",
    ("general", 0): "9fdc6700439571cb9805910385a623093613816af0a135e35542e0a4e2d4bb5d",
    ("general", 1): "25d8205b5c9a378d5812e38c18f39e4fc0912bc4d42df1c4b87103610c92bf7e",
    ("general", 2): "b8ca1398e164beaa1bff97430732b625a6931f27cbcb1115401609ff0b7f2158",
}


def test_the_cap_set_renders_to_its_pinned_files():
    rendered = {(kind, s): hashlib.sha256(render_instance(g).encode()).hexdigest()
                for kind, s, g in helpers.cap_set()}
    assert rendered == CAP_SET_SHA256


def test_round_trip_preserves_imputation():
    payoffs = {"u": F(7, 3), "v1": F(0), "v2": F(5, 3)}
    text = render_instance(helpers.two_team_b_matching(), payoffs)
    _, back = parse_instance_with_imputation(text)
    assert back == payoffs
