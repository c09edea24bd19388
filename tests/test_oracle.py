"""Brute-force oracle tests, cross-checked against a second, independent
exhaustive enumeration (cartesian product over edge multiplicities)."""

import random
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

import helpers
from matchcore import oracle as oracle_module
from matchcore.analysis import (
    _session,
    core_nonempty,
    dual_to_imputation,
    is_core_imputation,
    optimal_dual,
    primal_optimum,
    sample_core_vertices,
    verify_complementarity,
)
from matchcore.caps import CapExceededError
from matchcore.formulations import build_odd_set_primal
from matchcore.games import GameKind, InstanceError, make_imputation, make_instance, validate
from matchcore.oracle import (
    ClassLabel,
    classify_player,
    classify_team,
    enumerate_optima,
    is_degenerate,
    max_weight,
    optimal_weight,
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
    rests = {frozenset(k for k, _ in m.entries) - {("v2", "v7")} for m in optima}
    assert rests == {
        frozenset({("v1", "v6"), ("v4", "v5")}),
        frozenset({("v1", "v6"), ("v3", "v4")}),
        frozenset({("v3", "v4"), ("v5", "v6")}),
    }


def test_triangle_pendant_unique_optimum():
    g = helpers.triangle_pendant()
    optima = enumerate_optima(g)
    assert len(optima) == 1
    assert frozenset(k for k, _ in optima[0].entries) == {("v1", "v4"), ("v2", "v3")}
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


@pytest.mark.parametrize("g", [helpers.seven_ring(), helpers.two_team_b_matching(),
                               make_instance(GameKind.ASSIGNMENT, ["a"], ["b"], [("a", "b", 5)])],
                         ids=lambda g: g.kind.value)
def test_classifying_an_unknown_agent_or_edge_is_refused(g):
    with pytest.raises(ValueError, match="no agent 'nobody'"):
        classify_player(g, "nobody")
    with pytest.raises(ValueError, match="no edge"):
        classify_team(g, ("nobody", g.agents[0]))


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
    # Floors no matching meets are refused when the game is built, so no
    # search ever meets them.
    with pytest.raises(InstanceError, match="^lower bounds infeasible$"):
        make_instance(GameKind.HOFFMAN_KRUSKAL, ["a"], ["b"],
                      [("a", "b", 1, 3, None)], capacities={"a": 2, "b": 2})


def test_the_walk_refuses_floors_no_matching_meets():
    # Edge bounds belong to hoffman_kruskal: two floors on a general game
    # that share a vertex of capacity one, which no matching meets, are
    # refused when the game is built, so the walk never meets them.
    with pytest.raises(InstanceError) as err:
        make_instance(GameKind.GENERAL, ["a", "b", "c"], (),
                      [("a", "b", 1, 1, None), ("b", "c", 1, 1, None)])
    assert str(err.value) == "; ".join(
        f"edge multiplicity bounds only apply to hoffman_kruskal instances: {pair}"
        for pair in ("(a,b)", "(b,c)"))


def test_the_walk_stops_an_edge_at_its_first_cut_multiplicity():
    # One edge at capacity 10^6 has one optimum. The walk tries the full
    # multiplicity, then one less, which the bound cuts, and stops there:
    # three calls, not a million.
    g = helpers.single_edge(GameKind.UNIFORM_B, uniform_capacity=10**6)
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    oracle_module._search.cache_clear()
    sys.setprofile(count)
    try:
        optima = enumerate_optima(g)
    finally:
        sys.setprofile(None)
    assert [m.entries for m in optima] == [((("a", "b"), 10**6),)]
    assert calls["walk"] == 3, calls


def test_the_flow_equals_the_reference_search():
    # The optimum alone of a bipartite game is the flow's. The reference
    # is helpers' walk over every multiplicity. The games: the 12
    # bipartite cap-set games and 1,600 seeded ones, 400 per kind.
    oracle_module._search.cache_clear()
    rng = random.Random(4711)
    games = [g for _, _, g in helpers.cap_set(
        ("assignment", "uniform_b", "b_matching", "hoffman_kruskal"))]
    for trial in range(1600):
        kind = helpers.ALL_BIPARTITE[trial % 4]
        games.append(helpers.random_bipartite(rng, kind, max_side=5, max_edges=10,
                                              max_weight=rng.choice((3, 9))))
    seen = Counter()
    for g in games:
        assert optimal_weight(g) == helpers.reference_optima(g)[0], g
        seen[g.kind] += 1
        seen["edge floor"] += any(e.lower > 0 for e in g.edges)
        seen["edge ceiling"] += any(e.upper is not None for e in g.edges)
        seen["capacity above one"] += any(g.capacity(q) > 1 for q in g.agents)
    assert all(seen[kind] >= 300 for kind in helpers.ALL_BIPARTITE), seen
    assert seen["edge floor"] >= 200 and seen["edge ceiling"] >= 300, seen
    assert seen["capacity above one"] >= 600, seen


def test_the_flow_reroutes_what_its_first_path_took():
    # The first path takes the heaviest edge a1-b1. The optimum gives b1
    # to a2 and moves a1 to b2: a path that crosses a1-b1 backward and
    # gains 2 - 3 + 2. An edge may name its side V end first.
    g = make_instance(GameKind.ASSIGNMENT, ["a1", "a2"], ["b1", "b2"],
                      [("a1", "b1", 3), ("a1", "b2", 2), ("b1", "a2", 2)])
    assert validate(g) == []
    assert optimal_weight(g) == 4
    # With every capacity 10^9 the ceiling of 1 on a1-b1 is the
    # bottleneck of the first path, and the rest is rerouted likewise.
    big = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a1", "a2"], ["b1", "b2"],
                        [("a1", "b1", 3, 0, 1), ("a1", "b2", 2), ("a2", "b1", 2)],
                        capacities=dict.fromkeys(["a1", "a2", "b1", "b2"], 10**9))
    assert optimal_weight(big) == 4 * 10**9 == primal_optimum(big)


@pytest.mark.parametrize("edges, message", [
    ([("a", "b", 2), ("a", "c", 3)], r"edge \(a,c\) does not cross the bipartition"),
    ([("a", "b", -1)], r"non-positive weight on \(a,b\)"),
], ids=["same-side", "negative-weight"])
def test_the_flow_refuses_an_edge_it_cannot_match(edges, message):
    # The walk would answer 3 for the same-side edge, and a flow over the
    # bipartition 2; neither number means anything, so both games are
    # refused when built and no search meets them.
    with pytest.raises(InstanceError, match=f"^{message}$"):
        make_instance(GameKind.ASSIGNMENT, ["a", "c"], ["b"], edges)


def _scaled_capacities(g, factor):
    return replace(g, capacities=tuple((q, b * factor) for q, b in g.capacities),
                   uniform_capacity=(None if g.uniform_capacity is None
                                     else g.uniform_capacity * factor))


def _scaled_cap_set():
    out = []
    for kind, s, g in helpers.cap_set(("uniform_b", "b_matching", "hoffman_kruskal")):
        for factor in (5, 10**9):
            out.append(pytest.param(_scaled_capacities(g, factor), id=f"{kind}-{s}-x{factor}"))
    # Every capacity 10^9, and a ceiling of 1 on an edge with no floor.
    ((_, _, hk),) = [game for game in helpers.cap_set(("hoffman_kruskal",)) if game[1] == 0]
    j = next(j for j, e in enumerate(hk.edges) if e.lower == 0)
    hk = replace(hk, capacities=tuple((q, 10**9) for q, _ in hk.capacities),
                 edges=hk.edges[:j] + (replace(hk.edges[j], upper=1),) + hk.edges[j + 1:])
    out.append(pytest.param(hk, id="hoffman_kruskal-0-all-1e9-ceiling-1"))
    return out


SCALED_SECONDS = 10


@pytest.mark.parametrize("g", _scaled_cap_set())
def test_cap_set_games_with_scaled_capacities_answer_in_seconds(g):
    # The caps bound agents and edges, not capacities. Times 5 the walk
    # took up to 29 s for the optimum alone and minutes for membership;
    # the flow's work does not grow with capacities. By total
    # unimodularity the program's optimum is the integral one, so the LP
    # checks the flow independently.
    assert validate(g) == []
    assert optimal_weight(g) == primal_optimum(g)
    start = time.perf_counter()
    nonempty, _ = core_nonempty(g)
    assert nonempty and time.perf_counter() - start < SCALED_SECONDS
    start = time.perf_counter()
    verdict = is_core_imputation(g, dual_to_imputation(g, optimal_dual(g)))
    assert time.perf_counter() - start < SCALED_SECONDS
    # On the worth kinds an optimal dual pays a core imputation.
    assert verdict.in_core or g.kind is GameKind.HOFFMAN_KRUSKAL


def test_cap_exceeded_is_a_clean_refusal():
    with pytest.raises(CapExceededError, match="13 vertices exceed the enumeration cap of 12"):
        max_weight(helpers.general_path(13))
    with pytest.raises(CapExceededError, match="17 edges exceed the enumeration cap of 16"):
        max_weight(helpers.general_dense(17))


# Every enumerating entry point, as a call on one game. The odd-set rows
# are capped on vertices only.
_ENTRY_POINTS = (
    ("max_weight", max_weight, True),
    ("optimal_weight", optimal_weight, True),
    ("worth", lambda g: worth(g, g.agents), True),
    ("classify_player", lambda g: classify_player(g, g.agents[0]), True),
    ("core_nonempty", core_nonempty, True),
    ("is_core_imputation", lambda g: is_core_imputation(g, make_imputation(g, {})), True),
    ("verify_complementarity", verify_complementarity, True),
    ("build_odd_set_primal", build_odd_set_primal, False),
)


def _refusals():
    out = []
    for name, call, edges_capped in _ENTRY_POINTS:
        out.append(pytest.param(call, helpers.general_path(13),
                                "13 vertices exceed the .* cap of 12", id=f"{name}-13-vertices"))
        if edges_capped:
            out.append(pytest.param(call, helpers.general_dense(17),
                                    "17 edges exceed the enumeration cap of 16",
                                    id=f"{name}-17-edges"))
    return out


@pytest.mark.parametrize("call, arg, message", _refusals())
def test_every_enumerating_entry_point_refuses_above_the_caps(call, arg, message):
    with pytest.raises(CapExceededError, match=message):
        call(arg)


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


def _members(g, mask):
    return [q for j, q in enumerate(g.agents) if mask >> j & 1]


def test_coalition_worth_table_matches_worth_on_every_coalition():
    # Two tables against worth: the reference subset recursion of helpers
    # (every capacity one), and the core's demand table (some capacity
    # above one), which row generation and membership scans read. Its rows
    # are exactly the connected proper coalitions of two or more members
    # (their inner edges join them all), in size-then-lexicographic order,
    # or for uniform_b those of two, the edge pairs; every other coalition
    # is worth the sum of what its parts are, the sets its inner edges join
    # (a lone member being worth 0, a uniform_b part that is no row worth
    # what ``worth`` gives).
    # Every weight is divided by a seeded integer from 1 to 6, so both
    # meet mixed denominators.
    rng = random.Random(909)
    divisors = random.Random(9090)
    names = [f"v{i}" for i in range(12)]
    pairs = sorted(rng.sample([(u, v) for u in names for v in names if u < v], 16))
    games = [make_instance(GameKind.GENERAL, names, (), [(u, v, rng.randint(1, 9))
                                                         for u, v in pairs])]
    for _ in range(300):
        kind = rng.choice((GameKind.ASSIGNMENT, GameKind.UNIFORM_B,
                           GameKind.B_MATCHING, GameKind.GENERAL))
        games.append(helpers.random_general(rng, max_vertices=6, max_edges=9)
                     if kind is GameKind.GENERAL
                     else helpers.random_bipartite(rng, kind, max_side=3, max_edges=6,
                                                   max_b=rng.choice((1, 3))))
    paths, fractional = {}, {}
    for g in games:
        g = replace(g, edges=tuple(replace(e, weight=e.weight / divisors.randint(1, 6))
                                   for e in g.edges))
        key = (g.kind, helpers.capacity_one(g))
        if key[1]:
            table = helpers.subset_worths(g)
            for mask in range(1 << len(g.agents)):
                assert table[mask] == worth(g, _members(g, mask)), (g, mask)
        else:
            rows = {helpers.names(g, members): demand
                    for members, demand in _session(g).demands()}
            for members, demand in rows.items():
                assert demand == worth(g, members), (g, members)
            proper = [members for size in range(1, len(g.agents))
                      for members in combinations(g.agents, size)]
            most = 2 if g.kind is GameKind.UNIFORM_B else len(g.agents)
            assert list(rows) == [m for m in proper
                                  if 1 < len(m) <= most and helpers.connected(g, m)], g
            for members in proper:
                demands = [rows[part] if len(part) <= most else worth(g, part)
                           for part in helpers.parts(g, members) if len(part) > 1]
                assert worth(g, members) == sum(demands), (g, members)
        paths[key] = paths.get(key, 0) + 1
        if any(e.weight.denominator > 1 for e in g.edges):
            fractional[key[1]] = fractional.get(key[1], 0) + 1
    assert len(games[0].agents) == 12 and len(games[0].edges) == 16
    # Every non-HK kind meets the recursion; the multi-matching kinds
    # also meet the demand table.
    for kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING,
                 GameKind.GENERAL):
        assert paths.get((kind, True), 0) >= 15, kind
    for kind in (GameKind.UNIFORM_B, GameKind.B_MATCHING):
        assert paths.get((kind, False), 0) >= 15, kind
    assert fractional[True] >= 100 and fractional[False] >= 40


def test_core_scan_searches_only_the_sub_games_it_read(monkeypatch):
    # u has capacity 2, so the scan reads coalition worths. Paying
    # everything to v1 leaves the pair {u, v2} (worth 3) blocked before
    # any triple is read, so no sub-game of more than 2 agents is searched.
    # The caches start cold: a session that read the rows before would
    # return their kept demands without a search.
    g = helpers.two_team_b_matching()
    _session.cache_clear()
    oracle_module._search.cache_clear()
    searched = []
    search = oracle_module._search

    def recording(instance, every):
        searched.append(instance)
        return search(instance, every)

    monkeypatch.setattr(oracle_module, "_search", recording)
    verdict = is_core_imputation(g, make_imputation(g, {"v1": F(4)}))
    assert verdict.witness == frozenset({"u", "v2"}) and verdict.witness_demand == 3
    sizes = {len(sub.agents) for sub in searched if sub != g}
    assert sizes == {2}


def test_core_questions_search_each_distinct_cover_once():
    # A fresh 3 + 3 b_matching game: the core's rows are its closed
    # coalitions (each member with a neighbour inside), which are the
    # distinct covers of all proper coalitions (a cover being the members
    # on an inner edge). Deciding the core reads the dual and searches
    # nothing; checking the witness searches the grand game and each
    # connected cover once, not every coalition: a cover whose inner edges
    # fall apart demands the sum of its parts' worths.
    g = make_instance(GameKind.B_MATCHING, ["a1", "a2", "a3"], ["b1", "b2", "b3"],
                      [("a1", "b1", 5), ("a1", "b2", 3), ("a2", "b2", 4),
                       ("a3", "b3", 2), ("a2", "b1", F(7, 2))],
                      capacities={"a1": 2, "a2": 1, "a3": 3, "b1": 1, "b2": 2, "b3": 1})
    closed = {helpers.closed_part(g, members) for size in range(1, len(g.agents))
              for members in combinations(g.agents, size)} - {()}
    connected = {members for members in closed if helpers.connected(g, members)}
    oracle_module._search.cache_clear()
    nonempty, witness = core_nonempty(g)
    assert nonempty and oracle_module._search.cache_info().misses == 0
    assert is_core_imputation(g, witness).in_core
    assert oracle_module._search.cache_info().misses == 1 + len(connected)
    assert (len(connected), len(closed)) == (10, 18)
    assert len(closed) < (1 << len(g.agents)) - 2


def test_capacity_one_core_questions_build_no_coalition_table():
    # At the caps: a 12-vertex, 16-edge general game and a 6 x 6
    # assignment game with 16 edges. Their core rows are the edge rows,
    # so no question about their core searches a sub-game: the oracle's
    # cache ends up holding the grand game's optimum alone.
    rng = random.Random(6161)
    names = [f"v{i}" for i in range(12)]
    pairs = sorted(rng.sample([(u, v) for u in names for v in names if u < v], 16))
    general = make_instance(GameKind.GENERAL, names, (), [(u, v, rng.randint(1, 9))
                                                          for u, v in pairs])
    left, right = [f"a{i}" for i in range(6)], [f"b{j}" for j in range(6)]
    pairs = sorted(rng.sample([(u, v) for u in left for v in right], 16))
    assignment = make_instance(GameKind.ASSIGNMENT, left, right,
                               [(u, v, rng.randint(1, 9)) for u, v in pairs])
    for g in (general, assignment):
        oracle_module._search.cache_clear()
        nonempty, witness = core_nonempty(g)
        assert nonempty
        assert is_core_imputation(g, witness).in_core
        to_one = make_imputation(g, {g.agents[0]: optimal_weight(g)})
        assert not is_core_imputation(g, to_one).in_core
        assert len(sample_core_vertices(g, 4, seed=2)) >= 2
        info = oracle_module._search.cache_info()
        assert info.currsize == 1, g.kind
        optimal_weight(g)
        assert oracle_module._search.cache_info().misses == info.misses, g.kind


def test_uniform_b_worth_is_b_times_the_assignment_worth():
    # With every capacity b, the b-matching polytope of a bipartite graph
    # is b times its matching polytope, and both are integral (total
    # unimodularity), so v(S) = b * v_assignment(S) on every coalition: a
    # closed form the oracle's search never uses.
    rng = random.Random(4321)
    games, coalitions = 0, 0
    while games < 100:
        g = helpers.random_bipartite(rng, GameKind.UNIFORM_B, max_side=4, max_edges=8)
        if g.uniform_capacity == 1:
            continue
        unit = make_instance(GameKind.ASSIGNMENT, g.side_u, g.side_v, g.edges)
        for mask in range(1 << len(g.agents)):
            members = _members(g, mask)
            assert worth(g, members) == g.uniform_capacity * worth(unit, members), (g, mask)
            coalitions += 1
        games += 1
    # 6,304 coalitions at this seed, with b = 2 in 59 games and b = 3 in 41.
    assert coalitions >= 6000, coalitions


def test_search_agrees_with_the_reference_search():
    # The oracle's searches (the flow for a bipartite optimum alone, the
    # walk otherwise) against the earlier search of helpers (edges in
    # instance order, cut by the open edges at full multiplicity alone):
    # the optimum read alone, and max_weight's value and witness and
    # every optimum in order, read cold and after the optimum. The
    # games: 500 seeded ones of all five kinds, every third with each
    # weight divided by a seeded integer from 1 to 6, and the 15 cap-set
    # grand games.
    rng = random.Random(1919)
    divisors = random.Random(9191)
    kinds = helpers.ALL_BIPARTITE + (GameKind.GENERAL,)
    games = [g for _, _, g in helpers.cap_set()]
    for trial in range(500):
        kind = kinds[trial % len(kinds)]
        top = rng.choice((1, 2, 3, 9))
        g = (helpers.random_general(rng, max_vertices=7, max_edges=10, max_weight=top)
             if kind is GameKind.GENERAL
             else helpers.random_bipartite(rng, kind, max_side=4, max_edges=9, max_weight=top))
        if trial % 3 == 0:
            g = replace(g, edges=tuple(replace(e, weight=e.weight / divisors.randint(1, 6))
                                       for e in g.edges))
        games.append(g)
    seen = Counter()
    for n, g in enumerate(games):
        value, optima = helpers.reference_optima(g)
        oracle_module._search.cache_clear()
        if n % 2:
            assert [m.entries for m in enumerate_optima(g)] == optima, g
            assert optimal_weight(g) == value, g
        else:
            assert optimal_weight(g) == value, g
            assert [m.entries for m in enumerate_optima(g)] == optima, g
        assert max_weight(g) == (value, enumerate_optima(g)[0])
        assert worth(g, g.agents) == value
        seen[g.kind] += 1
        seen["tied"] += len(optima) > 1
        seen["capacity above one"] += any(g.capacity(q) > 1 for q in g.agents)
        seen["edge floor"] += any(e.lower > 0 for e in g.edges)
        seen["edge ceiling"] += any(e.upper is not None for e in g.edges)
        seen["fractional"] += any(e.weight.denominator > 1 for e in g.edges)
    assert len(games) == 515
    assert all(seen[kind] >= 100 for kind in kinds), seen
    assert seen["tied"] >= 100 and seen["capacity above one"] >= 100, seen
    assert seen["edge floor"] >= 20 and seen["edge ceiling"] >= 40, seen
    assert seen["fractional"] >= 100, seen


@pytest.mark.parametrize("kind, s", [(kind, s) for kind in ("uniform_b", "b_matching")
                                     for s in range(3)], ids=lambda x: str(x))
def test_multi_capacity_cap_set_games_answer_their_core_questions(kind, s):
    # The cap set's multi-capacity bipartite games, at 12 agents and 16
    # edges: their core scans read one worth per connected coalition (604
    # to 1,188 of them), so these are the largest searches the core asks for.
    ((_, _, g),) = [game for game in helpers.cap_set((kind,)) if game[1] == s]
    assert len(g.agents) == 12 and len(g.edges) == 16
    nonempty, witness = core_nonempty(g)
    assert nonempty and is_core_imputation(g, witness).in_core
    assert verify_complementarity(g).ok
    assert worth(g, g.agents) == helpers.reference_optima(g)[0]
