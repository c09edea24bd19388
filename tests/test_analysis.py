"""Core analysis: dual-image payoffs, core membership, complementarity."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import helpers
from matchcore.analysis import (
    DualFace,
    DualSolution,
    check_concurrency,
    core_nonempty,
    dual_to_imputation,
    extreme_imputations,
    in_dual_image,
    is_concurrent,
    is_core_imputation,
    is_optimal_dual,
    make_dual,
    meet_join,
    optimal_dual,
    paid_sometimes,
    always_paid_fairly,
    payoff_range,
    sample_core_vertices,
    sample_dual_vertices,
    simultaneous_imputation,
    surplus_account,
    verify_complementarity,
)
from matchcore import analysis as analysis_module
from matchcore import lp as lp_module
from matchcore import oracle as oracle_module
from matchcore.formulations import build_dual, lower_dual_var, upper_dual_var, vertex_dual_var
from matchcore.games import (
    BIPARTITE_KINDS,
    GameKind,
    Imputation,
    InstanceError,
    make_imputation,
    make_instance,
    restrict,
)
from matchcore.instance_io import parse_instance
from matchcore.lp import Constraint, LinearProgram, Relation, Sense, Status
from matchcore.oracle import (
    ClassLabel,
    classify_player,
    classify_team,
    max_weight,
    worth,
)

F = Fraction


def test_unique_optimal_dual_of_skewed_capacities():
    g = helpers.two_team_b_matching()
    face = DualFace(g)
    assert face.vertex_range("u") == (1, 1)
    assert face.vertex_range("v1") == (0, 0)
    assert face.vertex_range("v2") == (2, 2)
    d = optimal_dual(g)
    assert dual_to_imputation(g, d).as_dict == {"u": F(2), "v1": F(0), "v2": F(2)}


def test_is_optimal_dual_examples():
    g = helpers.two_team_b_matching()
    assert is_optimal_dual(g, make_dual(g, {"u": 1, "v1": 0, "v2": 2}))
    assert not is_optimal_dual(g, make_dual(g, {"u": 2, "v1": 0, "v2": 0}))
    assert not is_optimal_dual(g, make_dual(g, {}))


def test_skewed_capacity_core_and_dual_image():
    g = helpers.two_team_b_matching()
    outside = make_imputation(g, {"u": 4})
    verdict = is_core_imputation(g, outside)
    assert verdict.in_core
    assert not in_dual_image(g, outside)
    inside = make_imputation(g, {"u": 2, "v2": 2})
    assert is_core_imputation(g, inside).in_core
    assert in_dual_image(g, inside)


def test_an_imputation_of_other_agents_is_refused():
    # Another game, a sub-game and a game with one more agent: none pays
    # exactly the agents of g, so neither question has an answer.
    g = helpers.two_team_b_matching()
    wider = make_instance(GameKind.B_MATCHING, ["u"], ["v1", "v2", "v3"],
                          [("u", "v1", 1), ("u", "v2", 3), ("u", "v3", 2)],
                          capacities={"u": 2, "v1": 2, "v2": 1, "v3": 1})
    foreign = [make_imputation(helpers.unit_triangle(), {}),
               make_imputation(restrict(g, ["u", "v2"]), {"u": 3}),
               make_imputation(wider, {"u": 2, "v2": 2})]
    for imp in foreign:
        with pytest.raises(ValueError, match="other agents"):
            is_core_imputation(g, imp)
        with pytest.raises(ValueError, match="other agents"):
            in_dual_image(g, imp)


def test_a_negative_payoff_is_refused_on_every_path():
    # make_imputation refuses a negative payoff, and so does an Imputation
    # built directly: no verdict ever meets one. The core's rows assume
    # payoffs >= 0: a negative payoff would let a coalition with no row
    # of its own, here the singleton {a}, block.
    for g in (helpers.single_edge(GameKind.ASSIGNMENT),
              helpers.single_edge(GameKind.B_MATCHING)):
        with pytest.raises(ValueError, match="negative payoff for 'a'"):
            make_imputation(g, {"a": F(-1), "b": F(6)})
    with pytest.raises(ValueError, match="negative payoff for 'a'"):
        Imputation((("a", F(-1)), ("b", F(6))))


def test_a_negative_sample_count_is_refused():
    g = helpers.two_team_b_matching()
    with pytest.raises(ValueError, match="count"):
        sample_dual_vertices(g, -1, seed=0)
    with pytest.raises(ValueError, match="count"):
        sample_core_vertices(g, -1, seed=0)
    assert sample_dual_vertices(g, 0, seed=0) == sample_core_vertices(g, 0, seed=0) == []


def test_unit_triangle_equal_split_is_blocked():
    g = helpers.unit_triangle()
    imp = make_imputation(g, {q: F(1, 3) for q in g.agents})
    verdict = is_core_imputation(g, imp)
    assert not verdict.in_core
    assert len(verdict.witness) == 2
    assert verdict.witness_demand == 1
    assert verdict.witness_allocation == F(2, 3)


def test_seven_ring_unique_core_imputation():
    g = helpers.seven_ring()
    imp = make_imputation(g, {"v2": 1, "v4": 1, "v6": 1, "v7": 1})
    assert is_core_imputation(g, imp).in_core
    face = DualFace(g)
    for q in g.agents:
        expected = F(1) if q in ("v2", "v4", "v6", "v7") else F(0)
        assert face.vertex_range(q) == (expected, expected)


def test_wrong_total_is_rejected_with_grand_witness():
    g = helpers.single_edge()
    short = make_imputation(g, {"a": 1})
    verdict = is_core_imputation(g, short)
    assert not verdict.in_core
    assert verdict.witness == frozenset(g.agents)
    # The hub_capacity_surplus game: its surplus ranges over [4, 12] on the
    # optimal dual face (the deterministic dual gives 10), and a total
    # outside is blocked by the grand coalition demanding the end it passes.
    hub = helpers.hk_mixed_bounds()
    for total, demand in ((3, 4), (13, 12)):
        verdict = is_core_imputation(hub, make_imputation(hub, {"u": total}))
        assert (verdict.in_core, verdict.witness, verdict.witness_demand,
                verdict.witness_allocation) == (False, frozenset(hub.agents), demand, total)


def test_paid_sometimes_examples():
    ring = helpers.seven_ring()
    assert paid_sometimes(ring, "v2") is True
    assert paid_sometimes(ring, "v1") is False
    pendant = helpers.triangle_pendant()
    assert paid_sometimes(pendant, "v4") is False
    assert classify_player(pendant, "v4") is ClassLabel.ESSENTIAL


def test_always_paid_fairly_examples():
    ring = helpers.seven_ring()
    assert always_paid_fairly(ring, ("v4", "v7")) is False
    assert always_paid_fairly(ring, ("v1", "v2")) is True
    assert always_paid_fairly(ring, ("v2", "v3")) is True
    assert always_paid_fairly(ring, ("v1", "v7")) is True
    single = helpers.single_edge()
    assert always_paid_fairly(single, ("a", "b")) is True


def test_empty_core_distinguished_outcome():
    k3 = helpers.unit_triangle()
    assert paid_sometimes(k3, "i") is None
    assert always_paid_fairly(k3, ("i", "j")) is None
    report = verify_complementarity(k3)
    assert report.concurrent is False
    assert report.ok and report.gaps == ("core is empty",)
    # Oracle classes are still reported; payment verdicts carry the marker.
    assert {p.agent: p.label for p in report.players} == {
        "i": ClassLabel.VIABLE, "j": ClassLabel.VIABLE, "k": ClassLabel.VIABLE}
    assert all(p.paid_sometimes is None for p in report.players)
    assert all(t.always_paid_fairly is None for t in report.teams)


def test_an_argument_the_game_lacks_is_refused_on_an_empty_core():
    # A non-concurrent general game answers None for its own agents and
    # keys, but an agent or a key it lacks is refused first, as on every
    # other game.
    k3 = helpers.unit_triangle()
    assert not is_concurrent(k3)
    with pytest.raises(ValueError) as err:
        paid_sometimes(k3, "zz")
    assert str(err.value) == "agent 'zz' has no column in the dual program"
    for key in ("ij", ("j", "i"), ("i", "zz"), ["i", "j"]):
        with pytest.raises(ValueError) as err:
            always_paid_fairly(k3, key)
        assert str(err.value) == f"no edge {key!r} in this instance"
    assert paid_sometimes(k3, "i") is always_paid_fairly(k3, ("i", "j")) is None


def test_verify_complementarity_on_seven_ring():
    report = verify_complementarity(helpers.seven_ring())
    assert report.ok
    assert report.concurrent is True
    assert report.degenerate is True
    fair = {t.edge: t.always_paid_fairly for t in report.teams}
    assert fair[("v4", "v7")] is False
    assert any("subpar yet always paid fairly" in gap for gap in report.gaps)


def test_verify_complementarity_records_pendant_gap():
    report = verify_complementarity(helpers.triangle_pendant())
    assert report.ok
    assert "player v4: essential yet never paid" in report.gaps


def test_verify_complementarity_decides_an_empty_core_once(monkeypatch):
    # One optimal_weight call decides whether the general core is empty,
    # for the whole report: the payment verdicts do not ask again (they
    # asked once per agent and once per edge, 9 calls on this game). The
    # verdicts are the public functions'.
    calls = []
    weight = analysis_module.optimal_weight
    monkeypatch.setattr(analysis_module, "optimal_weight",
                        lambda instance: calls.append(instance) or weight(instance))
    for g in (helpers.triangle_pendant(), helpers.unit_triangle(), helpers.seven_ring()):
        analysis_module._session.cache_clear()
        calls.clear()
        report = verify_complementarity(g)
        assert len(calls) == 1
        assert [p.paid_sometimes for p in report.players] == [
            paid_sometimes(g, q) for q in g.agents]
        assert [t.always_paid_fairly for t in report.teams] == [
            always_paid_fairly(g, e.key) for e in g.edges]


def _logged_run(runs):
    """``_Tableau._run``, logging whether each run is a phase-2 run, that
    fails a scan that does not end: no call here needs 100 runs."""
    original = lp_module._Tableau._run

    def run(tableau, zrow, zden, allowed, artificial=()):
        assert len(runs) < 100, "a scan that does not end"
        runs.append(not artificial)
        return original(tableau, zrow, zden, allowed, artificial)
    return run


def test_payment_verdicts_are_the_per_coordinate_queries(monkeypatch):
    # The verdicts read off the face's support against one face query
    # per agent and per edge (helpers' reference): the cap set, 150
    # seeded games of each bipartite kind, hoffman_kruskal's rays
    # included, and 150 general games, whose empty cores answer None.
    runs = []
    rng = random.Random(4242)
    games = [g for _, _, g in helpers.cap_set()]
    for kind in helpers.ALL_BIPARTITE:
        games += [helpers.random_bipartite(rng, kind, max_side=5, max_edges=10, max_weight=3)
                  for _ in range(150)]
    games += [helpers.random_general(rng, max_vertices=7, max_edges=10, max_weight=3)
              for _ in range(150)]
    seen = Counter()
    for g in games:
        runs.clear()
        with monkeypatch.context() as patch:
            patch.setattr(lp_module._Tableau, "_run", _logged_run(runs))
            report = verify_complementarity(g)
        for finding in report.players:
            want = helpers.reference_paid_sometimes(g, finding.agent)
            assert finding.paid_sometimes is paid_sometimes(g, finding.agent) is want
            seen[{True: "paid", False: "never paid", None: "empty core"}[want]] += 1
        for finding in report.teams:
            want = helpers.reference_always_paid_fairly(g, finding.edge)
            assert finding.always_paid_fairly is always_paid_fairly(g, finding.edge) is want
            seen[{True: "fair", False: "overpaid", None: "empty core"}[want]] += 1
            seen["unbounded"] += want is False and DualFace(g).max_overpayment(finding.edge) is None
        # An agent or a key the game lacks is refused on an empty core too.
        with pytest.raises(ValueError, match="no column"):
            paid_sometimes(g, "nobody")
        u, v = g.edges[0].key
        with pytest.raises(ValueError, match="no edge"):
            always_paid_fairly(g, (v, u))
    # Counts at this seed: 2,245 paid and 2,076 never paid agents, 1,817
    # fair and 1,164 overpaid edges, 96 of them without bound.
    assert seen["unbounded"] >= 80 and seen["empty core"] >= 20, seen
    assert min(seen[k] for k in ("paid", "never paid", "fair", "overpaid")) >= 1000, seen


# Phase-2 runs of one cold ``verify_complementarity`` per demo instance:
# the base solve's and the support scan's rounds. One face query per agent
# and per edge would run up to n + m more.
COMPLEMENTARITY_RUNS = {
    "capped_edges_pair": 2, "floored_edges_pair": 2, "hub_capacity_surplus": 3,
    "tennis_pairs": 3, "three_agent_b_matching": 1, "triangle_with_pendant": 1,
    "unit_triangle": 1, "weighted_seven_ring": 1,
}


def test_verify_complementarity_runs_pinned_phase_2_counts(monkeypatch):
    runs = []
    monkeypatch.setattr(lp_module._Tableau, "_run", _logged_run(runs))
    counts = {}
    for path in sorted(Path(__file__).resolve().parent.parent.glob("demos/instances/*.game")):
        g = parse_instance(path.read_text())
        analysis_module._session.cache_clear()
        runs.clear()
        verify_complementarity(g)
        counts[path.stem] = sum(runs)
    assert counts == COMPLEMENTARITY_RUNS


# Runs of ``_Tableau._run`` for every payoff range of each lattice-kind
# demo instance, the face built: cold, and after ``extreme_imputations``
# (None where it does not apply). The two side-optimal queries answer
# every agent and are the extremes' own; two queries per agent would run
# 6 cold on tennis_pairs.
RANGE_RUNS = {"tennis_pairs": (1, 0), "three_agent_b_matching": (0, None)}


def test_payoff_ranges_run_pinned_counts(monkeypatch):
    runs = []
    monkeypatch.setattr(lp_module._Tableau, "_run", _logged_run(runs))
    counts = {}
    for path in sorted(Path(__file__).resolve().parent.parent.glob("demos/instances/*.game")):
        g = parse_instance(path.read_text())
        if g.kind not in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING):
            continue
        after = None
        if g.kind is not GameKind.B_MATCHING:
            analysis_module._session.cache_clear()
            extremes = extreme_imputations(g)
            runs.clear()
            ranges = [payoff_range(g, q) for q in g.agents]
            after = len(runs)
            for q, (lo, hi) in zip(g.agents, ranges):
                assert {extremes[0][q], extremes[1][q]} == {lo, hi}
        analysis_module._session.cache_clear()
        DualFace(g)
        runs.clear()
        for q in g.agents:
            payoff_range(g, q)
        counts[path.stem] = len(runs), after
    assert counts == RANGE_RUNS


def test_verify_complementarity_skips_an_edge_that_is_never_matched():
    # A subpar team with no essential endpoint contradicts the theorem
    # unless the team can never be matched: here its ceiling is 0.
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a1", "a2"], ["b1", "b2"],
                      [("a1", "b1", 5), ("a2", "b2", 3, 0, 0)],
                      capacities={"a1": 1, "a2": 1, "b1": 1, "b2": 1})
    report = verify_complementarity(g)
    assert report.ok
    labels = {p.agent: p.label for p in report.players}
    assert report.teams[1].label is ClassLabel.SUBPAR
    assert ClassLabel.ESSENTIAL not in (labels["a2"], labels["b2"])


def _relabel(monkeypatch, players=(), teams=(), degenerate=None):
    """Make the analysis read the oracle's classes, with ``players`` and
    ``teams`` ({agent or edge key: label}) put in place of the true ones,
    and ``is_degenerate`` answer ``degenerate`` unless it is None."""
    for name, labels in (("classify_player", dict(players)), ("classify_team", dict(teams))):
        real = getattr(analysis_module, name)
        monkeypatch.setattr(analysis_module, name,
                            lambda g, key, real=real, labels=labels: labels.get(key)
                            or real(g, key))
    if degenerate is not None:
        monkeypatch.setattr(analysis_module, "is_degenerate", lambda g: degenerate)


V, S = ClassLabel.VIABLE, ClassLabel.SUBPAR


@pytest.mark.parametrize("game, players, teams, degenerate, violations", [
    ("single_edge", {"a": V}, {}, None, ("player a: viable but paid sometimes",)),
    ("single_edge", {}, {("a", "b"): S}, None, ("team (a,b): subpar but always paid fairly",)),
    ("single_edge", {"a": V, "b": V}, {("a", "b"): S}, None,
     ("player a: viable but paid sometimes", "player b: viable but paid sometimes",
      "team (a,b): subpar but always paid fairly",
      "team (a,b): subpar with no essential endpoint")),
    ("triangle_pendant", {"v1": V}, {}, None, ("player v1: paid sometimes but viable",)),
    ("seven_ring", {}, {("v4", "v7"): V}, False, ("team (v4,v7): viable but sometimes overpaid",)),
    ("triangle_pendant", {"v1": V}, {}, True,
     ("player v1: paid sometimes but viable", "player v1: viable yet paid under degeneracy")),
    ("seven_ring", {}, {("v4", "v7"): V}, None,
     ("team (v4,v7): viable but sometimes overpaid",
      "team ('v4', 'v7'): viable yet overpaid under degeneracy")),
], ids=["bipartite-player", "bipartite-team", "subpar-endpoint", "general-player",
        "general-team", "degenerate-player", "degenerate-team"])
def test_verify_complementarity_names_each_contradiction(monkeypatch, game, players, teams,
                                                         degenerate, violations):
    # The checks hold on every game (the tests above), so the classes
    # they read are made to contradict the theorems, and each check fires.
    _relabel(monkeypatch, players, teams, degenerate)
    report = verify_complementarity(getattr(helpers, game)())
    assert report.violations == violations and not report.ok


def test_verify_complementarity_single_edge_bipartite():
    report = verify_complementarity(helpers.single_edge())
    assert report.ok and not report.gaps


def test_concurrency_examples():
    r = check_concurrency(helpers.seven_ring())
    assert (r.fractional_optimum, r.integral_optimum, r.concurrent) == (4, 4, True)
    r = check_concurrency(helpers.unit_triangle())
    assert (r.fractional_optimum, r.integral_optimum, r.concurrent) == (F(3, 2), 1, False)
    r = check_concurrency(helpers.triangle_pendant())
    assert (r.fractional_optimum, r.integral_optimum, r.concurrent) == (2, 2, True)


def test_core_nonempty_examples():
    ok, imp = core_nonempty(helpers.unit_triangle())
    assert not ok and imp is None
    ok, imp = core_nonempty(helpers.seven_ring())
    assert ok
    assert imp.as_dict == {"v1": 0, "v2": 1, "v3": 0, "v4": 1,
                           "v5": 0, "v6": 1, "v7": 1}
    ok, imp = core_nonempty(helpers.single_edge())
    assert ok and imp.total == 5


def test_extreme_imputations_single_edge():
    high_left, high_right = extreme_imputations(helpers.single_edge())
    assert high_left.as_dict == {"a": 5, "b": 0}
    assert high_right.as_dict == {"a": 0, "b": 5}


def test_extreme_imputations_unique_core_degenerate_range():
    g = helpers.two_team_uniform(1)  # assignment-like with b_c = 1
    a, b = extreme_imputations(g)
    # Unique optimum forces both extremes to agree.
    face = DualFace(g)
    if all(face.vertex_range(q)[0] == face.vertex_range(q)[1] for q in g.agents):
        assert a.as_dict == b.as_dict


def test_meet_join_single_edge():
    g = helpers.single_edge(GameKind.UNIFORM_B, weight=5, uniform_capacity=1)
    first = make_imputation(g, {"a": 5})
    second = make_imputation(g, {"b": 5})
    meet, join = meet_join(g, first, second)
    assert meet.as_dict == {"a": 0, "b": 5}
    assert join.as_dict == {"a": 5, "b": 0}
    same, same2 = meet_join(g, first, first)
    assert same.as_dict == first.as_dict == same2.as_dict


def test_meet_join_rejects_non_core_input():
    g = helpers.single_edge(GameKind.UNIFORM_B, weight=5, uniform_capacity=1)
    short = make_imputation(g, {"a": 1})  # wrong total, so not in the core
    good = make_imputation(g, {"a": 5})
    with pytest.raises(ValueError):
        meet_join(g, short, good)


def test_meet_join_random_uniform_instances_stay_in_core():
    rng = random.Random(61)
    done = 0
    while done < 25:
        g = helpers.random_bipartite(rng, GameKind.UNIFORM_B, max_side=3,
                                     max_edges=5, max_b=2)
        duals = sample_dual_vertices(g, 4, seed=rng.randint(0, 10**6))
        if len(duals) < 2:
            continue
        first = dual_to_imputation(g, duals[0])
        second = dual_to_imputation(g, duals[1])
        meet, join = meet_join(g, first, second)
        assert is_core_imputation(g, meet).in_core
        assert is_core_imputation(g, join).in_core
        done += 1


def test_meet_join_raises_when_a_combination_leaves_the_core(monkeypatch):
    g = helpers.single_edge(GameKind.UNIFORM_B, weight=5, uniform_capacity=1)
    verdicts = iter([True, True, False])
    monkeypatch.setattr(analysis_module, "is_core_imputation",
                        lambda instance, imp: analysis_module.CoreVerdict(next(verdicts)))
    with pytest.raises(ArithmeticError) as err:
        meet_join(g, make_imputation(g, {"a": 5}), make_imputation(g, {"b": 5}))
    assert str(err.value) == ("combined imputation left the core; this contradicts "
                              "the lattice lemma")


@pytest.mark.parametrize("players, teams, message", [
    ({"a": V, "b": V}, {}, "simultaneous imputation mispays player a"),
    ({}, {("a", "b"): S}, "simultaneous imputation mistreats team ('a', 'b')"),
], ids=["player", "team"])
def test_simultaneous_imputation_raises_on_contradicted_classes(monkeypatch, players, teams,
                                                                message):
    _relabel(monkeypatch, players, teams)
    with pytest.raises(ArithmeticError) as err:
        simultaneous_imputation(helpers.single_edge())
    assert str(err.value) == message


def test_simultaneous_imputation_single_edge_and_random():
    g = helpers.single_edge()
    imp = simultaneous_imputation(g)
    assert imp["a"] > 0 and imp["b"] > 0 and imp.total == 5
    rng = random.Random(71)
    for _ in range(20):
        inst = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                        max_edges=6)
        got = simultaneous_imputation(inst)  # internal assertions must hold
        assert got.total == worth(inst, inst.agents)


@pytest.mark.parametrize("call, message", [
    (lambda: surplus_account(helpers.single_edge(), optimal_dual(helpers.single_edge())),
     "surplus accounting applies to hoffman_kruskal instances"),
    (lambda: check_concurrency(helpers.single_edge()),
     "concurrency applies to general instances"),
    (lambda: in_dual_image(helpers.unit_triangle(), make_imputation(helpers.unit_triangle(), {})),
     "the dual-image test applies to bipartite kinds"),
    (lambda: sample_core_vertices(helpers.hk_edge_lower(), 1, 0),
     "payoff-space core polytope is for worth-based kinds"),
    (lambda: extreme_imputations(helpers.two_team_b_matching()),
     "extreme imputations apply to assignment and uniform-capacity kinds"),
    (lambda: meet_join(helpers.seven_ring(), *[make_imputation(helpers.seven_ring(), {})] * 2),
     "meet/join applies to assignment and uniform-capacity kinds"),
    (lambda: simultaneous_imputation(helpers.hk_edge_lower()),
     "the simultaneous imputation applies to assignment and uniform-capacity kinds"),
], ids=["surplus_account", "check_concurrency", "in_dual_image", "sample_core_vertices",
        "extreme_imputations", "meet_join", "simultaneous_imputation"])
def test_each_kind_restricted_function_refuses_another_kind(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_a_feasible_dual_that_is_not_optimal_is_refused():
    for g, d in ((helpers.hk_mixed_bounds(),
                  make_dual(helpers.hk_mixed_bounds(), {"u": 4}, lower={("u", "v1"): 2})),
                 (helpers.single_edge(), make_dual(helpers.single_edge(), {"a": 5, "b": 1}))):
        assert build_dual(g).is_feasible(d.values) and not is_optimal_dual(g, d)
        calls = [dual_to_imputation]
        if g.kind is GameKind.HOFFMAN_KRUSKAL:
            calls.append(surplus_account)
        for call in calls:
            with pytest.raises(ValueError, match="^dual solution is not optimal$"):
                call(g, d)


def _twin(g):
    """An instance equal to ``g`` that is another object."""
    twin = make_instance(g.kind, g.side_u, g.side_v, g.edges, g.capacities, g.uniform_capacity)
    assert twin == g and twin is not g
    return twin


def test_a_dual_the_library_found_is_not_checked_again(monkeypatch):
    # optimal_dual, sample_dual_vertices and an HK witness_dual are
    # vertices of their instance's optimal face by construction: passed
    # back with that same instance object, dual_to_imputation and
    # surplus_account run no is_optimal_dual. The same values built by
    # the caller, the found point passed with an equal instance that is
    # another object, and a caller dual that is not optimal are each
    # checked once per call. On the cap set and 20 seeded games of each
    # kind.
    checks = []
    original = analysis_module.is_optimal_dual
    monkeypatch.setattr(analysis_module, "is_optimal_dual",
                        lambda instance, d: checks.append(d) or original(instance, d))
    rng = random.Random(5858)
    games = [g for _, _, g in helpers.cap_set()]
    games += [helpers.random_bipartite(rng, kind) for kind in helpers.ALL_BIPARTITE
              for _ in range(20)]
    games += [helpers.random_general(rng) for _ in range(20)]
    seen = Counter()
    for g in games:
        hk = g.kind is GameKind.HOFFMAN_KRUSKAL
        for d in [optimal_dual(g)] + sample_dual_vertices(g, 2, seed=rng.randint(0, 10**6)):
            checks.clear()
            if g.kind is GameKind.GENERAL and not is_concurrent(g):
                with pytest.raises(ValueError, match="^not concurrent"):
                    dual_to_imputation(g, d)
                assert not checks
                seen["not concurrent"] += 1
                continue
            imp = dual_to_imputation(g, d)
            account = surplus_account(g, d) if hk else None
            assert not checks, g
            mine = DualSolution(g, d.values)
            assert mine == d and dual_to_imputation(g, mine) == imp and checks == [mine]
            twin = _twin(g)
            assert dual_to_imputation(twin, d) == imp and checks == [mine, d]
            if hk:
                assert surplus_account(g, mine) == surplus_account(twin, d) == account
                assert checks == [mine, d, mine, d]
            seen["found", g.kind] += 1
        if hk:
            grand = surplus_account(g, optimal_dual(g)).surplus
            shares = [rng.randint(0, 3) for _ in g.agents]
            shares[0] += not any(shares)
            verdict = is_core_imputation(g, make_imputation(
                g, {q: grand * k / sum(shares) for q, k in zip(g.agents, shares)}))
            w = verdict.witness_dual
            if w is not None:
                checks.clear()
                account = surplus_account(w.instance, w)
                assert not checks
                mine = DualSolution(w.instance, w.values)
                assert surplus_account(w.instance, mine) == account and checks == [mine]
                seen["witness"] += 1
    for g, d in ((helpers.hk_mixed_bounds(),
                  make_dual(helpers.hk_mixed_bounds(), {"u": 4}, lower={("u", "v1"): 2})),
                 (helpers.single_edge(), make_dual(helpers.single_edge(), {"a": 5, "b": 1}))):
        checks.clear()
        with pytest.raises(ValueError, match="^dual solution is not optimal$"):
            dual_to_imputation(g, d)
        assert checks == [d]
    # Counts at this seed: 60 found duals on assignment, 61 on uniform_b,
    # 52 on b_matching, 51 on hoffman_kruskal and 47 on concurrent general
    # games; 13 on general games that are not, and 19 witness duals.
    assert min(seen["found", kind] for kind in GameKind) >= 25, seen
    assert seen["not concurrent"] >= 5 and seen["witness"] >= 8, seen


def test_surplus_accounts_on_fixtures():
    lower = helpers.hk_edge_lower()
    d = make_dual(lower, {"u": 3}, lower={("u", "v1"): 2})
    assert is_optimal_dual(lower, d)
    acct = surplus_account(lower, d)
    assert (acct.worth, acct.adjustment, acct.surplus) == (4, 2, 6)

    upper = helpers.hk_edge_upper()
    d1 = make_dual(upper, {}, upper={("u", "v1"): 1, ("u", "v2"): 3})
    d2 = make_dual(upper, {"u": 1}, upper={("u", "v2"): 2})
    assert is_optimal_dual(upper, d1) and is_optimal_dual(upper, d2)
    assert surplus_account(upper, d1).surplus == 0
    assert surplus_account(upper, d2).surplus == 2

    mixed = helpers.hk_mixed_bounds()
    first = make_dual(mixed, {"u": 3}, lower={("u", "v1"): 2})
    second = make_dual(mixed, {"u": 1, "v2": 2})
    assert is_optimal_dual(mixed, first) and is_optimal_dual(mixed, second)
    assert surplus_account(mixed, first).surplus == 12
    assert surplus_account(mixed, second).surplus == 10
    # The printed variant with vertex value 4 is not optimal: value 14.
    assert not is_optimal_dual(mixed, make_dual(mixed, {"u": 4},
                                                lower={("u", "v1"): 2}))


def test_dual_values_follow_the_dual_program_columns():
    mixed = helpers.hk_mixed_bounds()
    d = make_dual(mixed, {"u": 3}, lower={("u", "v1"): 2})
    program = build_dual(mixed)
    assert len(d.values) == len(program.variables)
    assert d.values[program.variables.index("pay[u]")] == 3
    assert d.values[program.variables.index("floor[u,v1]")] == 2
    assert d.vertex("u") == 3 and d.lower(("u", "v1")) == 2
    assert d.upper(("u", "v1")) == 0
    # A bound dual with no column reads as zero.
    plain = helpers.single_edge()
    assert optimal_dual(plain).lower(plain.edges[0].key) == 0
    assert optimal_dual(plain).upper(plain.edges[0].key) == 0


def test_make_dual_rejects_entries_without_a_column():
    lower = helpers.hk_edge_lower()          # edges (u,v1), (u,v2); no upper bounds
    with pytest.raises(ValueError, match="nobody"):
        make_dual(lower, {"u": 3, "nobody": 7})
    with pytest.raises(ValueError, match="no edge"):
        make_dual(lower, {"u": 3}, lower={("v1", "u"): 2})
    with pytest.raises(ValueError, match="no edge"):
        make_dual(lower, {}, lower={("u", "w"): 2})
    with pytest.raises(ValueError, match="upper bound"):
        make_dual(lower, {}, upper={("u", "v1"): 5})
    plain = helpers.single_edge()
    with pytest.raises(ValueError, match="lower bound"):
        make_dual(plain, {}, lower={plain.edges[0].key: 1})


def test_bound_dual_columns_are_where_the_edge_row_has_its_signed_entries():
    # DualSolution.lower and upper read an edge's bound-dual columns off
    # formulations.bound_columns, build_dual's layout; the reference scans
    # the edge's own dual row, past the agents, for its -1 (lower) and +1
    # (upper) entry. Column j holds j + 1, so the value read names the
    # column and a missing bound dual reads as zero.
    rng = random.Random(4848)
    games = [g for _, _, g in helpers.cap_set()]
    games += [helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=5,
                                       max_edges=10, max_weight=3)
              for _ in range(200)]
    seen = Counter()
    for g in games:
        program, n = build_dual(g), len(g.agents)
        d = DualSolution(g, tuple(F(j + 1) for j in range(len(program.variables))))
        for e, row in zip(g.edges, program.constraints):
            for sign, read in ((-1, d.lower), (1, d.upper)):
                j = next((j for j in range(n, len(row.coeffs)) if row.coeffs[j] == sign), None)
                assert read(e.key) == (0 if j is None else j + 1), (g, e, sign)
                seen[("lower", "upper")[sign > 0] + (" absent" if j is None else "")] += 1
    # Counts at this seed: 801 lower and 605 upper bound duals, and 196
    # HK edges without a ceiling; the other kinds' 192 cap-set edges have
    # neither.
    assert len(games) == 215 and seen["lower absent"] == 192, seen
    assert seen["lower"] >= 700 and seen["upper"] >= 500, seen
    assert seen["upper absent"] - seen["lower absent"] >= 150, seen


def test_building_a_dual_solves_nothing(monkeypatch):
    # DualSolution and make_dual read the program's width and the
    # bound-dual columns off formulations.bound_columns: on a cleared
    # cache, building either on a cap-set game makes no OptimalFace, builds
    # no dual program and opens no session, and each entry lands in its
    # build_dual column.
    faces, built = [], []
    face_of, build_of = analysis_module.OptimalFace, analysis_module.build_dual
    monkeypatch.setattr(analysis_module, "OptimalFace",
                        lambda lp: faces.append(lp) or face_of(lp))
    monkeypatch.setattr(analysis_module, "build_dual", lambda g: built.append(g) or build_of(g))
    for kind, s, g in helpers.cap_set():
        labels = build_dual(g).variables
        analysis_module._session.cache_clear()
        hk = g.kind is GameKind.HOFFMAN_KRUSKAL
        d = make_dual(g, {q: j + 1 for j, q in enumerate(g.agents)},
                      {e.key: 1 for e in g.edges} if hk else None,
                      {e.key: 2 for e in g.edges if e.upper is not None} if hk else None)
        assert len(d.values) == len(labels)
        for j, label in enumerate(labels):
            assert d.values[j] == (j + 1 if j < len(g.agents) else
                                   1 if label.startswith("floor") else 2), (kind, s, label)
        values = tuple(F(j) for j in range(len(labels)))
        assert DualSolution(g, values).values == values
        with pytest.raises(ValueError, match=f"dual program of {len(labels)} columns"):
            DualSolution(g, values[1:])
        assert not faces and not built, (kind, s)
        assert analysis_module._session.cache_info().currsize == 0


def test_a_dual_vector_of_another_length_is_refused():
    # One value per column of build_dual: 3 for the plain game, 7 for the
    # bounds game (3 vertex duals, a floor and a ceiling dual per edge).
    plain, mixed = helpers.two_team_b_matching(), helpers.hk_mixed_bounds()
    for g, columns in ((plain, 3), (mixed, 7)):
        assert len(build_dual(g).variables) == columns
        for length in (0, 1, columns - 1, columns + 1):
            with pytest.raises(ValueError, match=f"dual program of {columns} columns"):
                DualSolution(g, (F(1),) * length)
    # Entries are coerced exactly, as make_dual's are.
    assert DualSolution(plain, ("1/2", 0, F(2))).values == (F(1, 2), 0, 2)
    d, face = optimal_dual(plain), DualFace(plain)
    for read in (d.vertex, face.vertex_coeffs, face.vertex_range):
        with pytest.raises(ValueError, match="'nobody'"):
            read("nobody")
    with pytest.raises(ValueError, match="no edge"):
        optimal_dual(mixed).upper(("v1", "u"))


def test_a_float_dual_raises_the_package_type_error():
    g = helpers.hk_mixed_bounds()
    floats = tuple(float(x) for x in optimal_dual(g).values)
    for call in (is_optimal_dual, dual_to_imputation, surplus_account):
        with pytest.raises(TypeError, match="expected an exact rational"):
            call(g, DualSolution(g, floats))


def _partly_capped_hk_games(rng, count):
    """Seeded bounds-capacity games with a ceiling on some edges, not all."""
    games = []
    while len(games) < count:
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=3, max_edges=6)
        if len({e.upper is None for e in g.edges}) == 2:
            games.append(g)
    return games


def test_dual_reads_by_position_match_the_column_labels():
    # Every read goes by position (column j is agent j; an edge's bound
    # duals are where its dual row has -1 and +1); the labels of
    # build_dual, looked up here and only here, must name the same columns.
    rng = random.Random(2402)
    games = _partly_capped_hk_games(rng, 40)
    for kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING):
        games += [helpers.random_bipartite(rng, kind) for _ in range(10)]
    games += [helpers.random_general(rng) for _ in range(10)]
    seen = dict.fromkeys(("duals", "floor duals", "ceiling duals", "no column"), 0)
    for g in games:
        labels = build_dual(g).variables
        face = DualFace(g)

        def at(d, label):
            return d.values[labels.index(label)] if label in labels else 0

        for q in g.agents:
            assert face.vertex_coeffs(q) == [int(label == vertex_dual_var(q)) for label in labels]
        hk = g.kind is GameKind.HOFFMAN_KRUSKAL
        for d in [optimal_dual(g)] + sample_dual_vertices(g, 2, seed=rng.randint(0, 10**6)):
            assert all(d.vertex(q) == at(d, vertex_dual_var(q)) for q in g.agents)
            for e in g.edges:
                assert d.lower(e.key) == at(d, lower_dual_var(e.key))
                assert d.upper(e.key) == at(d, upper_dual_var(e.key))
                seen["floor duals"] += d.lower(e.key) != 0
                seen["ceiling duals"] += d.upper(e.key) != 0
                seen["no column"] += upper_dual_var(e.key) not in labels
            again = make_dual(g, {q: d.vertex(q) for q in g.agents},
                              {e.key: d.lower(e.key) for e in g.edges} if hk else None,
                              {e.key: d.upper(e.key) for e in g.edges
                               if e.upper is not None} if hk else None)
            assert again == d
            seen["duals"] += 1
    # Counts at this seed: 186 duals, 83 nonzero floor and 30 nonzero
    # ceiling duals, 397 reads of an absent ceiling column.
    assert seen["duals"] >= 150 and min(seen.values()) >= 20, seen


def test_make_dual_on_infeasible_lower_bounds_raises():
    # u has capacity 1 but two edges that must each be used once: the game
    # is refused when built, so no dual of it (make_dual or DualSolution)
    # can be asked for, and every game that exists has an optimal dual.
    with pytest.raises(InstanceError, match="^lower bounds infeasible$"):
        make_instance(GameKind.HOFFMAN_KRUSKAL, ["u"], ["v1", "v2"],
                      [("u", "v1", 1, 1, None), ("u", "v2", 1, 1, None)],
                      capacities={"u": 1, "v1": 1, "v2": 1})


def test_duals_of_another_instance_are_rejected():
    lower, mixed = helpers.hk_edge_lower(), helpers.hk_mixed_bounds()
    foreign = make_dual(mixed, {"u": 3}, lower={("u", "v1"): 2})
    assert is_optimal_dual(mixed, foreign)
    for call in (is_optimal_dual, surplus_account, dual_to_imputation):
        with pytest.raises(ValueError, match="another instance"):
            call(lower, foreign)


def test_is_optimal_dual_agrees_with_the_fraction_reference():
    # is_optimal_dual decides in one integer pass; the reference checks
    # each bound and row by Constraint.activity and the value by evaluate
    # against primal_optimum, in Fractions. The points: the deterministic
    # dual and two sampled vertices of each game, and from each one entry
    # made negative, one row emptied, one vertex dual raised and one
    # transfer along an edge (helpers.dual_candidates), on the cap set and
    # 400 seeded games of each bipartite kind.
    rng = random.Random(5353)
    games = [g for _, _, g in helpers.cap_set()]
    for kind in helpers.ALL_BIPARTITE:
        games += [helpers.random_bipartite(rng, kind, max_side=4, max_edges=7)
                  for _ in range(400)]
    seen = Counter()
    for g in games:
        for values in helpers.dual_candidates(g, rng):
            verdict = helpers.reference_dual_verdict(g, values)
            assert is_optimal_dual(g, DualSolution(g, values)) is (verdict == "optimal"), (
                g, values, verdict)
            seen[verdict] += 1
    # Counts at this seed: 6,289 optimal points, 3,933 outside a bound,
    # 5,247 failing a row and 4,196 feasible but not optimal.
    assert len(games) == 1615
    assert min(seen[v] for v in ("optimal", "bound", "row", "feasible")) >= 3000, seen


def _assert_checked(built):
    """``built``, a DualSolution or an Imputation the library returned,
    equals what its checked constructor makes of its fields (tuples of
    Fractions), and each of its numbers is a Fraction, as there."""
    if isinstance(built, DualSolution):
        checked, numbers = DualSolution(built.instance, built.values), built.values
    else:
        checked, numbers = Imputation(built.payoffs), [v for _, v in built.payoffs]
    assert checked == built and all(type(v) is Fraction for v in numbers), built


def test_every_dual_and_imputation_the_library_builds_equals_its_checked_one():
    # optimal_dual, sample_dual_vertices and a blocked HK verdict's
    # witness_dual build DualSolution, and the dual-derived and
    # row-generation payoffs build Imputation, past the constructors'
    # checks: each must equal what its checked constructor makes of it.
    rng = random.Random(5454)
    games = [g for _, _, g in helpers.cap_set()]
    for kind in helpers.ALL_BIPARTITE:
        games += [helpers.random_bipartite(rng, kind, max_side=4, max_edges=7)
                  for _ in range(40)]
    games += [helpers.random_general(rng) for _ in range(40)]
    seen = Counter()
    for g in games:
        duals = [optimal_dual(g)] + sample_dual_vertices(g, 3, seed=rng.randint(0, 10**6))
        built = list(duals)
        nonempty, witness = core_nonempty(g)
        built += [witness] if nonempty else []
        if nonempty and g.kind is not GameKind.HOFFMAN_KRUSKAL:
            built += [dual_to_imputation(g, d) for d in duals]
            built += sample_core_vertices(g, 3, seed=rng.randint(0, 10**6))
        if g.kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B):
            built += [*extreme_imputations(g), simultaneous_imputation(g)]
        if g.kind is GameKind.HOFFMAN_KRUSKAL:
            grand = surplus_account(g, duals[0]).surplus
            shares = [rng.randint(0, 3) for _ in g.agents]
            shares[0] += not any(shares)
            verdict = is_core_imputation(g, make_imputation(
                g, {q: grand * k / sum(shares) for q, k in zip(g.agents, shares)}))
            built += [verdict.witness_dual] if verdict.witness_dual is not None else []
        for item in built:
            _assert_checked(item)
            seen[type(item).__name__] += 1
            seen["witness dual"] += isinstance(item, DualSolution) and item.instance != g
    # Counts at this seed: 639 duals, 38 of them witness duals, and 1,256
    # imputations.
    assert seen["DualSolution"] >= 500 and seen["Imputation"] >= 1000, seen
    assert seen["witness dual"] >= 20, seen


def test_dual_image_values_are_the_objective_at_the_fixed_vertex(monkeypatch):
    # in_dual_image fixes the vertex duals through their bounds and
    # minimizes, so its programs have nonzero lower bounds; each optimal
    # value must be the objective at the vertex, summed in Fraction.
    fixed = []
    original = analysis_module.solve

    def checking(lp):
        sol = original(lp)
        if sol.status is Status.OPTIMAL:
            assert lp.sense is Sense.MINIMIZE
            assert sol.value == sum((c * x for c, x in zip(lp.objective, sol.values)), F(0))
            fixed.append(any(lp.lower))
        return sol

    monkeypatch.setattr(analysis_module, "solve", checking)
    rng = random.Random(2302)
    inside = 0
    for _ in range(60):
        g = helpers.random_bipartite(rng, rng.choice(helpers.ALL_BIPARTITE))
        imp = dual_to_imputation(g, optimal_dual(g))
        payoffs = imp.as_dict
        q = rng.choice(g.agents)
        shifted = make_imputation(g, {**payoffs, q: payoffs[q] + F(1, 3)})
        inside += in_dual_image(g, imp)
        in_dual_image(g, shifted)
    assert inside == 60
    assert len(fixed) >= 100 and sum(fixed) >= 100, (len(fixed), sum(fixed))


def test_dual_program_is_solved_once_per_instance(monkeypatch):
    # Weights no other test uses, so no cached solve of this game exists.
    g = make_instance(GameKind.ASSIGNMENT, ["a1", "a2", "a3"], ["b1", "b2", "b3"],
                      [("a1", "b1", F(61, 7)), ("a1", "b2", F(40, 7)),
                       ("a2", "b1", F(47, 7)), ("a2", "b3", F(54, 7)),
                       ("a3", "b2", F(33, 7)), ("a3", "b3", F(54, 7))])
    program = build_dual(g)
    solved, fixed = [], []
    original, original_solve = lp_module._Tableau.solve, analysis_module.solve

    def counting(tableau):
        solved.append(tableau.lp)
        return original(tableau)

    monkeypatch.setattr(lp_module._Tableau, "solve", counting)
    monkeypatch.setattr(analysis_module, "solve", lambda lp: fixed.append(lp) or original_solve(lp))
    optimal_dual(g)
    verify_complementarity(g)
    extremes = extreme_imputations(g)
    payoff_range(g, "a1")
    assert all(in_dual_image(g, imp) for imp in extremes)
    simultaneous_imputation(g)
    # The one tableau solved is the dual program's; each in_dual_image
    # call solves its program, every vertex dual fixed through its
    # bounds, once, through ``lp.solve``, which builds no tableau for it.
    assert [(lp.variables, lp.objective, lp.constraints, lp.lower, lp.upper)
            for lp in solved] == [(program.variables, program.objective, program.constraints,
                                   program.lower, program.upper)]
    assert len(fixed) == len(extremes) == 2
    assert all(lp.constraints == program.constraints and lp.lower == lp.upper for lp in fixed)


def test_hk_coalition_sub_games_are_solved_once_per_induced_edge_set(monkeypatch):
    # Weights no other test uses, so no cached solve of this game or of any
    # of its sub-games exists.
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a1", "a2", "a3"], ["b1", "b2", "b3"],
                      [("a1", "b1", F(67, 13), 0, 2), ("a1", "b2", F(41, 13), 0, None),
                       ("a2", "b2", F(58, 13), 1, 2), ("a2", "b3", F(29, 13), 0, 1),
                       ("a3", "b3", F(50, 13), 0, None)],
                      capacities={"a1": 2, "a2": 3, "a3": 1, "b1": 1, "b2": 2, "b3": 2})
    faces, bare, cuts = [], [], []
    original, original_solve = analysis_module.OptimalFace, analysis_module.solve
    original_cut = LinearProgram._bland_part
    monkeypatch.setattr(analysis_module, "OptimalFace",
                        lambda lp: faces.append(lp) or original(lp))
    monkeypatch.setattr(analysis_module, "solve",
                        lambda lp: bare.append(lp) or original_solve(lp))
    monkeypatch.setattr(LinearProgram, "_bland_part",
                        staticmethod(lambda *parts: cuts.append(parts) or original_cut(*parts)))
    nonempty, witness = core_nonempty(g)
    assert nonempty and is_core_imputation(g, witness).in_core
    covers = [helpers.closed_part(g, s)
              for size in range(1, len(g.agents)) for s in combinations(g.agents, size)]
    induced = [frozenset(e.key for e in g.edges if e.u in s and e.v in s) for s in covers]
    distinct = set(induced) - {frozenset()}
    joined = {edges for edges, s in zip(induced, covers) if edges and helpers.connected(g, s)}
    # One face of the whole game, then one solve of a coalition's part of
    # its dual program, cut in integers (LinearProgram._bland_part), per
    # distinct connected inner edge set: 14 here, against 19 distinct
    # inner edge sets and 42 edge-spanning coalitions; a disconnected one
    # sums its parts' surpluses. The bare solves are row generation's,
    # over the agents' payoffs.
    assert (len(joined), len(distinct), sum(map(bool, induced))) == (14, 19, 42)
    assert len(faces) == 1 and bare and all(lp.variables == g.agents for lp in bare)
    assert len(faces) + len(cuts) == 1 + len(joined)


def test_an_hk_core_question_keeps_the_games_session_alone():
    # Each connected coalition's demand is a bare solve of its part of the
    # game's dual program, so a cold core_nonempty leaves no sub-game's
    # session behind, only the game's own.
    for _, _, g in helpers.cap_set(("hoffman_kruskal",)):
        analysis_module._session.cache_clear()
        oracle_module._search.cache_clear()
        core_nonempty(g)
        assert analysis_module._session.cache_info().currsize == 1


def test_hk_payments_and_dual_image():
    mixed = helpers.hk_mixed_bounds()
    first = make_dual(mixed, {"u": 3}, lower={("u", "v1"): 2})
    second = make_dual(mixed, {"u": 1, "v2": 2})
    pay1 = dual_to_imputation(mixed, first)
    pay2 = dual_to_imputation(mixed, second)
    assert pay1.as_dict == {"u": 12, "v1": 0, "v2": 0}
    assert pay2.as_dict == {"u": 4, "v1": 0, "v2": 6}
    assert pay1.total == 12 and pay2.total == 10
    assert is_core_imputation(mixed, pay1).in_core
    assert is_core_imputation(mixed, pay2).in_core
    assert in_dual_image(mixed, pay1) and in_dual_image(mixed, pay2)


def test_dual_image_matches_the_closed_form_reference():
    # in_dual_image solves the dual program with every vertex dual fixed;
    # helpers.reference_in_dual_image decides the same question edge by
    # edge in closed form, against helpers.reference_optima's optimum,
    # sharing no code with the library. On the cap set's bipartite games
    # and 100 seeded games of each bipartite kind, the candidates are
    # optimal duals' payoffs, their midpoint and payoffs near each.
    rng = random.Random(5151)
    games = [g for _, _, g in helpers.cap_set(helpers.ALL_BIPARTITE)]
    for kind in helpers.ALL_BIPARTITE:
        games += [helpers.random_bipartite(rng, kind, max_side=4, max_edges=8)
                  for _ in range(100)]
    seen = Counter()
    for g in games:
        optimum = helpers.reference_optima(g)[0]
        for payoffs in helpers.dual_image_candidates(g, rng, samples=2):
            want = helpers.reference_in_dual_image(g, payoffs, optimum)
            assert in_dual_image(g, make_imputation(g, payoffs)) is want, (g, payoffs)
            seen[want] += 1
        seen["bounded hk"] += any(e.lower or e.upper is not None for e in g.edges)
    # Counts at this seed: 1,689 members, 2,542 non-members, 100 HK games
    # with a floor or a ceiling.
    assert len(games) == 412 and seen["bounded hk"] >= 50, seen
    assert seen[True] >= 300 and seen[False] >= 300, seen


def test_imputations_compare_by_payoffs():
    # An imputation is its payoffs: one derived from a dual equals one
    # built from the same numbers, and hashes alike.
    mixed = helpers.hk_mixed_bounds()
    d = make_dual(mixed, {"u": 3}, lower={("u", "v1"): 2})
    assert dual_to_imputation(mixed, d) == make_imputation(mixed, {"u": 12})
    edge = helpers.single_edge()
    derived = dual_to_imputation(edge, optimal_dual(edge))
    built = make_imputation(edge, derived.as_dict)
    assert derived == built and hash(derived) == hash(built)


def test_side_optimal_duals_pay_each_agent_the_end_of_its_range():
    # The reference is each agent's own two face queries, as payoffs
    # (helpers.reference_payoff_range). The face's two side-optimal
    # vertices are the ends of its lattice (Shapley and Shubik 1971):
    # each pays every agent of its side the top of its range and every
    # agent of the other side the bottom, and the extremes are their
    # payoffs. The simultaneous imputation, built from the same two
    # vertices, must pass its asserts against the oracle's classes.
    games = [g for _, _, g in helpers.cap_set(("assignment", "uniform_b"))]
    rng = random.Random(4545)
    kinds = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B)
    games += [helpers.random_bipartite(rng, kinds[i % 2], max_side=5, max_edges=12,
                                       max_weight=4)
              for i in range(600)]
    seen = Counter()
    for g in games:
        ranges = {q: helpers.reference_payoff_range(g, q) for q in g.agents}
        duals = analysis_module._session(g).side_optimal
        payoffs = []
        for d, side in zip(duals, (g.side_u, g.side_v)):
            pay = analysis_module._dual_payoffs(g, d)
            assert pay.as_dict == {q: hi if q in side else lo
                                   for q, (lo, hi) in ranges.items()}
            payoffs.append(pay)
        assert extreme_imputations(g) == tuple(payoffs)
        simultaneous_imputation(g)
        seen["non-point range"] += any(lo != hi for lo, hi in ranges.values())
        seen["uniform_b, b > 1"] += g.kind is GameKind.UNIFORM_B and g.uniform_capacity > 1
    assert len(games) == 606
    assert seen["non-point range"] >= 400 and seen["uniform_b, b > 1"] >= 150, seen


def test_hk_edge_upper_core_membership():
    g = helpers.hk_edge_upper()
    imp = make_imputation(g, {"u": 1, "v2": 1})
    assert is_core_imputation(g, imp).in_core
    assert not in_dual_image(g, imp)


def test_hk_edge_lower_core_membership():
    g = helpers.hk_edge_lower()
    big = make_imputation(g, {"u": 6})
    assert is_core_imputation(g, big).in_core
    assert in_dual_image(g, big)
    companion = make_imputation(g, {"u": 3, "v2": 3})
    assert is_core_imputation(g, companion).in_core
    assert not in_dual_image(g, companion)
    printed = make_imputation(g, {"u": 3, "v1": 3})
    verdict = is_core_imputation(g, printed)
    assert not verdict.in_core
    assert verdict.witness == frozenset({"u", "v2"})
    assert verdict.witness_demand == 6
    assert not in_dual_image(g, printed)


def _pinned_row_admits(face, equations):
    """Does some point of ``face`` satisfy every ``(coeffs, value)`` equation?"""
    rows = [Constraint(tuple(F(coeffs.get(name, 0)) for name in face.variables),
                       Relation.EQ, value) for coeffs, value in equations]
    zero = [0] * len(face.variables)
    program = LinearProgram(Sense.MINIMIZE, face.variables, zero,
                            face.constraints + tuple(rows), face.lower, face.upper)
    return lp_module.solve(program).status is Status.OPTIMAL


def test_dual_image_and_hk_total_match_the_pinned_row_lp():
    # in_dual_image fixes the vertex duals through their bounds, and the
    # hoffman_kruskal grand total reads the min and max of one functional
    # over the face; both against a feasibility solve of the pinned LP.
    rng = random.Random(5)
    image = {True: 0, False: 0}
    total = {True: 0, False: 0}
    for kind in helpers.ALL_BIPARTITE:
        for _ in range(15):
            g = helpers.random_bipartite(rng, kind, max_side=3, max_edges=6)
            face = helpers.pinned_row_face(g)
            candidates = helpers.dual_image_candidates(g, rng)
            weights = {vertex_dual_var(q): F(g.capacity(q)) for q in g.agents}
            for payoffs in candidates:
                imp = make_imputation(g, payoffs)
                want = _pinned_row_admits(
                    face, [({vertex_dual_var(q): 1}, imp[q] / g.capacity(q))
                           for q in g.agents])
                assert in_dual_image(g, imp) is want
                image[want] += 1
                if kind is GameKind.HOFFMAN_KRUSKAL:
                    want = _pinned_row_admits(face, [(weights, imp.total)])
                    lo, hi = analysis_module._session(g).grand_range
                    assert (lo <= imp.total and (hi is None or imp.total <= hi)) is want
                    total[want] += 1
    # Counts at these seeds: D(I) 270 in, 375 out; grand total 120 in, 33 out.
    assert image[True] >= 200 and image[False] >= 200, image
    assert total[True] >= 80 and total[False] >= 20, total


def _hand_written_slack(e):
    """An edge's overpayment functional by column name, written out from
    its bounds: both vertex duals, less the floor dual, plus the ceiling
    dual when the edge has an upper bound."""
    coeffs = {vertex_dual_var(e.u): 1, vertex_dual_var(e.v): 1, lower_dual_var(e.key): -1}
    if e.upper is not None:
        coeffs[upper_dual_var(e.key)] = 1
    return coeffs


def test_surplus_and_overpayment_match_hand_written_references():
    # The surplus is the vertex part of build_dual's objective and an
    # overpayment the slack of the edge's row. The references write both
    # out from the edge bounds: the adjustment as sum(lower * floor dual -
    # upper * ceiling dual), and the largest overpayment by a cold solve of
    # the pinned-row LP, not by a query from the optimal basis.
    rng = random.Random(1010)
    counts = dict.fromkeys(("duals", "bound duals", "capped", "uncapped", "unbounded"), 0)
    for _ in range(60):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=3, max_edges=6)
        for d in [optimal_dual(g)] + sample_dual_vertices(g, 3, seed=rng.randint(0, 10**6)):
            adjustment = F(0)
            for e in g.edges:
                adjustment += e.lower * d.lower(e.key)
                if e.upper is not None:
                    adjustment -= e.upper * d.upper(e.key)
            assert surplus_account(g, d).adjustment == adjustment
            counts["duals"] += 1
            counts["bound duals"] += any(d.lower(e.key) or d.upper(e.key) for e in g.edges)
        pinned, face = helpers.pinned_row_face(g), DualFace(g)
        for e in g.edges:
            slack = _hand_written_slack(e)
            objective = [F(slack.get(name, 0)) for name in pinned.variables]
            top = lp_module.solve(LinearProgram(Sense.MAXIMIZE, pinned.variables, objective,
                                                pinned.constraints, pinned.lower, pinned.upper))
            want = top.value - e.weight if top.status is Status.OPTIMAL else None
            assert face.max_overpayment(e.key) == want
            counts["uncapped" if e.upper is None else "capped"] += 1
            counts["unbounded"] += want is None
    # Counts at this seed: 151 duals over 60 games, 86 with a nonzero bound
    # dual; 120 capped and 39 uncapped edges, 22 overpayments unbounded.
    assert counts["duals"] >= 120 and counts["bound duals"] >= 60, counts
    assert counts["capped"] >= 80 and counts["uncapped"] >= 25, counts
    assert counts["unbounded"] >= 10, counts


def test_a_face_of_another_instance_is_refused():
    # Same agents and edge keys, other weights: a face of g2 answers for g2.
    g1 = make_instance("assignment", ["a1", "a2"], ["b1", "b2"],
                       [("a1", "b1", F(1)), ("a2", "b2", F(1))])
    g2 = make_instance("assignment", ["a1", "a2"], ["b1", "b2"],
                       [("a1", "b1", F(5)), ("a2", "b2", F(1))])
    assert payoff_range(g1, "a1") == (0, 1) and payoff_range(g2, "a1") == (0, 5)
    queries = [
        lambda g, face: payoff_range(g, "a1", face),
        lambda g, face: extreme_imputations(g, face),
        lambda g, face: sample_dual_vertices(g, 3, 0, face),
    ]
    for query in queries:
        with pytest.raises(ValueError, match="face belongs to another instance"):
            query(g1, DualFace(g2))
        assert query(g1, DualFace(g1)) == query(g1, None)
        # A face built for an equal instance is the instance's own.
        again = make_instance("assignment", g1.side_u, g1.side_v, g1.edges)
        assert query(g1, DualFace(again)) == query(g1, None)


def test_payoff_range_refuses_a_game_without_dual_imputations():
    g = helpers.unit_triangle()
    assert not is_concurrent(g)
    for q in g.agents:
        with pytest.raises(ValueError, match="not concurrent: optimal covers are not imputations"):
            payoff_range(g, q)
        assert paid_sometimes(g, q) is None
    with pytest.raises(ValueError, match="not concurrent"):
        dual_to_imputation(g, optimal_dual(g))
    # A concurrent general game still has its ranges.
    pendant = helpers.triangle_pendant()
    assert is_concurrent(pendant)
    assert payoff_range(pendant, "v1") == (1, 1)


def test_payoff_ranges_are_the_per_agent_queries():
    # payoff_range against two face queries per agent (helpers'
    # reference) on the cap set, HK's rays included, and on 400 seeded
    # games of each lattice kind, where the ranges are read off the two
    # side-optimal vertices: a side_u agent's top on the side_u-optimal
    # one and its bottom on the side_v-optimal one, a side_v agent's the
    # other way round.
    rng = random.Random(4747)
    games = [g for _, _, g in helpers.cap_set(
        ("assignment", "uniform_b", "b_matching", "hoffman_kruskal"))]
    for kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING):
        games += [helpers.random_bipartite(rng, kind, max_side=5, max_edges=10, max_weight=3)
                  for _ in range(400)]
    seen = Counter()
    for g in games:
        for q in g.agents:
            lo, hi = payoff_range(g, q)
            assert (lo, hi) == helpers.reference_payoff_range(g, q), (g, q)
            seen["lo < hi" if lo != hi else "lo == hi"] += 1
        seen["b_matching, b > 1"] += (g.kind is GameKind.B_MATCHING
                                      and any(g.capacity(q) > 1 for q in g.agents))
        seen["uniform_b, b > 1"] += g.kind is GameKind.UNIFORM_B and g.uniform_capacity > 1
    # Counts at this seed: 2,782 ranges with lo < hi and 4,677 points;
    # 399 b_matching and 263 uniform_b games with a capacity above one.
    assert len(games) == 1212
    assert seen["lo < hi"] >= 2500 and seen["lo == hi"] >= 4000, seen
    assert seen["b_matching, b > 1"] >= 350 and seen["uniform_b, b > 1"] >= 200, seen


def test_a_zero_capacity_is_refused_by_the_side_queries():
    # With a capacity of zero the agent's vertex dual costs nothing and the
    # face is unbounded along it, so a side query would be unbounded. Such
    # a game is refused when it is built, so no reader of the side-optimal
    # vertices (payoff_range, extreme_imputations, simultaneous_imputation)
    # meets one.
    with pytest.raises(InstanceError, match="^uniform capacity must be a positive integer$"):
        helpers.single_edge(GameKind.UNIFORM_B, weight=3, uniform_capacity=0)
    with pytest.raises(InstanceError, match="^non-positive capacity for b1$"):
        make_instance(GameKind.B_MATCHING, ["a"], ["b1", "b2"],
                      [("a", "b1", 2), ("a", "b2", 1)], capacities={"a": 1, "b1": 0, "b2": 1})


def test_a_zero_capacity_is_refused_by_the_dual_image_test():
    # A payoff fixes its agent's vertex dual at payoff / capacity, which a
    # capacity of zero leaves undefined. Such a game is refused when it is
    # built, naming each such agent, so in_dual_image never divides by zero.
    with pytest.raises(InstanceError, match="^uniform capacity must be a positive integer$"):
        helpers.single_edge(GameKind.UNIFORM_B, weight=3, uniform_capacity=0)
    with pytest.raises(InstanceError, match="^non-positive capacity for a; "
                                            "non-positive capacity for b1$"):
        make_instance(GameKind.B_MATCHING, ["a"], ["b1", "b2"],
                      [("a", "b1", 2), ("a", "b2", 1)], capacities={"a": 0, "b1": 0, "b2": 1})


def test_payoff_ranges_and_samples_consistent():
    rng = random.Random(83)
    for _ in range(15):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                     max_edges=6)
        face = DualFace(g)
        ranges = {q: payoff_range(g, q, face) for q in g.agents}
        for imp in sample_core_vertices(g, 5, seed=rng.randint(0, 10**6)):
            for q in g.agents:
                lo, hi = ranges[q]
                assert lo <= imp[q] <= hi


def test_bmatching_duals_always_map_into_core():
    rng = random.Random(97)
    for _ in range(20):
        g = helpers.random_bipartite(rng, GameKind.B_MATCHING, max_side=3,
                                     max_edges=5, max_b=3)
        for d in sample_dual_vertices(g, 3, seed=rng.randint(0, 10**6)):
            imp = dual_to_imputation(g, d)
            assert is_core_imputation(g, imp).in_core


def test_hk_duals_satisfy_restricted_dual_inequality():
    # The provable partial-characterization bound: allocations dominate
    # worth adjusted by the imputation's own edge duals, coalition-wise.
    rng = random.Random(101)
    for _ in range(20):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=3,
                                     max_edges=5, max_b=3)
        for d in sample_dual_vertices(g, 2, seed=rng.randint(0, 10**6)):
            imp = dual_to_imputation(g, d)
            agents = list(g.agents)
            for _ in range(6):
                members = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
                sub = [e for e in g.edges if e.u in members and e.v in members]
                if not sub:
                    continue
                adjusted = worth(g, members)
                for e in sub:
                    adjusted += F(e.lower) * d.lower(e.key)
                    if e.upper is not None:
                        adjusted -= F(e.upper) * d.upper(e.key)
                assert sum(imp[q] for q in members) >= adjusted


def test_sampled_duals_fall_back_to_the_base_vertex():
    # A hoffman_kruskal face has rays, so every sampled objective can be
    # unbounded: 13 of these 100 games at count 3 sampled no vertex.
    rng = random.Random(2026)
    base_only = 0
    for _ in range(100):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL)
        duals = sample_dual_vertices(g, 3, seed=rng.randint(0, 10**6))
        assert duals and all(is_optimal_dual(g, d) for d in duals)
        base_only += duals == [optimal_dual(g)]
    assert base_only >= 13


def test_top_of_payoff_range_is_marginal_worth_in_assignment_games():
    # Demange (1982), Leonard (1983): in an assignment game the largest
    # core payoff of q is v(N) - v(N without q), a fact of the oracle's
    # worths alone, independent of the dual face that gives the range.
    rng = random.Random(1982)
    for _ in range(40):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=4,
                                     max_edges=8, max_weight=5)
        face = DualFace(g)
        total = worth(g, g.agents)
        for q in g.agents:
            rest = [p for p in g.agents if p != q]
            assert payoff_range(g, q, face)[1] == total - worth(g, rest)
    # So in a uniform_b game too: its worths and its core are b times
    # those of the assignment game on the same edges.
    rng = random.Random(1983)
    for _ in range(40):
        g = helpers.random_bipartite(rng, GameKind.UNIFORM_B, max_side=4,
                                     max_edges=8, max_weight=5)
        total = worth(g, g.agents)
        for q in g.agents:
            assert payoff_range(g, q)[1] == total - worth(g, [p for p in g.agents if p != q])


def _relabeled(g, rng):
    side_u, side_v, edges = list(g.side_u), list(g.side_v), list(g.edges)
    for items in (side_u, side_v, edges):
        rng.shuffle(items)
    return make_instance(g.kind, side_u, side_v, edges, g.capacities,
                         g.uniform_capacity)


def _probe_payoffs(g):
    """The deterministic dual's payoffs and the same with 1/2 (or less)
    moved from the best-paid agent to another, fixed on the original game
    so that every relabeling is asked about the same vectors."""
    pay = dual_to_imputation(g, optimal_dual(g)).as_dict
    giver = min(g.agents, key=lambda q: (-pay[q], q))
    taker = min(q for q in g.agents if q != giver)
    step = min(F(1, 2), pay[giver])
    moved = dict(pay, **{giver: pay[giver] - step, taker: pay[taker] + step})
    return pay, moved


def _face_values(g, probes):
    face = DualFace(g)
    agents = {q: (payoff_range(g, q, face), paid_sometimes(g, q),
                  classify_player(g, q)) for q in g.agents}
    teams = {e.key: (always_paid_fairly(g, e.key),
                     face.max_overpayment(e.key), classify_team(g, e.key))
             for e in g.edges}
    pairs = {frozenset(pair): worth(g, pair) for pair in combinations(g.agents, 2)}
    worths = {frozenset(members): worth(g, members)
              for size in range(len(g.agents) + 1) for members in combinations(g.agents, size)}
    # The core's rows (hoffman_kruskal demands follow the pivot rule).
    rows = None if g.kind is GameKind.HOFFMAN_KRUSKAL else {
        frozenset(helpers.names(g, members)): demand
        for members, demand in analysis_module._session(g).demands()}
    verdicts = []
    for payoffs in probes:
        imp = make_imputation(g, payoffs)
        verdicts.append((
            in_dual_image(g, imp) if g.kind in BIPARTITE_KINDS else None,
            None if g.kind is GameKind.HOFFMAN_KRUSKAL else is_core_imputation(g, imp).in_core))
    return agents, teams, pairs, worths, rows, verdicts


def test_face_values_do_not_depend_on_agent_or_edge_order():
    # Optimal values over the dual face are facts of the game, so the
    # order of agents and edges (which fixes the column order, and with
    # it the pivots) must not move them. Nor must the coalition worths or
    # the core's rows, both found by scans in agent order: the edge pairs
    # when every capacity is one, the connected coalitions otherwise.
    rng = random.Random(4)
    games = [helpers.random_bipartite(rng, kind, max_side=3, max_edges=6)
             for kind in helpers.ALL_BIPARTITE for _ in range(8)]
    general = [helpers.random_general(rng, max_vertices=5, max_edges=7)
               for _ in range(40)]
    concurrent = [g for g in general if is_concurrent(g)]
    assert len(concurrent) >= 10
    seen = set()
    capacity_one = 0
    for g in games + concurrent:
        probes = _probe_payoffs(g)
        expected = _face_values(g, probes)
        seen.update(expected[5])
        capacity_one += helpers.capacity_one(g)
        for _ in range(2):
            assert _face_values(_relabeled(g, rng), probes) == expected
    assert capacity_one >= 40 and len(games + concurrent) - capacity_one >= 15
    # Every (D(I), core) verdict pair that can occur does: None marks a
    # verdict not asked, and D(I) lies inside the core.
    flags = (True, False, None)
    assert seen == {(a, b) for a in flags for b in flags} - {(True, False), (None, None)}


def _session_questions(g):
    """One session's questions about ``g``, answered in order and named:
    the whole total paid to one agent (a membership scan blocked early),
    the dual-face sequence, ``core_nonempty`` and its witness's membership
    (every row read), then the first membership again."""
    if g.kind is GameKind.HOFFMAN_KRUSKAL:
        total = dual_to_imputation(g, optimal_dual(g)).total
    else:
        total = max_weight(g)[0]
    to_one = make_imputation(g, {g.agents[0]: total})
    out = {"to one": is_core_imputation(g, to_one),
           "complementarity": verify_complementarity(g)}
    if g.kind in BIPARTITE_KINDS:
        face = DualFace(g)
        if g.kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B):
            out["extremes"] = extreme_imputations(g, face)
            out["ranges"] = [payoff_range(g, q, face) for q in g.agents]
        out["duals"] = sample_dual_vertices(g, 4, 1, face)
        derived = [dual_to_imputation(g, d) for d in out["duals"]]
        out["in image"] = [in_dual_image(g, imp) for imp in derived]
        out["duals in core"] = [is_core_imputation(g, imp) for imp in derived]
    out["nonempty"] = core_nonempty(g)
    if out["nonempty"][0]:
        out["witness"] = is_core_imputation(g, out["nonempty"][1])
    out["to one again"] = is_core_imputation(g, to_one)
    return out


def test_warm_answers_equal_cold_answers():
    # The session keeps the dual face, each face answer, the grand range
    # and the coalition rows read so far. Asked twice of one instance
    # object, and again after every cache of the package is cleared, the
    # same questions get the same verdicts, witnesses, demands, duals and
    # ranges. The games: the cap set and 200 seeded bipartite games.
    caches = [obj for name, mod in sorted(sys.modules.items())
              if name == "matchcore" or name.startswith("matchcore.")
              for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]
    assert analysis_module._session in caches
    rng = random.Random(2525)
    games = [g for _, _, g in helpers.cap_set()]
    games += [helpers.random_bipartite(rng, helpers.ALL_BIPARTITE[i % 4], max_side=4,
                                       max_edges=8)
              for i in range(200)]
    seen = Counter()
    for g in games:
        for cache in caches:
            cache.cache_clear()
        cold = _session_questions(g)
        warm = _session_questions(g)
        for cache in caches:
            cache.cache_clear()
        assert cold == warm == _session_questions(g), g
        seen[g.kind] += 1
        seen["blocked by a proper coalition"] += (not cold["to one"].in_core and
                                                  cold["to one"].witness != frozenset(g.agents))
        seen["empty core"] += not cold["nonempty"][0]
        seen["capacity above one"] += any(g.capacity(q) > 1 for q in g.agents)
    assert len(games) == 215
    print(seen)


def test_one_session_answers_each_face_query_and_reads_each_row_once(monkeypatch):
    # A uniform_b game with b = 2, so the core is twice the optimal dual
    # face and its rows are its 6 edge pairs, each demanding its sub-game's
    # worth. On a fresh session extreme_imputations starts two phase-2
    # runs, one per side-optimal vertex, and asked again it starts none;
    # the payoff ranges are the extremes' ends. Four in-core memberships
    # read each row's worth once in all, restricting each edge pair once
    # and no other coalition: none of the other 18 connected coalitions
    # among the 27 closed ones (every member with a neighbour inside).
    g = make_instance(GameKind.UNIFORM_B, ["a1", "a2", "a3"], ["b1", "b2", "b3"],
                      [("a1", "b1", F(23, 5)), ("a1", "b2", F(17, 5)), ("a2", "b1", F(19, 5)),
                       ("a2", "b3", F(11, 5)), ("a3", "b2", F(13, 5)), ("a3", "b3", F(29, 5))],
                      uniform_capacity=2)
    analysis_module._session.cache_clear()
    oracle_module._search.cache_clear()
    face = DualFace(g)
    runs = []
    original = lp_module._Tableau.optimize
    monkeypatch.setattr(lp_module._Tableau, "optimize",
                        lambda tableau, *args: runs.append(args) or original(tableau, *args))
    extremes = extreme_imputations(g, face)
    assert len(runs) == 2
    assert extreme_imputations(g, face) == extremes and len(runs) == 2
    ranges = {q: payoff_range(g, q) for q in g.agents}
    assert {q: (lo, hi) for q, (lo, hi) in ranges.items()} == {
        q: tuple(sorted((extremes[0][q], extremes[1][q]))) for q in g.agents}

    restricted = Counter()
    restrict_of_oracle = oracle_module.restrict
    monkeypatch.setattr(oracle_module, "restrict",
                        lambda instance, members: restricted.update([tuple(members)])
                        or restrict_of_oracle(instance, members))
    duals = sample_dual_vertices(g, 4, 1, face)
    verdicts = [is_core_imputation(g, dual_to_imputation(g, duals[i % len(duals)]))
                for i in range(4)]
    assert all(v.in_core for v in verdicts)
    closed = {helpers.closed_part(g, members) for size in range(1, len(g.agents))
              for members in combinations(g.agents, size)} - {()}
    connected = {members for members in closed if helpers.connected(g, members)}
    pairs = {members for members in connected if len(members) == 2}
    assert set(restricted) == pairs and set(restricted.values()) == {1}
    assert (len(pairs), len(connected), len(closed)) == (6, 24, 27)


def test_a_scan_cut_short_by_an_error_leaves_the_session_whole(monkeypatch):
    # A scan stopped by an error (here the third worth it asks for) leaves
    # that one demand unread: the next scan reads it and the rest, without
    # asking again for the two demands read before the error, and the
    # session's rows are those of a fresh session.
    g = make_instance(GameKind.B_MATCHING, ["a1", "a2"], ["b1", "b2"],
                      [("a1", "b1", 4), ("a1", "b2", 3), ("a2", "b1", 2), ("a2", "b2", 5)],
                      capacities={"a1": 2, "a2": 1, "b1": 1, "b2": 2})
    nonempty, witness = core_nonempty(g)
    assert nonempty
    analysis_module._session.cache_clear()
    asked = []
    original = analysis_module.worth

    def failing(instance, members):
        asked.append(members)
        if len(asked) == 3:
            raise RuntimeError("interrupted")
        return original(instance, members)

    monkeypatch.setattr(analysis_module, "worth", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        is_core_imputation(g, witness)
    assert is_core_imputation(g, witness).in_core
    assert not is_core_imputation(g, make_imputation(g, {"a1": witness.total})).in_core
    rows = list(analysis_module._session(g).demands())
    assert len(rows) > 3 and asked[3] == asked[2]
    assert Counter(asked) == Counter([helpers.names(g, members) for members, _ in rows]
                                     + [asked[2]])
    assert rows == list(analysis_module._Session(g).demands())


@pytest.mark.parametrize("kind", [GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL])
def test_interleaved_scans_read_each_demand_once(monkeypatch, kind):
    # One scan is suspended after three rows while a second runs to the
    # end, then the first resumes: both yield the rows of a fresh session,
    # and each closed coalition's demand is computed once for the
    # instance, through later core questions too.
    g = make_instance(kind, ["a1", "a2", "a3"], ["b1", "b2"],
                      [("a1", "b1", 4), ("a1", "b2", 3), ("a2", "b1", 2), ("a2", "b2", 5),
                       ("a3", "b2", 1)],
                      capacities={"a1": 2, "a2": 1, "a3": 1, "b1": 1, "b2": 2})
    analysis_module._session.cache_clear()
    oracle_module._search.cache_clear()
    read = []
    original = analysis_module._demand
    monkeypatch.setattr(analysis_module, "_demand",
                        lambda instance, members: read.append(members)
                        or original(instance, members))
    session = analysis_module._session(g)
    first = session.demands()
    head = [next(first) for _ in range(3)]
    full = list(session.demands())
    assert head + list(first) == full
    closed = {helpers.closed_part(g, members) for size in range(1, len(g.agents))
              for members in combinations(g.agents, size)} - {()}
    assert read == [members for members, _ in full]
    assert {helpers.names(g, members) for members in read} == closed
    nonempty, witness = core_nonempty(g)
    assert nonempty and is_core_imputation(g, witness).in_core
    blocked = is_core_imputation(g, make_imputation(g, {"a1": witness.total}))
    assert read == [members for members, _ in full] and len(closed) >= 10
    assert not blocked.in_core and "a1" not in blocked.witness
    assert blocked.witness_dual == (None if kind is GameKind.B_MATCHING else
                                    optimal_dual(restrict(g, sorted(blocked.witness))))
    assert full == list(analysis_module._Session(g).demands())
