"""Game model: restriction, validation, imputation plumbing."""

import pickle
import random
from fractions import Fraction

import pytest

import helpers
from matchcore import analysis, games, oracle
from matchcore.formulations import build_primal
from matchcore.games import (
    Edge,
    GameInstance,
    GameKind,
    Imputation,
    make_edge,
    make_imputation,
    make_instance,
    restrict,
    validate,
)
from matchcore.instance_io import InstanceError, parse_instance, render_instance
from matchcore.lp import LinearProgram, Status, solve

F = Fraction


def refusal(*args, **kwargs) -> list[str]:
    """The violations listed by the InstanceError that building the
    instance raises; no instance is made."""
    with pytest.raises(InstanceError) as err:
        make_instance(*args, **kwargs)
    return str(err.value).split("; ")


def test_restrict_to_all_agents_is_identity():
    g = helpers.two_team_b_matching()
    assert restrict(g, g.agents) == g


def test_equal_edges_and_instances_hash_equal():
    # Edge converts its weight and hashes it as (numerator, denominator):
    # an int weight and the equal Fraction give equal edges with equal
    # hashes. An instance built from Edges whose weights are ints, or from
    # the ints as data, equals, and hashes as, the original, and so do
    # their restrict copies.
    assert Edge("a", "b", 2) == Edge("a", "b", Fraction(2))
    assert hash(Edge("a", "b", 2)) == hash(Edge("a", "b", Fraction(2)))
    assert Edge("a", "b", F(1, 2)) != Edge("a", "b", F(1, 3))
    assert Edge("a", "b", 1, 0, 2) != Edge("a", "b", 1, 0, None)
    rng = random.Random(2303)
    for _ in range(80):
        kind = rng.choice(helpers.ALL_BIPARTITE)
        g = helpers.random_bipartite(rng, kind)
        as_edges = make_instance(kind, g.side_u, g.side_v,
                                 [Edge(e.u, e.v, int(e.weight), e.lower, e.upper)
                                  for e in g.edges], g.capacities, g.uniform_capacity)
        assert as_edges == g and hash(as_edges) == hash(g)
        as_ints = make_instance(kind, g.side_u, g.side_v,
                                [(e.u, e.v, int(e.weight), e.lower, e.upper)
                                 for e in g.edges],
                                g.capacities, g.uniform_capacity)
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
    problems = refusal(GameKind.ASSIGNMENT, ["a"], ["b"], [("a", "b", 0)])
    assert any("non-positive weight" in v for v in problems)


def test_validate_flags_bipartite_violation_and_duplicates():
    problems = refusal(GameKind.ASSIGNMENT, ["a", "c"], ["b"], [("a", "c", 1)])
    assert any("bipartition" in v for v in problems)
    problems = refusal(GameKind.GENERAL, ["a", "b"], [], [("a", "b", 1), ("b", "a", 2)])
    assert any("parallel" in v for v in problems)


def test_validate_flags_capacities_for_unknown_agents():
    assert refusal(GameKind.B_MATCHING, ["a"], ["b"], [("a", "b", 1)],
                   capacities=[("a", 1), ("b", 1), ("ghost", 5)]) == [
        "capacity for unknown agent 'ghost'"]
    assert refusal(GameKind.ASSIGNMENT, ["a"], ["b"], [("a", "b", 1)],
                   capacities={"ghost": 5}) == ["capacity for unknown agent 'ghost'"]


@pytest.mark.parametrize("kind", [GameKind.B_MATCHING, GameKind.ASSIGNMENT],
                         ids=lambda kind: kind.value)
def test_validate_reports_a_capacity_keyed_by_an_unhashable_name(kind):
    # A capacity names its agent; a name that is not a string is reported
    # as such, as for the agents themselves, even when it cannot be hashed.
    assert refusal(kind, ["a"], ["b"], [("a", "b", 1)],
                   capacities=[(["a"], 1), ("a", 1), ("b", 1)]) == [
        "agent name ['a'] is not a string"]


def test_validate_flags_a_capacity_listed_twice_as_the_parser_does():
    # The file format allows one b line per agent; an instance built
    # through the API with two is refused when it is built, so it can
    # never be rendered into a file that the parser would refuse.
    assert refusal(GameKind.B_MATCHING, ["a"], ["b"], [("a", "b", 1)],
                   capacities=[("a", 1), ("b", 1), ("a", 3)]) == [
        "capacity for 'a' listed 2 times"]
    with pytest.raises(InstanceError, match="second b line for 'a'"):
        parse_instance("game b_matching\nside_u a\nside_v b\nb a 1\nb b 1\nb a 3\n")
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
    assert refusal(kind, *sides, [("a", "b", 1)], **{**used, **stray}) == [message]


@pytest.mark.parametrize("kind, sides, edges, data", [
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": 2.7, "b": 1}}),
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": True, "b": 1}}),
    ("uniform_b", (["a"], ["b"]), [("a", "b", 1)], {"uniform_capacity": 2.5}),
    ("hoffman_kruskal", (["a"], ["b"]), [("a", "b", 1, 0, 2.5)],
     {"capacities": {"a": 3, "b": 3}}),
    ("assignment", (["a"], ["b"]), [("a", "b", 1, 0.0, None)], {}),
    ("assignment", ([1], [2]), [(1, 2, 1)], {}),
], ids=["float-capacity", "bool-capacity", "float-uniform-capacity",
        "float-upper-bound", "float-lower-bound", "int-agent-names"])
def test_validate_reports_data_of_the_wrong_type(kind, sides, edges, data):
    # make_instance passes the data on as given and the gate judges it: it
    # reports each of these rather than letting it through or raising
    # another error (refusal lets anything but InstanceError through).
    assert refusal(kind, *sides, edges, **data) != [""]


_CAPS = {"capacities": {"a": 3, "b": 3}}


@pytest.mark.parametrize("kind, sides, edges, data, message", [
    ("assignment", (["a"], ["a"]), [], {}, "duplicate agent names"),
    ("general", (["a"], ["b"]), [], {}, "general instances use a single vertex set"),
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": 1}},
     "missing capacity for b"),
    ("b_matching", (["a"], ["b"]), [("a", "b", 1)], {"capacities": {"a": 0, "b": 1}},
     "non-positive capacity for a"),
    ("assignment", (["a"], ["b"]), [("a", "c", 1)], {}, "edge (a,c) touches unknown agents"),
    ("general", (["a", "b"], []), [("a", "a", 1)], {}, "self-loop at a"),
    ("hoffman_kruskal", (["a"], ["b"]), [("a", "b", 1, -1, None)], _CAPS,
     "negative lower bound on (a,b)"),
    ("hoffman_kruskal", (["a"], ["b"]), [("a", "b", 1, 2, 1)], _CAPS,
     "upper bound below lower bound on (a,b)"),
], ids=["duplicate-names", "general-side_v", "missing-capacity", "zero-capacity",
        "unknown-endpoint", "self-loop", "negative-floor", "ceiling-below-floor"])
def test_validate_names_each_defect(kind, sides, edges, data, message):
    assert refusal(kind, *sides, edges, **data) == [message]


def test_validate_flags_infeasible_lower_bounds_by_lp():
    assert "lower bounds infeasible" in refusal(
        GameKind.HOFFMAN_KRUSKAL, ["a"], ["b"], [("a", "b", 1, 3, None)],
        capacities={"a": 2, "b": 2})


def test_floors_are_feasible_exactly_when_the_matching_program_is():
    # validate decides floor feasibility with no LP: the matching
    # program's rows are packing rows, so the floors are its least point
    # and feasible exactly when each agent's floors sum to at most its
    # capacity. The reference is the program itself, solved: the matching
    # program of the game without floors, its variables' lower bounds then
    # set to the floors, as build_primal writes them.
    rng = random.Random(4141)
    seen = {"games": 0, "infeasible": 0, "at capacity": 0}
    while seen["games"] < 320:
        side_u = [f"a{i}" for i in range(rng.randint(1, 4))]
        side_v = [f"b{j}" for j in range(rng.randint(1, 4))]
        pairs = [(u, v) for u in side_u for v in side_v]
        rng.shuffle(pairs)
        edges = []
        for u, v in sorted(pairs[:rng.randint(1, len(pairs))]):
            lower = rng.choice([0, 0, 1, 2])
            edges.append((u, v, rng.randint(1, 9), lower,
                          rng.choice([None, lower, lower + 1, lower + 2])))
        if not any(e[3] for e in edges):
            continue
        caps = {q: rng.randint(1, 4) for q in side_u + side_v}
        free = build_primal(make_instance(GameKind.HOFFMAN_KRUSKAL, side_u, side_v,
                                          [(u, v, w, 0, hi) for u, v, w, _, hi in edges],
                                          capacities=caps))
        floored = LinearProgram(free.sense, free.variables, free.objective, free.constraints,
                                [e[3] for e in edges], free.upper)
        feasible = solve(floored).status is Status.OPTIMAL
        if feasible:
            assert validate(make_instance(GameKind.HOFFMAN_KRUSKAL, side_u, side_v, edges,
                                          capacities=caps)) == []
        else:
            assert refusal(GameKind.HOFFMAN_KRUSKAL, side_u, side_v, edges,
                           capacities=caps) == ["lower bounds infeasible"], edges
        floors = {q: sum(e[3] for e in edges if q in e[:2]) for q in side_u + side_v}
        seen["games"] += 1
        seen["infeasible"] += not feasible
        seen["at capacity"] += feasible and any(floors[q] == caps[q] for q in floors)
    # Counts at this seed: 164 of the 320 games infeasible, and 91 of the
    # feasible ones with an agent's floors summing to its capacity.
    assert seen["infeasible"] >= 50 and seen["at capacity"] >= 50, seen


def test_validate_flags_bounds_on_wrong_kind():
    problems = refusal(GameKind.B_MATCHING, ["a"], ["b"], [("a", "b", 1, 1, 2)],
                       capacities={"a": 1, "b": 1})
    assert any("bounds only apply" in v for v in problems)


def test_restriction_preserves_validity_up_to_lower_bounds():
    # restrict builds its sub-game past the gate, which is sound because a
    # sub-game of a valid game is valid, floors included: dropping edges
    # only lowers each agent's floor total.
    rng = random.Random(17)
    for _ in range(60):
        kind = rng.choice(helpers.ALL_BIPARTITE)
        g = helpers.random_bipartite(rng, kind)
        assert validate(g) == []
        agents = list(g.agents)
        s = frozenset(rng.sample(agents, rng.randint(0, len(agents))))
        assert validate(restrict(g, s)) == []


@pytest.mark.parametrize("weight", [0.5, True, None])
def test_an_edge_converts_its_weight_and_refuses_another_type(weight):
    # An Edge, and so make_edge, the same class, converts its weight as
    # the tuple ("a", "b", 2) in an instance's edges is converted; a float,
    # a bool or no number is refused before any instance can hold it, as
    # a TypeError: an edge tuple of the right shape is no shape error.
    assert make_edge is Edge
    for given, exact in ((2, F(2)), ("3/2", F(3, 2)), (F(5, 3), F(5, 3))):
        edge = Edge("a", "b", given)
        assert type(edge.weight) is Fraction and edge.weight == exact
        assert edge == make_instance("assignment", ["a"], ["b"], [("a", "b", given)]).edges[0]
    with pytest.raises(TypeError):
        Edge("a", "b", weight)
    with pytest.raises(TypeError):
        make_instance("assignment", ["a"], ["b"], [("a", "b", weight)])


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


def test_an_imputation_reads_a_mapping_by_its_items():
    # A payoff mapping is read as (name, payoff) items, whatever the
    # names' length; an entry that is not such a pair is refused, named.
    assert Imputation({"a1": 5}).payoffs == (("a1", F(5)),)
    assert Imputation({"abc": 5, "d": "1/2"}) == Imputation((("abc", F(5)), ("d", F(1, 2))))
    assert Imputation([["a", 1]]) == Imputation((("a", F(1)),))
    for entries in (["a1"], [("a", 1, 2)], [("a",)], [5], "ab"):
        with pytest.raises(ValueError, match="is not a \\(name, payoff\\) pair") as err:
            Imputation(entries)
        assert repr(entries[0]) in str(err.value)


def test_validate_rejects_names_that_clash_with_program_variables():
    problems = refusal(GameKind.HOFFMAN_KRUSKAL, ["u,1"], ["v[2]"],
                       [("u,1", "v[2]", 1)], capacities={"u,1": 1, "v[2]": 1})
    assert any("'u,1'" in v for v in problems)
    assert any("'v[2]'" in v for v in problems)
    # The refusal keeps LP column names unique: with commas in names, these
    # two edges would name the same lower-bound dual.
    problems = refusal(GameKind.HOFFMAN_KRUSKAL, ["a,b", "a"], ["c", "b,c"],
                       [("a,b", "c", 1), ("a", "b,c", 1)],
                       capacities={"a,b": 1, "a": 1, "c": 1, "b,c": 1})
    assert problems == [f"agent name {q!r} contains ',', '[' or ']'" for q in ("a,b", "b,c")]


# Malformed games that the library API once let through, each with the
# one violation the gate names. Without the gate they raised KeyError,
# IndexError or ZeroDivisionError deep in the analysis, or were answered.
PROBES = {
    "unknown-agent": (("assignment", ["a"], ["b"], [("a", "b", 1), ("a", "c", 2)]), {},
                      "edge (a,c) touches unknown agents"),
    "no-capacity": (("b_matching", ["a"], ["b"], [("a", "b", 1)]), {"capacities": {"a": 2}},
                    "missing capacity for b"),
    "same-side": (("assignment", ["a", "c"], ["b"], [("a", "b", 2), ("a", "c", 3)]), {},
                  "edge (a,c) does not cross the bipartition"),
    "parallel": (("assignment", ["a"], ["b"], [("a", "b", 1), ("b", "a", 2)]), {},
                 "parallel edge (b,a)"),
    "uniform-zero": (("uniform_b", ["a"], ["b"], [("a", "b", 3)]), {"uniform_capacity": 0},
                     "uniform capacity must be a positive integer"),
    "negative-weight": (("assignment", ["a"], ["b"], [("a", "b", -1)]), {},
                        "non-positive weight on (a,b)"),
    "heavy-self-loop": (("general", ["a", "b"], [], [("a", "a", 5), ("a", "b", 1)]), {},
                        "self-loop at a"),
    "string-side": (("assignment", "ab", "c", [("a", "c", 1)]), {},
                    "side_u 'ab' is one string, not a list of names"),
    "capacity-triple": (("b_matching", ["a"], ["b"], [("a", "b", 1)]),
                        {"capacities": [("a", 2, 3), ("b", 1)]},
                        "capacity entry ('a', 2, 3) is not a (name, capacity) pair"),
    "capacity-string": (("b_matching", ["a"], ["b"], [("a", "b", 1)]), {"capacities": "ab"},
                        "capacity entry 'a' is not a (name, capacity) pair"),
    "capacity-names": (("b_matching", ["a"], ["b"], [("a", "b", 1)]),
                       {"capacities": ["a2", "b1"]},
                       "capacity entry 'a2' is not a (name, capacity) pair"),
    "edge-pair": (("assignment", ["a"], ["b"], [("a", "b")]), {},
                  "edge entry ('a', 'b') is not an Edge or a (u, v, weight[, lower[, upper]])"
                  " tuple"),
    "edge-string": (("assignment", ["a"], ["b"], ["ab"]), {},
                    "edge entry 'ab' is not an Edge or a (u, v, weight[, lower[, upper]]) tuple"),
    "edge-six": (("hoffman_kruskal", ["a"], ["b"], [("a", "b", 1, 0, 1, 2)]),
                 {"capacities": {"a": 1, "b": 1}},
                 "edge entry ('a', 'b', 1, 0, 1, 2) is not an Edge or a"
                 " (u, v, weight[, lower[, upper]]) tuple"),
    "unknown-kind": (("foo", ["a"], ["b"], [("a", "b", 1)]), {}, "unknown game kind 'foo'"),
    "side-none": (("assignment", ["a"], None, [("a", "b", 1)]), {},
                  "side_v None is not a collection"),
    "edges-none": (("assignment", ["a"], ["b"], None), {}, "edges None is not a collection"),
    "capacities-int": (("b_matching", ["a"], ["b"], [("a", "b", 1)]), {"capacities": 5},
                       "capacities 5 is not a collection"),
}

ANALYSES = {
    "optimal_weight": oracle.optimal_weight,
    "max_weight": oracle.max_weight,
    "optimal_dual": analysis.optimal_dual,
    "core_nonempty": analysis.core_nonempty,
    "verify_complementarity": analysis.verify_complementarity,
    "extreme_imputations": analysis.extreme_imputations,
    "in_dual_image": lambda g: analysis.in_dual_image(g, make_imputation(g, {})),
    "is_core_imputation": lambda g: analysis.is_core_imputation(g, make_imputation(g, {})),
}


def _direct(kind, side_u, side_v, edges, capacities=None, uniform_capacity=None):
    """The probe built by GameInstance itself, no make_instance, from the
    field types where the data has their shape: list sides as tuples,
    edge tuples as Edges, a capacity mapping as pairs. Data of another
    shape (a side or capacities given as one string, an edge tuple of
    another length, capacity entries that are no pairs, an unknown kind,
    a side, edge list or capacities that cannot be iterated) is passed
    as it is."""
    side_u, side_v = (tuple(side) if isinstance(side, list) else side
                      for side in (side_u, side_v))
    kinds = {k.value: k for k in GameKind}
    capacities = {} if capacities is None else capacities
    if isinstance(edges, list):
        edges = tuple(make_edge(*e) if isinstance(e, tuple) and 3 <= len(e) <= 5 else e
                      for e in edges)
    return GameInstance(kinds.get(kind, kind), side_u, side_v, edges,
                        tuple(capacities.items()) if isinstance(capacities, dict)
                        else capacities, uniform_capacity)


@pytest.mark.parametrize("probe", sorted(PROBES))
@pytest.mark.parametrize("build", [make_instance, _direct, GameInstance],
                         ids=["make_instance", "direct", "raw"])
def test_every_probe_is_refused_before_any_analysis_meets_it(build, probe):
    # Each public analysis is handed the probe as it is built, so the gate
    # must refuse it first: pytest.raises lets any other error through,
    # and an answer fails the test.
    args, data, message = PROBES[probe]
    for name, call in ANALYSES.items():
        with pytest.raises(InstanceError) as err:
            call(build(*args, **data))
        assert str(err.value) == message, name


def _canonical(kind):
    """A valid game's fields already in the types the class stores."""
    caps = (("a1", 2), ("a2", 1), ("b1", 1), ("b2", 2)) if kind is GameKind.B_MATCHING else ()
    return {"kind": kind, "side_u": ("a1", "a2"), "side_v": ("b1", "b2"),
            "edges": (make_edge("a1", "b1", 3), make_edge("a1", "b2", 1),
                      make_edge("a2", "b1", 2)),
            "capacities": caps}


# Data as a caller may hand it over, each off the canonical fields in one
# way: the kind as its value, list sides, edge tuples, a capacity mapping,
# and no capacities at all. Stored unconverted, the first four raise
# KeyError, TypeError, AttributeError and ValueError in the analysis.
RAW_DATA = {
    "str-kind": (GameKind.B_MATCHING, lambda f: {**f, "kind": f["kind"].value}),
    "list-sides": (GameKind.B_MATCHING,
                   lambda f: {**f, "side_u": list(f["side_u"]), "side_v": list(f["side_v"])}),
    "tuple-edges": (GameKind.B_MATCHING,
                    lambda f: {**f, "edges": [(e.u, e.v, int(e.weight)) for e in f["edges"]]}),
    "capacity-dict": (GameKind.B_MATCHING,
                      lambda f: {**f, "capacities": dict(f["capacities"])}),
    "capacities-none": (GameKind.ASSIGNMENT, lambda f: {**f, "capacities": None}),
}


@pytest.mark.parametrize("probe", sorted(RAW_DATA))
def test_the_class_converts_raw_data_as_make_instance_does(probe):
    kind, raw = RAW_DATA[probe]
    fields = _canonical(kind)
    built, made = GameInstance(**raw(fields)), make_instance(**raw(fields))
    assert built == made == GameInstance(**fields)
    assert hash(built) == hash(made) == hash(GameInstance(**fields))
    assert type(built.kind) is GameKind and type(built.capacities) is tuple
    assert all(type(e) is Edge for e in built.edges)

    def answers(g):
        # Equal games share cache entries, so each is asked afresh.
        oracle._search.cache_clear()
        analysis._session.cache_clear()
        return (oracle.optimal_weight(g), analysis.core_nonempty(g),
                analysis.verify_complementarity(g).ok)

    assert answers(built) == answers(made)


def test_scans_build_their_sub_games_past_the_gate(monkeypatch):
    # restrict builds each sub-game without validate; the multi-capacity
    # scans build thousands, so validate must not run once here. A
    # uniform_b scan reads its edge pairs alone, so three more b_matching
    # games at the caps (s = 3, 4, 5) keep the count in the thousands.
    cap_set = (helpers.cap_set(("uniform_b", "b_matching", "hoffman_kruskal"))
               + helpers.cap_set(("b_matching",), range(3, 6)))
    cases = [(g, lambda g: analysis.is_core_imputation(
        g, analysis.dual_to_imputation(g, analysis.optimal_dual(g)))) for _, _, g in cap_set]
    cases += [(g, analysis.core_nonempty) for kind, _, g in cap_set if kind == "hoffman_kruskal"]
    counts = {"validate": 0, "restrict": 0}

    def counted(name, real):
        return lambda *args: counts.__setitem__(name, counts[name] + 1) or real(*args)

    monkeypatch.setattr(games, "validate", counted("validate", games.validate))
    for module in (analysis, oracle):
        monkeypatch.setattr(module, "restrict", counted("restrict", games.restrict))
    for g, call in cases:
        oracle._search.cache_clear()
        analysis._session.cache_clear()
        call(g)
    # Counts at this commit: 5,472 restrict calls, none of them validated.
    assert counts["validate"] == 0 and counts["restrict"] >= 5000, counts


def _planted(g):
    """An edge of weight at least 5 between two agents of capacity 2."""
    return any(e.weight >= 5 and g.capacity(e.u) == 2 == g.capacity(e.v) for e in g.edges)


@pytest.mark.parametrize("kind", [GameKind.UNIFORM_B, GameKind.B_MATCHING,
                                  GameKind.HOFFMAN_KRUSKAL], ids=lambda kind: kind.value)
def test_the_shrinker_reaches_the_planted_minimum(kind):
    # The planted predicate's least game is two agents of capacity 2 and
    # one edge of weight 5, with no floor or ceiling.
    rng = random.Random(4747)
    starts = []
    while len(starts) < 3:
        g = helpers.random_bipartite(rng, kind, max_side=5, max_edges=10, max_b=3)
        if _planted(g) and len(g.edges) >= 5:
            starts.append(g)
    for g in starts:
        small = helpers.shrink(g, _planted)
        assert len(small.agents) == 2 and len(small.edges) == 1, small
        (e,) = small.edges
        assert (e.weight, e.lower, e.upper) == (5, 0, None), small
        assert small.capacity(e.u) == small.capacity(e.v) == 2
        assert helpers.shrink(g, _planted) == small
