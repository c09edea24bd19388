"""Row generation for the coalition LPs, checked against independent LPs.

Two second opinions on ``core_nonempty``: for the general and assignment
kinds the core is {x >= 0, x(V) = v(V), x_u + x_v >= w_uv for every
edge} (Deng, Ibaraki and Nagamochi 1999), an LP with one row per edge;
for every kind the verdict must equal the feasibility of the dense LP
holding every coalition row of the same demand table.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

import helpers
from matchcore import analysis
from matchcore.games import GameKind, make_imputation, restrict
from matchcore.lp import Constraint, LinearProgram, Relation, Sense, Status, is_vertex, solve
from matchcore.oracle import max_weight, worth

F = Fraction
ONE, ZERO = F(1), F(0)


def _edge_lp(g):
    """The core of a matching game as |E| edge rows plus the total row."""
    agents = g.agents
    at = {q: j for j, q in enumerate(agents)}
    rows = [Constraint(tuple(ONE for _ in agents), Relation.EQ, max_weight(g)[0])]
    for e in g.edges:
        coeffs = [ZERO] * len(agents)
        coeffs[at[e.u]] = coeffs[at[e.v]] = ONE
        rows.append(Constraint(tuple(coeffs), Relation.GE, e.weight))
    return LinearProgram(Sense.MINIMIZE, agents, [ZERO] * len(agents), rows)


def _dense_lp(g):
    """Every coalition row of the demand table, written out at once."""
    agents = g.agents
    if g.kind is GameKind.HOFFMAN_KRUSKAL:
        d = analysis.optimal_dual(g)
        grand = analysis.surplus_account(g, d, verified=True).surplus
    else:
        grand = worth(g, agents)
    rows = [Constraint(tuple(ONE for _ in agents), Relation.EQ, grand)]
    for _, members, demand, _ in analysis._coalition_demands(g):
        rows.append(Constraint(tuple(ONE if q in members else ZERO for q in agents),
                               Relation.GE, demand))
    return LinearProgram(Sense.MINIMIZE, agents, [ZERO] * len(agents), rows)


def _witness_checks(g, nonempty, witness):
    if nonempty:
        assert analysis.is_core_imputation(g, witness).in_core
    else:
        assert witness is None


def test_edge_rows_decide_the_core_of_general_and_assignment_games():
    rng = random.Random(5021)
    instances = []
    for trial in range(40):
        instances.append(helpers.random_general(
            rng, max_vertices=8, max_edges=10, max_weight=3 if trial % 2 else 9))
    for _ in range(30):
        instances.append(helpers.random_bipartite(
            rng, GameKind.ASSIGNMENT, max_side=4, max_edges=9))
    verdicts = set()
    for g in instances:
        edge_lp = _edge_lp(g)
        nonempty, witness = analysis.core_nonempty(g)
        assert (solve(edge_lp).status is Status.OPTIMAL) == nonempty
        if nonempty:
            assert edge_lp.is_feasible(tuple(witness[q] for q in g.agents))
        _witness_checks(g, nonempty, witness)
        verdicts.add((g.kind, nonempty))
    # Both verdicts occur on general graphs; assignment cores are never empty.
    assert verdicts == {(GameKind.GENERAL, True), (GameKind.GENERAL, False),
                        (GameKind.ASSIGNMENT, True)}


def test_row_generation_matches_the_dense_coalition_lp_for_every_kind():
    seeds = {GameKind.ASSIGNMENT: 6101, GameKind.UNIFORM_B: 6102,
             GameKind.B_MATCHING: 6103, GameKind.HOFFMAN_KRUSKAL: 6104,
             GameKind.GENERAL: 6105}
    for kind, seed in seeds.items():
        rng = random.Random(seed)
        for trial in range(16):
            if kind is GameKind.GENERAL:
                g = helpers.random_general(rng, max_vertices=6, max_edges=8,
                                           max_weight=3 if trial % 2 else 9)
            else:
                g = helpers.random_bipartite(rng, kind, max_side=3, max_edges=6)
            nonempty, witness = analysis.core_nonempty(g)
            dense = _dense_lp(g)
            assert (solve(dense).status is Status.OPTIMAL) == nonempty, kind.value
            if nonempty:
                assert dense.is_feasible(tuple(witness[q] for q in g.agents))
            _witness_checks(g, nonempty, witness)


def test_sampled_core_points_are_vertices_of_the_full_core():
    rng = random.Random(7207)
    for _ in range(12):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                     max_edges=6, max_weight=4)
        polytope = analysis.core_polytope(g)
        samples = analysis.sample_core_vertices(g, 6, seed=rng.randint(0, 10 ** 6))
        assert samples
        for imp in samples:
            values = tuple(imp[q] for q in g.agents)
            assert is_vertex(polytope, values)
            assert analysis.is_core_imputation(g, imp).in_core


def test_empty_core_samples_nothing():
    assert analysis.sample_core_vertices(helpers.unit_triangle(), 5, seed=1) == []


def _first_blocking(g, imp):
    """The first coalition, in size-then-lexicographic order, whose demand
    exceeds its payoffs added in Fraction: (members, demand, allocation, dual)."""
    hk = g.kind is GameKind.HOFFMAN_KRUSKAL
    for size in range(1, len(g.agents)):
        for members in combinations(g.agents, size):
            d, demand, sub = None, ZERO, restrict(g, members)
            if not hk:
                demand = worth(g, members)
            elif sub.edges:
                d = analysis.optimal_dual(sub)
                demand = analysis.surplus_account(sub, d, verified=True).surplus
            allocation = sum((imp[q] for q in members), ZERO)
            if demand > allocation:
                return frozenset(members), demand, allocation, d
    return None


def test_blocking_witness_matches_a_fraction_scan_over_mixed_denominators():
    # Each pair of agents splits a few units of the grand amount in halves,
    # thirds or fifths, and the last agent takes the rest, so the integer
    # allocation sweep often needs a common denominator that no single
    # payoff has.
    rng = random.Random(8311)
    kinds = helpers.ALL_BIPARTITE + (GameKind.GENERAL,)
    blocked, with_dual, mixed = 0, 0, 0
    for trial in range(200):
        kind = kinds[trial % len(kinds)]
        g = (helpers.random_general(rng, max_vertices=6, max_edges=8)
             if kind is GameKind.GENERAL
             else helpers.random_bipartite(rng, kind, max_side=3, max_edges=6))
        if kind is GameKind.HOFFMAN_KRUSKAL:
            grand = analysis.surplus_account(g, analysis.optimal_dual(g),
                                             verified=True).surplus
        else:
            grand = max_weight(g)[0]
        payoffs, left = dict.fromkeys(g.agents, ZERO), grand
        for a, b in zip(g.agents[::2], g.agents[1::2]):
            pair, den = min(left, rng.randint(1, 3)), rng.choice((2, 3, 5))
            payoffs[a] = F(rng.randint(0, math.floor(pair * den)), den)
            payoffs[b] = pair - payoffs[a]
            left -= pair
        payoffs[g.agents[-1]] += left
        imp = make_imputation(g, payoffs)
        denominators = [imp[q].denominator for q in g.agents]
        mixed += math.lcm(*denominators) > max(denominators)
        verdict = analysis.is_core_imputation(g, imp)
        expected = _first_blocking(g, imp)
        if expected is None:
            assert verdict == analysis.CoreVerdict(True)
            continue
        blocked += 1
        with_dual += expected[3] is not None
        assert (verdict.in_core, verdict.witness, verdict.witness_demand,
                verdict.witness_allocation, verdict.witness_dual) == (False, *expected)
    assert blocked >= 120 and with_dual >= 20 and mixed >= 20
