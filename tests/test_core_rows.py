"""Row generation for the coalition LPs, checked against independent LPs.

Two second opinions on ``core_nonempty``: for the general and assignment
kinds the core is {x >= 0, x(V) = v(V), x_u + x_v >= w_uv for every
edge} (Deng, Ibaraki and Nagamochi 1999), an LP with one row per edge;
for every kind the verdict must equal the feasibility of the dense LP
holding a row for every proper coalition. The library reads only the
edge rows of a capacity-one game, so the dense LP and the blocking scans
take their demands from references of their own, not from the library's
demand table: the subset recursion of ``helpers`` for capacity-one
games, ``worth`` for the other worth-based kinds, and for
hoffman_kruskal a solve of each coalition's whole sub-game. The dense
LP's hoffman_kruskal total rows come from cold solves of the pinned-row
dual program, not from the library's optimal-face queries.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import helpers
from matchcore import analysis
from matchcore.formulations import vertex_dual_var
from matchcore.games import GameKind, make_imputation, make_instance, restrict
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


def _total_rows(g):
    """The total row x(V) = v(V); for hoffman_kruskal, x(V) >= lo and
    x(V) <= hi, the min and max surplus over the optimal dual face by cold
    solves of the pinned-row dual program (an unbounded max gives no row)."""
    ones = tuple(ONE for _ in g.agents)
    if g.kind is not GameKind.HOFFMAN_KRUSKAL:
        return [Constraint(ones, Relation.EQ, worth(g, g.agents))]
    face = helpers.pinned_row_face(g)
    weights = {vertex_dual_var(q): F(g.capacity(q)) for q in g.agents}
    surplus = [weights.get(name, ZERO) for name in face.variables]
    rows = []
    for sense, relation in ((Sense.MINIMIZE, Relation.GE), (Sense.MAXIMIZE, Relation.LE)):
        end = solve(LinearProgram(sense, face.variables, surplus, face.constraints,
                                  face.lower, face.upper))
        if end.status is Status.OPTIMAL:
            rows.append(Constraint(ones, relation, end.value))
    return rows


def _reference_rows(g):
    """(members, demand, dual) for every proper, non-empty coalition, in
    size-then-lexicographic order, lazily: worths from the subset
    recursion of ``helpers`` (every capacity one) or ``worth``; a
    hoffman_kruskal demand is the surplus under the deterministic optimal
    dual of the coalition's whole sub-game, that dual alongside."""
    table = helpers.subset_worths(g) if helpers.capacity_one(g) else None
    for size in range(1, len(g.agents)):
        for picked in combinations(range(len(g.agents)), size):
            members = tuple(g.agents[j] for j in picked)
            if table is not None:
                yield members, table[sum(1 << j for j in picked)], None
            elif g.kind is not GameKind.HOFFMAN_KRUSKAL:
                yield members, worth(g, members), None
            else:
                sub = restrict(g, members)
                d = analysis.optimal_dual(sub) if sub.edges else None
                yield members, analysis.surplus_account(sub, d).surplus if d else ZERO, d


def _dense_lp(g, total_rows=None):
    """Every coalition row written out at once, under ``total_rows`` (by
    default ``_total_rows(g)``)."""
    agents = g.agents
    rows = list(total_rows or _total_rows(g))
    for members, demand, _ in _reference_rows(g):
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
    disagree = 0
    for kind, seed in seeds.items():
        rng = random.Random(seed)
        for trial in range(60 if kind is GameKind.HOFFMAN_KRUSKAL else 16):
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
            if kind is GameKind.HOFFMAN_KRUSKAL:
                # The verdict a total pinned to the deterministic dual's
                # surplus would give.
                bland = analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
                pinned = _dense_lp(g, [Constraint(tuple(ONE for _ in g.agents),
                                                  Relation.EQ, bland)])
                disagree += (solve(pinned).status is Status.OPTIMAL) != nonempty
    # Count at these seeds: 4 of the 60 hoffman_kruskal games have an
    # empty core under the deterministic dual's total but not under the range.
    assert disagree >= 3, disagree


def test_core_nonempty_witness_passes_the_membership_test():
    # One of 400 games of helpers.random_bipartite(random.Random(77),
    # hoffman_kruskal, max_side=3, max_edges=6). The surplus ranges over
    # [16, 18] on the optimal dual face and the deterministic dual gives
    # 16, where no payoffs meet every coalition row; at 18 some do.
    g = make_instance(GameKind.HOFFMAN_KRUSKAL, ["a0", "a1", "a2"], ["b0"],
                      [("a0", "b0", 9, 1, 2), ("a1", "b0", 8, 0, 3),
                       ("a2", "b0", 5, 0, 3)],
                      capacities={"a0": 3, "a1": 3, "a2": 2, "b0": 2})
    nonempty, witness = analysis.core_nonempty(g)
    assert nonempty
    assert analysis.is_core_imputation(g, witness).in_core
    assert analysis.is_core_imputation(
        g, make_imputation(g, {"a0": 2, "b0": 16})).in_core


def test_sampled_core_points_are_vertices_of_the_full_core():
    rng = random.Random(7207)
    for _ in range(12):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                     max_edges=6, max_weight=4)
        polytope = _dense_lp(g)
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
    for members, demand, d in _reference_rows(g):
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
            grand = analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
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


def test_hk_demand_table_matches_each_coalitions_own_sub_game():
    # The demand table holds the closed coalitions alone, each with the
    # Bland dual of its own sub-game. A reference solve of every
    # coalition's whole sub-game must give the demand and the vertex duals
    # of its closed part's row, 0 off that part.
    rng, split = random.Random(77), random.Random(78)
    spanning, loose, witnesses = 0, 0, 0
    for _ in range(120):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=4, max_edges=7)
        rows = {members: (demand, d) for members, demand, d in analysis._coalition_demands(g)}
        closed_rows = []
        for size in range(1, len(g.agents)):
            for members in combinations(g.agents, size):
                sub, closed = restrict(g, members), helpers.closed_part(g, members)
                if closed == members:
                    closed_rows.append(members)
                if not sub.edges:
                    assert closed == ()
                    continue
                spanning += 1
                loose += closed != members
                own, (demand, d) = analysis.optimal_dual(sub), rows[closed]
                assert demand == analysis._surplus(own)
                for q in members:
                    assert own.vertex(q) == (d.vertex(q) if q in closed else ZERO)
        assert list(rows) == closed_rows
        # The first blocking coalition is closed, so its witness dual is
        # its own sub-game's.
        grand = analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
        shares = [split.randint(0, 3) for _ in g.agents]
        shares[0] += not any(shares)
        imp = make_imputation(g, {q: grand * s / sum(shares) for q, s in zip(g.agents, shares)})
        verdict = analysis.is_core_imputation(g, imp)
        if verdict.witness_dual is not None:
            witnesses += 1
            sub = restrict(g, verdict.witness)
            assert set(helpers.closed_part(g, verdict.witness)) == verdict.witness
            assert verdict.witness_dual == analysis.optimal_dual(sub)
    assert spanning >= 3000 and loose >= 2000 and witnesses >= 80, (spanning, loose, witnesses)


def _probes(g, rng):
    """Dual-derived payoffs where the core has them (optimal dual vertices
    mapped to payoffs), else seeded splits of the worth; and each of them
    with part of one agent's payoff moved to another."""
    grand = max_weight(g)[0]
    if g.kind is GameKind.GENERAL and not analysis.is_concurrent(g):
        shares = [rng.randint(0, 3) for _ in g.agents]
        shares[0] += not any(shares)
        base = [make_imputation(g, {q: grand * s / sum(shares) for q, s in zip(g.agents, shares)})]
    else:
        base = [analysis.dual_to_imputation(g, d)
                for d in analysis.sample_dual_vertices(g, 3, seed=rng.randint(0, 999))]
    probes = list(base)
    for imp in base:
        pay = imp.as_dict
        giver = rng.choice([q for q in g.agents if pay[q] > 0] or list(g.agents))
        taker = rng.choice([q for q in g.agents if q != giver])
        step = pay[giver] * F(rng.randint(1, 4), 4)
        probes.append(make_imputation(g, dict(pay, **{giver: pay[giver] - step,
                                                      taker: pay[taker] + step})))
    return probes


def test_edge_rows_give_the_verdicts_and_witnesses_of_the_full_coalition_scan():
    # The library reads only the edge rows of a capacity-one game. On 400
    # such games (weights divided by a seeded 1 to 6), its membership
    # verdicts and witnesses must be those of a scan over all 2^n - 2
    # coalitions of the reference recursion, and its core_nonempty
    # verdict that of the dense LP over the same worths. The probes keep
    # the worth as their total, so only coalition rows can block them.
    rng, divisors, moves = random.Random(1971), random.Random(1999), random.Random(1605)
    kinds = (GameKind.ASSIGNMENT, GameKind.GENERAL, GameKind.UNIFORM_B, GameKind.B_MATCHING)
    seen = dict.fromkeys(kinds, 0)
    probed, blocked, empty, fractional = 0, 0, 0, 0
    for trial in range(400):
        kind = kinds[trial % len(kinds)]
        if trial % 16 == 1:     # one general game in four: an odd cycle
            n = rng.choice((3, 5))
            names = [f"c{i}" for i in range(n)]
            g = make_instance(kind, names, [], [(names[i], names[(i + 1) % n], rng.randint(4, 6))
                                                for i in range(n)])
        elif kind is GameKind.GENERAL:
            g = helpers.random_general(rng, max_vertices=6, max_edges=9)
        else:
            g = helpers.random_bipartite(rng, kind, max_side=3, max_edges=7, max_b=1)
        g = replace(g, edges=tuple(replace(e, weight=e.weight / divisors.randint(1, 6))
                                   for e in g.edges))
        assert helpers.capacity_one(g)
        seen[kind] += 1
        fractional += any(e.weight.denominator > 1 for e in g.edges)
        nonempty, witness = analysis.core_nonempty(g)
        assert (solve(_dense_lp(g)).status is Status.OPTIMAL) == nonempty
        empty += not nonempty
        if nonempty:
            assert _first_blocking(g, witness) is None
        for imp in _probes(g, moves):
            assert imp.total == max_weight(g)[0]
            verdict = analysis.is_core_imputation(g, imp)
            expected = _first_blocking(g, imp)
            probed += 1
            if expected is None:
                assert verdict == analysis.CoreVerdict(True)
                continue
            blocked += 1
            assert (verdict.in_core, verdict.witness, verdict.witness_demand,
                    verdict.witness_allocation, verdict.witness_dual) == (False, *expected)
    # Counts at these seeds: 332 games with a fractional weight, 10 empty
    # cores, 1,498 probes of which 549 are blocked.
    assert all(count == 100 for count in seen.values())
    assert fractional >= 300 and empty >= 8, (fractional, empty)
    assert probed >= 1400 and blocked >= 500, (probed, blocked)
