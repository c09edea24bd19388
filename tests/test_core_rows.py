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
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import helpers
from matchcore import analysis
from matchcore import lp as lp_module
from matchcore import oracle as oracle_module
from matchcore.formulations import build_dual, vertex_dual_var
from matchcore.games import GameKind, make_imputation, make_instance, restrict
from matchcore.lp import Constraint, LinearProgram, Relation, Sense, Status, solve
from matchcore.oracle import max_weight, worth
from matchcore.rationals import scaled

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
            assert helpers.is_vertex(polytope, values)
            assert analysis.is_core_imputation(g, imp).in_core


def test_face_samples_are_optimal_vertices_of_the_dense_core():
    # Where the core is capacity times the optimal dual face (assignment,
    # uniform_b, b_matching with every capacity one, a concurrent general
    # game), each sample is a face query. Each sampled point must be a
    # vertex of the dense coalition LP, in the core, and optimal: it
    # reaches the value that row generation reaches on the same
    # objective. Sampling one vertex with seed s maximizes the first
    # objective random.Random(s) draws, drawn here again. Which optimal
    # vertex is returned is not specified, so the samples on another
    # optimal vertex than row generation's are counted, not refused. A
    # general game that is not concurrent samples nothing.
    kinds = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.UNIFORM_B,
             GameKind.UNIFORM_B, GameKind.B_MATCHING, GameKind.GENERAL, GameKind.GENERAL)
    rng = random.Random(4243)
    games = [g for _, _, g in helpers.cap_set(("assignment", "uniform_b", "general"))]
    for i in range(350):
        kind = kinds[i % len(kinds)]
        if kind is GameKind.GENERAL and i % 4 == 1:
            games.append(helpers.random_odd_cycle(rng))
        elif kind is GameKind.GENERAL:
            games.append(helpers.random_general(rng, max_vertices=7, max_edges=10,
                                                max_weight=1 + i % 3))
        else:
            games.append(helpers.random_bipartite(
                rng, kind, max_side=4, max_edges=8,
                max_b=1 if kind is GameKind.B_MATCHING else 4))
    seen = Counter()
    for g in games:
        assert g.kind is not GameKind.B_MATCHING or helpers.capacity_one(g)
        seen[g.kind, g.uniform_capacity] += 1
        if g.kind is GameKind.GENERAL and not analysis.is_concurrent(g):
            assert analysis.sample_core_vertices(g, 3, 0) == []
            seen["not concurrent"] += 1
            continue
        polytope = _dense_lp(g)
        session = analysis._session(g)
        for seed in range(2):
            [imp] = analysis.sample_core_vertices(g, 1, seed)
            draw = random.Random(seed)
            objective = [F(draw.randint(-9, 9)) for _ in g.agents]
            values = tuple(imp[q] for q in g.agents)
            assert helpers.is_vertex(polytope, values), g
            assert analysis.is_core_imputation(g, imp).in_core, g
            cut = analysis._core_optimum(session, analysis._total_rows(session),
                                         objective, Sense.MAXIMIZE)
            assert sum(c * x for c, x in zip(objective, values)) == cut.value, g
            seen["samples"] += 1
            seen["another optimal vertex"] += cut.values != values
        analysis._session.cache_clear()
    # Counts at this seed: 642 samples, 2 of them on another optimal
    # vertex than row generation's; 38 of the 103 general games are not
    # concurrent; 116 uniform_b games have b > 1.
    assert seen["samples"] >= 500 and seen["not concurrent"] >= 20, seen
    assert sum(n for key, n in seen.items() if key[0] is GameKind.UNIFORM_B
               and key[1] > 1) >= 100, seen
    assert seen[GameKind.GENERAL, None] - seen["not concurrent"] >= 20, seen


def test_empty_core_samples_nothing():
    assert analysis.sample_core_vertices(helpers.unit_triangle(), 5, seed=1) == []


def test_sampling_no_vertex_reads_no_coalition_row(monkeypatch):
    # A uniform_b game samples on its optimal dual face and reads no row.
    # b_matching with a capacity above one samples by row generation,
    # which reads a row's demand only when a scan reaches it, after a
    # solve, so sampling no vertex reads none, and sampling one reads each
    # row that its scans reach, once.
    read = []
    demand = analysis._demand
    monkeypatch.setattr(analysis, "_demand",
                        lambda instance, members: read.append(members) or demand(instance, members))
    for _, s, g in helpers.cap_set(("uniform_b",)):
        analysis._session.cache_clear()
        assert len(analysis.sample_core_vertices(g, 5, s)) >= 1
        assert read == [] and "rows" not in vars(analysis._session(g))
    for _, s, g in helpers.cap_set(("b_matching",)):
        assert not helpers.capacity_one(g)
        analysis._session.cache_clear()
        assert analysis.sample_core_vertices(g, 0, s) == [] and read == []
        assert "rows" not in vars(analysis._session(g))
        assert len(analysis.sample_core_vertices(g, 1, s)) == 1
        sampled = list(read)
        assert sampled and sampled == [members for members, _ in analysis._session(g).demands()]
        read.clear()


def test_a_blocked_scan_at_cap_size_reads_no_demand_past_its_witness(monkeypatch):
    # Every row of these games lists no demand, so a scan reads one per row
    # it reaches: a blocked one the rows up to its witness, in order, and a
    # later full scan the rest, once. A core point with one agent's payoff
    # moved to another keeps its total in the grand range; the first such
    # move that blocks is taken. At these seeds the witnesses are rows 3,
    # 3, 1, 16, 5 and 0 of 707 to 1,052.
    read = []
    demand = analysis._demand
    monkeypatch.setattr(analysis, "_demand",
                        lambda instance, members: read.append(members) or demand(instance, members))
    for kind, s, g in helpers.cap_set(("b_matching", "hoffman_kruskal")):
        _, core = analysis.core_nonempty(g)
        rng, verdict = random.Random(s), analysis.CoreVerdict(True)
        while verdict.in_core:
            q, r = rng.sample(g.agents, 2)
            payoffs = {**core.as_dict, q: ZERO, r: core[q] + core[r]}
            analysis._session.cache_clear()
            read.clear()
            verdict = analysis.is_core_imputation(g, make_imputation(g, payoffs))
        rows = [members for members, _ in analysis._session(g).rows]
        k = rows.index(tuple(sorted(map(g.agents.index, verdict.witness))))
        assert read == rows[:k + 1] and k + 1 < len(rows), (kind, s)
        read.clear()
        assert len(list(analysis._session(g).demands())) == len(rows)
        assert read == rows[k + 1:], (kind, s)


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
    # payoff has. Where a closed coalition whose inner edges fall apart
    # blocks too, the library, which has no row for it, must still give
    # the reference's first blocking coalition.
    rng = random.Random(8311)
    kinds = helpers.ALL_BIPARTITE + (GameKind.GENERAL,)
    blocked, with_dual, mixed, apart = 0, 0, 0, Counter()
    for trial in range(600):
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
        apart[helpers.capacity_one(g)] += any(
            demand > sum((imp[q] for q in members), ZERO)
            for members, demand, _ in _reference_rows(g)
            if helpers.closed_part(g, members) == members and not helpers.connected(g, members))
        assert (verdict.in_core, verdict.witness, verdict.witness_demand,
                verdict.witness_allocation, verdict.witness_dual) == (False, *expected)
    # Counts at this seed: 509 blocked probes, 107 with a dual, 85 with
    # mixed denominators; a disconnected closed coalition blocks too in 52
    # blocked probes, 29 of them on games with a capacity above one.
    assert blocked >= 120 and with_dual >= 20 and mixed >= 20
    assert apart[False] >= 25 and apart[True] >= 15, apart


def test_hk_demand_table_matches_each_coalitions_own_sub_game():
    # The demand table holds the connected coalitions alone, each
    # demanding its surplus under the Bland dual of its own sub-game. A
    # reference solve of every coalition's whole sub-game must give the sum
    # of the demands of its closed part's connected parts, and the vertex
    # duals of its closed part's sub-game, 0 off that part.
    rng, split = random.Random(77), random.Random(78)
    spanning, loose, apart, witnesses = 0, 0, 0, 0
    for _ in range(120):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=4, max_edges=7)
        rows = {helpers.names(g, members): demand
                for members, demand in analysis._session(g).demands()}
        connected_rows = []
        for size in range(1, len(g.agents)):
            for members in combinations(g.agents, size):
                sub, closed = restrict(g, members), helpers.closed_part(g, members)
                if closed == members and helpers.connected(g, members):
                    connected_rows.append(members)
                if not sub.edges:
                    assert closed == ()
                    continue
                spanning += 1
                loose += closed != members
                parts = helpers.parts(g, closed)
                apart += len(parts) > 1
                own = analysis.optimal_dual(sub)
                d = analysis.optimal_dual(restrict(g, closed))
                assert analysis._surplus(own) == sum(rows[part] for part in parts)
                for q in members:
                    assert own.vertex(q) == (d.vertex(q) if q in closed else ZERO)
        assert list(rows) == connected_rows
        # The first blocking coalition is connected, so its witness dual is
        # its own sub-game's.
        grand = analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
        shares = [split.randint(0, 3) for _ in g.agents]
        shares[0] += not any(shares)
        imp = make_imputation(g, {q: grand * s / sum(shares) for q, s in zip(g.agents, shares)})
        verdict = analysis.is_core_imputation(g, imp)
        if verdict.witness_dual is not None:
            witnesses += 1
            sub = restrict(g, verdict.witness)
            assert helpers.connected(g, sub.agents)
            assert verdict.witness_dual == analysis.optimal_dual(sub)
    # Counts at these seeds: 3,713 edge-spanning coalitions, 2,609 with a
    # member on no inner edge, 274 whose closed part falls apart, and 114
    # witnesses.
    assert spanning >= 3000 and loose >= 2000 and witnesses >= 80, (spanning, loose, witnesses)
    assert apart >= 250, apart


def test_a_blocked_hk_verdict_reads_its_witness_dual_off_its_own_cut(monkeypatch):
    # A blocking coalition's witness dual is its Bland vertex, read off one
    # more solve of its part of the game's dual program: on the cap set and
    # 150 seeded games, each blocked verdict's witness_dual equals the
    # optimal_dual of the witness's sub-game, built and solved cold. Asked
    # cold, the verdict builds one dual program and one optimal face, the
    # game's own, and no session for the sub-game.
    faces, built = [], []
    face_of, build_of = analysis.OptimalFace, analysis.build_dual
    monkeypatch.setattr(analysis, "OptimalFace", lambda lp: faces.append(lp) or face_of(lp))
    monkeypatch.setattr(analysis, "build_dual", lambda g: built.append(g) or build_of(g))
    rng, split = random.Random(4901), random.Random(4902)
    games = [g for _, _, g in helpers.cap_set(("hoffman_kruskal",))]
    games += [helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=4, max_edges=7)
              for _ in range(150)]
    blocked = 0
    for g in games:
        grand = analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
        for _ in range(2):
            shares = [split.randint(0, 3) for _ in g.agents]
            shares[0] += not any(shares)
            imp = make_imputation(g, {q: grand * s / sum(shares)
                                      for q, s in zip(g.agents, shares)})
            analysis._session.cache_clear()
            faces.clear()
            built.clear()
            verdict = analysis.is_core_imputation(g, imp)
            assert built == [g] and len(faces) == 1
            assert analysis._session.cache_info().currsize == 1
            if verdict.witness_dual is None:
                assert verdict.in_core or verdict.witness == frozenset(g.agents)
                continue
            blocked += 1
            analysis._session.cache_clear()
            oracle_module._search.cache_clear()
            assert verdict.witness_dual == analysis.optimal_dual(restrict(g, verdict.witness))
    # Count at these seeds: 267 blocked verdicts of 306.
    assert blocked >= 100, blocked


def test_a_row_is_its_members_positions_and_a_witness_names_the_first_short_row():
    # The core scan keeps each row as its members' positions among the
    # agents, strictly increasing, and turns them into names only for a
    # blocked verdict's witness: the names at the positions of the first
    # row, in the session's order, that the payoffs leave short, found
    # here in Fractions. Checked on the cap set and 200 seeded games of
    # each kind, every other one with each side's agents reversed so that
    # positions do not follow the names' order, each probed with two
    # seeded splits of a total in its grand range.
    rng, split = random.Random(5001), random.Random(5002)
    games = [g for _, _, g in helpers.cap_set()]
    for kind in GameKind:
        for trial in range(200):
            g = (helpers.random_general(rng, max_vertices=6, max_edges=9)
                 if kind is GameKind.GENERAL
                 else helpers.random_bipartite(rng, kind, max_side=4, max_edges=7))
            games.append(replace(g, side_u=g.side_u[::-1], side_v=g.side_v[::-1])
                         if trial % 2 else g)
    seen = Counter()
    for g in games:
        analysis._session.cache_clear()
        rows = list(analysis._session(g).demands())
        for members, _ in rows:
            assert all(type(j) is int for j in members), (g, members)
            assert 0 <= members[0] and members[-1] < len(g.agents), (g, members)
            assert all(i < j for i, j in zip(members, members[1:])), (g, members)
        grand = (analysis.surplus_account(g, analysis.optimal_dual(g)).surplus
                 if g.kind is GameKind.HOFFMAN_KRUSKAL else worth(g, g.agents))
        for _ in range(2):
            shares = [split.randint(0, 3) for _ in g.agents]
            shares[0] += not any(shares)
            pay = [grand * s / sum(shares) for s in shares]
            verdict = analysis.is_core_imputation(g, make_imputation(g, dict(zip(g.agents, pay))))
            short = [members for members, demand in rows
                     if demand > sum(pay[j] for j in members)]
            assert verdict.in_core == (not short), g
            if short:
                assert verdict.witness == frozenset(g.agents[j] for j in short[0]), g
                seen["blocked"] += 1
        seen[g.kind] += 1
    # Counts at these seeds: 203 games of each kind and 1,740 blocked
    # verdicts of 2,030.
    assert min(seen[kind] for kind in GameKind) >= 200, seen
    assert seen["blocked"] >= 50 and seen[GameKind.HOFFMAN_KRUSKAL] >= 50, seen


def test_hk_coalition_program_is_the_sub_games_own_dual_program():
    # A closed coalition's part of the game's dual program is its
    # sub-game's dual program, column for column and row for row, each
    # written row keeping the integers its tableau copies and the program
    # its objective's, and its demand is the surplus under the Bland dual
    # of that sub-game's own session, the reference path. The closed
    # coalitions (every member with a neighbour inside) are listed here, a
    # superset of the library's connected rows, so that written programs
    # with several blocks are checked too.
    rng = random.Random(2900)
    games = [g for _, _, g in helpers.cap_set(("hoffman_kruskal",))]
    games += [helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=4, max_edges=7)
              for _ in range(120)]
    seen = dict(coalitions=0, floor=0, ceiling=0, open=0)
    for g in games:
        proper = [picked for size in range(2, len(g.agents))
                  for picked in combinations(range(len(g.agents)), size)]
        for picked in proper:
            members = helpers.names(g, picked)
            if helpers.closed_part(g, members) != members:
                continue
            sub = restrict(g, members)
            program = helpers.sub_dual(analysis._session(g).face.lp, g, members)
            own = build_dual(sub)
            assert program.sense is own.sense
            assert program.variables == own.variables
            assert program.objective == own.objective
            assert program.constraints == own.constraints
            assert all(row._scaled_row == scaled([*row.coeffs, row.rhs])
                       for row in program.constraints)
            assert (program.lower, program.upper) == (own.lower, own.upper)
            assert program._scaled_objective == own._scaled_objective
            assert program._shifted == own._shifted
            assert (analysis._demand(g, picked)
                    == analysis._surplus(analysis.optimal_dual(sub)))
            seen["coalitions"] += 1
            seen["floor"] += any(e.lower > 0 for e in sub.edges)
            seen["ceiling"] += any(e.upper is not None for e in sub.edges)
            seen["open"] += any(e.upper is None for e in sub.edges)
        analysis._session.cache_clear()
    assert seen["coalitions"] >= 5000 and min(seen.values()) >= 1000, seen


def test_an_hk_demand_is_the_reference_surplus_on_the_cut_of_the_games_program(monkeypatch):
    # A connected coalition's dual program is cut in integers from the
    # game's (analysis._Session.cut) and never built. The tableau that
    # its solve hands to phase 1 is the one the engine starts from on the
    # program written out (helpers.sub_dual): rows, denominators, unit
    # columns and the cost row, last. Its demand is the surplus under
    # the Bland dual of the coalition's own sub-game, from that sub-game's
    # own session. Checked on every connected row of the HK cap-set games
    # and of 320 seeded HK games, half of them with every weight divided
    # by a seeded 2 to 6.
    starts, phase1 = [], lp_module._Tableau._phase1

    def started(tableau):
        starts.append(([row[:] for row in tableau.rows], tableau.dens[:], tableau.unit[:],
                       tableau.ncols, tableau.width))
        return phase1(tableau)

    monkeypatch.setattr(lp_module._Tableau, "_phase1", started)
    rng, divisors = random.Random(4646), random.Random(4647)
    games = [g for _, _, g in helpers.cap_set(("hoffman_kruskal",))]
    for trial in range(320):
        g = helpers.random_bipartite(rng, GameKind.HOFFMAN_KRUSKAL, max_side=4, max_edges=7)
        if trial % 2:
            g = replace(g, edges=tuple(replace(e, weight=e.weight / divisors.randint(2, 6))
                                       for e in g.edges))
        games.append(g)
    seen = Counter()
    for g in games:
        analysis._session.cache_clear()
        session = analysis._session(g)
        assert session.face.base.status is Status.OPTIMAL
        for picked, _ in analysis._coalitions(g):
            starts.clear()
            demand = analysis._demand(g, picked)
            members = helpers.names(g, picked)
            own = lp_module._Tableau(helpers.sub_dual(session.face.lp, g, members))
            assert starts == [(own.rows, own.dens, own.unit, own.ncols, own.width)], members
            assert demand == analysis._surplus(analysis.optimal_dual(restrict(g, members)))
            inner = [e for e in g.edges if e.u in members and e.v in members]
            seen["rows"] += 1
            seen["floor"] += any(e.lower > 0 for e in inner)
            seen["ceiling"] += any(e.upper is not None for e in inner)
            seen["fractional"] += any(e.weight.denominator > 1 for e in inner)
    # Counts at these seeds: 5,369 rows (2,786 of the cap set), 3,179 with
    # a floor, 5,052 with a ceiling and 1,156 with a weight not an integer.
    assert seen["rows"] >= 5000 and min(seen.values()) >= 1000, seen


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


def test_duality_decides_each_worth_kinds_core_as_row_generation_does():
    # Every kind but hoffman_kruskal reads its core verdict off the dual:
    # empty exactly for a general game that is not concurrent, else the
    # deterministic-dual imputation is the witness. Row generation over
    # every coalition row must give the same verdict, and the witness must
    # pass the membership scan and, for the bipartite kinds, lie in D(I).
    rng = random.Random(3107)
    kinds = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING, GameKind.GENERAL)
    games = [g for _, _, g in helpers.cap_set(tuple(kind.value for kind in kinds))]
    for trial in range(400):
        kind = kinds[trial % len(kinds)]
        if trial % 16 == 3:
            g = helpers.random_odd_cycle(rng, max_weight=4)
        elif kind is GameKind.GENERAL:
            g = helpers.random_general(rng, max_vertices=7, max_edges=10,
                                       max_weight=3 if trial % 8 else 9)
        else:
            g = helpers.random_bipartite(rng, kind, max_side=4, max_edges=8)
        games.append(g)
    seen = Counter()
    for g in games:
        nonempty, witness = analysis.core_nonempty(g)
        session = analysis._session(g)
        cuts = analysis._core_optimum(session, analysis._total_rows(session),
                                      [ZERO] * len(g.agents), Sense.MINIMIZE)
        assert (cuts.status is Status.OPTIMAL) == nonempty, g
        seen[g.kind] += 1
        if not nonempty:
            assert witness is None and g.kind is GameKind.GENERAL
            seen["empty"] += 1
            continue
        assert witness == analysis.dual_to_imputation(g, analysis.optimal_dual(g))
        assert analysis.is_core_imputation(g, witness).in_core
        if g.kind is not GameKind.GENERAL:
            assert analysis.in_dual_image(g, witness)
        seen["capacity above one"] += not helpers.capacity_one(g)
    # Counts at this seed: 103 games of each kind, 38 empty general cores
    # and 180 games with a capacity above one.
    assert min(seen[kind] for kind in kinds) == 103, seen
    assert seen["empty"] >= 30 and seen["capacity above one"] >= 150, seen


def test_a_worth_kinds_core_question_solves_no_program_and_searches_no_sub_game(monkeypatch):
    # On the cap set, a cold core_nonempty of every kind but hoffman_kruskal
    # is the session's one solve of the dual program: no lp.solve call, no
    # coalition row read, and no search but a general game's own optimum,
    # which the concurrency test reads. That test runs once, and the
    # session's base vertex, optimal by construction, is not checked again.
    def refused(lp):
        raise AssertionError("core_nonempty solved a program of its own")

    def checked_again(instance, d):
        raise AssertionError("core_nonempty checked its own base vertex again")

    monkeypatch.setattr(analysis, "solve", refused)
    monkeypatch.setattr(lp_module, "solve", refused)
    monkeypatch.setattr(analysis, "is_optimal_dual", checked_again)
    concurrency = []
    empty_core = analysis._empty_general_core
    monkeypatch.setattr(analysis, "_empty_general_core",
                        lambda instance: concurrency.append(instance) or empty_core(instance))
    tableaux = []
    original = lp_module._Tableau.solve
    monkeypatch.setattr(lp_module._Tableau, "solve",
                        lambda tableau: tableaux.append(tableau) or original(tableau))
    for kind, _, g in helpers.cap_set(("assignment", "uniform_b", "b_matching", "general")):
        analysis._session.cache_clear()
        oracle_module._search.cache_clear()
        tableaux.clear()
        concurrency.clear()
        nonempty, witness = analysis.core_nonempty(g)
        assert nonempty == (witness is not None) and concurrency == [g]
        assert len(tableaux) == 1 and "rows" not in vars(analysis._session(g))
        searched = oracle_module._search.cache_info().currsize
        assert searched == (kind == "general"), kind


def test_a_disconnected_coalition_demands_the_sum_of_its_parts():
    # Why the core's rows can be its connected coalitions alone: a closed
    # coalition (every member with a neighbour inside) whose inner edges
    # fall apart demands the sum of what its parts demand, so it blocks
    # only when a part does, and each part is a row that comes earlier.
    # A direct _demand call on it must give that sum, on the
    # multi-capacity games of the cap set and on 200 seeded
    # hoffman_kruskal games and 100 each of b_matching and uniform_b.
    rng = random.Random(3109)
    games = [g for _, _, g in helpers.cap_set(("uniform_b", "b_matching", "hoffman_kruskal"))]
    kinds = 2 * [GameKind.HOFFMAN_KRUSKAL] + [GameKind.B_MATCHING, GameKind.UNIFORM_B]
    games += [helpers.random_bipartite(rng, kinds[trial % 4], max_side=4, max_edges=6,
                                       min_side=2)
              for trial in range(400)]
    seen = Counter()
    for g in games:
        at = {q: j for j, q in enumerate(g.agents)}
        for size in range(2, len(g.agents)):
            for picked in combinations(range(len(g.agents)), size):
                members = helpers.names(g, picked)
                if helpers.closed_part(g, members) != members:
                    continue
                seen["closed"] += 1
                parts = helpers.parts(g, members)
                if len(parts) == 1:
                    continue
                assert (analysis._demand(g, picked)
                        == sum(analysis._demand(g, tuple(map(at.get, part)))
                               for part in parts)), (g, members)
                seen["disconnected"] += 1
                seen[g.kind, "disconnected"] += 1
        analysis._session.cache_clear()
    # Counts at this seed: 15,396 closed coalitions, 3,660 of them
    # disconnected (1,346 hoffman_kruskal, 1,431 uniform_b, 883 b_matching).
    assert seen["closed"] >= 14000 and seen["disconnected"] >= 3000, seen
    assert min(seen[kind, "disconnected"] for kind in kinds) >= 800, seen


def test_a_two_agent_capacity_one_game_has_no_row():
    # With every capacity one the rows are the proper edge pairs, and the
    # one pair of a two-agent game is its grand coalition, which the
    # grand range decides.
    games = [helpers.single_edge(kind) for kind in (
        GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING)]
    games.append(make_instance(GameKind.GENERAL, ["a", "b"], [], [("a", "b", 5)]))
    for g in games:
        assert helpers.capacity_one(g)
        assert list(analysis._coalitions(g)) == []
        assert analysis.is_core_imputation(g, make_imputation(g, {"a": 2, "b": 3})).in_core


def test_the_rows_are_the_connected_coalitions_in_size_then_lexicographic_order():
    # _coalitions grows each size from the one below by adding a
    # neighbour, as masks. Filtering every proper coalition by a graph
    # search must give the same rows in the same order, on the
    # b_matching and hoffman_kruskal games of the cap set and on 680
    # seeded ones with a capacity above one, among them graphs in several
    # pieces and agents on no edge. A uniform_b core is capacity times the
    # optimal dual face, so its rows are the sorted edge pairs, each
    # demand left for the session to read; a two-agent game's one pair is
    # its grand coalition, so it has none.
    rng = random.Random(3211)
    games = [g for _, _, g in helpers.cap_set(("b_matching", "hoffman_kruskal"))]
    kinds = (GameKind.HOFFMAN_KRUSKAL, GameKind.B_MATCHING)
    while len(games) < 686:
        g = helpers.random_bipartite(rng, kinds[len(games) % 2], max_side=4, max_edges=8)
        if not helpers.capacity_one(g):
            games.append(g)
    uniform = [g for _, _, g in helpers.cap_set(("uniform_b",))]
    uniform.append(helpers.single_edge(GameKind.UNIFORM_B, uniform_capacity=2))
    while len(uniform) < 142:
        g = helpers.random_bipartite(rng, GameKind.UNIFORM_B, max_side=4, max_edges=8)
        if not helpers.capacity_one(g):
            uniform.append(g)
    seen = Counter()
    for g in games:
        assert not helpers.capacity_one(g)
        reference = [(members, None) for size in range(2, len(g.agents))
                     for members in combinations(g.agents, size)
                     if helpers.connected(g, members)]
        assert [(helpers.names(g, members), demand)
                for members, demand in analysis._coalitions(g)] == reference, g
        seen[g.kind] += 1
        seen["rows"] += len(reference)
        seen["pieces"] += len(helpers.parts(g, g.agents)) > 1
        seen["lone agent"] += any(len(part) == 1 for part in helpers.parts(g, g.agents))
    for g in uniform:
        assert g.uniform_capacity > 1
        pairs = sorted(tuple(sorted((g.agents.index(e.u), g.agents.index(e.v))))
                       for e in g.edges) if len(g.agents) > 2 else []
        assert list(analysis._coalitions(g)) == [(pair, None) for pair in pairs], g
        seen[g.kind] += 1
    # Counts at this seed: 343 games of each connected kind, with 12,200
    # rows, 386 graphs in several pieces and 362 with an agent on no
    # edge; 142 uniform_b games.
    assert min(seen[kind] for kind in (*kinds, GameKind.UNIFORM_B)) >= 130, seen
    assert seen["rows"] >= 12000 and seen["pieces"] >= 200 and seen["lone agent"] >= 200, seen


def test_uniform_b_edge_pairs_give_the_verdicts_and_witnesses_of_the_connected_scan():
    # A uniform_b core is b times the optimal dual face, so the library
    # reads its edge pairs alone. On the uniform_b games of the cap set and
    # 400 seeded ones with b >= 2, membership must give the verdict and the
    # witness (members, demand, allocation) of
    # helpers.reference_first_blocking, a scan over every connected proper
    # coalition by searched worths. Probes: the payoffs of optimal dual
    # vertices and their midpoint (all in the core), seeded splits of the
    # worth and helpers.nearby_payoffs. On each seeded game every worth the
    # scan can read is also naive_optima's, an enumeration of every
    # multiplicity vector of the coalition's own sub-game.
    rng = random.Random(5252)
    games = [g for _, _, g in helpers.cap_set(("uniform_b",))]
    while len(games) < 403:
        g = helpers.random_bipartite(rng, GameKind.UNIFORM_B, max_side=3, max_edges=6)
        if g.uniform_capacity >= 2:
            games.append(g)
    seen = Counter()
    for k, g in enumerate(games):
        if k >= 3:
            for size in range(2, len(g.agents) + 1):
                for members in combinations(g.agents, size):
                    if helpers.connected(g, members):
                        naive = helpers.naive_optima(helpers.sub_game(g, members))[0]
                        assert helpers.reference_worth(g, members) == naive, (g, members)
        grand = helpers.reference_worth(g, g.agents)
        duals = [analysis.optimal_dual(g)] + analysis.sample_dual_vertices(
            g, 2, seed=rng.randint(0, 999))
        derived = list({tuple(analysis.dual_to_imputation(g, d).as_dict.items()): None
                        for d in duals})
        probes = [dict(pay) for pay in derived]
        probes.append({q: (probes[0][q] + probes[-1][q]) / 2 for q in g.agents})
        for _ in range(2):
            shares = [rng.randint(0, 3) for _ in g.agents]
            shares[0] += not any(shares)
            probes.append({q: grand * s / sum(shares) for q, s in zip(g.agents, shares)})
        probes += helpers.nearby_payoffs(rng, probes[0])
        for payoffs in probes:
            verdict = analysis.is_core_imputation(g, make_imputation(g, payoffs))
            expected = helpers.reference_first_blocking(g, payoffs)
            seen["probes"] += 1
            if expected is None:
                assert verdict == analysis.CoreVerdict(True), (g, payoffs)
                seen["in core"] += 1
                continue
            assert (verdict.in_core, verdict.witness, verdict.witness_demand,
                    verdict.witness_allocation) == (False, *expected), (g, payoffs)
            seen["blocked"] += 1
            seen["by a pair"] += len(expected[0]) < len(g.agents)
        seen["b", g.uniform_capacity] += 1
        analysis._session.cache_clear()
    # Counts at this seed: 2,770 probes, 1,381 blocked (978 of them by a
    # pair, the rest by their total) and 1,389 in the core; 171 games with
    # b = 2 and 232 with b = 3.
    assert seen["probes"] >= 2000 and seen["blocked"] >= 1200 and seen["in core"] >= 600, seen
    assert seen["by a pair"] >= 600 and min(seen["b", 2], seen["b", 3]) >= 150, seen


def test_row_generation_cuts_the_row_left_shortest_first_in_order_on_ties():
    # After each solve, row generation adds the row that the optimum
    # leaves shortest, demand - paid, and of several equally short rows
    # the first in size-then-lexicographic order. Cutting by another
    # rule (the first short row, say) still ends at a core vertex, but
    # at another vertex and after other solves. The rows are the test's
    # own list, so each cut is replayed: the relaxation over the rows
    # before it is solved again and its shortest row found in Fractions
    # over the session's (members, demand) rows. Games: the b_matching
    # and hoffman_kruskal games of the cap set and 360 seeded ones with a
    # capacity above one; hoffman_kruskal with the zero objective of
    # core_nonempty, b_matching with 3 sampled objectives, maximized over
    # one row list as sample_core_vertices does (it samples uniform_b on
    # the optimal dual face, so no uniform_b game runs row generation).
    rng = random.Random(3303)
    kinds = (GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL)
    games = [g for _, _, g in helpers.cap_set(tuple(kind.value for kind in kinds))]
    while len(games) < 6 + 360:
        g = helpers.random_bipartite(rng, kinds[len(games) % 2], max_side=4, max_edges=7,
                                     min_side=2)
        if not helpers.capacity_one(g):
            games.append(g)
    seen = Counter()
    for g in games:
        at = {q: j for j, q in enumerate(g.agents)}
        if g.kind is GameKind.HOFFMAN_KRUSKAL:
            objectives = [([ZERO] * len(g.agents), Sense.MINIMIZE)]
        else:
            draw = random.Random(seen["games"])
            objectives = [([F(draw.randint(-9, 9)) for _ in g.agents], Sense.MAXIMIZE)
                          for _ in range(3)]
        seen["games"] += 1
        session = analysis._session(g)
        rows = analysis._total_rows(session)
        for objective, sense in objectives:
            start = len(rows)
            sol = analysis._core_optimum(session, rows, objective, sense)
            table = [(helpers.names(g, members), demand)
                     for members, demand in session.demands()]
            for k in range(start, len(rows) + 1):
                relaxed = solve(LinearProgram(sense, g.agents, objective, rows[:k]))
                if relaxed.status is not Status.OPTIMAL:
                    assert k == len(rows) and sol.status is relaxed.status, g
                    break
                pay = dict(zip(g.agents, relaxed.values))
                short = [(demand - sum(pay[q] for q in members), members, demand)
                         for members, demand in table]
                gap = max((s for s, _, _ in short), default=ZERO)
                if k == len(rows):
                    assert gap <= 0 and sol.values == relaxed.values, g
                    break
                assert gap > 0, g
                tied = [(members, demand) for s, members, demand in short if s == gap]
                members, demand = min(tied, key=lambda row: (len(row[0]),
                                                             [at[q] for q in row[0]]))
                coeffs = tuple(ONE if q in members else ZERO for q in g.agents)
                assert rows[k] == Constraint(coeffs, Relation.GE, demand), (g, k)
                seen["cuts"] += 1
                seen["tied cuts"] += len(tied) > 1
        analysis._session.cache_clear()
    # Counts at this seed: 1,116 cuts, 508 of them with a tie for shortest.
    assert seen["games"] == 366, seen
    assert seen["cuts"] >= 800 and seen["tied cuts"] >= 400, seen
