"""LP construction, duality, odd-set rows, TUM test, vertex structure."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import helpers
from matchcore import formulations
from matchcore.caps import CapExceededError
from matchcore.formulations import (
    build_dual,
    build_odd_set_primal,
    build_primal,
    check_half_integrality,
    is_totally_unimodular,
    primal_var,
    vertex_dual_var,
)
from matchcore.games import GameKind, make_instance
from matchcore.lp import LinearProgram, LpSolution, Status, solve
from matchcore.oracle import max_weight
from matchcore.rationals import scaled

F = Fraction


def bipartite_shaped_general(rng, max_side=3, max_edges=6):
    g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side, max_edges)
    return make_instance(GameKind.GENERAL, g.side_u + g.side_v, [],
                         [(e.u, e.v, e.weight) for e in g.edges])


def _times_three_halves(g):
    return make_instance(g.kind, g.side_u, g.side_v,
                         [replace(e, weight=F(3, 2) * e.weight) for e in g.edges],
                         g.capacities, g.uniform_capacity)


def test_the_builders_write_what_the_validating_constructors_would():
    # build_primal and build_dual write each row's integers and assemble
    # the program unchecked; the result is the program the validating
    # constructors build from the same parts: names, objective and its
    # integers, rows, bounds. Each row keeps scaled([*coeffs, rhs]) as
    # its integers, and every number is a Fraction. Weights times 3/2 put
    # denominators into the rows.
    rng = random.Random(3737)
    games = [g for _, _, g in helpers.cap_set()]
    for kind in helpers.ALL_BIPARTITE:
        games += [helpers.random_bipartite(rng, kind, max_side=5, max_edges=10)
                  for _ in range(200)]
    games += [helpers.random_general(rng, max_vertices=7, max_edges=12) for _ in range(200)]
    seen = dict(programs=0, halves=0, floors=0, ceilings=0)
    for g in games + [_times_three_halves(g) for g in games]:
        for lp in (build_primal(g), build_dual(g)):
            own = LinearProgram(lp.sense, lp.variables, lp.objective,
                                [(row.coeffs, row.relation, row.rhs) for row in lp.constraints],
                                lp.lower, lp.upper)
            for name in ("sense", "variables", "objective", "constraints", "lower", "upper",
                         "_scaled_objective", "_shifted"):
                assert getattr(lp, name) == getattr(own, name), name
            for row, mine in zip(lp.constraints, own.constraints):
                assert row._scaled_row == mine._scaled_row == scaled([*row.coeffs, row.rhs])
                assert all(type(c) is Fraction for c in (*row.coeffs, row.rhs))
            assert all(type(c) is Fraction for c in (*lp.objective, *lp.lower))
            seen["programs"] += 1
            seen["halves"] += any(row._scaled_row[1] > 1 for row in lp.constraints)
            seen["floors"] += any(lo > 0 for lo in lp.lower)
            seen["ceilings"] += any(hi is not None for hi in lp.upper)
    # Counts at this seed: programs 4,060, halves 878 (dual rows over a
    # denominator of 2), floors 256, ceilings 388.
    assert seen["programs"] >= 4000 and min(seen.values()) >= 100, seen


def test_single_edge_assignment_primal():
    sol = solve(build_primal(helpers.single_edge()))
    assert sol.status is Status.OPTIMAL and sol.value == 5


def test_skewed_capacity_primal_value():
    assert solve(build_primal(helpers.two_team_b_matching())).value == 4


def test_unit_triangle_fractional_value():
    # The half-integral point (1/2, 1/2, 1/2) is feasible with value 3/2,
    # and summing the three degree rows bounds any solution by 3/2.
    g = helpers.unit_triangle()
    lp = build_primal(g)
    half = (F(1, 2), F(1, 2), F(1, 2))
    assert lp.is_feasible(half) and lp.evaluate(half) == F(3, 2)
    assert solve(lp).value == F(3, 2)


def test_skewed_capacity_dual_solution():
    g = helpers.two_team_b_matching()
    lp = build_dual(g)
    sol = solve(lp)
    assert sol.value == 4
    pay = {q: sol.values[lp.variables.index(vertex_dual_var(q))] for q in g.agents}
    assert pay == {"u": 1, "v1": 0, "v2": 2}


def test_mixed_bounds_dual_value():
    sol = solve(build_dual(helpers.hk_mixed_bounds()))
    assert sol.status is Status.OPTIMAL and sol.value == 10


def test_single_edge_dual_is_a_deterministic_vertex():
    lp = build_dual(helpers.single_edge())
    sol = solve(lp)
    assert sol.value == 5
    pair = tuple(sol.values[lp.variables.index(vertex_dual_var(q))] for q in "ab")
    assert pair in ((F(5), F(0)), (F(0), F(5)))
    assert solve(lp).values == sol.values


def test_strong_duality_across_kinds():
    rng = random.Random(11)
    for _ in range(120):
        kind = rng.choice(helpers.ALL_BIPARTITE + (GameKind.GENERAL,))
        g = (helpers.random_general(rng, max_vertices=5, max_edges=7)
             if kind is GameKind.GENERAL
             else helpers.random_bipartite(rng, kind, max_side=3, max_edges=6))
        p = solve(build_primal(g))
        d = solve(build_dual(g))
        assert p.status is Status.OPTIMAL and d.status is Status.OPTIMAL
        assert p.value == d.value
        if kind is not GameKind.GENERAL:
            assert p.value == max_weight(g)[0]
        else:
            assert p.value >= max_weight(g)[0]


def test_odd_set_program_on_unit_triangle():
    g = helpers.unit_triangle()
    assert solve(build_odd_set_primal(g)).value == 1


def test_odd_set_program_on_pendant_triangle():
    g = helpers.triangle_pendant()
    assert solve(build_odd_set_primal(g)).value == max_weight(g)[0] == 2


def test_odd_set_program_matches_integral_worth():
    rng = random.Random(23)
    for _ in range(40):
        g = helpers.random_general(rng, max_vertices=6, max_edges=8)
        assert solve(build_odd_set_primal(g)).value == max_weight(g)[0]


def test_odd_set_program_no_effect_on_bipartite_shape():
    rng = random.Random(29)
    for _ in range(25):
        g = bipartite_shaped_general(rng)
        assert solve(build_odd_set_primal(g)).value == solve(build_primal(g)).value


def test_odd_set_cap_and_kind_guard():
    with pytest.raises(ValueError):
        build_odd_set_primal(helpers.two_team_b_matching())
    with pytest.raises(CapExceededError, match="13 vertices exceed the odd-set cap of 12"):
        build_odd_set_primal(helpers.general_path(13))


# ---------------------------------------------------------------------------
# Total unimodularity.
# ---------------------------------------------------------------------------

def rows_of(lp):
    return [c.coeffs for c in lp.constraints]


def test_identity_matrix_is_tum():
    eye = tuple(tuple(F(int(i == j)) for j in range(4)) for i in range(4))
    assert is_totally_unimodular(eye)


def test_tum_takes_int_rows_and_the_empty_matrix():
    assert is_totally_unimodular([[1, 0, -1], [0, 1, 1]])
    assert not is_totally_unimodular([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert not is_totally_unimodular([[2]])
    assert is_totally_unimodular([])
    assert is_totally_unimodular([[], []])


def test_tum_refuses_ragged_rows():
    with pytest.raises(ValueError, match="differ in length"):
        is_totally_unimodular([[1, 0], [1]])
    with pytest.raises(ValueError, match="differ in length"):
        is_totally_unimodular([(F(2),), (F(1), F(0))])


def test_tum_refuses_float_entries():
    for rows in ([[1.0, 0.0]], [[1, 0], [0, 0.5]]):
        with pytest.raises(TypeError, match="expected an exact rational"):
            is_totally_unimodular(rows)


def test_bipartite_incidence_is_tum_and_triangle_is_not():
    rng = random.Random(31)
    for _ in range(20):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                     max_edges=6)
        assert is_totally_unimodular(rows_of(build_primal(g)))
    assert not is_totally_unimodular(rows_of(build_primal(helpers.unit_triangle())))


def test_tum_agrees_with_naive_sweep():
    rng = random.Random(37)
    dense = tum = non_tum = 0
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        entries = tuple(tuple(F(rng.choice((0, 1)))
                              for _ in range(n)) for _ in range(m))
        counts = [sum(1 for r in entries if r[j]) for j in range(n)]
        first = next((j for j, c in enumerate(counts) if c > 2), None)
        if first is None:
            verdict = is_totally_unimodular(entries)
            assert verdict == helpers.naive_tum(entries), entries
            tum += verdict
            non_tum += not verdict
        else:
            with pytest.raises(ValueError, match=f"^column {first} has {counts[first]} "):
                is_totally_unimodular(entries)
            # The reference still meets the definition past Heller &
            # Tompkins's hypothesis.
            assert helpers.sweep_tum(entries) == helpers.naive_tum(entries), entries
            dense += 1
    assert dense >= 20 and tum >= 30 and non_tum >= 1


def _signed_rows(rng):
    """An m x n matrix of 0 and +-1 (m <= 6, n <= 7) as int rows, with at
    most two nonzeros per column: Heller & Tompkins's hypothesis."""
    m, n = rng.randint(1, 6), rng.randint(1, 7)
    rows = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), min(m, rng.choice((0, 1, 2, 2, 2, 2)))):
            rows[i][j] = rng.choice((1, 1, -1))
    return rows


def _matrix(rows):
    return tuple(tuple(F(v) for v in r) for r in rows)


def test_two_colouring_agrees_with_the_sweep_on_signed_matrices():
    rng = random.Random(41)
    non_tum = negative = sparse_column = 0
    for trial in range(320):
        rows = _signed_rows(rng)
        verdict = is_totally_unimodular(_matrix(rows))
        reference = helpers.sweep_tum(rows)
        assert verdict == reference, rows
        if trial < 40:
            assert reference == helpers.naive_tum(_matrix(rows)), rows
        non_tum += not verdict
        negative += any(-1 in r for r in rows)
        sparse_column += any(sum(1 for r in rows if r[j]) < 2 for j in range(len(rows[0])))
    # The draw must reach both verdicts, both sign rules and the columns
    # that add no edge to the row graph.
    assert non_tum >= 60 and negative >= 100 and sparse_column >= 30


def test_two_nonzero_columns_are_decided_at_any_size():
    eye = tuple(tuple(F(int(i == j)) for j in range(9)) for i in range(9))
    assert is_totally_unimodular(eye)
    ((_, _, g), *_) = helpers.cap_set(("b_matching",))
    incidence = rows_of(build_primal(g))
    assert (len(incidence), len(incidence[0])) == (12, 16)
    assert is_totally_unimodular(incidence)
    # An entry outside {0, +-1} is a 1x1 counterexample at any size.
    two = tuple(tuple(F(2 if i == j == 8 else 1) for j in range(9)) for i in range(9))
    assert not is_totally_unimodular(two)


def test_tum_refuses_a_column_of_three_nonzeros():
    for rows, first, count in (
            ([[1], [1], [1]], 0, 3),
            ([[1, 0, 1], [0, -1, 1], [0, 1, 0], [0, 1, -1]], 1, 3),
            ([[1, 1, 1], [-1, 1, 1], [0, 0, 1], [0, 1, 1]], 1, 3),
            # The identity with a full first column, and the 9x9 of ones.
            ([[int(i == j or j == 0) for j in range(9)] for i in range(9)], 0, 9),
            ([[1] * 9 for _ in range(9)], 0, 9)):
        with pytest.raises(ValueError, match=f"^column {first} has {count} nonzeros"):
            is_totally_unimodular(rows)
    # An entry outside {0, +-1} is a 1x1 counterexample, found before any
    # column is counted.
    assert not is_totally_unimodular([[1], [1], [2]])
    assert not is_totally_unimodular([[1, 1], [1, 1], [1, -2]])


# ---------------------------------------------------------------------------
# Half-integral vertex structure.
# ---------------------------------------------------------------------------

def test_unit_triangle_half_integral_vertex():
    g = helpers.unit_triangle()
    sol = solve(build_primal(g))
    report = check_half_integrality(sol, g)
    assert report.ok
    assert report.matched_edges == ()
    assert len(report.half_cycles) == 1
    assert len(report.half_cycles[0]) == 3


def test_bipartite_shape_vertices_are_integral():
    rng = random.Random(41)
    for _ in range(25):
        g = bipartite_shaped_general(rng)
        sol = solve(build_primal(g))
        report = check_half_integrality(sol, g)
        assert report.ok
        assert not report.half_cycles


def test_seven_ring_constructed_half_cycle_vertex():
    g = helpers.seven_ring()
    lp = build_primal(g)
    cycle = ["v1", "v2", "v7", "v3", "v4", "v5", "v6"]
    on_cycle = {frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])}
    values = {primal_var(e.key): (F(1, 2) if frozenset(e.key) in on_cycle else F(0))
              for e in g.edges}
    ordered = tuple(values[primal_var(e.key)] for e in g.edges)
    assert lp.is_feasible(ordered)
    assert lp.evaluate(ordered) == 4
    sol = LpSolution(Status.OPTIMAL, F(4), ordered)
    report = check_half_integrality(sol, g)
    assert report.ok
    assert report.matched_edges == ()
    assert [len(c) for c in report.half_cycles] == [7]


def test_half_integrality_rejects_non_vertex():
    g = helpers.unit_triangle()
    lp = build_primal(g)
    mid = (F(1, 4), F(1, 4), F(1, 4))
    assert lp.is_feasible(mid)
    sol = LpSolution(Status.OPTIMAL, lp.evaluate(mid), mid)
    with pytest.raises(ValueError):
        check_half_integrality(sol, g)
    # Values are read in build_primal's column order; a vector of another
    # length is no vertex of it.
    short = LpSolution(Status.OPTIMAL, F(0), (F(0), F(0)))
    with pytest.raises(ValueError, match="not a vertex"):
        check_half_integrality(short, g)


def test_half_integrality_refuses_a_bipartite_game():
    g = helpers.single_edge()
    with pytest.raises(ValueError, match="half-integral structure applies to general instances"):
        check_half_integrality(solve(build_primal(g)), g)


@pytest.mark.parametrize("edges, values, violations", [
    ("ab", (F(1, 3),), ("x[a,b] = 1/3 is not in {0, 1/2, 1}",)),
    ("ab bc", (1, 1), ("integral edges are not a matching at (b,c)",)),
    ("ab bc", (1, F(1, 2)), ("half edge (b,c) shares a vertex with a matched edge",
                             "half edges at b do not close a cycle",
                             "half edges at c do not close a cycle")),
    ("ab bc", (F(1, 2), F(1, 2)), ("half edges at a do not close a cycle",
                                   "half edges at c do not close a cycle")),
    ("ab bc cd ad", (F(1, 2),) * 4, ("half cycle through a has even length",)),
], ids=["not-half-integral", "integral-not-a-matching", "half-meets-integral",
        "half-path", "even-half-cycle"])
def test_half_integrality_names_each_violation(monkeypatch, edges, values, violations):
    # Every vertex of the general matching polytope passes; so the vertex
    # test is made to pass these points, which are not vertices, and each
    # violation the check can name is named.
    monkeypatch.setattr(formulations, "is_vertex", lambda lp, values: True)
    g = make_instance(GameKind.GENERAL, "abcd", [], [(u, v, 1) for u, v in edges.split()])
    sol = LpSolution(Status.OPTIMAL, F(0), tuple(map(F, values)))
    assert check_half_integrality(sol, g).violations == violations


def test_constraint_matrix_labels():
    g = helpers.two_team_b_matching()
    assert all(v in (0, 1) for row in rows_of(build_primal(g)) for v in row)


def test_every_built_row_keeps_its_scaled_integers():
    # The integers a row keeps for the tableau are scaled([*coeffs, rhs]),
    # on every row the builders write: the cap set and seeded games of
    # every kind, with integer weights and with weights over 2 to 6.
    rng = random.Random(3002)
    games = [g for _, _, g in helpers.cap_set()]
    for i in range(150):
        kind = helpers.ALL_BIPARTITE[i % 4]
        games.append(helpers.random_general(rng) if i % 5 == 4
                     else helpers.random_bipartite(rng, kind))
    games += [replace(g, edges=tuple(replace(e, weight=e.weight / rng.randint(2, 6))
                                     for e in g.edges)) for g in games]
    seen = dict(rows=0, odd_set=0, fractional=0)
    for g in games:
        programs = [build_primal(g), build_dual(g)]
        if g.kind is GameKind.GENERAL:
            programs.append(build_odd_set_primal(g))
            seen["odd_set"] += 1
        for lp in programs:
            for row in lp.constraints:
                assert row._scaled_row == scaled([*row.coeffs, row.rhs])
                seen["rows"] += 1
                seen["fractional"] += row._scaled_row[1] > 1
    # Counts at this seed: rows 15744, odd_set 66, fractional 574 (the
    # dual programs' edge rows, whose right-hand side is the weight).
    assert seen["rows"] >= 5000 and seen["odd_set"] >= 60 and seen["fractional"] >= 400, seen
