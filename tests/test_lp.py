"""Exact LP engine tests.

The two-variable cases are checked against an independent brute-force
oracle that enumerates all vertices of the polygon by intersecting
constraint lines, so expected optima are computed, not guessed.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import helpers
from fraction_simplex import FractionFace
from matchcore.lp import (
    Constraint,
    LinearProgram,
    OptimalFace,
    Relation,
    Sense,
    Status,
    coordinate_range,
    eliminate,
    is_vertex,
    rank_of_rows,
    solve,
    tight_rows_at,
)

F = Fraction


# ---------------------------------------------------------------------------
# Independent oracle: enumerate vertices of a 2-variable polygon exactly.
# ---------------------------------------------------------------------------

def polygon_optimum(lp):
    """Best objective value over all vertices of a 2-variable LP.

    Intersects every pair of constraint/bound lines and keeps the feasible
    points. Only valid for bounded feasible regions with at least one
    vertex, which is all this oracle is used for.
    """
    assert len(lp.variables) == 2
    lines = [(c.coeffs[0], c.coeffs[1], c.rhs) for c in lp.constraints]
    for j in range(2):
        unit = (F(1), F(0)) if j == 0 else (F(0), F(1))
        lines.append((unit[0], unit[1], lp.lower[j]))
        if lp.upper[j] is not None:
            lines.append((unit[0], unit[1], lp.upper[j]))
    points = []
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if lp.is_feasible((x, y)):
            points.append((x, y))
    assert points, "oracle found no vertices"
    values = [lp.evaluate(p) for p in points]
    return max(values) if lp.sense is Sense.MAXIMIZE else min(values)


def test_single_variable_max():
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1], [(([1]), Relation.LE, 1)])
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.value == 1
    assert sol["x"] == 1


def test_two_variable_against_polygon_oracle():
    lp = LinearProgram(
        Sense.MAXIMIZE, ["x", "y"], [1, 1],
        [([1, 1], Relation.LE, 2), ([1, 0], Relation.LE, 1)],
    )
    expected = polygon_optimum(lp)
    assert expected == 2  # frozen from the oracle
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.value == expected


def test_infeasible():
    lp = LinearProgram(
        Sense.MAXIMIZE, ["x"], [1],
        [([1], Relation.GE, 1), ([1], Relation.LE, 0)],
    )
    assert solve(lp).status is Status.INFEASIBLE


def test_unbounded():
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1])
    assert solve(lp).status is Status.UNBOUNDED


def test_minimization_and_equality_rows():
    lp = LinearProgram(
        Sense.MINIMIZE, ["x", "y"], [3, 5],
        [([1, 1], Relation.EQ, 4), ([1, 0], Relation.GE, 1)],
    )
    expected = polygon_optimum(lp)
    sol = solve(lp)
    assert sol.status is Status.OPTIMAL
    assert sol.value == expected
    assert sol["x"] + sol["y"] == 4


def test_free_variable():
    # Every variable needs a finite lower bound; bounds are sequences.
    with pytest.raises(ValueError, match="no finite lower bound"):
        LinearProgram(Sense.MINIMIZE, ["x"], [1], [([1], Relation.GE, -5)],
                      lower=[None])
    with pytest.raises(ValueError, match="no finite lower bound"):
        LinearProgram(Sense.MINIMIZE, ["x"], [1], lower=[None], upper=[3])
    with pytest.raises(TypeError):
        LinearProgram(Sense.MINIMIZE, ["x"], [1], lower={"x": -5})
    with pytest.raises(TypeError):
        LinearProgram(Sense.MINIMIZE, ["x"], [1], upper={"x": 3})


def test_variable_upper_bounds():
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [2, 1], upper=[3, "7/2"])
    sol = solve(lp)
    assert sol.value == F(19, 2)
    assert sol.values == (F(3), F(7, 2))


def test_malformed_rejected_at_construction():
    with pytest.raises(ValueError):
        LinearProgram(Sense.MAXIMIZE, ["x", "x"], [1, 1])
    with pytest.raises(ValueError):
        LinearProgram(Sense.MAXIMIZE, ["x"], [1, 2])
    with pytest.raises(ValueError, match="constraint 1 has wrong arity"):
        LinearProgram(Sense.MAXIMIZE, ["x"], [1],
                      [([1], Relation.GE, 0), ([1, 2], Relation.LE, 1)])
    with pytest.raises(ValueError):
        LinearProgram(Sense.MAXIMIZE, ["x"], [1], lower=[2], upper=[1])
    with pytest.raises(TypeError):
        LinearProgram(Sense.MAXIMIZE, ["x"], [0.5])


def test_optimal_face_segment():
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [1, 1],
                       [([1, 1], Relation.LE, 1)])
    face = OptimalFace(lp)
    hi = face.optimize([1, 0], Sense.MAXIMIZE)
    lo = face.optimize([1, 0], Sense.MINIMIZE)
    assert hi.value == 1 and lo.value == 0
    assert coordinate_range(lp, "x") == (0, 1)
    assert coordinate_range(lp, "y") == (0, 1)


def test_optimal_face_requires_optimal_base():
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1])
    with pytest.raises(ValueError):
        OptimalFace(lp).optimize([1], Sense.MINIMIZE)


def test_coordinate_range_degenerate_when_unique():
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [2, 1],
                       [([1, 1], Relation.LE, 1)])
    assert coordinate_range(lp, "x") == (1, 1)
    assert coordinate_range(lp, "y") == (0, 0)


def test_coordinate_range_unknown_variable():
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1], upper=[1])
    with pytest.raises(ValueError):
        coordinate_range(lp, "zz")


def test_unbounded_secondary_reported_as_marker():
    # Face is the ray x = y >= 0 once the (trivial) objective is pinned.
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [1, -1],
                       [([1, -1], Relation.LE, 0), ([-1, 1], Relation.LE, 0)])
    res = OptimalFace(lp).optimize([1, 0], Sense.MAXIMIZE)
    assert res.status is Status.UNBOUNDED
    lo, hi = coordinate_range(lp, "x")
    assert lo == 0 and hi is None


def random_program(rng, lowered=False, fractional=False):
    """Small random LP. With ``lowered``, some variables have a negative
    lower bound and the objective coefficients are small, so ties are
    common. With ``fractional``, the objective, the coefficients and the
    right-hand sides are rationals with denominators up to 4; without it,
    the draws are integers."""

    def number(lo, hi):
        a = rng.randint(lo, hi)
        return F(a, rng.randint(1, 4)) if fractional else a

    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    names = [f"x{j}" for j in range(n)]
    span = 1 if lowered else 5
    objective = [number(-span, span) for _ in range(n)]
    cons = []
    for i in range(m):
        coeffs = [number(-3, 3) for _ in range(n)]
        rel = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
        cons.append((coeffs, rel, number(-6, 6)))
    upper = [rng.choice([None, rng.randint(1, 6)]) for _ in range(n)]
    lower = [rng.choice([-3, 0, -2]) if lowered else 0 for _ in range(n)]
    upper = [hi if hi is None or lo <= hi else None
             for lo, hi in zip(lower, upper)]
    return LinearProgram(Sense.MAXIMIZE, names, objective, cons, lower, upper)


def test_random_programs_solution_invariants():
    rng = random.Random(20240)
    optimal_seen = 0
    for _ in range(250):
        lp = random_program(rng)
        sol = solve(lp)
        if sol.status is not Status.OPTIMAL:
            continue
        optimal_seen += 1
        assert lp.is_feasible(sol.values)
        assert lp.evaluate(sol.values) == sol.value
        assert all(isinstance(v, Fraction) for v in sol.values)
        # Vertex property: enough tight rows of full rank.
        assert is_vertex(lp, sol.values)
        # Determinism: an independent fresh solve agrees exactly.
        again = solve(LinearProgram(lp.sense, lp.variables, lp.objective,
                                    lp.constraints, lp.lower, lp.upper))
        assert again.values == sol.values and again.value == sol.value
    assert optimal_seen > 80


def test_warm_face_queries_match_the_pinned_row_lp():
    # The engine's phase-2-only queries against the cold oracle: the
    # optimal face written as an LP with the row "objective = optimum".
    seen = dict(programs=0, lowered=0, bounded=0, equality=0,
                degenerate=0, ties=0, rays=0)
    for seed in range(600):
        rng = random.Random(seed)
        lp = random_program(rng, lowered=seed % 2 == 0)
        face = OptimalFace(lp)
        base = solve(lp)
        assert face.base == base  # status, value, values and basis
        if base.status is not Status.OPTIMAL:
            with pytest.raises(ValueError):
                face.optimize(lp.objective, Sense.MINIMIZE)
            continue
        seen["programs"] += 1
        seen["lowered"] += any(lo < 0 for lo in lp.lower)
        seen["bounded"] += any(hi is not None for hi in lp.upper)
        seen["equality"] += any(c.relation is Relation.EQ for c in lp.constraints)
        seen["degenerate"] += len(tight_rows_at(lp, base.values)) > len(lp.variables)
        pinned = lp.with_extra_constraints(
            [Constraint(lp.objective, Relation.EQ, base.value)])
        n = len(lp.variables)
        queries = [(tuple(int(j == k) for k in range(n)), sense)
                   for j in range(n) for sense in (Sense.MAXIMIZE, Sense.MINIMIZE)]
        queries += [([rng.randint(-4, 4) for _ in range(n)], Sense.MAXIMIZE)
                    for _ in range(3)]
        values = []
        for objective, sense in queries:
            warm = face.optimize(objective, sense)
            cold = solve(LinearProgram(sense, pinned.variables, objective,
                                       pinned.constraints, pinned.lower, pinned.upper))
            assert warm.status is cold.status
            values.append(warm.value)
            if warm.status is Status.UNBOUNDED:
                continue
            assert warm.value == cold.value
            assert pinned.is_feasible(warm.values)
            assert is_vertex(pinned, warm.values)
        seen["ties"] += values[:2 * n:2] != values[1:2 * n:2]
        seen["rays"] += None in values
    assert seen["programs"] >= 150 and min(seen.values()) >= 20, seen


def test_fraction_free_kernel_matches_the_rational_tableau():
    # The engine against the tableau that pivots in Fraction
    # (fraction_simplex.py): identical status, value, vertex and basis,
    # on the solve and on the face queries of the test above.
    seen = dict(fractional=0, lowered=0, bounded=0, equality=0, optimal=0,
                infeasible=0, unbounded=0, ties=0)
    for seed in range(1200):
        rng = random.Random(seed)
        fractional = seed % 3 == 0
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=fractional)
        reference = FractionFace(lp)
        base = solve(lp)
        assert base == reference.base
        seen["fractional"] += fractional
        seen["lowered"] += any(lo < 0 for lo in lp.lower)
        seen["bounded"] += any(hi is not None for hi in lp.upper)
        seen["equality"] += any(c.relation is Relation.EQ for c in lp.constraints)
        seen["infeasible"] += base.status is Status.INFEASIBLE
        seen["unbounded"] += base.status is Status.UNBOUNDED
        if base.status is Status.OPTIMAL:
            seen["optimal"] += 1
            face = OptimalFace(lp)
            n = len(lp.variables)
            queries = [(tuple(int(j == k) for k in range(n)), sense)
                       for j in range(n) for sense in (Sense.MAXIMIZE, Sense.MINIMIZE)]
            queries += [([rng.randint(-4, 4) for _ in range(n)], Sense.MAXIMIZE)
                        for _ in range(3)]
            for objective, sense in queries:
                assert face.optimize(objective, sense) == reference.optimize(objective, sense)
        seen["ties"] += reference.ties > 0
    # Counts at these seeds: fractional 400, lowered 529, bounded 937,
    # equality 768, optimal 454, infeasible 645, unbounded 101, ties 131.
    assert min(seen.values()) >= 90, seen


def test_unbounded_and_infeasible_cross_checked():
    # On 2-variable programs, compare status against the polygon oracle
    # whenever the oracle applies (bounded region with a vertex).
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        n = 2
        cons = [([rng.randint(-3, 3) for _ in range(n)],
                 rng.choice([Relation.LE, Relation.GE]),
                 rng.randint(-4, 6)) for _ in range(rng.randint(1, 4))]
        upper = [rng.randint(1, 5) for _ in range(n)]
        lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"],
                           [rng.randint(-4, 4), rng.randint(-4, 4)],
                           cons, upper=upper)
        sol = solve(lp)
        assert sol.status is not Status.UNBOUNDED  # box-bounded
        try:
            expected = polygon_optimum(lp)
        except AssertionError:
            assert sol.status is Status.INFEASIBLE
            continue
        assert sol.status is Status.OPTIMAL
        assert sol.value == expected
        checked += 1
    assert checked > 100


def solve_square(rows, rhs):
    n = len(rows[0])
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, len(mat)) if mat[i][col]), -1)
        if piv < 0:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = F(1) / mat[col][col]
        mat[col] = [a * inv for a in mat[col]]
        for i in range(len(mat)):
            if i != col and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return [mat[i][n] for i in range(n)]


def vertex_enumeration_best(lp):
    """Independent n-dimensional oracle for box-bounded programs: try every
    full-rank set of n tight hyperplanes and keep the best feasible point."""
    n = len(lp.variables)
    planes = [(c.coeffs, c.rhs) for c in lp.constraints]
    for j in range(n):
        unit = tuple(F(int(k == j)) for k in range(n))
        planes.append((unit, lp.lower[j]))
        planes.append((unit, lp.upper[j]))
    best = None
    for combo in combinations(range(len(planes)), n):
        rows = [planes[i][0] for i in combo]
        if rank_of_rows(rows) < n:
            continue
        point = solve_square(rows, [planes[i][1] for i in combo])
        if point is None or not lp.is_feasible(point):
            continue
        value = lp.evaluate(point)
        if best is None or value > best:
            best = value
    return best


def test_against_full_vertex_enumeration():
    rng = random.Random(424242)
    optimal = infeasible = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        cons = []
        for _ in range(rng.randint(0, 5)):
            coeffs = [F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                      for _ in range(n)]
            rel = rng.choice((Relation.LE, Relation.GE, Relation.EQ))
            cons.append((coeffs, rel, F(rng.randint(-8, 8), rng.choice((1, 2)))))
        lower = [rng.choice([F(0), F(0), F(-5), F(-2)]) for _ in range(n)]
        upper = [max(lower[j], F(rng.randint(0, 7))) for j in range(n)]
        lp = LinearProgram(Sense.MAXIMIZE, [f"x{j}" for j in range(n)],
                           [F(rng.randint(-5, 5)) for _ in range(n)],
                           cons, lower, upper)
        sol = solve(lp)
        want = vertex_enumeration_best(lp)
        if want is None:
            assert sol.status is Status.INFEASIBLE
            infeasible += 1
        else:
            assert sol.status is Status.OPTIMAL
            assert sol.value == want
            optimal += 1
    assert optimal > 150 and infeasible > 150


def test_elimination_matches_the_rational_reference():
    # The fraction-free kernel against Gauss-Jordan in Fraction, on integer
    # matrices up to 7 x 7 with entries in -3..3. Zeros at the pivot force
    # row swaps, so a lost sign flip shows as a determinant of the wrong
    # sign; copied or negated lines and zero lines make rank deficits.
    rng = random.Random(2101)
    deficient = non_square = big_det = zero_line = 0
    for i in range(480):
        m = rng.randint(1, 7)
        n = m if i % 3 else rng.randint(1, 7)
        sparse = rng.choice((0.0, 0.3, 0.6))
        rows = [[0 if rng.random() < sparse else rng.randint(-3, 3) for _ in range(n)]
                for _ in range(m)]
        twist = i % 6
        if twist == 1 and m > 1:        # a row copied, or negated, onto another
            a, b = rng.sample(range(m), 2)
            rows[b] = [rng.choice((1, -1)) * x for x in rows[a]]
        elif twist == 3 and n > 1:      # the same for a column
            a, b = rng.sample(range(n), 2)
            sign = rng.choice((1, -1))
            for row in rows:
                row[b] = sign * row[a]
        elif twist == 5:                # a zero row or column
            if rng.random() < 0.5:
                rows[rng.randrange(m)] = [0] * n
            else:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
        rank, det = helpers.reference_rank_and_det(rows)
        assert eliminate(rows) == (rank, det), rows
        # Rational rows: the same rank after dividing each row by its own
        # positive denominator.
        rational = [[F(x, d) for x in row] for row, d in
                    zip(rows, (rng.randint(1, 6) for _ in rows))]
        assert rank_of_rows(rational) == rank, rows
        deficient += rank < min(m, n)
        non_square += m != n
        big_det += det is not None and abs(det) >= 2
        zero_line += (any(not any(row) for row in rows)
                      or any(not any(row[j] for row in rows) for j in range(n)))
    assert deficient >= 60 and non_square >= 60 and big_det >= 60 and zero_line >= 20, \
        (deficient, non_square, big_det, zero_line)


def test_exactness_denominator_divides_basis_determinant():
    # With integer data, every optimal coordinate is a ratio of
    # determinants, so value * det(tight system) must be an integer.
    rng = random.Random(99)
    seen = 0
    for _ in range(200):
        lp = random_program(rng)
        sol = solve(lp)
        if sol.status is not Status.OPTIMAL:
            continue
        rows = tight_rows_at(lp, sol.values)
        n = len(lp.variables)
        square = _independent_square(rows, n)
        det = helpers.reference_rank_and_det(square)[1]
        assert det != 0
        for v in sol.values:
            assert (v * det).denominator == 1
        seen += 1
    assert seen > 40


def _independent_square(rows, n):
    chosen = []
    for row in rows:
        if rank_of_rows(chosen + [row]) > len(chosen):
            chosen.append(row)
        if len(chosen) == n:
            break
    assert len(chosen) == n
    return chosen
