"""Exact LP engine tests.

The two-variable cases are checked against an independent brute-force
oracle that enumerates all vertices of the polygon by intersecting
constraint lines, so expected optima are computed, not guessed. The
engine's integer paths (``dot``, activities, objective values) are
checked against plain ``Fraction`` sums: every solve and face query in
this file goes through the checking ``solve`` and ``OptimalFace`` below.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import helpers
from fraction_simplex import FractionFace
from matchcore import lp as lp_module
from matchcore import rationals
from matchcore import analysis
from matchcore.formulations import build_dual, build_primal, sub_dual
from matchcore.lp import (
    Constraint,
    LinearProgram,
    Relation,
    Sense,
    Status,
    eliminate,
    is_vertex,
    rank_of_rows,
    tight_rows_at,
)
from matchcore.rationals import dot, scaled

F = Fraction


def fraction_sum(a, b):
    """The dot product summed term by term in Fraction: the reference."""
    return sum((x * y for x, y in zip(a, b)), F(0))


def check_value(sol, objective):
    """An optimal solution's value is its objective at its vertex."""
    if sol.status is Status.OPTIMAL:
        assert sol.value == dot(objective, sol.values) == fraction_sum(objective, sol.values)
    return sol


def solve(lp):
    """The engine's ``solve``, its value checked against ``lp.evaluate``
    and the Fraction sum."""
    sol = check_value(lp_module.solve(lp), lp.objective)
    if sol.status is Status.OPTIMAL:
        assert sol.value == lp.evaluate(sol.values)
    return sol


class OptimalFace(lp_module.OptimalFace):
    """The engine's optimal face, the value of its base and of every
    query checked as ``solve``'s are."""

    def __init__(self, lp):
        super().__init__(lp)
        check_value(self.base, lp.objective)

    def optimize(self, objective, sense):
        return check_value(super().optimize(objective, sense), objective)


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
    assert sol.values[0] == 1


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
    assert sol.values[0] + sol.values[1] == 4


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
    for bounds in ({"lower": [0, 0]}, {"upper": []}):
        with pytest.raises(ValueError, match="bounds length does not match variable count"):
            LinearProgram(Sense.MAXIMIZE, ["x"], [1], **bounds)
    with pytest.raises(TypeError):
        LinearProgram(Sense.MAXIMIZE, ["x"], [0.5])


def test_a_constraint_is_coerced_as_a_row_tuple_is():
    # A Constraint built directly is checked where its integers are kept:
    # its relation becomes a Relation and its numbers Fractions, so the
    # solve and is_feasible read the same row; a float or a bool raises
    # the package's TypeError before any solve.
    row = Constraint((1,), "<=", 1)
    assert (row.coeffs, row.relation, row.rhs) == ((F(1),), Relation.LE, F(1))
    lp = LinearProgram(Sense.MINIMIZE, ["x"], [1], [row])
    assert solve(lp).values == (0,)
    assert lp.is_feasible([0]) and lp.is_feasible([1]) and not lp.is_feasible([2])
    assert Constraint(["1/2", 3], ">=", "0.75") == Constraint((F(1, 2), F(3)), Relation.GE, F(3, 4))
    assert Constraint([1], "=", 2) == LinearProgram(Sense.MAXIMIZE, ["x"], [1],
                                                    [([1], "=", 2)]).constraints[0]
    for coeffs, rhs in (((0.5,), 1), ((1,), 1.0), ((True,), 1), ((1,), False)):
        with pytest.raises(TypeError):
            LinearProgram(Sense.MAXIMIZE, ["x"], [1], [Constraint(coeffs, Relation.LE, rhs)])
    with pytest.raises(ValueError):
        Constraint((1,), "<", 1)


def calls_from(run, callees):
    """``run()``'s result, and the calls of the Python functions
    ``callees`` made while it ran, counted by the qualified name of the
    callee and of the code that called it directly."""
    names = {f.__code__: f.__qualname__ for f in callees}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code], frame.f_back.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def test_a_signed_row_keeps_its_integers_without_scaling():
    # Constraint._signed writes every row of build_primal, build_dual and
    # sub_dual: a row of unit coefficients at the given columns, zero
    # elsewhere. It equals the row the validating constructor builds from
    # the same parts, and its kept integers are scaled([*coeffs, rhs]),
    # with no number coerced or scaled on the way.
    rng = random.Random(3001)
    fractional = 0
    for _ in range(400):
        width = rng.randint(0, 6)
        signs = {j: rng.choice((1, -1)) for j in rng.sample(range(width), rng.randint(0, width))}
        relation = rng.choice(list(Relation))
        rhs = F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))
        row, counts = calls_from(lambda: Constraint._signed(width, signs, relation, rhs),
                                 (rationals.scaled, rationals.ensure_rational,
                                  Constraint.__init__))
        assert not counts, counts
        own = Constraint([F(signs.get(j, 0)) for j in range(width)], relation, rhs)
        assert row == own
        assert row._scaled_row == own._scaled_row == scaled([*row.coeffs, row.rhs])
        fractional += row._scaled_row[1] > 1
    assert fractional >= 100, fractional


def test_the_tableau_scales_and_negates_nothing_at_zero_lower_bounds():
    # A program is put into integers when it is built, and build_dual
    # writes its integers straight in: building and solving a cap-set
    # game's dual program (minimizing, every lower bound zero) calls
    # neither rationals.scaled nor Fraction.__neg__, and builds no row or
    # program through the validating constructors. The hook sees a call
    # made from anywhere, the builder included; the engine's own solve
    # runs, without this file's checks of the value.
    callees = (rationals.scaled, Fraction.__neg__, Constraint.__init__, LinearProgram.__init__)
    for kind, s, g in helpers.cap_set():
        _, counts = calls_from(lambda: lp_module.solve(build_dual(g)), callees)
        assert not counts, (kind, s, counts)
    # A coalition's dual program is written from the game's built one
    # (sub_dual): on every connected row of the hoffman_kruskal cap-set
    # games, no number is coerced or scaled and no row or program goes
    # through the validating constructors.
    callees = (rationals.scaled, rationals.ensure_rational,
               Constraint.__init__, LinearProgram.__init__)
    written = 0
    for _, s, g in helpers.cap_set(("hoffman_kruskal",)):
        program = build_dual(g)
        for members, _ in analysis._coalitions(g):
            _, counts = calls_from(lambda: sub_dual(program, g, members), callees)
            assert not counts, (s, members, counts)
            written += 1
    assert written == 2786, written


def test_optimal_face_segment():
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [1, 1],
                       [([1, 1], Relation.LE, 1)])
    face = OptimalFace(lp)
    hi = face.optimize([1, 0], Sense.MAXIMIZE)
    lo = face.optimize([1, 0], Sense.MINIMIZE)
    assert hi.value == 1 and lo.value == 0
    assert face.range([1, 0]) == (0, 1)
    assert face.range([0, 1]) == (0, 1)


def test_optimal_face_answers_each_question_once(monkeypatch):
    # A face query is scaled to integers once and keyed by them: asked
    # again, with the objective written as ints, equal Fractions or
    # rational strings and the sense as its enum or its value, it is the
    # kept answer and no phase-2 run starts. Another sense or objective is
    # a new question; a float is refused as everywhere else.
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [1, 1],
                       [([1, 1], Relation.LE, 1)])
    face = lp_module.OptimalFace(lp)
    runs = []
    original = lp_module._Tableau.optimize

    def run(tableau, objective, sense, allowed):
        runs.append((objective, sense))
        return original(tableau, objective, sense, allowed)

    monkeypatch.setattr(lp_module._Tableau, "optimize", run)
    first = face.optimize([1, 0], Sense.MAXIMIZE)
    assert runs == [(([1, 0], 1), Sense.MAXIMIZE)]
    assert face.optimize([F(1), F(0, 3)], "maximize") is first
    assert face.extremum((1, 0), Sense.MAXIMIZE) == first.value == 1
    assert len(runs) == 1
    assert face.range([1, 0]) == (0, 1) and len(runs) == 2
    assert face.optimize([2, 0], Sense.MAXIMIZE).value == 2 and len(runs) == 3
    half = face.optimize([F(2, 4), 0], Sense.MAXIMIZE)
    assert half.value == F(1, 2) and runs[-1] == (([1, 0], 2), Sense.MAXIMIZE)
    assert face.optimize([F(1, 2), 0], Sense.MAXIMIZE) is half
    assert face.optimize(["2/4", "0"], "maximize") is half
    assert face.optimize(["1/3", "0.5"], Sense.MAXIMIZE).value == F(1, 2)
    assert runs[-1] == (([2, 3], 6), Sense.MAXIMIZE) and len(runs) == 5
    for objective in ([0.5, 0], [F(1, 2), 1.0]):
        with pytest.raises(TypeError, match="expected an exact rational"):
            face.optimize(objective, Sense.MAXIMIZE)
    assert len(runs) == 5


def test_optimal_face_requires_optimal_base():
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1])
    with pytest.raises(ValueError):
        OptimalFace(lp).optimize([1], Sense.MINIMIZE)


def test_coordinate_range_degenerate_when_unique():
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [2, 1],
                       [([1, 1], Relation.LE, 1)])
    face = OptimalFace(lp)
    assert face.range([1, 0]) == (1, 1)
    assert face.range([0, 1]) == (0, 0)


def test_coordinate_range_unknown_variable():
    # A column is a position: an objective of another length is refused.
    face = OptimalFace(LinearProgram(Sense.MAXIMIZE, ["x"], [1], upper=[1]))
    assert face.range([1]) == (1, 1)
    for objective in ([], [1, 0]):
        with pytest.raises(ValueError, match="objective length"):
            face.range(objective)


def test_unbounded_secondary_reported_as_marker():
    # Face is the ray x = y >= 0 once the (trivial) objective is pinned.
    lp = LinearProgram(Sense.MAXIMIZE, ["x", "y"], [1, -1],
                       [([1, -1], Relation.LE, 0), ([-1, 1], Relation.LE, 0)])
    res = OptimalFace(lp).optimize([1, 0], Sense.MAXIMIZE)
    assert res.status is Status.UNBOUNDED
    lo, hi = OptimalFace(lp).range([1, 0])
    assert lo == 0 and hi is None


def random_program(rng, lowered=False, fractional=False, sense=Sense.MAXIMIZE):
    """Small random LP of the given sense; the sense draws nothing, so
    the same ``rng`` state gives the same program in either sense. With
    ``lowered``, some variables have a negative lower bound and the
    objective coefficients are small, so ties are common. With
    ``fractional``, the objective, the coefficients and the right-hand
    sides are rationals with denominators up to 4; without it, the draws
    are integers."""

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
    return LinearProgram(sense, names, objective, cons, lower, upper)


# ---------------------------------------------------------------------------
# Integer paths against Fraction references.
# ---------------------------------------------------------------------------

def test_dot_matches_the_fraction_sum():
    assert dot([], []) == 0 and isinstance(dot([], []), Fraction)
    assert dot([F(1, 2), 3], [4, F(-2, 9)]) == F(4, 3)
    rng = random.Random(2301)
    seen = dict(empty=0, integer=0, mixed=0)
    for i in range(600):
        n = rng.randint(0, 8)
        integer = i % 3 == 0

        def entry():
            a = rng.randint(-9, 9)
            return a if integer or rng.random() < 0.3 else F(a, rng.randint(1, 12))

        a, b = [entry() for _ in range(n)], [entry() for _ in range(n)]
        got = dot(a, b)
        assert isinstance(got, Fraction) and got == fraction_sum(a, b) == dot(b, a)
        seen["empty"] += n == 0
        seen["integer"] += n > 0 and integer
        seen["mixed"] += len({x.denominator for x in a + b}) > 2
    # Counts at this seed: empty 58, integer 183, mixed 293.
    assert min(seen.values()) >= 50, seen


def test_scaled_matches_the_fraction_reference():
    # Ints, integer-valued and proper Fractions, negatives and the empty
    # vector: the same (ints, scale) as scaling each Fraction by the
    # least common denominator, and a float anywhere raises the
    # package's TypeError.
    def reference(values):
        scale = math.lcm(*(F(a).denominator for a in values))
        return [(F(a) * scale).numerator for a in values], scale

    assert scaled([]) == ([], 1)
    rng = random.Random(2903)
    seen = dict(whole=0, proper=0, negative=0)
    for _ in range(600):
        values = [rng.choice([rng.randint(-9, 9), F(rng.randint(-9, 9)),
                              F(rng.randint(-9, 9), rng.randint(1, 12))])
                  for _ in range(rng.randint(0, 8))]
        ints, scale = scaled(values)
        assert (ints, scale) == reference(values)
        assert all(type(a) is int for a in ints) and type(scale) is int
        seen["whole"] += scale == 1
        seen["proper"] += scale > 1
        seen["negative"] += any(a < 0 for a in values)
    assert min(seen.values()) >= 100, seen
    for values in ([0.5], [1, 2, 0.5], [F(1, 2), 3, 1.0]):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            scaled(values)


def test_a_float_raises_the_package_type_error():
    # Every dot scales its sides with ``scaled``, which refuses a float as
    # ensure_rational does, not with an AttributeError; ``is_feasible``
    # scales its point before any test, so a program with no rows refuses
    # a float too, and so does ``is_vertex``, which asks it first.
    lp = LinearProgram(Sense.MAXIMIZE, ["x"], [1], [([1], Relation.LE, 1)])
    rowless = LinearProgram(Sense.MAXIMIZE, ["x"], [1], upper=[1])
    for call, point in ((lp.is_feasible, [0.5]), (lp.evaluate, [0.5]),
                        (lambda point: dot(point, [1]), [0.5]),
                        (rowless.is_feasible, [0.5]),
                        (lambda point: is_vertex(rowless, point), [1.0])):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            call(point)


def _point_inside_the_bounds(rng, lp):
    """A point strictly inside every variable's bounds."""
    point = []
    for lo, hi in zip(lp.lower, lp.upper):
        if hi is None:
            point.append(lo + F(rng.randint(1, 30), rng.randint(1, 7)))
        else:
            point.append(lo + (hi - lo) * F(rng.randint(1, 6), 7))
    return point


def test_activity_and_evaluate_match_the_fraction_sum():
    for seed in range(400):
        rng = random.Random(seed)
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=seed % 3 == 0)
        point = _point_inside_the_bounds(rng, lp)
        assert lp.evaluate(point) == fraction_sum(lp.objective, point)
        for con in lp.constraints:
            assert con.activity(point) == fraction_sum(con.coeffs, point)
            assert con.tight_at(point) is (fraction_sum(con.coeffs, point) == con.rhs)


def test_is_feasible_is_exact_on_a_row_and_at_a_bound():
    # A point exactly on a row is feasible for it. Moved along a variable
    # of the row by a step far below a float's resolution, it leaves the
    # row: feasible only on the row's open side. The same step past a
    # variable bound is infeasible.
    step = F(1, 10**20)
    seen = {relation: 0 for relation in Relation}
    for seed in range(300):
        rng = random.Random(seed)
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=seed % 3 == 0)
        point = _point_inside_the_bounds(rng, lp)
        for con in lp.constraints:
            on_row = LinearProgram(lp.sense, lp.variables, lp.objective,
                                   [(con.coeffs, con.relation, fraction_sum(con.coeffs, point))],
                                   lp.lower, lp.upper)
            assert on_row.is_feasible(point)
            j = next((j for j, a in enumerate(con.coeffs) if a), None)
            if j is None:
                continue
            seen[con.relation] += 1
            for sign in (1, -1):
                moved = list(point)
                moved[j] += sign * step
                rises = (sign > 0) == (con.coeffs[j] > 0)
                want = {Relation.LE: not rises, Relation.GE: rises,
                        Relation.EQ: False}[con.relation]
                assert on_row.is_feasible(moved) is want
        free = LinearProgram(lp.sense, lp.variables, lp.objective, (), lp.lower, lp.upper)
        for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
            for bound, outward in ((lo, -step), (hi, step)):
                if bound is None:
                    continue
                at = list(point)
                at[j] = bound
                assert free.is_feasible(at)
                at[j] = bound + outward
                assert not free.is_feasible(at)
    # Counts at these seeds: <= 308, >= 287, = 288.
    assert min(seen.values()) >= 100, seen


def test_value_is_the_objective_at_the_vertex_in_both_senses():
    # solve and OptimalFace check each value (see the top of the file);
    # this drives them through both senses and nonzero lower bounds, where
    # the value is read off the final reduced-cost row, negated for
    # MINIMIZE and shifted by objective . lower.
    seen = dict(maximize=0, minimize=0, lowered=0, raised=0)
    for seed in range(300):
        rng = random.Random(seed)
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=seed % 3 == 0)
        lower = list(lp.lower)
        if seed % 2:            # positive lower bounds, kept below the uppers
            lower = [F(rng.randint(0, 2), rng.randint(1, 3)) for _ in lower]
        upper = [hi if hi is None or hi >= lo else None
                 for lo, hi in zip(lower, lp.upper)]
        for sense in Sense:
            program = LinearProgram(sense, lp.variables, lp.objective,
                                    lp.constraints, lower, upper)
            face = OptimalFace(program)
            if face.base.status is not Status.OPTIMAL:
                continue
            assert face.base == solve(program)
            seen[sense.value] += 1
            seen["lowered"] += any(lo < 0 for lo in lower)
            seen["raised"] += any(lo > 0 for lo in lower)
            for objective in (lp.objective, [rng.randint(-3, 3) for _ in lower]):
                for query in Sense:
                    face.optimize(objective, query)
    # Counts at these seeds: maximize 96, minimize 92, lowered 125, raised 47.
    assert min(seen.values()) >= 40, seen


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
    # (fraction_simplex.py): identical status, value, vertex and basis, on
    # the solve and on the face queries of the test above, in both senses
    # (a minimizing objective is negated in integers), and on face queries
    # with rational objectives too.
    seen = dict(fractional=0, lowered=0, bounded=0, equality=0, optimal=0,
                infeasible=0, unbounded=0, ties=0, minimize=0, rational_queries=0)
    for seed in range(1200):
        rng = random.Random(seed)
        fractional = seed % 3 == 0
        sense = Sense.MINIMIZE if seed % 4 >= 2 else Sense.MAXIMIZE
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=fractional, sense=sense)
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
            seen["minimize"] += sense is Sense.MINIMIZE
            face = OptimalFace(lp)
            n = len(lp.variables)
            queries = [(tuple(int(j == k) for k in range(n)), query)
                       for j in range(n) for query in Sense]
            queries += [([rng.randint(-4, 4) for _ in range(n)], Sense.MAXIMIZE)
                        for _ in range(3)]
            queries += [([F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)], query)
                        for query in Sense]
            for objective, query in queries:
                assert face.optimize(objective, query) == reference.optimize(objective, query)
                seen["rational_queries"] += any(F(c).denominator > 1 for c in objective)
        seen["ties"] += reference.ties > 0
    # Counts at these seeds: fractional 400, lowered 529, bounded 937,
    # equality 768, optimal 449, infeasible 645, unbounded 106, ties 127,
    # minimize 230, rational_queries 654.
    assert min(seen.values()) >= 90, seen


def _logged_pivots(monkeypatch):
    """The engine's pivots from now on, logged as the reference logs
    them: (phase, leaving row, entering column), phase 1 while
    ``_phase1`` runs, its artificials numbered from ``ncols`` on."""
    log, phase = [], [2]
    pivot, phase1 = lp_module._Tableau._pivot, lp_module._Tableau._phase1

    def logged_pivot(tableau, leave, enter):
        log.append((phase[0], leave, enter))
        pivot(tableau, leave, enter)

    def logged_phase1(tableau):
        phase[0] = 1
        try:
            return phase1(tableau)
        finally:
            phase[0] = 2

    monkeypatch.setattr(lp_module._Tableau, "_pivot", logged_pivot)
    monkeypatch.setattr(lp_module._Tableau, "_phase1", logged_phase1)
    return log


def _equality_heavy(rng):
    """A random program of up to 6 variables and 8 rows, about half of
    them equalities, one row written again times 2 as an equality: phase
    1 has several artificials to choose among, and drops a copy as
    redundant when the program is feasible."""
    n = rng.randint(1, 6)
    rows = [([rng.randint(-3, 3) for _ in range(n)],
             rng.choice((Relation.LE, Relation.GE, Relation.EQ, Relation.EQ)),
             rng.randint(-6, 6)) for _ in range(rng.randint(1, 7))]
    coeffs, _, rhs = rng.choice(rows)
    rows.append(([2 * a for a in coeffs], Relation.EQ, 2 * rhs))
    lower = [rng.choice((0, 0, -2, F(-1, 2))) for _ in range(n)]
    upper = [rng.choice((None, lo + rng.randint(0, 5))) for lo in lower]
    return LinearProgram(rng.choice(list(Sense)), [f"x{j}" for j in range(n)],
                         [rng.randint(-4, 4) for _ in range(n)], rows, lower, upper)


def test_the_engine_pivots_as_the_reference_does(monkeypatch):
    # Pivot by pivot, phase 1's drive-out included, the engine takes the
    # reference tableau's path: on the programs and face queries of the
    # test above, on 1,000 equality-heavy programs, each with an equality
    # row written twice (phase 1 drops one as redundant when the program
    # is feasible), on every cap-set game's build_dual and build_primal,
    # and on one in eight of the HK cap-set games' 2,786 coalition
    # programs (sub_dual), in the library's order: all of them would cost
    # the reference about 10 s.
    log = _logged_pivots(monkeypatch)
    seen = dict(programs=0, queries=0, phase1=0, reentered=0, contested=0, dropped=0)

    def follow(lp, queries=()):
        log.clear()
        reference = FractionFace(lp)
        face = lp_module.OptimalFace(lp)
        assert face.base == reference.base
        assert log == reference.log
        seen["programs"] += 1
        seen["phase1"] += any(phase == 1 for phase, _, _ in log)
        first = reference._tableau.first_artificial
        seen["reentered"] += any(phase == 1 and enter >= first for phase, _, enter in log)
        seen["contested"] += reference._tableau.contested > 0
        seen["dropped"] += reference._tableau.dropped > 0
        if face.base.status is not Status.OPTIMAL:
            return
        asked = set()
        for objective, sense in queries:
            ints, scale = scaled([F(c) for c in objective])
            if (tuple(ints), scale, sense) in asked:
                continue        # the engine hands its kept answer out
            asked.add((tuple(ints), scale, sense))
            log.clear()
            reference.log.clear()
            assert face.optimize(objective, sense) == reference.optimize(objective, sense)
            assert log == reference.log
            seen["queries"] += 1

    for seed in range(1200):
        rng = random.Random(seed)
        sense = Sense.MINIMIZE if seed % 4 >= 2 else Sense.MAXIMIZE
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=seed % 3 == 0, sense=sense)
        n = len(lp.variables)
        queries = [(tuple(int(j == k) for k in range(n)), query)
                   for j in range(n) for query in Sense]
        queries += [([rng.randint(-4, 4) for _ in range(n)], Sense.MAXIMIZE)
                    for _ in range(3)]
        queries += [([F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)], query)
                    for query in Sense]
        follow(lp, queries)
    reentered = seen["reentered"]
    repeated = 0
    for seed in range(1000):
        rng = random.Random(7000 + seed)
        before = seen["dropped"]
        follow(_equality_heavy(rng))
        repeated += seen["dropped"] > before
    for kind, s, g in helpers.cap_set():
        follow(build_dual(g))
        follow(build_primal(g))
    for kind, s, g in helpers.cap_set(("hoffman_kruskal",)):
        program = build_dual(g)
        for members, _ in list(analysis._coalitions(g))[::8]:
            follow(sub_dual(program, g, members))
    # Counts at these seeds: programs 2,580, queries 4,559, phase1 2,091,
    # reentered 68 (an artificial entering again in phase 1; 16 of them
    # in the first 1,200 programs), contested 5 (one entering while
    # another could have, so Bland's order among artificials decides),
    # dropped 147 (146 of them equality-heavy).
    assert reentered >= 15 and seen["contested"] >= 4, (reentered, seen)
    assert seen["dropped"] >= 20 and repeated >= 20, seen
    assert seen["programs"] >= 1500 and seen["queries"] >= 4000, seen


def test_every_pivot_finds_the_rows_in_normal_form(monkeypatch):
    # The tableau's normal form (see _Tableau): before every pivot, each
    # constraint row is in lowest terms and holds plus or minus its
    # denominator in its basic column or, while its artificial is basic,
    # in the unit column the artificial is read off. That is why the
    # pivot row divided by its pivot needs no gcd. Checked on the random
    # programs and face queries of the tests above, the equality-heavy
    # programs and every cap-set game's dual program.
    pivot = lp_module._Tableau._pivot
    seen = Counter()
    features = {}

    def checked_pivot(tableau, leave, enter):
        for i, bj in enumerate(tableau.basis):
            row, den = tableau.rows[i], tableau.dens[i]
            column = bj if bj < tableau.ncols else tableau.artificial[bj - tableau.ncols]
            assert den > 0 and math.gcd(*row, den) == 1, (row, den)
            assert abs(row[column]) == den, (row, den, column)
        column = enter if enter < tableau.ncols else tableau.artificial[enter - tableau.ncols]
        seen["pivots"] += 1
        seen["divisions"] += tableau.rows[leave][column] != tableau.dens[leave]
        seen["reentries"] += enter >= tableau.ncols
        for feature, present in features.items():
            seen[feature] += present
        pivot(tableau, leave, enter)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", checked_pivot)

    def follow(lp, queries=()):
        features.update(
            equality=any(c.relation is Relation.EQ for c in lp.constraints),
            at_least=any(c.relation is Relation.GE for c in lp.constraints),
            fractional=any(c._scaled_row[1] > 1 for c in lp.constraints),
            lowered=lp._shifted,
            capped=any(hi is not None for hi in lp.upper))
        face = lp_module.OptimalFace(lp)
        if face.base.status is Status.OPTIMAL:
            for objective, sense in queries:
                face.optimize(objective, sense)

    for seed in range(1200):
        rng = random.Random(seed)
        sense = Sense.MINIMIZE if seed % 4 >= 2 else Sense.MAXIMIZE
        lp = random_program(rng, lowered=seed % 2 == 0, fractional=seed % 3 == 0, sense=sense)
        n = len(lp.variables)
        follow(lp, [(tuple(int(j == k) for k in range(n)), query)
                    for j in range(n) for query in Sense])
    for seed in range(1000):
        follow(_equality_heavy(random.Random(7000 + seed)))
    for kind, s, g in helpers.cap_set():
        follow(build_dual(g))
    # Counts at these seeds, as pivots: 5,594 in all, 3,947 dividing the
    # pivot row, 74 with an artificial entering again, and 4,471 in
    # programs with an equality row, 3,978 with a >= row, 697 with a
    # fractional row, 4,114 with a nonzero lower bound, 4,661 with an
    # upper bound.
    assert seen["pivots"] >= 4000 and seen["divisions"] >= 2000, seen
    assert seen["reentries"] >= 30 and seen["fractional"] >= 300, seen
    assert min(seen[f] for f in features if f != "fractional") >= 2000, seen


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
