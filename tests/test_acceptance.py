"""Acceptance gate.

Criterion 1: the built-in worked-example fixtures, exact equality.
Criterion 2: randomized property suites, at least 200 instances per game
             kind (integer weights 1..9, bipartite sides at most 5,
             general graphs at most 8 vertices); failures are hard.
Criterion 3: exactness sweep; no stage may round or denormalize.

Each criterion prints one PASS line (visible with ``pytest -s``); any
assertion failure is the corresponding FAIL.
"""

import math
import random
from fractions import Fraction

import helpers
from matchcore import analysis, fixtures
from matchcore.formulations import (
    build_dual,
    build_odd_set_primal,
    build_primal,
    check_half_integrality,
    constraint_matrix,
    incidence_matrix,
    is_totally_unimodular,
)
from matchcore.games import GameKind, restrict
from matchcore.instance_io import parse_instance, render_instance
from matchcore.lp import Status, solve
from matchcore.oracle import max_weight, worth
from matchcore.rationals import format_rational, parse_rational

F = Fraction

N_PER_KIND = 200

# Fixed per-kind seeds: string hashes are salted per process, so seeding
# from them would draw different instances on every run.
KIND_SEEDS = {
    GameKind.ASSIGNMENT: 1,
    GameKind.UNIFORM_B: 2,
    GameKind.B_MATCHING: 3,
    GameKind.HOFFMAN_KRUSKAL: 4,
}


def _report(name):
    print(f"PASS: {name}")


# ---------------------------------------------------------------------------
# Criterion 1: worked-example regression, exact equality.
# ---------------------------------------------------------------------------

def test_criterion_1_worked_examples_exact():
    failures = []
    for fixture, checks in fixtures.run_all():
        for check in checks:
            if not check.passed:
                failures.append(f"{fixture.name}: {check.label} ({check.detail})")
    assert not failures, "\n".join(failures)
    _report("criterion 1: all worked-example fixtures reproduce exactly")


# ---------------------------------------------------------------------------
# Criterion 2a: LP optimum equals brute-force worth (integral polytopes).
# ---------------------------------------------------------------------------

def test_criterion_2a_integrality_per_kind():
    for kind in helpers.ALL_BIPARTITE:
        rng = random.Random(KIND_SEEDS[kind])
        for _ in range(N_PER_KIND):
            g = helpers.random_bipartite(rng, kind, max_side=5, max_edges=9)
            primal = solve(build_primal(g))
            dual = solve(build_dual(g))
            value = max_weight(g)[0]
            assert primal.status is Status.OPTIMAL
            assert primal.value == value, f"{kind.value}: LP != worth"
            assert dual.value == value, f"{kind.value}: duality gap"
    _report("criterion 2a: LP optimum = brute-force worth on "
            f"{N_PER_KIND} instances for each bipartite kind")


# ---------------------------------------------------------------------------
# Criterion 2b+2d: complete characterization both ways, extremes, ranges.
# ---------------------------------------------------------------------------

def test_criterion_2b_2d_characterization_and_extremes():
    for kind in (GameKind.ASSIGNMENT, GameKind.UNIFORM_B):
        rng = random.Random(401 + KIND_SEEDS[kind])
        degenerate_range_hits = 0
        for trial in range(N_PER_KIND):
            g = helpers.random_bipartite(rng, kind, max_side=3, max_edges=6,
                                         max_weight=6, max_b=2)
            face = analysis.DualFace(g)
            seed = rng.randint(0, 10 ** 6)

            # Optimal duals map into the core (sampled vertices + extremes).
            duals = analysis.sample_dual_vertices(g, 4, seed, face)
            duals.append(analysis.optimal_dual(g))
            high_left, high_right = analysis.extreme_imputations(g, face)
            for d in duals:
                imp = analysis.dual_to_imputation(g, d)
                assert analysis.is_core_imputation(g, imp).in_core
            for imp in (high_left, high_right):
                assert analysis.is_core_imputation(g, imp).in_core
                assert analysis.in_dual_image(g, imp)

            # Core vertices map back to optimal duals, and stay within the
            # per-agent payoff ranges the extremes attain.
            ranges = {q: analysis.payoff_range(g, q, face) for q in g.agents}
            for q in g.agents:
                lo, hi = ranges[q]
                assert high_left[q] in (lo, hi) and high_right[q] in (lo, hi)
                if lo != hi:
                    degenerate_range_hits += 1
            b = {q: F(g.capacity(q)) for q in g.agents}
            for imp in analysis.sample_core_vertices(g, 4, seed):
                d = analysis.make_dual(g, {q: imp[q] / b[q] for q in g.agents})
                assert analysis.is_optimal_dual(g, d)
                assert analysis.in_dual_image(g, imp)
                for q in g.agents:
                    lo, hi = ranges[q]
                    assert lo <= imp[q] <= hi
        assert degenerate_range_hits > 0  # the sampling saw non-point cores
    _report("criterion 2b/2d: dual<->core correspondence and extreme "
            f"imputations on {N_PER_KIND} instances for assignment and uniform_b")


# ---------------------------------------------------------------------------
# Criterion 2c: complementarity equivalences and corollaries.
# ---------------------------------------------------------------------------

def test_criterion_2c_complementarity_per_bipartite_kind():
    for kind in helpers.ALL_BIPARTITE:
        rng = random.Random(977 + KIND_SEEDS[kind])
        degenerate_seen = 0
        for trial in range(N_PER_KIND):
            max_weight_cap = 3 if trial % 2 else 9  # small weights force ties
            g = helpers.random_bipartite(rng, kind, max_side=4, max_edges=7,
                                         max_weight=max_weight_cap)
            report = analysis.verify_complementarity(g)
            assert report.ok, f"{kind.value}: {report.violations}"
            degenerate_seen += report.degenerate
        assert degenerate_seen >= 20, f"{kind.value}: degeneracy filter too weak"
    _report("criterion 2c: player/team equivalences, endpoint corollary, and "
            f"degeneracy corollary on {N_PER_KIND} instances per bipartite kind")


# ---------------------------------------------------------------------------
# Criterion 2e+2f: general graphs: vertex structure, odd-set program, and
# the concurrency/core equivalence.
# ---------------------------------------------------------------------------

def test_criterion_2e_2f_general_graphs():
    rng = random.Random(1861)
    concurrent_seen = 0
    empty_seen = 0
    for trial in range(N_PER_KIND):
        if trial % 5 == 4:
            g = helpers.random_odd_cycle(rng)
        else:
            g = helpers.random_general(rng, max_vertices=8, max_edges=9,
                                       max_weight=3 if trial % 2 else 9)
        primal = solve(build_primal(g))
        structure = check_half_integrality(primal, g)
        assert structure.ok, structure.violations

        integral = max_weight(g)[0]
        assert solve(build_odd_set_primal(g)).value == integral

        nonempty, witness = analysis.core_nonempty(g)
        concurrency = analysis.check_concurrency(g)
        assert nonempty == concurrency.concurrent
        concurrent_seen += nonempty
        empty_seen += not nonempty
        if nonempty and trial % 10 == 0:
            assert analysis.is_core_imputation(g, witness).in_core
        if nonempty:
            report = analysis.verify_complementarity(g)
            assert report.ok, report.violations
    assert concurrent_seen >= 20 and empty_seen >= 20
    _report("criterion 2e/2f: half-integral vertices, odd-set optimum = "
            f"integral worth, and the concurrency law on {N_PER_KIND} general instances")


# ---------------------------------------------------------------------------
# Criterion 2g: total unimodularity.
# ---------------------------------------------------------------------------

def test_criterion_2g_tum():
    rng = random.Random(3271)
    for _ in range(N_PER_KIND):
        g = helpers.random_bipartite(rng, GameKind.ASSIGNMENT, max_side=3,
                                     max_edges=7)
        assert is_totally_unimodular(incidence_matrix(g))
    assert not is_totally_unimodular(incidence_matrix(helpers.unit_triangle()))
    _report(f"criterion 2g: incidence TUM on {N_PER_KIND} bipartite instances, "
            "refuted on the unit triangle")


# ---------------------------------------------------------------------------
# Criterion 3: exactness end to end.
# ---------------------------------------------------------------------------

THIRDS_TEXT = """\
game assignment
side_u a1 a2
side_v b1 b2
edge a1 b1 weight 1/3
edge a1 b2 weight 5/3
edge a2 b1 weight 7/3
"""


def _assert_exact(x):
    assert type(x) is F
    assert x.denominator > 0
    assert math.gcd(x.numerator, x.denominator) == 1
    assert parse_rational(format_rational(x)) == x


def test_criterion_3_exactness_sweep():
    g = parse_instance(THIRDS_TEXT)
    assert parse_instance(render_instance(g)) == g
    for e in g.edges:
        _assert_exact(e.weight)

    sub = restrict(g, {"a1", "a2", "b1"})
    assert worth(g, sub.agents) == F(7, 3) + F(1, 3) - F(1, 3)  # 7/3: a2-b1 beats a1-b1
    for coalition_value in (worth(g, g.agents), worth(g, sub.agents)):
        _assert_exact(coalition_value)

    primal = solve(build_primal(g))
    dual_sol = solve(build_dual(g))
    for sol in (primal, dual_sol):
        _assert_exact(sol.value)
        for v in sol.values:
            _assert_exact(v)
    for row in constraint_matrix(build_primal(g)).entries:
        for v in row:
            _assert_exact(v)

    d = analysis.optimal_dual(g)
    imp = analysis.dual_to_imputation(g, d)
    for q in g.agents:
        _assert_exact(d.vertex(q))
        _assert_exact(imp[q])
        lo, hi = analysis.payoff_range(g, q)
        _assert_exact(lo), _assert_exact(hi)
    assert imp.total == worth(g, g.agents)
    assert analysis.is_core_imputation(g, imp).in_core

    # Round trip through the renderer and back, payoffs included.
    text = render_instance(g, imp.as_dict)
    from matchcore.instance_io import parse_instance_with_imputation
    g2, payoffs = parse_instance_with_imputation(text)
    assert g2 == g and payoffs == imp.as_dict
    _report("criterion 3: thirds-weighted fixture stays exact through parse, "
            "restrict, oracle, LP, dual, imputation, and render")
