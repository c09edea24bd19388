"""Shared instance builders and independent oracles for the test suite.

The worked examples are read from the packaged ``.game`` files, so each
text has one copy."""

import importlib.util
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

from matchcore.analysis import (
    DualFace, dual_to_imputation, is_concurrent, optimal_dual, sample_dual_vertices,
)
from matchcore.fixtures import fixture_by_name
from matchcore.formulations import bound_columns, build_dual
from matchcore.games import GameKind, InstanceError, make_instance
from matchcore.lp import Constraint, LinearProgram, Relation, Sense, eliminate, solve
from matchcore.rationals import ZERO, scaled

F = Fraction

# Kinds whose edges may be matched with multiplicity above one; the
# reference oracle keeps its own copy so that it does not lean on how the
# library caps an edge.
MULTI_KINDS = frozenset({
    GameKind.UNIFORM_B, GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL,
})


def single_edge(kind=GameKind.ASSIGNMENT, weight=5, uniform_capacity=None):
    caps = None
    if kind is GameKind.B_MATCHING or kind is GameKind.HOFFMAN_KRUSKAL:
        caps = {"a": 1, "b": 1}
    if kind is GameKind.UNIFORM_B and uniform_capacity is None:
        uniform_capacity = 1
    return make_instance(kind, ["a"], ["b"], [("a", "b", weight)],
                         capacities=caps, uniform_capacity=uniform_capacity)


def two_team_b_matching():
    """Skewed-capacity two-edge instance: caps (2,2,1), weights (1,3)."""
    return fixture_by_name("three_agent_b_matching").instance()


def two_team_uniform(b_const=2):
    return make_instance(
        GameKind.UNIFORM_B, ["u"], ["v1", "v2"],
        [("u", "v1", 1), ("u", "v2", 3)],
        uniform_capacity=b_const,
    )


def hk_mixed_bounds():
    """Caps (4,2,3); edge windows [1,2] and [0,3]; weights (1,3)."""
    return fixture_by_name("hub_capacity_surplus").instance()


def hk_edge_upper():
    """All caps 2, every edge capped at multiplicity 1."""
    return fixture_by_name("capped_edges_pair").instance()


def hk_edge_lower():
    """All caps 2, every edge must be matched at least once, no edge caps."""
    return fixture_by_name("floored_edges_pair").instance()


def seven_ring():
    """Seven vertices: a heavy hub edge (v2,v7) of weight 2 inside a ring.

    Has exactly three maximum-weight matchings (weight 4), all using
    (v2,v7), and also weight-4 half-integral vertices.
    """
    return fixture_by_name("weighted_seven_ring").instance()


def triangle_pendant():
    """Odd triangle with one pendant edge; weights 3/2, 1, 3/2, 1."""
    return fixture_by_name("triangle_with_pendant").instance()


def unit_triangle():
    return fixture_by_name("unit_triangle").instance()


# ---------------------------------------------------------------------------
# Independent matching oracle: full cartesian product over multiplicities.
# ---------------------------------------------------------------------------

def general_path(n):
    """A general-kind path on n vertices with unit weights."""
    names = [f"p{i}" for i in range(n)]
    return make_instance(GameKind.GENERAL, names, (),
                         [(names[i], names[i + 1], 1) for i in range(n - 1)])


def general_dense(n_edges):
    """A general-kind graph on 8 vertices whose unit edges are its first
    n_edges vertex pairs (at most 28)."""
    names = [f"d{i}" for i in range(8)]
    pairs = list(combinations(names, 2))[:n_edges]
    return make_instance(GameKind.GENERAL, names, (), [(u, v, 1) for u, v in pairs])


def naive_optima(instance):
    """(best weight, set of multiplicity dicts) by exhaustive product."""
    multi = instance.kind in MULTI_KINDS
    ranges = []
    for e in instance.edges:
        hi = min(instance.capacity(e.u), instance.capacity(e.v))
        if not multi:
            hi = min(hi, 1)
        if e.upper is not None:
            hi = min(hi, e.upper)
        ranges.append(range(e.lower, hi + 1))
    best = None
    optima = set()
    for mults in product(*ranges):
        degree = {}
        for e, m in zip(instance.edges, mults):
            degree[e.u] = degree.get(e.u, 0) + m
            degree[e.v] = degree.get(e.v, 0) + m
        if any(degree.get(q, 0) > instance.capacity(q) for q in instance.agents):
            continue
        w = sum((e.weight * m for e, m in zip(instance.edges, mults)), F(0))
        key = frozenset((e.key, m) for e, m in zip(instance.edges, mults) if m)
        if best is None or w > best:
            best = w
            optima = {key}
        elif w == best:
            optima.add(key)
    return best, optima


def reference_optima(instance):
    """(optimum, entries of every optimum in canonical order), by the
    oracle's earlier search: edges in instance order, largest multiplicity
    first, a branch cut only when the open edges at full multiplicity
    cannot reach the best weight found so far. Entries list (edge key,
    multiplicity) in instance edge order, positive multiplicities only."""
    edges = instance.edges
    static_hi = []
    for e in edges:
        hi = min(instance.capacity(e.u), instance.capacity(e.v))
        if e.upper is not None:
            hi = min(hi, e.upper)
        static_hi.append(hi)
    weights, scale = scaled([e.weight for e in edges])
    suffix = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i] * static_hi[i]
    remaining = {q: instance.capacity(q) for q in instance.agents}
    best = [None]
    found = []
    chosen = []

    def walk(i, weight):
        if best[0] is not None and weight + suffix[i] < best[0]:
            return
        if i == len(edges):
            if best[0] is None or weight > best[0]:
                best[0] = weight
                found.clear()
            if weight == best[0]:
                found.append(tuple(chosen))
            return
        e = edges[i]
        hi = min(static_hi[i], remaining[e.u], remaining[e.v])
        for mult in range(hi, e.lower - 1, -1):
            if mult:
                remaining[e.u] -= mult
                remaining[e.v] -= mult
                chosen.append((e.key, mult))
            walk(i + 1, weight + weights[i] * mult)
            if mult:
                remaining[e.u] += mult
                remaining[e.v] += mult
                chosen.pop()

    walk(0, 0)
    assert best[0] is not None, "edge lower bounds admit no matching"
    return F(best[0], scale), sorted(found)


def cap_set(kinds=("assignment", "uniform_b", "b_matching", "hoffman_kruskal", "general"),
            seeds=range(3)):
    """The cap set: per kind, the seeded games s = 0, 1, 2 (or each s of
    ``seeds``) at the documented caps (6 + 6 agents or 12 vertices, 16
    edges, weights 1 to 3), drawn by ``benchmark/seeded.py`` as (kind, s,
    game). That file is only read: it is loaded without writing bytecode."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "seeded.py"
    spec = importlib.util.spec_from_file_location("cap_set_seeded", path)
    seeded = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(seeded)
    finally:
        sys.dont_write_bytecode = saved
    out = []
    for kind in kinds:
        for s in seeds:
            shape, num = seeded.rng_for("shape", kind, s), seeded.rng_for("num", kind, s)
            out.append((kind, s, seeded.general(shape, num, 12, 16, 3) if kind == "general"
                        else seeded.bipartite(shape, num, kind, 6, 6, 16, 3)))
    return out


def capacity_one(g):
    """Every capacity one, with worths (not surpluses) as demands."""
    return g.kind is not GameKind.HOFFMAN_KRUSKAL and all(g.capacity(q) == 1 for q in g.agents)


def subset_worths(g):
    """Reference characteristic function of a capacity-one game, in
    Fraction: ``table[mask]`` for every coalition, bit j = agent j. The
    lowest agent i of S is unmatched or matched along an edge ij inside S,
    so v[S] = max(v[S - i], w_ij + v[S - i - j] for edges ij in S)."""
    assert capacity_one(g)
    bit = {q: 1 << j for j, q in enumerate(g.agents)}
    pairs = [(bit[e.u] | bit[e.v], e.weight) for e in g.edges]
    touching = {b: [(pair, w) for pair, w in pairs if pair & b] for b in bit.values()}
    v = [F(0)] * (1 << len(g.agents))
    for mask in range(1, len(v)):
        low = mask & -mask
        v[mask] = max([v[mask ^ low]] + [w + v[mask ^ pair] for pair, w in touching[low]
                                         if pair & mask == pair])
    return v


def names(g, members):
    """A coalition row's members, positions among the agents, by name."""
    return tuple(g.agents[j] for j in members)


def closed_part(g, members):
    """The members of a coalition with a neighbour inside it, in agent
    order: its members on an inner edge."""
    inside = set(members)
    on_edge = {q for e in g.edges if e.u in inside and e.v in inside for q in (e.u, e.v)}
    return tuple(q for q in g.agents if q in on_edge)


def parts(g, members):
    """The members split into the sets their inner edges join, by a graph
    search: each part in agent order, the parts by their first member. A
    member on no inner edge is a part of its own."""
    inside, out = set(members), []
    for q in g.agents:
        if q not in inside or any(q in part for part in out):
            continue
        seen, stack = {q}, [q]
        while stack:
            r = stack.pop()
            for e in g.edges:
                if r in (e.u, e.v) and e.u in inside and e.v in inside:
                    other = e.v if r == e.u else e.u
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        out.append(tuple(p for p in g.agents if p in seen))
    return out


def connected(g, members):
    """Whether the members' inner edges join them all."""
    return len(parts(g, members)) == 1


def sub_game(g, members):
    """A worth kind's sub-game on ``members``, built by ``make_instance``
    from the members and their inner edges, not by ``restrict``."""
    inside = set(members)
    caps = {q: g.capacity(q) for q in members} if g.kind is GameKind.B_MATCHING else None
    return make_instance(g.kind, [q for q in g.side_u if q in inside],
                         [q for q in g.side_v if q in inside],
                         [(e.u, e.v, e.weight) for e in g.edges if {e.u, e.v} <= inside],
                         capacities=caps, uniform_capacity=g.uniform_capacity)


@lru_cache(maxsize=65536)
def reference_worth(g, members):
    """A worth kind's coalition worth by exhaustive search over the
    multiplicities of its inner edges, grouped by their first end,
    heaviest first in each group. A branch is cut only when it cannot
    beat the best found even if each group's end used all it has left on
    its heaviest edge left. It reads the game's edges and capacities
    alone, so no row lister, sub-game or flow of the library runs; tier-1
    checks it against ``naive_optima`` of ``sub_game`` on small games."""
    inside, first = set(members), {q: j for j, q in enumerate(g.agents)}
    edges = sorted((e for e in g.edges if {e.u, e.v} <= inside),
                   key=lambda e: (first[e.u], -e.weight))
    scale = math.lcm(*(e.weight.denominator for e in edges))
    weights = [int(e.weight * scale) for e in edges]
    left = {q: g.capacity(q) for q in members}
    later = [0] * (len(edges) + 1)      # the most the groups after edge i's can earn
    for i in range(len(edges) - 2, -1, -1):
        later[i] = later[i + 1] + (0 if edges[i + 1].u == edges[i].u
                                   else g.capacity(edges[i + 1].u) * weights[i + 1])
    best = 0

    def walk(i, weight):
        nonlocal best
        if i == len(edges):
            best = max(best, weight)
            return
        e = edges[i]
        if weight + left[e.u] * weights[i] + later[i] <= best:
            return
        for mult in range(min(left[e.u], left[e.v]), -1, -1):
            left[e.u] -= mult
            left[e.v] -= mult
            walk(i + 1, weight + weights[i] * mult)
            left[e.u] += mult
            left[e.v] += mult

    walk(0, 0)
    return F(best, scale)


def reference_first_blocking(g, payoffs):
    """Reference for the verdict of ``is_core_imputation`` on a worth
    kind: None when ``payoffs`` (a mapping over the agents) total
    the worth and pay every connected proper coalition at least its
    worth, else the first coalition they leave otherwise, as (members,
    demand, allocation): the grand coalition when the total is not the
    worth, else the first connected proper coalition, in
    size-then-lexicographic order over the agents, paid less than its
    worth. Each worth is ``reference_worth``."""
    grand = reference_worth(g, g.agents)
    total = sum(map(F, payoffs.values()), F(0))
    if total != grand:
        return frozenset(g.agents), grand, total
    for size in range(2, len(g.agents)):
        for members in combinations(g.agents, size):
            if connected(g, members):
                demand = reference_worth(g, members)
                paid = sum((F(payoffs[q]) for q in members), F(0))
                if demand > paid:
                    return frozenset(members), demand, paid
    return None


def sub_dual(lp, instance, members):
    """Reference: ``build_dual(restrict(instance, members))`` written from
    ``lp``, which is ``build_dual(instance)``, as a ``LinearProgram``.
    ``restrict`` keeps the order of agents and edges, so the sub-game's
    columns are the members' and then its inner edges' bound duals, in
    ``lp``'s order: their names and costs are ``lp``'s at those positions
    (an integral objective, scale 1). Each inner edge's row is written
    through ``Constraint._signed`` with the relation and right-hand side
    of ``lp``'s row, so nothing is checked or scaled again. The library
    cuts the same program in integers (``analysis._Session.cut``)."""
    chosen = frozenset(members)
    agents = instance.agents
    columns = [j for j, q in enumerate(agents) if q in chosen]
    at = {agents[j]: k for k, j in enumerate(columns)}
    inner = []
    for e, row, bounds in zip(instance.edges, lp.constraints, bound_columns(instance)):
        if e.u in chosen and e.v in chosen:
            entry = {at[e.u]: 1, at[e.v]: 1}
            for j, s in zip(bounds, (-1, 1)):
                entry[len(columns)] = s
                columns.append(j)
            inner.append((entry, row))
    n = len(columns)
    ints, _ = lp._scaled_objective
    return LinearProgram._trusted(
        lp.sense, tuple([lp.variables[j] for j in columns]),
        tuple([lp.objective[j] for j in columns]), ([ints[j] for j in columns], 1),
        tuple([Constraint._signed(n, entry, row.relation, row.rhs) for entry, row in inner]),
        (ZERO,) * n, (None,) * n)


def pinned_row_face(g):
    """Reference: the optimal dual face written as the dual program plus
    the row "objective = optimum", for cold solves."""
    program = build_dual(g)
    base = solve(program)
    return program.with_extra_constraints(
        [Constraint(program.objective, Relation.EQ, base.value)])


def reference_in_dual_image(g, payoffs, optimum):
    """Reference for ``in_dual_image``, in closed form, without an LP.
    Fix each vertex dual at y = payoff / capacity and take r = w - y_u -
    y_v on each edge. The edge's row then asks its upper-bound dual minus
    its lower-bound dual to be at least r, and the cheapest such pair
    costs l * r when r <= 0 and u * r when r > 0 and the edge has a
    ceiling u; when r > 0 and it has none, no pair exists. The point is
    a member exactly when the sum of capacity times y plus those costs
    is the dual optimum, ``optimum``: by strong duality the primal
    optimum, integral here, so ``reference_optima(g)[0]``."""
    total = F(0)
    for q in g.agents:
        total += g.capacity(q) * (F(payoffs[q]) / g.capacity(q))
    for e in g.edges:
        r = e.weight - F(payoffs[e.u]) / g.capacity(e.u) - F(payoffs[e.v]) / g.capacity(e.v)
        if r <= 0:
            total += e.lower * r
        elif e.upper is not None:
            total += e.upper * r
        else:
            return False
    return total == optimum


def nearby_payoffs(rng, payoffs):
    """One payoff vector with a larger total and, when someone is paid,
    one with the same total moved between two agents."""
    agents = sorted(payoffs)
    delta = F(rng.randint(1, 3), rng.randint(1, 2))
    raised = dict(payoffs)
    raised[rng.choice(agents)] += delta
    out = [raised]
    paid = [q for q in agents if payoffs[q] > 0]
    if paid and len(agents) > 1:
        giver = rng.choice(paid)
        taker = rng.choice([q for q in agents if q != giver])
        moved = dict(payoffs)
        step = min(delta, moved[giver])
        moved[giver] -= step
        moved[taker] += step
        out.append(moved)
    return out


def dual_image_candidates(g, rng, samples=3):
    """Payoff mappings to test for D(I) membership on a bipartite game:
    those of the deterministic optimal dual and of up to ``samples``
    sampled optimal dual vertices, all members, the midpoint of the
    first and the last, and ``nearby_payoffs`` of each, mostly not."""
    duals = [optimal_dual(g)] + sample_dual_vertices(g, samples, seed=rng.randint(0, 10**6))
    derived = [dual_to_imputation(g, d).as_dict for d in duals]
    derived.append({q: (derived[0][q] + derived[-1][q]) / 2 for q in g.agents})
    return derived + [p for pay in derived for p in nearby_payoffs(rng, pay)]


# ---------------------------------------------------------------------------
# Reference payment verdicts and payoff ranges: face queries of one agent
# or one edge each.
# ---------------------------------------------------------------------------

def reference_paid_sometimes(g, q):
    """``paid_sometimes`` by its own query: agent q's vertex dual has an
    unbounded or positive maximum over the optimal dual face. None on a
    non-concurrent general game."""
    if g.kind is GameKind.GENERAL and not is_concurrent(g):
        return None
    face = DualFace(g)
    top = face.extremum(face.vertex_coeffs(q), Sense.MAXIMIZE)
    return top is None or top > 0


def reference_always_paid_fairly(g, key):
    """``always_paid_fairly`` by its own query: the edge's largest
    overpayment over the optimal dual face is zero. None on a
    non-concurrent general game."""
    if g.kind is GameKind.GENERAL and not is_concurrent(g):
        return None
    return DualFace(g).max_overpayment(key) == 0


def reference_payoff_range(g, q):
    """``payoff_range`` by its own queries: capacity times agent q's vertex
    dual, minimized and maximized over the optimal dual face, None on an
    unbounded side."""
    face = DualFace(g)
    coeffs, b = face.vertex_coeffs(q), g.capacity(q)
    return tuple(None if end is None else b * end
                 for end in (face.extremum(coeffs, Sense.MINIMIZE),
                             face.extremum(coeffs, Sense.MAXIMIZE)))


def reference_rank_and_det(rows):
    """Reference for ``lp.eliminate``: (rank, determinant) of a matrix by
    Gauss-Jordan elimination in Fraction, sharing no code with the
    fraction-free kernel. The determinant is the product of the pivots,
    negated once per row swap, and None unless the matrix is square."""
    mat = [[F(a) for a in r] for r in rows]
    rank, det = 0, F(1)
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), -1)
        if piv < 0:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            det = -det
        prow = mat[rank]
        det *= prow[col]
        inv = 1 / prow[col]
        mat[rank] = prow = [a * inv for a in prow]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    if len(mat) != cols:
        return rank, None
    return rank, det if rank == cols else F(0)


def naive_det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = F(0)
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * naive_det(minor)
    return total


def naive_tum(rows):
    """Total unimodularity by definition: every square submatrix, of
    order 1 and up, by :func:`naive_det`."""
    m, n = len(rows), len(rows[0])
    entries = [list(r) for r in rows]
    for k in range(1, min(m, n) + 1):
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                d = naive_det([[entries[i][j] for j in csel] for i in rsel])
                if d not in (-1, 0, 1):
                    return False
    return True


def sweep_tum(rows):
    """Reference for ``is_totally_unimodular`` on a {0, +-1} matrix given
    as int rows, with any number of nonzeros per column: every square
    submatrix of order 2 and up, in increasing order, by its determinant
    from ``lp.eliminate``, stopping at the first one outside {-1, 0, 1}.
    Exponential in the smaller dimension, so keep the matrices small."""
    m, n = len(rows), len(rows[0])
    for k in range(2, min(m, n) + 1):
        for rsel in combinations(range(m), k):
            sub = [rows[i] for i in rsel]
            for csel in combinations(range(n), k):
                _, det = eliminate([[r[j] for j in csel] for r in sub])
                if det not in (-1, 0, 1):
                    return False
    return True


# ---------------------------------------------------------------------------
# Seeded random instance generators.
# ---------------------------------------------------------------------------

def random_bipartite(rng, kind, max_side=4, max_edges=8, max_weight=9,
                     max_b=3, min_side=1):
    nu = rng.randint(min_side, max_side)
    nv = rng.randint(min_side, max_side)
    side_u = [f"a{i}" for i in range(nu)]
    side_v = [f"b{j}" for j in range(nv)]
    pairs = [(u, v) for u in side_u for v in side_v]
    rng.shuffle(pairs)
    count = rng.randint(1, min(max_edges, len(pairs)))
    chosen = sorted(pairs[:count])
    caps = {q: rng.randint(1, max_b) for q in side_u + side_v}
    uniform = rng.randint(1, max_b)

    edges = []
    floor_room = dict(caps) if kind is GameKind.HOFFMAN_KRUSKAL else None
    for u, v in chosen:
        w = rng.randint(1, max_weight)
        if kind is GameKind.HOFFMAN_KRUSKAL:
            upper = rng.choice([None, 1, 2, 3])
            lower = rng.choice([0, 0, 0, 1])
            if upper is not None and lower > upper:
                lower = 0
            # Keep the sum of lower bounds at each endpoint within its
            # capacity, so the instance is guaranteed feasible.
            if lower and (floor_room[u] < lower or floor_room[v] < lower):
                lower = 0
            if lower:
                floor_room[u] -= lower
                floor_room[v] -= lower
            edges.append((u, v, w, lower, upper))
        else:
            edges.append((u, v, w))
    return make_instance(
        kind, side_u, side_v, edges,
        capacities=caps if kind in (GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL) else None,
        uniform_capacity=uniform if kind is GameKind.UNIFORM_B else None,
    )


def random_odd_cycle(rng, max_weight=9):
    """Odd cycle with one shared weight: fractional beats integral, so the
    core is always empty."""
    n = rng.choice((3, 5, 7))
    names = [f"v{i}" for i in range(n)]
    w = rng.randint(1, max_weight)
    edges = [(names[i], names[(i + 1) % n], w) for i in range(n)]
    return make_instance(GameKind.GENERAL, names, [], edges)


def random_general(rng, max_vertices=6, max_edges=9, max_weight=9, min_vertices=2):
    n = rng.randint(min_vertices, max_vertices)
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    count = rng.randint(1, min(max_edges, len(pairs)))
    edges = [(u, v, rng.randint(1, max_weight)) for u, v in sorted(pairs[:count])]
    return make_instance(GameKind.GENERAL, names, [], edges)


ALL_BIPARTITE = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B,
                 GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL)


# Instance files with one malformed line each, by name, with the parser's
# whole message.
_TWO_AGENTS = "game b_matching\nside_u a\nside_v b\nb a 1\nb b 1\nedge a b weight 1\n"
MALFORMED_FILES = {
    "bad-name": (_TWO_AGENTS + "side_v c!\n", "line 7: bad name 'c!'"),
    "capacity-below-one": (_TWO_AGENTS.replace("b a 1", "b a 0"),
                           "line 4: expected an integer >= 1, got 0"),
    "game-two-tokens": (_TWO_AGENTS.replace("b_matching", "b_matching general"),
                        "line 1: game takes one token"),
    "b_const-two-tokens": ("game uniform_b\nside_u a\nside_v b\nb_const 1 2\n",
                           "line 4: b_const takes one integer"),
    "b-one-token": (_TWO_AGENTS.replace("b b 1", "b b"),
                    "line 5: b takes a vertex name and an integer"),
    "imputation-without-equals": (_TWO_AGENTS + "imputation a=1 b\n",
                                  "line 7: expected name=value, got 'b'"),
    "imputation-unknown-agent": (_TWO_AGENTS + "imputation a=1 c=0\n",
                                 "imputation names unknown agents: ['c']"),
    "edge-without-weight": (_TWO_AGENTS.replace("weight 1", "cost 1"),
                            "line 6: edge syntax: edge <name> <name> weight <rational> "
                            "[lower <int>] [upper <int>]"),
    "edge-stray-token": (_TWO_AGENTS.replace("weight 1", "weight 1 lower"),
                         "line 6: unexpected edge tokens ['lower']"),
    "zero-denominator": (_TWO_AGENTS.replace("weight 1", "weight 1/0"),
                         "line 6: not a rational literal: '1/0'"),
    "general-side_u": ("game general\nvertices a b\nside_u a\nedge a b weight 1\n",
                       "general instances list 'vertices', not sides"),
    "general-side_v-only": ("game general\nside_v a b\nedge a b weight 1\n",
                            "general instances list 'vertices', not sides"),
}


def shrink(game, predicate):
    """A smaller game on which ``predicate`` still holds: greedily and
    deterministically, the first of ``_shrink_moves`` whose game the gate
    accepts (``make_instance`` raises no ``InstanceError``) and the
    predicate holds on is taken, and the moves start again from the
    first, until none is taken. ``predicate`` must hold on ``game``."""
    while True:
        for args in _shrink_moves(game):
            try:
                smaller = make_instance(*args)
            except InstanceError:
                continue
            if predicate(smaller):
                game = smaller
                break
        else:
            return game


def _shrink_moves(g):
    """make_instance arguments of the games one move from ``g``, in a
    fixed order: drop an edge; drop an agent no edge uses; drop a floor,
    then a ceiling; lower a weight, a ceiling, a capacity by one."""
    edges = [(e.u, e.v, e.weight, e.lower, e.upper) for e in g.edges]
    caps = dict(g.capacities)

    def game(edges=edges, drop=None, caps=caps, uniform=g.uniform_capacity):
        side_u, side_v = (tuple(q for q in side if q != drop) for side in (g.side_u, g.side_v))
        kept = {q: b for q, b in caps.items() if q != drop}
        return g.kind, side_u, side_v, edges, kept or None, uniform

    def each_edge(change):
        for i, e in enumerate(edges):
            if (new := change(*e)) is not None:
                yield game(edges=edges[:i] + [new] + edges[i + 1:])

    for i in range(len(edges)):
        yield game(edges=edges[:i] + edges[i + 1:])
    used = {q for e in edges for q in e[:2]}
    yield from (game(drop=q) for q in g.agents if q not in used)
    yield from each_edge(lambda u, v, w, lo, hi: (u, v, w, 0, hi) if lo else None)
    yield from each_edge(lambda u, v, w, lo, hi: None if hi is None else (u, v, w, lo, None))
    yield from each_edge(lambda u, v, w, lo, hi: (u, v, w - 1, lo, hi))
    yield from each_edge(lambda u, v, w, lo, hi: None if hi is None else (u, v, w, lo, hi - 1))
    yield from (game(caps={**caps, q: b - 1}) for q, b in caps.items())
    if g.uniform_capacity is not None:
        yield game(uniform=g.uniform_capacity - 1)
