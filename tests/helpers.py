"""Shared instance builders and independent oracles for the test suite."""

from fractions import Fraction
from itertools import combinations, product

from matchcore.formulations import build_dual
from matchcore.games import GameKind, make_instance
from matchcore.lp import Constraint, Relation, solve

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
    return make_instance(
        GameKind.B_MATCHING, ["u"], ["v1", "v2"],
        [("u", "v1", 1), ("u", "v2", 3)],
        capacities={"u": 2, "v1": 2, "v2": 1},
    )


def two_team_uniform(b_const=2):
    return make_instance(
        GameKind.UNIFORM_B, ["u"], ["v1", "v2"],
        [("u", "v1", 1), ("u", "v2", 3)],
        uniform_capacity=b_const,
    )


def hk_mixed_bounds():
    """Caps (4,2,3); edge windows [1,2] and [0,3]; weights (1,3)."""
    return make_instance(
        GameKind.HOFFMAN_KRUSKAL, ["u"], ["v1", "v2"],
        [("u", "v1", 1, 1, 2), ("u", "v2", 3, 0, 3)],
        capacities={"u": 4, "v1": 2, "v2": 3},
    )


def hk_edge_upper():
    """All caps 2, every edge capped at multiplicity 1."""
    return make_instance(
        GameKind.HOFFMAN_KRUSKAL, ["u"], ["v1", "v2"],
        [("u", "v1", 1, 0, 1), ("u", "v2", 3, 0, 1)],
        capacities={"u": 2, "v1": 2, "v2": 2},
    )


def hk_edge_lower():
    """All caps 2, every edge must be matched at least once, no edge caps."""
    return make_instance(
        GameKind.HOFFMAN_KRUSKAL, ["u"], ["v1", "v2"],
        [("u", "v1", 1, 1, None), ("u", "v2", 3, 1, None)],
        capacities={"u": 2, "v1": 2, "v2": 2},
    )


def seven_ring():
    """Seven vertices: a heavy hub edge (v2,v7) of weight 2 inside a ring.

    Has exactly three maximum-weight matchings (weight 4), all using
    (v2,v7), and also weight-4 half-integral vertices.
    """
    edges = [
        ("v1", "v2", 1), ("v2", "v7", 2), ("v3", "v7", 1), ("v3", "v4", 1),
        ("v4", "v5", 1), ("v5", "v6", 1), ("v1", "v6", 1), ("v1", "v7", 1),
        ("v2", "v3", 1), ("v4", "v7", 1),
    ]
    return make_instance(GameKind.GENERAL,
                         [f"v{i}" for i in range(1, 8)], [], edges)


def triangle_pendant():
    """Odd triangle with one pendant edge; weights 3/2, 1, 3/2, 1."""
    edges = [
        ("v1", "v2", F(3, 2)), ("v2", "v3", 1),
        ("v3", "v1", F(3, 2)), ("v1", "v4", 1),
    ]
    return make_instance(GameKind.GENERAL, ["v1", "v2", "v3", "v4"], [], edges)


def unit_triangle():
    return make_instance(GameKind.GENERAL, ["i", "j", "k"], [],
                         [("i", "j", 1), ("j", "k", 1), ("i", "k", 1)])


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


def pinned_row_face(g):
    """Reference: the optimal dual face written as the dual program plus
    the row "objective = optimum", for cold solves."""
    program = build_dual(g)
    base = solve(program)
    return program.with_extra_constraints(
        [Constraint(program.objective, Relation.EQ, base.value)])


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
