"""Seeded game generators for the benchmark.

Every generator takes two ``random.Random`` objects built by
:func:`rng_for`. The shape generator is seeded by the slot alone and picks
which positions the edges join; the other is seeded by the run's seed as
well and draws everything else: which agent sits where, weights,
capacities and edge windows. Rounds made by different seeds thus share
their graph shapes, and so the size of the coalition and face programs,
while every number in them changes. Seeds are strings, hashed with
SHA-512 by ``random``, never with ``hash()`` (salted per process), and
the test suite's generators are not used, since they are free to change.
``matchcore`` is imported at call time because the benchmark re-imports
it for each set-up it times.
"""

from __future__ import annotations

import random

MAX_CAPACITY = 3


def rng_for(*labels) -> random.Random:
    """A generator seeded by the labels, in order."""
    return random.Random(":".join(str(x) for x in labels))


def general(shape: random.Random, rng: random.Random, n: int, m: int, max_weight: int):
    """A general graph on ``n`` vertices with ``m`` edges.

    ``shape`` picks which vertex positions the edges join; ``rng`` places
    the agents on those positions and draws the weights.
    """
    from matchcore import make_instance

    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = _placed("v", n, rng)
    pairs = sorted(tuple(sorted((names[i], names[j]))) for i, j in shape.sample(positions, m))
    edges = [(u, v, rng.randint(1, max_weight)) for u, v in pairs]
    return make_instance("general", sorted(names), [], edges)


def bipartite(shape: random.Random, rng: random.Random, kind: str, nu: int, nv: int,
              m: int, max_weight: int):
    """A bipartite game of ``kind`` with sides ``nu``/``nv`` and ``m`` edges.

    ``shape`` picks the edges' positions; ``rng`` places the agents and
    draws weights, capacities and edge windows. Lower bounds fit the
    endpoint capacities, so every instance is feasible.
    """
    from matchcore import make_instance

    left, right = _placed("a", nu, rng), _placed("b", nv, rng)
    positions = [(i, j) for i in range(nu) for j in range(nv)]
    pairs = sorted((left[i], right[j]) for i, j in shape.sample(positions, m))
    caps = {q: rng.randint(1, MAX_CAPACITY) for q in sorted(left) + sorted(right)}
    uniform = rng.randint(1, MAX_CAPACITY)
    room = dict(caps)
    edges = []
    for u, v in pairs:
        w = rng.randint(1, max_weight)
        if kind == "hoffman_kruskal":
            upper = rng.choice([None, 1, 2, 3])
            lower = rng.choice([0, 0, 0, 1])
            if lower and (room[u] < lower or room[v] < lower):
                lower = 0
            room[u] -= lower
            room[v] -= lower
            edges.append((u, v, w, lower, upper))
        else:
            edges.append((u, v, w))
    per_vertex = kind in ("b_matching", "hoffman_kruskal")
    return make_instance(
        kind, sorted(left), sorted(right), edges,
        capacities=caps if per_vertex else None,
        uniform_capacity=uniform if kind == "uniform_b" else None,
    )


def _placed(prefix: str, count: int, rng: random.Random) -> list[str]:
    """Agent names in a seeded order: entry i is the agent at position i."""
    return [f"{prefix}{k}" for k in rng.sample(range(count), count)]
