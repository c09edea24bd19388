"""Brute-force matching ground truth, independent of the LP engine.

One depth-first branch-and-bound search over edge multiplicities,
capped at desk scale, answers two questions: the optimum alone
(``optimal_weight``, and ``worth`` per coalition), and every optimum in
canonical order (``max_weight``, ``enumerate_optima`` and the classes
read from them). A branch is cut only when a bound proves it cannot
matter, so both answers are exact. The search adds and compares
integers, the weights scaled by the lcm of their denominators; values
come back as ``Fraction``. What the LP side claims (worths, optima,
classes, degeneracy) is cross-checked against this.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .caps import check_instance_size
from .games import BIPARTITE_KINDS, EdgeKey, GameInstance, restrict
from .rationals import dot, scaled


class InfeasibleInstanceError(Exception):
    """No integral matching satisfies the edge lower bounds."""


class ClassLabel(Enum):
    ESSENTIAL = "essential"
    VIABLE = "viable"
    SUBPAR = "subpar"


@dataclass(frozen=True)
class Matching:
    """An integral matching; only positive multiplicities are stored."""
    entries: tuple[tuple[EdgeKey, int], ...]

    def multiplicity(self, key: EdgeKey) -> int:
        for k, mult in self.entries:
            if k == key:
                return mult
        return 0

    def contains(self, key: EdgeKey) -> bool:
        return self.multiplicity(key) >= 1

    def degree(self, q: str) -> int:
        return sum(mult for (u, v), mult in self.entries if q == u or q == v)

    def weight(self, instance: GameInstance) -> Fraction:
        return dot([instance.edge(k).weight for k, _ in self.entries],
                   [mult for _, mult in self.entries])


@lru_cache(maxsize=100_000)
def _search(instance: GameInstance, every: bool) -> tuple[Fraction, tuple[Matching, ...]]:
    """(optimum, optima), the optima canonically ordered when ``every``
    and () otherwise.

    Depth-first over edge multiplicities, heaviest edge first and largest
    multiplicity first. A branch is cut when its weight plus a bound on
    what the open edges can add falls short of what is needed: one more
    than the best weight found so far for the optimum alone, and the
    optimum itself (searched first) for every optimum. The bound is the
    smaller of two: the open edges at full multiplicity, and what the
    remaining capacity can earn, each unit of an agent's capacity earning
    at most its heaviest open edge. Every edge has one end on side U of a
    bipartite game, so those agents are counted; in a general game every
    agent is counted and every edge twice.
    """
    check_instance_size(len(instance.agents), len(instance.edges))
    agents = instance.agents
    at = {q: k for k, q in enumerate(agents)}
    caps = [instance.capacity(q) for q in agents]
    if instance.kind in BIPARTITE_KINDS:      # side U's agents come first
        counted, per_edge = [k < len(instance.side_u) for k in range(len(agents))], 1
    else:
        counted, per_edge = [True] * len(agents), 2
    # The search adds and compares ints: weights scaled by the lcm of
    # their denominators.
    weights, scale = scaled([e.weight for e in instance.edges])
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    # One step per edge, heaviest first; suffix[i] bounds the edges from
    # step i on at full multiplicity. For the capacity bound, an agent's
    # heaviest open edge at step i is its first edge from i on (``top``,
    # swept backwards). Past an edge of its own it falls to its next one
    # (0 after its last), so a step holds the falls of its counted ends
    # and the sum of their next edges' weights.
    steps = []
    suffix = [0] * (len(order) + 1)
    top = [0] * len(agents)
    for i in range(len(order) - 1, -1, -1):
        e = instance.edges[order[i]]
        a, b = at[e.u], at[e.v]
        w = weights[order[i]]
        hi = min(caps[a], caps[b]) if e.upper is None else min(caps[a], caps[b], e.upper)
        suffix[i] = suffix[i + 1] + w * hi
        steps.append((a, b, w, hi, e.lower,
                      counted[a] * (w - top[a]), counted[b] * (w - top[b]),
                      counted[a] * top[a] + counted[b] * top[b]))
        top[a] = top[b] = w
    steps.reverse()

    remaining = list(caps)
    mults = [0] * len(steps)
    found: list[tuple[int, ...]] = []
    # The least weight a matching must reach to count.
    need = int(_search(instance, False)[0] * scale) if every else 0

    def walk(i: int, weight: int, earn: int) -> None:
        nonlocal need
        short = need - weight
        if suffix[i] < short or earn < short * per_edge:
            return
        if i == len(steps):
            if every:
                found.append(tuple(mults))
            else:
                need = weight + 1
            return
        a, b, w, hi, lo, fall_a, fall_b, nexts = steps[i]
        rest = earn - remaining[a] * fall_a - remaining[b] * fall_b
        for mult in range(min(hi, remaining[a], remaining[b]), lo - 1, -1):
            remaining[a] -= mult
            remaining[b] -= mult
            mults[i] = mult
            walk(i + 1, weight + w * mult, rest - mult * nexts)
            remaining[a] += mult
            remaining[b] += mult
        mults[i] = 0

    walk(0, 0, sum(c * r * t for c, r, t in zip(counted, caps, top)))
    # walk holds itself in its closure; unbinding it leaves no cycle for
    # the cycle collector, whose timing would move peak memory.
    del walk
    if every:
        rank = sorted(range(len(order)), key=order.__getitem__)
        matchings = (Matching(tuple((instance.edges[j].key, found_mults[i])
                                    for j, i in enumerate(rank) if found_mults[i]))
                     for found_mults in found)
        return Fraction(need, scale), tuple(sorted(matchings, key=lambda m: m.entries))
    if need == 0:           # any matching, even of weight 0, raises it to 1
        raise InfeasibleInstanceError("edge lower bounds admit no matching")
    return Fraction(need - 1, scale), ()


def optimal_weight(instance: GameInstance) -> Fraction:
    """Exact optimum over all integral matchings, none of them listed."""
    return _search(instance, False)[0]


def max_weight(instance: GameInstance) -> tuple[Fraction, Matching]:
    """Exact optimum over all integral matchings, with one witness."""
    value, matchings = _search(instance, True)
    return value, matchings[0]


def enumerate_optima(instance: GameInstance) -> tuple[Matching, ...]:
    """The complete, canonically ordered set of maximum-weight matchings."""
    return _search(instance, True)[1]


def worth(instance: GameInstance, members: Iterable[str]) -> Fraction:
    """Characteristic function: optimum of the induced sub-game.

    Zero for the empty coalition or one spanning no edges.
    """
    return optimal_weight(restrict(instance, members))


def _label(flags: list[bool]) -> ClassLabel:
    """Essential when true in every optimum, subpar in none, else viable."""
    if all(flags):
        return ClassLabel.ESSENTIAL
    return ClassLabel.VIABLE if any(flags) else ClassLabel.SUBPAR


def classify_player(instance: GameInstance, q: str) -> ClassLabel:
    """Essential, viable, or subpar by saturation across all optima.

    Saturation means "matched" for the unit-capacity kinds and "matched
    exactly capacity-many times" for the multi-matching kinds.
    """
    if q not in instance.agents:
        raise ValueError(f"no agent {q!r} in this instance")
    target = instance.capacity(q)
    return _label([m.degree(q) == target for m in enumerate_optima(instance)])


def classify_team(instance: GameInstance, key: EdgeKey) -> ClassLabel:
    """Essential, viable, or subpar by membership across all optima."""
    instance.edge(key)
    return _label([m.contains(key) for m in enumerate_optima(instance)])


def is_degenerate(instance: GameInstance) -> bool:
    """True when the maximum-weight matching is not unique."""
    return len(enumerate_optima(instance)) > 1
