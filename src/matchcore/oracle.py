"""Brute-force matching ground truth, independent of the LP engine.

Enumerates integral matchings by depth-first search over edges with an
optimistic weight bound, capped at desk scale. The search adds and
compares integers, the weights scaled by the lcm of their denominators;
worths come back as ``Fraction``. Everything downstream that
the LP side claims (worths, optima, player/team classes, degeneracy) can
be cross-checked against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable

from .caps import check_instance_size
from .games import MULTI_KINDS, EdgeKey, GameInstance, restrict
from .rationals import ZERO


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
        return sum((instance.edge(k).weight * mult for k, mult in self.entries),
                   ZERO)

    @property
    def keys(self) -> tuple[EdgeKey, ...]:
        return tuple(k for k, _ in self.entries)


@lru_cache(maxsize=100_000)
def _enumerate_optimal(instance: GameInstance) -> tuple[Fraction, tuple[Matching, ...]]:
    check_instance_size(len(instance.agents), len(instance.edges))
    edges = instance.edges
    multi = instance.kind in MULTI_KINDS
    static_hi = []
    for e in edges:
        hi = min(instance.capacity(e.u), instance.capacity(e.v))
        if not multi:
            hi = min(hi, 1)
        if e.upper is not None:
            hi = min(hi, e.upper)
        static_hi.append(hi)
    # The search adds and compares ints: weights scaled by the lcm of
    # their denominators. Optimistic bound on the remaining suffix, used
    # for pruning.
    scale = lcm(*(e.weight.denominator for e in edges))
    weights = [e.weight.numerator * (scale // e.weight.denominator) for e in edges]
    suffix = [0] * (len(edges) + 1)
    for i in range(len(edges) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i] * static_hi[i]

    remaining = {q: instance.capacity(q) for q in instance.agents}
    best: list = [None]
    found: list[tuple[tuple[EdgeKey, int], ...]] = []
    chosen: list[tuple[EdgeKey, int]] = []

    def walk(i: int, weight: int) -> None:
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
        lo = e.lower
        if lo > hi:
            return
        for mult in range(hi, lo - 1, -1):
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
    if best[0] is None:
        raise InfeasibleInstanceError("edge lower bounds admit no matching")
    matchings = tuple(sorted((Matching(entries) for entries in set(found)),
                             key=lambda m: m.entries))
    return Fraction(best[0], scale), matchings


def max_weight(instance: GameInstance) -> tuple[Fraction, Matching]:
    """Exact optimum over all integral matchings, with one witness."""
    value, matchings = _enumerate_optimal(instance)
    return value, matchings[0]


def enumerate_optima(instance: GameInstance) -> tuple[Matching, ...]:
    """The complete, canonically ordered set of maximum-weight matchings."""
    return _enumerate_optimal(instance)[1]


def worth(instance: GameInstance, members: Iterable[str]) -> Fraction:
    """Characteristic function: optimum of the induced sub-game.

    The empty coalition (or one spanning no edges) is worth zero.
    """
    return max_weight(restrict(instance, members))[0]


def classify_player(instance: GameInstance, q: str) -> ClassLabel:
    """Essential, viable, or subpar by saturation across all optima.

    Saturation means "matched" for the unit-capacity kinds and "matched
    exactly capacity-many times" for the multi-matching kinds.
    """
    target = instance.capacity(q)
    flags = [m.degree(q) == target for m in enumerate_optima(instance)]
    if all(flags):
        return ClassLabel.ESSENTIAL
    if not any(flags):
        return ClassLabel.SUBPAR
    return ClassLabel.VIABLE


def classify_team(instance: GameInstance, key: EdgeKey) -> ClassLabel:
    """Essential, viable, or subpar by membership across all optima."""
    instance.edge(key)
    flags = [m.contains(key) for m in enumerate_optima(instance)]
    if all(flags):
        return ClassLabel.ESSENTIAL
    if not any(flags):
        return ClassLabel.SUBPAR
    return ClassLabel.VIABLE


def is_degenerate(instance: GameInstance) -> bool:
    """True when the maximum-weight matching is not unique."""
    return len(enumerate_optima(instance)) > 1
