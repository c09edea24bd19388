"""Exact matching ground truth, independent of the LP engine.

Two searches, capped at desk scale, answer two questions. The optimum
alone (``optimal_weight``, and ``worth`` per coalition) of a bipartite
game is a max-weight flow: successive augmenting paths of greatest gain,
each pushing its bottleneck, so the work does not grow with capacities.
A general game's optimum, and every optimum of any game in canonical
order (``max_weight``, ``enumerate_optima`` and the classes read from
them), come from a depth-first branch-and-bound walk over edge
multiplicities. A branch is cut only when a bound proves it cannot
matter, so both answers are exact; the walk lists at most
``caps.MAX_OPTIMA`` optima and refuses beyond. Both searches add and
compare integers, the weights scaled by the lcm of their denominators;
values come back as ``Fraction``. What the LP side claims (worths,
optima, classes, degeneracy) is cross-checked against this. Neither
search judges the instance: building it ran ``games.validate``, so its
edges cross a bipartite game's sides with positive weights and its
floors fit the capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .caps import MAX_OPTIMA, CapExceededError, check_instance_size
from .games import BIPARTITE_KINDS, EdgeKey, GameInstance, restrict
from .rationals import dot, scaled


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

    The optimum alone of a bipartite game is a flow (``_flow``). Every
    other answer, and a general game's optimum, comes from a depth-first
    walk over edge multiplicities, heaviest edge first and largest
    multiplicity first. A branch is cut when its weight plus a bound on
    what the open edges can add falls short of what is needed: one more
    than the best weight found so far for the optimum alone, and the
    optimum itself (searched first) for every optimum. A branch is cut
    when the open edges at full multiplicity fall short, or when a tally
    of remaining capacity does, each unit of an agent's capacity earning
    at most its heaviest open edge. Every edge of a bipartite game has one
    end on each side, so each side keeps a tally and either one cuts; a
    general game keeps one tally over every agent, which counts every
    edge twice. One unit less of an edge loses its weight and frees no
    more for the open edges, which are no heavier, so once a multiplicity
    is cut every smaller one is too, and the edge's loop stops there.
    Listing stops with ``CapExceededError`` past ``MAX_OPTIMA`` optima.
    """
    check_instance_size(len(instance.agents), len(instance.edges))
    # Both searches add and compare ints: weights scaled by the lcm of
    # their denominators.
    weights, scale = scaled([e.weight for e in instance.edges])
    if not every and instance.kind in BIPARTITE_KINDS:
        return Fraction(_flow(instance, weights), scale), ()
    agents = instance.agents
    at = {q: k for k, q in enumerate(agents)}
    caps = [instance.capacity(q) for q in agents]
    if instance.kind in BIPARTITE_KINDS:
        in_v, per_u, per_v = [k >= len(instance.side_u) for k in range(len(agents))], 1, 1
    else:
        in_v, per_u, per_v = [False] * len(agents), 2, 0
    order = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
    # One step per edge, heaviest first; suffix[i] bounds the edges from
    # step i on at full multiplicity. For the tallies, an agent's heaviest
    # open edge at step i is its first edge from i on (``top``, swept
    # backwards). Past an edge of its own it falls to its next one (0
    # after its last), so a step holds, per tally, its ends' falls and the
    # sum of their next edges' weights. Its lower end a is in the first
    # tally, as side U's agents come first; b is in side V's or a's.
    steps = []
    suffix = [0] * (len(order) + 1)
    top = [0] * len(agents)
    for i in range(len(order) - 1, -1, -1):
        e = instance.edges[order[i]]
        a, b = sorted((at[e.u], at[e.v]))
        w = weights[order[i]]
        hi = min(caps[a], caps[b]) if e.upper is None else min(caps[a], caps[b], e.upper)
        suffix[i] = suffix[i + 1] + w * hi
        v, u = in_v[b], not in_v[b]
        steps.append((a, b, w, hi, e.lower, w - top[a], u * (w - top[b]), top[a] + u * top[b],
                      v * (w - top[b]), v * top[b]))
        top[a] = top[b] = w
    steps.reverse()

    remaining = list(caps)
    mults = [0] * len(steps)
    found: list[tuple[int, ...]] = []
    # The least weight a matching must reach to count.
    need = int(_search(instance, False)[0] * scale) if every else 0

    def walk(i: int, weight: int, earn_u: int, earn_v: int) -> bool:
        """Whether the bound cut this branch."""
        nonlocal need
        short = need - weight
        if suffix[i] < short or earn_u < short * per_u or earn_v < short * per_v:
            return True
        if i == len(steps):
            if every:
                found.append(tuple(mults))
                if len(found) > MAX_OPTIMA:
                    raise CapExceededError(f"more than {MAX_OPTIMA} maximum-weight "
                                           f"matchings exceed the listing cap")
            else:
                need = weight + 1
            return False
        a, b, w, hi, lo, fall_a, fall_b, next_u, fall_v, next_v = steps[i]
        rest_u = earn_u - remaining[a] * fall_a - remaining[b] * fall_b
        rest_v = earn_v - remaining[b] * fall_v
        for mult in range(min(hi, remaining[a], remaining[b]), lo - 1, -1):
            remaining[a] -= mult
            remaining[b] -= mult
            mults[i] = mult
            cut = walk(i + 1, weight + w * mult, rest_u - mult * next_u, rest_v - mult * next_v)
            remaining[a] += mult
            remaining[b] += mult
            if cut:     # a smaller multiplicity falls shorter still
                break
        mults[i] = 0
        return False

    walk(0, 0, sum(c * t for v, c, t in zip(in_v, caps, top) if not v),
         sum(c * t for v, c, t in zip(in_v, caps, top) if v))
    # walk holds itself in its closure; unbinding it leaves no cycle for
    # the cycle collector, whose timing would move peak memory.
    del walk
    if every:
        rank = sorted(range(len(order)), key=order.__getitem__)
        matchings = (Matching(tuple((instance.edges[j].key, found_mults[i])
                                    for j, i in enumerate(rank) if found_mults[i]))
                     for found_mults in found)
        return Fraction(need, scale), tuple(sorted(matchings, key=lambda m: m.entries))
    return Fraction(need - 1, scale), ()


def _flow(instance: GameInstance, weights: list[int]) -> int:
    """The optimum of a bipartite game over its scaled ``weights``, by
    successive max-gain augmenting paths (Ahuja, Magnanti and Orlin 1993).

    Each edge's floor is taken first; what is left of a capacity, and of
    an edge's room up to its ceiling, is then filled one path at a time.
    A path starts at a side U agent with capacity left, crosses an edge
    forward where it has room (gaining its weight) or backward where it
    carries flow above its floor (losing it), and ends at a side V agent
    with capacity left. Bellman-Ford finds the path of greatest gain, and
    the path's bottleneck is pushed along it. Each push keeps the flow the
    heaviest of its size, so the first path of no positive gain ends the
    search at the optimum. The game is valid, so each edge joins side U to
    side V and the floors leave no capacity below zero.
    """
    at = {q: k for k, q in enumerate(instance.agents)}
    n_u, n = len(instance.side_u), len(at)
    caps = [instance.capacity(q) for q in instance.agents]
    left = list(caps)
    arcs, total = [], 0
    for e, w in zip(instance.edges, weights):
        a, b = at[e.u], at[e.v]
        if a > b:
            a, b = b, a
        lo, hi = e.lower, e.upper
        if lo:
            total += w * lo
            left[a] -= lo
            left[b] -= lo
        # [side U end, side V end, weight, room, flow above the floor];
        # uncapped, an edge's room is its side U end's capacity.
        arcs.append([a, b, w, caps[a] if hi is None else hi - lo, 0])
    while any(left[:n_u]) and any(left[n_u:]):
        gain = [0 if c else None for c in left[:n_u]] + [None] * (n - n_u)
        # A side V agent is entered forward, a side U agent backward, so
        # an agent's predecessor is an arc alone; a start has none.
        pred = [None] * n
        changed = True
        while changed:
            changed = False
            for arc in arcs:
                a, b, w, room, flow = arc
                if room > 0 and gain[a] is not None and (gain[b] is None or gain[a] + w > gain[b]):
                    gain[b], pred[b], changed = gain[a] + w, arc, True
                if flow and gain[b] is not None and (gain[a] is None or gain[b] - w > gain[a]):
                    gain[a], pred[a], changed = gain[b] - w, arc, True
        end, best = None, 0
        for k in range(n_u, n):
            if left[k] and gain[k] is not None and gain[k] > best:
                end, best = k, gain[k]
        if end is None:
            break
        path, k, push = [], end, left[end]
        while pred[k] is not None:
            arc = pred[k]
            path.append(arc)
            if k >= n_u:        # entered forward: bounded by its room
                push, k = min(push, arc[3]), arc[0]
            else:               # entered backward: by its flow
                push, k = min(push, arc[4]), arc[1]
        push = min(push, left[k])
        # Read from its end, the path alternates forward and backward arcs.
        for step, arc in zip((push, -push) * n, path):
            arc[3] -= step
            arc[4] += step
        left[k] -= push
        left[end] -= push
        total += push * best
    return total


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
