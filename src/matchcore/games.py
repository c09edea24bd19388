"""Instances of five matching-based cooperative games.

A game lives on a weighted graph. Four kinds are bipartite (plain
assignment, uniform-capacity multi-matching, per-vertex-capacity
multi-matching, and capacity matching with per-edge lower/upper bounds);
the fifth is matching on a general graph. Edge weights are strictly
positive rationals. All value types are immutable and hashable, and
an instance is judged by ``validate`` when it is built: a malformed one
raises ``InstanceError`` and never exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .rationals import ensure_rational, scaled

EdgeKey = tuple[str, str]


class GameKind(str, Enum):
    ASSIGNMENT = "assignment"
    UNIFORM_B = "uniform_b"
    B_MATCHING = "b_matching"
    HOFFMAN_KRUSKAL = "hoffman_kruskal"
    GENERAL = "general"


BIPARTITE_KINDS = frozenset({
    GameKind.ASSIGNMENT, GameKind.UNIFORM_B,
    GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL,
})


class InstanceError(ValueError):
    """Syntax or validation failure; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    weight: Fraction
    lower: int = 0            # minimum multiplicity (capacity-bound kind only)
    upper: int | None = None  # maximum multiplicity, None = no edge cap

    @property
    def key(self) -> EdgeKey:
        return (self.u, self.v)

    def touches(self, q: str) -> bool:
        return q == self.u or q == self.v

    def __hash__(self) -> int:
        # The weight enters as (numerator, denominator): equal numbers give
        # equal pairs (2, Fraction(2) and 2.0 alike), so this agrees with
        # the generated __eq__, and two ints hash far faster than a
        # Fraction, whose hash takes a modular inverse.
        return hash((self.u, self.v, self.weight.as_integer_ratio(),
                     self.lower, self.upper))


def make_edge(u: str, v: str, weight, lower: int = 0, upper: int | None = None) -> Edge:
    return Edge(u, v, ensure_rational(weight), lower, upper)


@dataclass(frozen=True)
class GameInstance:
    """One game: kind, agents, weighted edges, and capacities.

    ``side_u``/``side_v`` are the two sides for bipartite kinds. The
    general kind stores its single vertex set in ``side_u`` and leaves
    ``side_v`` empty. ``capacities`` applies to the per-vertex-capacity
    kinds; ``uniform_capacity`` to the uniform kind. Building one runs
    ``validate`` and raises ``InstanceError`` listing every violation, so
    each instance the analysis meets is well formed.
    """
    kind: GameKind
    side_u: tuple[str, ...]
    side_v: tuple[str, ...] = ()
    edges: tuple[Edge, ...] = ()
    capacities: tuple[tuple[str, int], ...] = ()
    uniform_capacity: int | None = None

    def __post_init__(self):
        problems = validate(self)
        if problems:
            raise InstanceError("; ".join(problems))

    @cached_property
    def agents(self) -> tuple[str, ...]:
        return self.side_u + self.side_v

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.side_u, self.side_v, self.edges,
                     self.capacities, self.uniform_capacity))

    def __hash__(self) -> int:
        # Hashed once: an instance keys the oracle's and the analysis's
        # caches and is looked up there many times per question.
        return self._hash

    def __getstate__(self):
        # A string hashes differently in another process, so a copy
        # computes its hash afresh.
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    @cached_property
    def _capacity_map(self) -> dict[str, int]:
        return dict(self.capacities)

    def capacity(self, q: str) -> int:
        """How many times agent q may be matched."""
        kind = self.kind
        if kind is GameKind.UNIFORM_B:
            return self.uniform_capacity
        if kind is GameKind.ASSIGNMENT or kind is GameKind.GENERAL:
            return 1
        return self._capacity_map[q]

    @cached_property
    def edge_map(self) -> dict[EdgeKey, Edge]:
        return {e.key: e for e in self.edges}

    def edge(self, key: EdgeKey) -> Edge:
        try:
            return self.edge_map[key]
        except KeyError:
            raise ValueError(f"no edge {key!r} in this instance") from None

def make_instance(kind, side_u, side_v=(), edges=(), capacities=None,
                  uniform_capacity=None) -> GameInstance:
    """Assemble an instance from the data as given; building it runs
    ``validate``, which refuses malformed data with ``InstanceError``."""
    kind = kind if isinstance(kind, GameKind) else GameKind(kind)
    items = capacities.items() if isinstance(capacities, Mapping) else capacities or ()
    built = tuple(e if isinstance(e, Edge) else make_edge(*e) for e in edges)
    return GameInstance(kind, tuple(side_u), tuple(side_v), built,
                        tuple((q, b) for q, b in items), uniform_capacity)


@dataclass(frozen=True)
class SurplusAccount:
    """Distributable total for a capacity-bound game under one dual.

    ``surplus = worth + adjustment`` where the adjustment sums the lower
    bounds times their duals minus the upper bounds times theirs.
    """
    worth: Fraction
    adjustment: Fraction
    surplus: Fraction


@dataclass(frozen=True, eq=True)
class Imputation:
    """A division of the game's total among agents: its payoffs, nothing
    else, so two imputations with the same payoffs are equal."""
    payoffs: tuple[tuple[str, Fraction], ...]

    @cached_property
    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.payoffs)

    def __getitem__(self, q: str) -> Fraction:
        return self.as_dict[q]

    @property
    def total(self) -> Fraction:
        """The payoffs' sum, as one integer sum over their common denominator."""
        ints, scale = scaled([v for _, v in self.payoffs])
        return Fraction(sum(ints), scale)


def make_imputation(instance: GameInstance, payoffs: Mapping[str, Fraction]) -> Imputation:
    """Build an imputation over all agents, filling absent ones with zero."""
    extra = set(payoffs) - set(instance.agents)
    if extra:
        raise ValueError(f"payoffs name unknown agents: {sorted(extra)}")
    rows = []
    for q in instance.agents:
        value = ensure_rational(payoffs.get(q, 0))
        if value < 0:
            raise ValueError(f"negative payoff for {q!r}")
        rows.append((q, value))
    return Imputation(tuple(rows))


def restrict(instance: GameInstance, members: Iterable[str]) -> GameInstance:
    """The induced sub-game on a coalition: same kind, inherited data."""
    chosen = frozenset(members)
    unknown = chosen - set(instance.agents)
    if unknown:
        raise ValueError(f"coalition names unknown agents: {sorted(unknown)}")
    side_u = tuple(q for q in instance.side_u if q in chosen)
    side_v = tuple(q for q in instance.side_v if q in chosen)
    edges = tuple(e for e in instance.edges if e.u in chosen and e.v in chosen)
    caps = tuple((q, b) for q, b in instance.capacities if q in chosen)
    # A sub-game of a valid game is valid, so it is built past the gate
    # (``validate`` would cost more than the rest of ``restrict``): its
    # agents, inner edges with their bounds and capacities are the
    # parent's, and dropping edges only lowers each agent's floor total.
    sub = object.__new__(GameInstance)
    vars(sub).update(kind=instance.kind, side_u=side_u, side_v=side_v, edges=edges,
                     capacities=caps, uniform_capacity=instance.uniform_capacity)
    return sub


def validate(instance: GameInstance) -> list[str]:
    """The one judge of instance data: all violations, [] when well formed.
    Building a ``GameInstance`` runs it and raises ``InstanceError`` on
    any violation, so every instance that exists passes it."""
    out: list[str] = []
    kind, agents = instance.kind, instance.agents
    named = [q for q, _ in instance.capacities]
    # Capacity keys name agents too; one that is not a string may not hash.
    unnamed = [q for q in agents + tuple(named) if not isinstance(q, str)]
    if unnamed:
        return [f"agent name {q!r} is not a string" for q in unnamed]
    # Agents by position. On a bipartite kind side_u's come first, so an
    # edge crosses when one end is below n_u and the other is not.
    at = dict(zip(agents, range(len(agents))))
    if len(at) != len(agents):
        return ["duplicate agent names"]
    out += [f"agent name {q!r} contains ',', '[' or ']'"
            for q in agents if "," in q or "[" in q or "]" in q]

    if kind is GameKind.GENERAL and instance.side_v:
        out.append("general instances use a single vertex set")
    if kind is GameKind.UNIFORM_B:
        if not _is_int(instance.uniform_capacity) or instance.uniform_capacity < 1:
            out.append("uniform capacity must be a positive integer")
    elif instance.uniform_capacity is not None:
        out.append("a uniform capacity only applies to uniform_b instances")
    per_vertex = kind is GameKind.B_MATCHING or kind is GameKind.HOFFMAN_KRUSKAL
    out += [f"capacity for unknown agent {q!r}" for q in named if q not in at]
    if not per_vertex and not at.keys().isdisjoint(named):
        out.append("per-vertex capacities only apply to b_matching and "
                   "hoffman_kruskal instances")
    caps = instance._capacity_map       # each name once, in first-listed order
    out += [f"capacity for {q!r} listed {named.count(q)} times"
            for q in (caps if len(caps) < len(named) else ()) if named.count(q) > 1]
    if per_vertex:
        for q in agents:
            b = caps.get(q)
            if type(b) is int and b >= 1:
                continue
            if b is None:
                out.append(f"missing capacity for {q}")
            elif not _is_int(b):
                out.append(f"capacity for {q} must be an integer")
            elif b < 1:
                out.append(f"non-positive capacity for {q}")

    hk = kind is GameKind.HOFFMAN_KRUSKAL
    n_u = len(instance.side_u) if kind in BIPARTITE_KINDS else None
    seen_pairs = set()
    for e in instance.edges:
        u, v, lo, hi = e.u, e.v, e.lower, e.upper
        a, b = at.get(u), at.get(v)
        if a is None or b is None:
            out.append(f"edge ({u},{v}) touches unknown agents")
            continue
        if a == b:
            out.append(f"self-loop at {u}")
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            out.append(f"parallel edge ({u},{v})")
        seen_pairs.add(pair)
        if not isinstance(e.weight, Fraction):
            out.append(f"weight on ({u},{v}) must be a Fraction")
        elif e.weight.numerator <= 0:     # a Fraction's denominator is positive
            out.append(f"non-positive weight on ({u},{v})")
        if n_u is not None and (a < n_u) == (b < n_u):
            out.append(f"edge ({u},{v}) does not cross the bipartition")
        if not (type(lo) is int or _is_int(lo)) or not (
                hi is None or type(hi) is int or _is_int(hi)):
            out.append(f"multiplicity bounds on ({u},{v}) must be integers")
        elif hk:
            if lo < 0:
                out.append(f"negative lower bound on ({u},{v})")
            if hi is not None and hi < lo:
                out.append(f"upper bound below lower bound on ({u},{v})")
        elif lo != 0 or hi is not None:
            out.append(f"edge multiplicity bounds only apply to "
                       f"{GameKind.HOFFMAN_KRUSKAL.value} instances: ({u},{v})")

    if hk and not out and not _hk_feasible(instance):
        out.append("lower bounds infeasible")
    return out


def _is_int(value) -> bool:
    """Capacities and multiplicity bounds are ints; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _hk_feasible(instance: GameInstance) -> bool:
    """Whether the edge floors can be met, i.e. whether the matching
    program (``formulations.build_primal``) is feasible. Its rows are
    packing rows, each agent's edges summed at most its capacity, so no
    coefficient is negative, and each edge's floor is at most its
    ceiling (``validate`` checked it first). So the floors themselves are
    the least point within the bounds, and some point is feasible exactly
    when they are: every agent's floors sum to at most its capacity."""
    floors = dict.fromkeys(instance.agents, 0)
    for e in instance.edges:
        if e.lower:
            floors[e.u] += e.lower
            floors[e.v] += e.lower
    caps = instance._capacity_map
    return all(total <= caps[q] for q, total in floors.items())
