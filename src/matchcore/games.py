"""Instances of five matching-based cooperative games.

A game lives on a weighted graph. Four kinds are bipartite (plain
assignment, uniform-capacity multi-matching, per-vertex-capacity
multi-matching, and capacity matching with per-edge lower/upper bounds);
the fifth is matching on a general graph. Edge weights are strictly
positive rationals. All value types are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .rationals import ensure_rational

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

# Kinds whose edges may be matched with multiplicity above one.
MULTI_KINDS = frozenset({
    GameKind.UNIFORM_B, GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL,
})


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


def make_edge(u: str, v: str, weight, lower: int = 0, upper: int | None = None) -> Edge:
    return Edge(u, v, ensure_rational(weight), lower, upper)


@dataclass(frozen=True)
class GameInstance:
    """One game: kind, agents, weighted edges, and capacities.

    ``side_u``/``side_v`` are the two sides for bipartite kinds. The
    general kind stores its single vertex set in ``side_u`` and leaves
    ``side_v`` empty. ``capacities`` applies to the per-vertex-capacity
    kinds; ``uniform_capacity`` to the uniform kind.
    """
    kind: GameKind
    side_u: tuple[str, ...]
    side_v: tuple[str, ...] = ()
    edges: tuple[Edge, ...] = ()
    capacities: tuple[tuple[str, int], ...] = ()
    uniform_capacity: int | None = None

    @cached_property
    def agents(self) -> tuple[str, ...]:
        return self.side_u + self.side_v

    @cached_property
    def _capacity_map(self) -> dict[str, int]:
        return dict(self.capacities)

    def capacity(self, q: str) -> int:
        """How many times agent q may be matched."""
        if self.kind in (GameKind.ASSIGNMENT, GameKind.GENERAL):
            return 1
        if self.kind is GameKind.UNIFORM_B:
            return self.uniform_capacity
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
    kind = kind if isinstance(kind, GameKind) else GameKind(kind)
    caps: tuple[tuple[str, int], ...] = ()
    if capacities:
        items = capacities.items() if isinstance(capacities, Mapping) else capacities
        caps = tuple((str(q), int(b)) for q, b in items)
    built = []
    for e in edges:
        if isinstance(e, Edge):
            built.append(e)
        else:
            built.append(make_edge(*e))
    return GameInstance(kind, tuple(side_u), tuple(side_v), tuple(built),
                        caps, uniform_capacity)


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
    """A division of the game's total among agents.

    ``source_dual`` records the optimal dual the payoffs came from, when
    any ("External" provenance is a plain None). Capacity-bound games
    carry the surplus account of that dual, since their distributable
    total is dual-dependent.
    """
    payoffs: tuple[tuple[str, Fraction], ...]
    source_dual: object | None = None
    surplus: SurplusAccount | None = None

    @cached_property
    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.payoffs)

    def __getitem__(self, q: str) -> Fraction:
        return self.as_dict[q]

    @property
    def total(self) -> Fraction:
        return sum(self.as_dict.values(), Fraction(0))


def make_imputation(instance: GameInstance, payoffs: Mapping[str, Fraction],
                    source_dual=None, surplus=None) -> Imputation:
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
    return Imputation(tuple(rows), source_dual, surplus)


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
    return GameInstance(instance.kind, side_u, side_v, edges, caps,
                        instance.uniform_capacity)


def validate(instance: GameInstance) -> list[str]:
    """All invariant violations, as data; empty list means well formed."""
    out: list[str] = []
    agents = instance.agents
    if len(set(agents)) != len(agents):
        out.append("duplicate agent names")
        return out
    for q in agents:
        if any(c in q for c in ",[]"):
            out.append(f"agent name {q!r} contains ',', '[' or ']'")
    agent_set = set(agents)
    left, right = set(instance.side_u), set(instance.side_v)

    if instance.kind is GameKind.GENERAL and instance.side_v:
        out.append("general instances use a single vertex set")
    if instance.kind is GameKind.UNIFORM_B:
        if instance.uniform_capacity is None or instance.uniform_capacity < 1:
            out.append("uniform capacity must be a positive integer")
    if instance.kind in (GameKind.B_MATCHING, GameKind.HOFFMAN_KRUSKAL):
        caps = instance._capacity_map
        for q in agents:
            b = caps.get(q)
            if b is None:
                out.append(f"missing capacity for {q}")
            elif b < 1:
                out.append(f"non-positive capacity for {q}")

    seen_pairs = set()
    for e in instance.edges:
        if e.u not in agent_set or e.v not in agent_set:
            out.append(f"edge ({e.u},{e.v}) touches unknown agents")
            continue
        if e.u == e.v:
            out.append(f"self-loop at {e.u}")
        pair = frozenset((e.u, e.v))
        if pair in seen_pairs:
            out.append(f"parallel edge ({e.u},{e.v})")
        seen_pairs.add(pair)
        if e.weight <= 0:
            out.append(f"non-positive weight on ({e.u},{e.v})")
        if instance.kind in BIPARTITE_KINDS:
            if not ((e.u in left and e.v in right) or (e.u in right and e.v in left)):
                out.append(f"edge ({e.u},{e.v}) does not cross the bipartition")
        if instance.kind is GameKind.HOFFMAN_KRUSKAL:
            if e.lower < 0:
                out.append(f"negative lower bound on ({e.u},{e.v})")
            if e.upper is not None and e.upper < e.lower:
                out.append(f"upper bound below lower bound on ({e.u},{e.v})")
        else:
            if e.lower != 0 or e.upper is not None:
                out.append(f"edge multiplicity bounds only apply to "
                           f"{GameKind.HOFFMAN_KRUSKAL.value} instances: ({e.u},{e.v})")

    if instance.kind is GameKind.HOFFMAN_KRUSKAL and not out:
        if any(e.lower > 0 for e in instance.edges) and not _hk_feasible(instance):
            out.append("lower bounds infeasible")
    return out


def _hk_feasible(instance: GameInstance) -> bool:
    # Decided by LP feasibility of the matching program, not heuristics.
    from .formulations import build_primal
    from .lp import Status, solve

    return solve(build_primal(instance)).status is Status.OPTIMAL
