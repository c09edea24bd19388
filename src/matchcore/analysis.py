"""Core imputations, complementarity, and concurrency, all exactly.

The dual side of each matching program is treated as the object of
interest: optimal dual solutions map to payoff vectors, the optimal dual
face is scanned for coordinate ranges and constraint slacks, and every
claim about the core is cross-checkable against the brute-force oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterator, Mapping

from .caps import check_instance_size
from .formulations import bound_columns, build_dual
from .games import (
    BIPARTITE_KINDS,
    EdgeKey,
    GameInstance,
    GameKind,
    Imputation,
    SurplusAccount,
    make_imputation,
    restrict,
)
from .lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    OptimalFace,
    Relation,
    Sense,
    Status,
    solve,
)
from .oracle import (
    ClassLabel,
    classify_player,
    classify_team,
    is_degenerate,
    optimal_weight,
    worth,
)
from .rationals import ONE, ZERO, dot, ensure_rational, scaled

F = Fraction


@dataclass(frozen=True)
class DualSolution:
    """One point of the dual program of ``instance``.

    ``values`` holds one exact value per column of ``build_dual(instance)``
    (ValueError on another length, counted off ``bound_columns``, so nothing
    is solved): agent j's vertex dual is column j, and an edge's bound duals
    are its ``bound_columns``, lower then upper; a missing one reads as zero.
    ``_trusted`` builds the engine's own vertices past these checks.
    """
    instance: GameInstance
    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(map(ensure_rational, self.values))
        columns = _dual_width(self.instance)
        if len(values) != columns:
            raise ValueError(f"{len(values)} values for a dual program of {columns} columns")
        object.__setattr__(self, "values", values)

    @staticmethod
    def _trusted(instance: GameInstance, values: tuple[Fraction, ...]) -> "DualSolution":
        """The point of one ``Fraction`` per column, past these checks."""
        d = object.__new__(DualSolution)
        vars(d).update(instance=instance, values=values)
        return d

    def vertex(self, q: str) -> Fraction:
        return self.values[_agent_column(self.instance, q)]

    def lower(self, key: EdgeKey) -> Fraction:
        j = _bound_column(self.instance, key, 0)
        return ZERO if j is None else self.values[j]

    def upper(self, key: EdgeKey) -> Fraction:
        j = _bound_column(self.instance, key, 1)
        return ZERO if j is None else self.values[j]


def _agent_column(instance: GameInstance, q: str) -> int:
    """Agent q's vertex-dual column: its position among the agents."""
    try:
        return instance.agents.index(q)
    except ValueError:
        raise ValueError(f"agent {q!r} has no column in the dual program") from None


def _edge_row(instance: GameInstance, key: EdgeKey) -> int:
    """The edge's row of the dual program, by key: row i is edge i's."""
    return instance.edges.index(instance.edge(key))


def _bound_column(instance: GameInstance, key: EdgeKey, k: int) -> int | None:
    """The column of the edge's lower (k = 0) or upper (1) bound dual in
    ``bound_columns``, or None; ValueError on a key the instance lacks."""
    columns = bound_columns(instance)[_edge_row(instance, key)]
    return columns[k] if k < len(columns) else None


def _dual_width(instance: GameInstance) -> int:
    """The dual program's column count: the agents' and the bound duals'."""
    return len(instance.agents) + sum(map(len, bound_columns(instance)))


def make_dual(instance: GameInstance, vertex_duals: Mapping[str, Fraction],
              lower: Mapping[EdgeKey, Fraction] | None = None,
              upper: Mapping[EdgeKey, Fraction] | None = None) -> DualSolution:
    """Build a DualSolution from mappings; absent entries are zero.

    Raises ValueError for an entry with no column in the dual program: an
    unknown agent, an edge key the instance does not have (reversed keys
    included), or a lower or upper entry on an edge without that bound dual.
    The dual program always has an optimum: the instance is valid, so its
    matching program is feasible (the floors fit) and bounded.
    """
    values = [ZERO] * _dual_width(instance)
    for q, value in vertex_duals.items():
        values[_agent_column(instance, q)] = value
    for k, entries, what in ((0, lower, "lower"), (1, upper, "upper")):
        for key, value in (entries or {}).items():
            j = _bound_column(instance, key, k)
            if j is None:
                raise ValueError(f"the {what} bound of edge {key!r} has no dual column")
            values[j] = value
    return DualSolution(instance, tuple(values))


class _Session:
    """What the analysis has learnt about one instance, each part computed
    when first asked for and then kept: the dual program's ``OptimalFace``
    (one solve; each face query is a phase-2 run of its own), a lattice
    kind's two side-optimal vertices, the grand range, and the core's
    coalition rows (``rows``), one list of (positions, demand) pairs,
    each demand the lister leaves None read once (``_demand``), when a
    scan first reaches it. A hoffman_kruskal demand, and a blocking
    row's witness dual, are solved on the row's part of this dual
    program, which ``cut`` takes from the program's kept integers
    through the ``layout``, so no program or row is built for it. The
    instance was validated when built, so the session checks none of
    its data.
    """

    def __init__(self, instance: GameInstance):
        self.instance = instance

    @cached_property
    def face(self) -> OptimalFace:
        """The one solve of the instance's dual program, shared by every
        query; optimal, as the instance is valid (see ``make_dual``)."""
        return OptimalFace(build_dual(self.instance))

    @cached_property
    def layout(self) -> tuple[list[tuple], list[int]]:
        """The dual program as ``cut`` reads it: each edge's endpoints'
        bits (bit j is agent j), bound-dual columns and row's kept
        integers; the objective's integers."""
        bit, lp = {q: 1 << j for j, q in enumerate(self.instance.agents)}, self.face.lp
        edges = zip(self.instance.edges, bound_columns(self.instance), lp.constraints)
        return [(bit[e.u] | bit[e.v], columns, row._scaled_row)
                for e, columns, row in edges], lp._scaled_objective[0]

    def cut(self, members) -> tuple[int, list[tuple[list[int], int]], list[int]]:
        """``build_dual(restrict(instance, members))`` in integers as (n,
        >= rows, costs): ``restrict`` keeps the game's order, so its n columns
        are the members (increasing positions) and their inner edges' bound duals."""
        edges, costs = self.layout
        mask = sum(1 << j for j in members)
        inner = [edge for edge in edges if edge[0] & mask == edge[0]]
        columns = [*members, *(j for _, bounds, _ in inner for j in bounds)]
        rows = [([ints[j] for j in columns] + ints[-1:], den) for _, _, (ints, den) in inner]
        return len(columns), rows, [costs[j] for j in columns]

    @cached_property
    def side_optimal(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """The face's side_u-optimal and side_v-optimal vertices, on a
        lattice kind (``_LATTICE_KINDS``): each one query maximizing
        its side's summed vertex duals.

        There the dual program is y >= 0 and y_u + y_v >= w_uv on each
        edge, minimizing the sum of b_q y_q, and the optimal face is a
        lattice (Shapley and Shubik 1971; Sotomayor 1999 for per-agent
        capacities). For optimal y and y', the join (max on side_u,
        min on side_v) is feasible: on an edge whose side_u end it
        takes from y, so y_u >= y'_u, its side_v end is y_v, or y'_v
        and y_u + y'_v >= y'_u + y'_v; the meet (min on side_u, max on
        side_v) likewise. Max plus min is the sum, so their
        capacity-weighted objectives sum to twice the optimum, and
        neither is below it: both are optimal. With every capacity
        positive the face is bounded (b_q y_q is at most the optimum),
        so it has a greatest element g, the join of a maximizer of each
        side_u column and a minimizer of each side_v column: g pays each
        side_u agent its top and each side_v agent its bottom. A point
        of the face that maximizes the side_u sum has g's side_u part,
        as no point exceeds g there, and the objective then fixes its
        side_v part, since y_v >= g_v with b_v > 0 and b . y = b . g.
        So the side_u query returns g, and the side_v query the least
        element. A valid instance has no zero capacity, so both are bounded.
        """
        k, rest = len(self.instance.side_u), len(self.instance.side_v)
        return tuple(self.face.optimize(coeffs, Sense.MAXIMIZE).values
                     for coeffs in ([ONE] * k + [ZERO] * rest, [ZERO] * k + [ONE] * rest))

    @cached_property
    def grand_range(self) -> tuple[Fraction, Fraction | None]:
        """The totals the grand coalition may be paid, as (lo, hi).

        Non-bounds kinds: the worth at both ends. Bounds-capacity kind: the
        surplus under some optimal dual, i.e. the capacity-weighted sum of
        its vertex duals. Over the convex optimal dual face that sum takes
        exactly the values between its minimum and its maximum, two
        phase-2 queries. Vertex duals are >= 0, so the minimum is finite;
        an unbounded maximum is None.
        """
        if self.instance.kind is not GameKind.HOFFMAN_KRUSKAL:
            w = optimal_weight(self.instance)
            return w, w
        return self.face.range(_surplus_weights(self.instance))

    @cached_property
    def rows(self) -> list[tuple[tuple[int, ...], Fraction | None]]:
        """The core's coalition rows (``_coalitions``), listed whole when
        a scan first asks; ``demands`` fills in their demands."""
        return _coalitions(self.instance)

    def demands(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """The (members, demand) rows of ``rows`` in their order. A
        demand the lister left None is read (one ``_demand`` call) when a
        scan first reaches its row and stored there, so a scan that stops
        early, or is stopped by an error, leaves the rest unread and each
        demand is computed once."""
        rows = self.rows
        for i, (members, demand) in enumerate(rows):
            if demand is None:
                demand = _demand(self.instance, members)
                rows[i] = members, demand
            yield members, demand


@lru_cache(maxsize=50_000)
def _session(instance: GameInstance) -> _Session:
    """The instance's session: the module's one cache, so clearing it
    forgets everything the analysis has learnt."""
    return _Session(instance)


def primal_optimum(instance: GameInstance) -> Fraction:
    """Optimal value of the fractional matching program (= dual optimum)."""
    return _session(instance).face.base.value


def optimal_dual(instance: GameInstance) -> DualSolution:
    """The deterministic optimal dual: the solver's Bland-rule vertex."""
    return DualSolution._trusted(instance, _session(instance).face.base.values)


def is_optimal_dual(instance: GameInstance, d: DualSolution) -> bool:
    """Feasible for the dual program (``LinearProgram._holds_at``) and exactly
    optimal in value, in integers: the point is scaled once, its value cross-multiplied."""
    if d.instance != instance:
        raise ValueError("dual solution belongs to another instance")
    face = _session(instance).face
    optimum, (costs, cost_scale) = face.base.value, face.lp._scaled_objective
    point, scale = scaled(d.values)
    return face.lp._holds_at(point, scale) and (sum(map(mul, costs, point)) * optimum.denominator
                                                == optimum.numerator * cost_scale * scale)


def _surplus_weights(instance: GameInstance) -> tuple[Fraction, ...]:
    """The surplus, the total paid out, as a functional on the dual columns:
    the vertex part of ``build_dual``'s objective, zero on bound duals."""
    objective = _session(instance).face.lp.objective
    n = len(instance.agents)
    return objective[:n] + (ZERO,) * (len(objective) - n)


def _surplus(d: DualSolution) -> Fraction:
    return dot(_surplus_weights(d.instance), d.values)


def surplus_account(instance: GameInstance, d: DualSolution) -> SurplusAccount:
    """Distributable total under one optimal dual of a bounds-capacity game.

    The surplus is the vertex part of the dual objective; by duality the
    adjustment, surplus - worth, is sum(lower * lower_dual - upper * upper_dual).
    """
    if instance.kind is not GameKind.HOFFMAN_KRUSKAL:
        raise ValueError("surplus accounting applies to hoffman_kruskal instances")
    if not is_optimal_dual(instance, d):
        raise ValueError("dual solution is not optimal")
    w, surplus = primal_optimum(instance), _surplus(d)
    return SurplusAccount(w, surplus - w, surplus)


def dual_to_imputation(instance: GameInstance, d: DualSolution) -> Imputation:
    """Payoffs from an optimal dual: capacity times the vertex dual.

    For the general kind this is only an imputation when the game is
    concurrent (fractional and integral optima agree). Both are enforced
    (ValueError), since the dual is the caller's.
    """
    if not is_optimal_dual(instance, d):
        raise ValueError("dual solution is not optimal")
    if _empty_general_core(instance):
        raise ValueError("not concurrent: optimal covers are not imputations")
    return _dual_payoffs(instance, d.values)


def _dual_payoffs(instance: GameInstance, values: tuple[Fraction, ...]) -> Imputation:
    """A dual point's payoffs, capacity times agent j's column j (itself at a
    capacity of one), by ``Imputation._trusted``: each a ``Fraction`` >= 0 of a
    face vertex (lower bounds 0), an average of some, or an accepted dual."""
    agents = instance.agents
    pays = zip(agents, values, map(instance.capacity, agents))
    return Imputation._trusted(tuple((q, v if b == 1 else b * v) for q, v, b in pays))


# ---------------------------------------------------------------------------
# The optimal dual face.
# ---------------------------------------------------------------------------

class DualFace:
    """Exact scans over the set of optimal dual solutions of one instance.

    A thin view over the ``OptimalFace`` of the instance's session: the
    dual program is solved once per instance, and that solve serves
    ``optimal_dual``, ``primal_optimum``, ``is_optimal_dual`` and every
    ``DualFace`` built for the instance. Its queries, ``optimize`` and
    ``extremum``, are the engine's own methods and take one coefficient
    per column of ``build_dual(instance)``; each is one phase-2 run from
    the session's optimal basis, and building a view costs a session lookup.
    ``vertex_range`` of an agent of a lattice kind is its column on the
    face's two side-optimal vertices (``_Session.side_optimal``), two
    queries shared by every agent and by ``extreme_imputations``;
    elsewhere it is two queries of the agent's own. Three functions also
    take one as ``face`` and refuse another instance's (``_face_of``).
    D(I) membership fixes columns instead: ``in_dual_image`` solves the
    program once with them constant, each tight row over them alone on
    its slack, and compares optima.
    """

    def __init__(self, instance: GameInstance):
        self.instance = instance
        self._session = _session(instance)
        engine = self._session.face
        self.lp, self.base = engine.lp, engine.base
        self.optimize, self.extremum = engine.optimize, engine.extremum

    def vertex_coeffs(self, q: str) -> list[Fraction]:
        """The functional reading agent q's vertex dual."""
        coeffs = [ZERO] * len(self.lp.variables)
        coeffs[_agent_column(self.instance, q)] = ONE
        return coeffs

    def vertex_range(self, q: str) -> tuple[Fraction | None, Fraction | None]:
        """Agent q's lowest and highest vertex dual over the face, None on
        an unbounded side. On a lattice kind a side_u agent's top is on the
        side_u-optimal vertex and its bottom on the side_v-optimal one, and
        a side_v agent's the other way round (``_Session.side_optimal``)."""
        instance = self.instance
        if instance.kind not in _LATTICE_KINDS:
            return self._session.face.range(self.vertex_coeffs(q))
        j = _agent_column(instance, q)
        high_u, high_v = self._session.side_optimal
        return (high_v[j], high_u[j]) if j < len(instance.side_u) else (high_u[j], high_v[j])

    def max_overpayment(self, key: EdgeKey) -> Fraction | None:
        """Max slack of the edge's dual row over the face; None = unbounded."""
        row = self.lp.constraints[_edge_row(self.instance, key)]
        top = self.extremum(row.coeffs, Sense.MAXIMIZE)
        return None if top is None else top - row.rhs


# The bipartite kinds whose dual program has only vertex-dual columns.
_LATTICE_KINDS = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B, GameKind.B_MATCHING)


def _face_of(instance: GameInstance, face: DualFace | None) -> DualFace:
    """``face``, refused unless it is the instance's; a new one when None."""
    if face is None:
        return DualFace(instance)
    if face.instance != instance:
        raise ValueError("face belongs to another instance")
    return face


def is_concurrent(instance: GameInstance) -> bool:
    """Fractional and integral matching optima agree (general kind)."""
    return check_concurrency(instance).concurrent


def _empty_general_core(instance: GameInstance) -> bool:
    """A general game that is not concurrent: its core is empty, so no
    optimal cover is an imputation."""
    return instance.kind is GameKind.GENERAL and not is_concurrent(instance)


@dataclass(frozen=True)
class ConcurrencyReport:
    fractional_optimum: Fraction
    integral_optimum: Fraction

    @property
    def concurrent(self) -> bool:
        return self.fractional_optimum == self.integral_optimum


def check_concurrency(instance: GameInstance) -> ConcurrencyReport:
    """(fractional optimum, integral optimum, equal?) for a general game.

    Equality holds exactly when the core is non-empty.
    """
    if instance.kind is not GameKind.GENERAL:
        raise ValueError("concurrency applies to general instances")
    return ConcurrencyReport(primal_optimum(instance), optimal_weight(instance))


# ---------------------------------------------------------------------------
# Core membership.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreVerdict:
    in_core: bool
    witness: frozenset | None = None
    witness_demand: Fraction | None = None
    witness_allocation: Fraction | None = None
    witness_dual: DualSolution | None = None


def _core_is_face(instance: GameInstance) -> bool:
    """Whether the core, if any, is capacity times the optimal dual face."""
    return instance.kind is not GameKind.HOFFMAN_KRUSKAL and (
        instance.kind is not GameKind.B_MATCHING
        or all(instance.capacity(q) == 1 for q in instance.agents))


def _coalitions(instance: GameInstance) -> list[
        tuple[tuple[int, ...], Fraction | None]]:
    """The coalition rows of the core as (members, demand), in
    size-then-lexicographic order, members as increasing agent positions.

    Where the core is capacity times the optimal dual face
    (``_core_is_face``) the rows are the proper edge pairs: at a uniform
    capacity b, v(S) is b times the weight of a matching in S, so payoffs
    >= 0 paying each pair its worth pay every coalition (Shapley and
    Shubik 1971; Deng, Ibaraki and Nagamochi 1999). A pair demands its
    weight at capacity one, else None until the session reads it
    (``_Session.demands``), as a connected row does. Else the rows are the
    connected proper coalitions, whose inner edges join their two or more
    members, each size grown from the one below by a neighbour, as masks
    (bit j = agent j). Any other coalition demands the sum of what its
    parts, the sets its inner edges join, demand: a matching splits over
    them, and a bounds-capacity dual program is block-diagonal over them,
    a lone member's block a column with no row entry and cost >= 0.
    Bland's rule enters the lowest eligible column and the ratio test
    reads that column's block alone, slack and artificial order kept, so
    each block pivots as it would alone (Bland 1977). Paid the sum of its
    parts' payoffs, such a coalition needs no row of its own.
    """
    agents = instance.agents
    at = {q: j for j, q in enumerate(agents)}
    if _core_is_face(instance):
        one = all(instance.capacity(q) == 1 for q in agents)
        pairs = sorted((*sorted((at[e.u], at[e.v])), e.weight) for e in instance.edges)
        return [((i, j), w if one else None) for i, j, w in pairs if len(agents) > 2]
    near = [0] * len(agents)
    for e in instance.edges:
        near[at[e.u]] |= 1 << at[e.v]
        near[at[e.v]] |= 1 << at[e.u]
    rows, level = [], {1 << j: near[j] for j in range(len(agents))}   # mask -> members' neighbours
    for _ in range(2, len(agents)):
        grown = {}
        for mask, reach in level.items():
            out = reach & ~mask
            while out:
                bit = out & -out
                out ^= bit
                grown[mask | bit] = reach | near[bit.bit_length() - 1]
        level = grown
        rows += sorted((tuple(j for j in range(len(agents)) if mask >> j & 1), None)
                       for mask in level)
    return rows


def _demand(instance: GameInstance, members: tuple[int, ...]) -> Fraction:
    """What a coalition, a row of ``_coalitions``, demands: what its own
    sub-game yields, its worth (``worth`` takes the members' names) or,
    for the bounds-capacity kind, its surplus under the sub-game's
    Bland-rule optimal dual, so repeated runs agree: its dual program,
    cut from the game's (``_Session.cut``) and pivoted as ``solve``
    would pivot it (``LinearProgram._bland_part``), costs that much on
    its first |S| columns, the members', summed in integers. It has an
    optimum since the game's program has one: the game's matching on
    the inner edges is feasible for the sub-game, and the capacities
    bound it."""
    if instance.kind is not GameKind.HOFFMAN_KRUSKAL:
        return worth(instance, tuple(instance.agents[j] for j in members))
    n, rows, costs = _session(instance).cut(members)
    num, den, k = 0, 1, len(members)
    for j, a, d in LinearProgram._bland_part(n, rows, costs):
        if j < k:
            num, den = num * d + costs[j] * a * den, den * d
    return F(num, den)


def _payoffs(instance: GameInstance, imp: Imputation) -> list[Fraction]:
    """The imputation's payoffs (each >= 0) in agent order; ValueError
    unless it pays exactly the instance's agents."""
    if imp.as_dict.keys() != set(instance.agents):
        raise ValueError("imputation pays other agents than the instance's")
    return [imp[q] for q in instance.agents]


def _shortfalls(session: _Session, payoffs: list[Fraction]) -> Iterator[
        tuple[tuple[int, ...], Fraction, int, int]]:
    """The core's rows that ``payoffs`` (in agent order) leave short, as
    (members, demand, paid, scale), lazily in ``_Session.demands``'s
    order: the one scan comparing rows with payoffs, in integers. The
    payoffs are scaled once, over their common denominator ``scale``, and
    read at the members' positions; a row is paid paid / scale < demand."""
    ints, scale = scaled(payoffs)
    for members, demand in session.demands():
        paid = sum(map(ints.__getitem__, members))
        if demand.numerator * scale > paid * demand.denominator:
            yield members, demand, paid, scale


def is_core_imputation(instance: GameInstance, imp: Imputation) -> CoreVerdict:
    """Exact core membership over the coalition rows of ``_Session.rows``.

    The imputation must pay exactly the instance's agents (else
    ValueError), and its total must lie in the grand range
    (``_Session.grand_range``): the worth, or for the bounds-capacity kind
    the surplus under some optimal dual; outside it the grand coalition
    is the witness, with the violated end as its demand and, for every
    kind, no ``witness_dual``. A coalition blocks when it can generate
    strictly more on its own (its worth, or for the bounds-capacity kind
    deterministic surplus) than it is allocated. The witness is the first
    blocking row in size-then-lexicographic order, the first that
    ``_shortfalls`` yields: a coalition that is no row demands at most
    the sum of what smaller rows inside it demand (the edge pairs of a
    best matching where ``_core_is_face``, else its parts) and is paid
    at least the sum of their payoffs, so one of them blocks too, and
    comes earlier. The witness is its members' names, and for the
    bounds-capacity kind its ``witness_dual`` is the optimal dual of its
    own sub-game: the vertex whose surplus was the demand, read off one
    more solve of its cut, as ``_demand`` read it, with no program, face
    or session made for it.
    """
    agents = instance.agents
    check_instance_size(len(agents), len(instance.edges))
    payoffs = _payoffs(instance, imp)
    session = _session(instance)
    lo, hi = session.grand_range
    total = imp.total
    if total < lo or (hi is not None and total > hi):
        return CoreVerdict(False, frozenset(agents), lo if total < lo else hi, total, None)
    for members, demand, paid, scale in _shortfalls(session, payoffs):
        names, d = [agents[j] for j in members], None
        if instance.kind is GameKind.HOFFMAN_KRUSKAL:
            n, rows, costs = session.cut(members)
            values = [ZERO] * n
            for j, a, den in LinearProgram._bland_part(n, rows, costs):
                values[j] = F(a, den)
            d = DualSolution._trusted(restrict(instance, names), tuple(values))
        return CoreVerdict(False, frozenset(names), demand, F(paid, scale), d)
    return CoreVerdict(True)


def in_dual_image(instance: GameInstance, imp: Imputation) -> bool:
    """Membership in D(I): does some optimal dual map to these payoffs?

    Decided exactly by one solve of the dual program with every vertex
    dual fixed, through equal bounds, to payoff over capacity (divided
    only for a capacity above one): its optimum equals the dual optimum
    exactly when some optimal dual has these vertex duals. The engine
    holds a fixed dual as a constant, with no bound row, and starts an
    edge row over fixed duals alone that is tight on its slack: no pivot
    decides a lattice kind. ValueError unless ``imp`` pays exactly the
    instance's agents; payoffs are >= 0 and capacities positive, so every
    fixed value lies within its column's bounds (lower 0, no upper).
    """
    if instance.kind not in BIPARTITE_KINDS:
        raise ValueError("the dual-image test applies to bipartite kinds")
    payoffs = _payoffs(instance, imp)
    face = _session(instance).face
    lp, n = face.lp, len(payoffs)
    duals = tuple(payoff / b if b > 1 else payoff
                  for b, payoff in zip(map(instance.capacity, instance.agents), payoffs))
    fixed = solve(LinearProgram._trusted(lp.sense, lp.variables, lp.objective,
                                         lp._scaled_objective, lp.constraints,
                                         duals + lp.lower[n:], duals + lp.upper[n:]))
    return fixed.status is Status.OPTIMAL and fixed.value == face.base.value


def _total_rows(session: _Session) -> list[Constraint]:
    """The rows that row generation (``_core_optimum``) starts from, on
    the payoffs' total alone: one equation when the grand range
    (``_Session.grand_range``) is one value, else a row for each bounded
    end, each written through ``Constraint._signed``."""
    lo, hi = session.grand_range
    ends = [(Relation.EQ, lo)] if lo == hi else [(Relation.GE, lo), (Relation.LE, hi)]
    n = len(session.instance.agents)
    return [Constraint._signed(n, dict.fromkeys(range(n), 1), relation, end)
            for relation, end in ends if end is not None]


def _core_optimum(session: _Session, rows: list[Constraint], objective,
                  sense: Sense) -> LpSolution:
    """Optimize ``objective`` over the core (whose membership
    ``is_core_imputation`` decides) by exact row generation on ``rows``,
    the caller's list: it starts as ``_total_rows`` and keeps the rows
    found for later objectives. After each solve the row that the
    optimum leaves shortest (the first of ``_shortfalls`` on ties) is
    appended, a one at each of its members' positions, until the LP is
    infeasible or no row is short (Dantzig, Fulkerson and Johnson 1954;
    Kelley 1960). Such an optimum is optimal for the full system, and a
    vertex of the core because it is a vertex of a larger polyhedron.
    The LP keeps payoffs >= 0, under which the rows of ``_coalitions``
    imply every other coalition's row: the same polyhedron. It serves
    the two cores that are not capacity times the optimal dual face:
    hoffman_kruskal's, for ``core_nonempty``, and that of b_matching with
    a capacity above one, for ``sample_core_vertices``. Rounds write rows
    and programs unchecked (``Constraint._signed``, ``_trusted``).
    """
    agents = session.instance.agents
    n, objective = len(agents), tuple(objective)
    ints, lower, upper = scaled(objective), (ZERO,) * n, (None,) * n
    while True:
        sol = solve(LinearProgram._trusted(sense, agents, objective, ints, tuple(rows),
                                           lower, upper))
        if sol.status is not Status.OPTIMAL:
            return sol
        # A row's shortfall is short / (den * scale), and scale is common
        # to every row, so rows compare by short / den, cross-multiplied.
        worst, gap, gap_den = None, 0, 1
        for members, demand, paid, scale in _shortfalls(session, sol.values):
            den = demand.denominator
            short = demand.numerator * scale - paid * den
            if short * gap_den > gap * den:
                worst, gap, gap_den = (members, demand), short, den
        if worst is None:
            return sol
        members, demand = worst
        rows.append(Constraint._signed(n, dict.fromkeys(members, 1), Relation.GE, demand))


def _imputation_from(instance: GameInstance, values: tuple[Fraction, ...]) -> Imputation:
    """A row-generation vertex (lower bounds 0, so each value >= 0) as payoffs, unchecked."""
    return Imputation._trusted(tuple(zip(instance.agents, values)))


def core_nonempty(instance: GameInstance) -> tuple[bool, Imputation | None]:
    """Balancedness: (False, None) when the core, the polyhedron whose
    membership ``is_core_imputation`` decides, is empty, else (True, a
    witness core imputation).

    Every kind but the bounds-capacity one is decided by LP duality, with
    no coalition row. The core is nonempty exactly when the fractional
    and integral optima agree: always for the bipartite kinds (TUM), and
    for a general game when it is concurrent (Shapley and Shubik 1971;
    Deng, Ibaraki and Nagamochi 1999). Then an optimal dual pays the
    grand coalition the worth and, being feasible for each coalition's
    dual program, each coalition at least its fractional optimum by weak
    duality, capacities or not. The witness is the deterministic-dual
    imputation, a point of D(I), the set of imputations given by optimal
    duals: the payoffs of the session's base vertex, optimal by
    construction and, the core being nonempty, an imputation, so neither
    is checked again. The bounds-capacity kind, whose deterministic-dual
    imputation can block, is decided by row generation over the
    connected coalition rows (``_core_optimum`` with a zero objective),
    and its witness is a vertex of the core, which one not being
    specified.
    """
    check_instance_size(len(instance.agents), len(instance.edges))
    if instance.kind is not GameKind.HOFFMAN_KRUSKAL:
        if _empty_general_core(instance):
            return False, None
        return True, _dual_payoffs(instance, _session(instance).face.base.values)
    session = _session(instance)
    sol = _core_optimum(session, _total_rows(session), [ZERO] * len(instance.agents),
                        Sense.MINIMIZE)
    if sol.status is not Status.OPTIMAL:
        return False, None
    return True, _imputation_from(instance, sol.values)


def sample_core_vertices(instance: GameInstance, count: int, seed: int) -> list[Imputation]:
    """Distinct core vertices that maximize random rational objectives.

    For worth-based kinds only. Each of ``count`` objectives c (integer
    coefficients in -9..9 drawn from ``seed``) is maximized over the
    core; when it has several optimal vertices, which one is returned is
    not specified. A general game that is not concurrent has an empty
    core and yields no vertices.

    Wherever the core is capacity times the optimal dual face
    (``_core_is_face``), each objective is one query of the session's
    face, c_q b_q on agent q's vertex column, read back as payoffs
    (``_dual_payoffs``): no coalition row is read and no LP solved but the
    face's own. The core of an assignment game, and of a concurrent
    general one, is the set of optimal duals (Shapley and Shubik 1971;
    Deng, Ibaraki and Nagamochi 1999), and with a uniform capacity b the
    b-matching polytope is b times the matching polytope, so the core is b
    times the assignment game's optimal dual face, which is the uniform_b
    dual's. A b_matching core with a capacity above one can be larger than
    its dual image: there row generation (``_core_optimum``) maximizes c
    over one row list, so the rows found for earlier objectives stay.
    """
    if instance.kind is GameKind.HOFFMAN_KRUSKAL:
        raise ValueError("payoff-space core polytope is for worth-based kinds")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, not {count}")
    check_instance_size(len(instance.agents), len(instance.edges))
    session = _session(instance)
    agents = instance.agents
    if not _core_is_face(instance):
        rows = _total_rows(session)

        def vertex(objective):
            return _core_optimum(session, rows, map(F, objective), Sense.MAXIMIZE).values
        payoffs = _imputation_from
    elif _empty_general_core(instance):
        return []
    else:
        caps = [instance.capacity(q) for q in agents]

        def vertex(objective):
            return session.face.optimize([c * b for c, b in zip(objective, caps)],
                                         Sense.MAXIMIZE).values
        payoffs = _dual_payoffs
    rng = random.Random(seed)
    seen = set()
    out = []
    for _ in range(count):
        values = vertex([rng.randint(-9, 9) for _ in agents])
        if values not in seen:
            seen.add(values)
            out.append(payoffs(instance, values))
    return out


def sample_dual_vertices(instance: GameInstance, count: int, seed: int,
                         face: DualFace | None = None) -> list[DualSolution]:
    """Optimal dual vertices found by random objectives over the face.

    A face with rays (hoffman_kruskal) can leave every sampled objective
    unbounded; the base vertex, ``optimal_dual``, is then the sample.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, not {count}")
    face = _face_of(instance, face)
    rng = random.Random(seed)
    seen = set()
    out = []
    for _ in range(count):
        sol = face.optimize([rng.randint(-9, 9) for _ in face.lp.variables], Sense.MAXIMIZE)
        if sol.status is not Status.OPTIMAL or sol.values in seen:
            continue
        seen.add(sol.values)
        out.append(DualSolution._trusted(instance, sol.values))
    if count and not out:
        out.append(DualSolution._trusted(instance, face.base.values))
    return out


# ---------------------------------------------------------------------------
# Complementarity: who gets paid, which teams are overpaid.
# ---------------------------------------------------------------------------

def paid_sometimes(instance: GameInstance, q: str) -> bool | None:
    """Is the agent paid under some dual-derived core imputation?

    True iff agent j's vertex dual, column j, is in the support of the
    optimal dual face (ValueError on an unknown agent). On a non-concurrent
    general instance the core is empty: the distinguished outcome is None.
    """
    if _empty_general_core(instance):
        return None
    return _agent_column(instance, q) in _session(instance).face.support()[0]


def always_paid_fairly(instance: GameInstance, key: EdgeKey) -> bool | None:
    """Is the team's dual row, row i for edge i, out of the face's support?

    Its slack is the overpayment: vertex duals (plus upper-bound dual,
    minus lower-bound dual, where present) beyond the edge weight.
    ValueError on a key the instance lacks, reversed keys included; None is
    the distinguished empty-core outcome for non-concurrent general games.
    """
    if _empty_general_core(instance):
        return None
    return _edge_row(instance, key) not in _session(instance).face.support()[1]


def payoff_range(instance: GameInstance, q: str,
                 face: DualFace | None = None) -> tuple[Fraction | None, Fraction | None]:
    """Lowest and highest payoff of one agent across dual-derived imputations:
    capacity times the ends of its ``DualFace.vertex_range``, which for
    assignment, uniform_b and b_matching are read off the face's two
    side-optimal vertices and for the other kinds come from two face
    queries of the agent's own. ValueError on a non-concurrent general
    game, which has none."""
    if _empty_general_core(instance):
        raise ValueError("not concurrent: optimal covers are not imputations")
    face = _face_of(instance, face)
    lo, hi = face.vertex_range(q)
    b = instance.capacity(q)
    if b == 1:
        return lo, hi
    return (None if lo is None else b * lo, None if hi is None else b * hi)


@dataclass(frozen=True)
class PlayerFinding:
    agent: str
    label: ClassLabel
    paid_sometimes: bool | None


@dataclass(frozen=True)
class TeamFinding:
    edge: EdgeKey
    label: ClassLabel
    always_paid_fairly: bool | None


@dataclass(frozen=True)
class ComplementarityReport:
    """Oracle labels against dual-face payment facts, with any violations.

    ``violations`` holds theorem counterexamples (the failure signal);
    ``gaps`` records where a one-directional implication is strict on
    general instances (allowed, and worth reporting).
    """
    kind: GameKind
    degenerate: bool
    concurrent: bool | None
    players: tuple[PlayerFinding, ...]
    teams: tuple[TeamFinding, ...]
    violations: tuple[str, ...]
    gaps: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_complementarity(instance: GameInstance) -> ComplementarityReport:
    """Cross-check payment predicates against brute-force classes.

    Bipartite kinds assert full equivalences plus the subpar-endpoint and
    degeneracy corollaries; general kinds assert the forward implications
    only (when concurrent) and record strict gaps. Every payment verdict
    is read off one support scan of the optimal dual face.
    """
    kind = instance.kind
    general = kind is GameKind.GENERAL
    # On an empty core the classes are oracle facts and still meaningful;
    # the payment verdicts get the distinguished outcome None unasked, and
    # the general checks below run only when ``concurrent`` is True.
    empty = _empty_general_core(instance)
    concurrent = not empty if general else None
    degenerate = is_degenerate(instance)
    paid_columns, overpaid_rows = (None, None) if empty else _session(instance).face.support()
    violations: list[str] = []
    gaps: list[str] = ["core is empty"] if empty else []

    players = []
    for j, q in enumerate(instance.agents):
        label = classify_player(instance, q)
        paid = None if empty else j in paid_columns
        players.append(PlayerFinding(q, label, paid))
        essential = label is ClassLabel.ESSENTIAL
        if not general and paid != essential:
            violations.append(f"player {q}: {label.value} but "
                              f"{'paid sometimes' if paid else 'never paid'}")
        if concurrent:
            if paid and not essential:
                violations.append(f"player {q}: paid sometimes but {label.value}")
            if essential and not paid:
                gaps.append(f"player {q}: essential yet never paid")

    labels = {finding.agent: finding.label for finding in players}
    teams = []
    for i, e in enumerate(instance.edges):
        label = classify_team(instance, e.key)
        fair = None if empty else i not in overpaid_rows
        teams.append(TeamFinding(e.key, label, fair))
        matched_somewhere = label is not ClassLabel.SUBPAR
        if not general and fair != matched_somewhere:
            violations.append(f"team ({e.u},{e.v}): {label.value} but "
                              f"{'always paid fairly' if fair else 'sometimes overpaid'}")
        if concurrent:
            if matched_somewhere and not fair:
                violations.append(f"team ({e.u},{e.v}): {label.value} but sometimes overpaid")
            if label is ClassLabel.SUBPAR and fair:
                gaps.append(f"team ({e.u},{e.v}): subpar yet always paid fairly")
        if not general and label is ClassLabel.SUBPAR:
            # A subpar team must contain an essential endpoint (skip edges
            # that can never be matched at all).
            if e.upper == 0:
                continue
            if ClassLabel.ESSENTIAL not in (labels[e.u], labels[e.v]):
                violations.append(f"team ({e.u},{e.v}): subpar with no essential endpoint")

    if degenerate and not empty:
        for finding in players:
            if finding.label is ClassLabel.VIABLE and finding.paid_sometimes:
                violations.append(f"player {finding.agent}: viable yet paid under degeneracy")
        for finding in teams:
            if finding.label is ClassLabel.VIABLE and not finding.always_paid_fairly:
                violations.append(f"team {finding.edge}: viable yet overpaid under degeneracy")

    return ComplementarityReport(kind, degenerate, concurrent, tuple(players),
                                 tuple(teams), tuple(violations), tuple(gaps))


# ---------------------------------------------------------------------------
# Extreme, combined, and simultaneous imputations.
# ---------------------------------------------------------------------------

_EXTREME_KINDS = (GameKind.ASSIGNMENT, GameKind.UNIFORM_B)


def extreme_imputations(instance: GameInstance,
                        face: DualFace | None = None) -> tuple[Imputation, Imputation]:
    """The two antipodal core imputations: (left-high, right-low) and
    (left-low, right-high), the payoffs of the face's two side-optimal
    vertices (``_Session.side_optimal``, bounded as no capacity of a
    valid game is zero), so each agent is paid one end of its
    ``payoff_range``."""
    if instance.kind not in _EXTREME_KINDS:
        raise ValueError("extreme imputations apply to assignment and "
                         "uniform-capacity kinds")
    favor_left, favor_right = _face_of(instance, face)._session.side_optimal
    return _dual_payoffs(instance, favor_left), _dual_payoffs(instance, favor_right)


def meet_join(instance: GameInstance, first: Imputation,
              second: Imputation) -> tuple[Imputation, Imputation]:
    """Coordinate-wise (min left, max right) and (max left, min right).

    Both inputs must be core imputations of the same uniform-capacity (or
    assignment) instance; both outputs are verified to be in the core.
    """
    if instance.kind not in _EXTREME_KINDS:
        raise ValueError("meet/join applies to assignment and uniform-capacity kinds")
    for imp in (first, second):
        if not is_core_imputation(instance, imp).in_core:
            raise ValueError("input imputation is not in the core")
    left = set(instance.side_u)

    def build(low_left: bool) -> Imputation:
        payoffs = {}
        for q in instance.agents:
            a, b = first[q], second[q]
            take_min = (q in left) == low_left
            payoffs[q] = min(a, b) if take_min else max(a, b)
        return make_imputation(instance, payoffs)

    meet = build(low_left=True)
    join = build(low_left=False)
    for imp in (meet, join):
        if not is_core_imputation(instance, imp).in_core:
            raise ArithmeticError("combined imputation left the core; this "
                                  "contradicts the lattice lemma")
    return meet, join


def simultaneous_imputation(instance: GameInstance) -> Imputation:
    """One core imputation paying exactly the essential players and
    overpaying exactly the subpar teams.

    Averages, with equal weight, the two side-optimal vertices
    (``_Session.side_optimal``; each agent's highest payoff is on one) and
    one optimal dual per subpar team (overpayment maximized); vertex duals
    and row slacks are >= 0 on the face. Both properties are asserted
    against the oracle's classes.
    """
    if instance.kind not in _EXTREME_KINDS:
        raise ValueError("the simultaneous imputation applies to assignment "
                         "and uniform-capacity kinds")
    face = DualFace(instance)
    witnesses = list(face._session.side_optimal)
    essentials = {q for q in instance.agents
                  if classify_player(instance, q) is ClassLabel.ESSENTIAL}
    subpars = {e.key for e in instance.edges
               if classify_team(instance, e.key) is ClassLabel.SUBPAR}
    # Row i of the dual program is edge i's; its slack is the overpayment.
    rows = list(zip(instance.edges, face.lp.constraints))
    witnesses += [face.optimize(row.coeffs, Sense.MAXIMIZE).values
                  for e, row in rows if e.key in subpars]
    k = F(len(witnesses))
    values = tuple(sum(column, ZERO) / k for column in zip(*witnesses))
    imp = _dual_payoffs(instance, values)
    for q in instance.agents:
        if (imp[q] > 0) != (q in essentials):
            raise ArithmeticError(f"simultaneous imputation mispays player {q}")
    for e, row in rows:
        if (row.activity(values) > row.rhs) != (e.key in subpars):
            raise ArithmeticError(f"simultaneous imputation mistreats team {e.key}")
    return imp
