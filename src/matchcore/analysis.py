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
from itertools import combinations
from operator import mul
from typing import Iterator, Mapping

from .caps import check_instance_size
from .formulations import (
    build_dual,
    lower_dual_var,
    upper_dual_var,
    vertex_dual_var,
)
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
    InfeasibleInstanceError,
    classify_player,
    classify_team,
    is_degenerate,
    optimal_weight,
    worth,
)
from .rationals import ONE, ZERO, ensure_rational, scaled

F = Fraction


@dataclass(frozen=True)
class DualSolution:
    """One point of the dual program of ``instance``.

    ``values`` holds one value per column of ``build_dual(instance)``, in
    its column order: a vertex dual per agent, then, for the
    bounds-capacity kind, each edge's lower-bound dual followed by its
    upper-bound dual when the edge has an upper bound. Lookups go by
    column index; a bound dual with no column reads as zero.
    """
    instance: GameInstance
    values: tuple[Fraction, ...]

    @cached_property
    def _program(self) -> LinearProgram:
        return _optimal_face(self.instance).lp

    def vertex(self, q: str) -> Fraction:
        return self.values[self._program.index(vertex_dual_var(q))]

    def _bound(self, name: str) -> Fraction:
        try:
            return self.values[self._program.index(name)]
        except ValueError:
            return ZERO

    def lower(self, key: EdgeKey) -> Fraction:
        return self._bound(lower_dual_var(key))

    def upper(self, key: EdgeKey) -> Fraction:
        return self._bound(upper_dual_var(key))


def make_dual(instance: GameInstance, vertex_duals: Mapping[str, Fraction],
              lower: Mapping[EdgeKey, Fraction] | None = None,
              upper: Mapping[EdgeKey, Fraction] | None = None) -> DualSolution:
    """Build a DualSolution from mappings; absent entries are zero.

    Raises ValueError for an entry with no column in the dual program: an
    unknown agent, an edge key the instance does not have (reversed keys
    included), or a lower or upper entry on an edge without that bound dual.
    Raises InfeasibleInstanceError when the dual program has no optimum.
    """
    lp = _optimal_face(instance).lp
    values = [ZERO] * len(lp.variables)

    def put(name: str, value, what: str) -> None:
        try:
            j = lp.index(name)
        except ValueError:
            raise ValueError(f"{what} has no column in the dual program") from None
        values[j] = ensure_rational(value)

    for q, value in vertex_duals.items():
        put(vertex_dual_var(q), value, f"agent {q!r}")
    for column, entries, what in ((lower_dual_var, lower, "lower"),
                                  (upper_dual_var, upper, "upper")):
        for key, value in (entries or {}).items():
            instance.edge(key)
            put(column(key), value, f"the {what} bound of edge {key!r}")
    return DualSolution(instance, tuple(values))


@lru_cache(maxsize=50_000)
def _optimal_face(instance: GameInstance) -> OptimalFace:
    """The one solve of the instance's dual program, shared by every query."""
    face = OptimalFace(build_dual(instance))
    if face.base.status is not Status.OPTIMAL:
        raise InfeasibleInstanceError(
            "the matching program has no finite optimum (infeasible bounds)")
    return face


def primal_optimum(instance: GameInstance) -> Fraction:
    """Optimal value of the fractional matching program (= dual optimum)."""
    return _optimal_face(instance).base.value


def optimal_dual(instance: GameInstance) -> DualSolution:
    """The deterministic optimal dual: the solver's Bland-rule vertex."""
    return DualSolution(instance, _optimal_face(instance).base.values)


def is_optimal_dual(instance: GameInstance, d: DualSolution) -> bool:
    """Feasible for the dual program and exactly optimal in value."""
    if d.instance != instance:
        raise ValueError("dual solution belongs to another instance")
    face = _optimal_face(instance)
    return face.lp.is_feasible(d.values) and face.lp.evaluate(d.values) == face.base.value


def _surplus_weights(instance: GameInstance) -> tuple[Fraction, ...]:
    """The surplus, the total paid out, as a functional on the dual columns:
    the vertex part of ``build_dual``'s objective, zero on bound duals."""
    objective = _optimal_face(instance).lp.objective
    n = len(instance.agents)
    return objective[:n] + (ZERO,) * (len(objective) - n)


def _surplus(d: DualSolution) -> Fraction:
    return sum(map(mul, _surplus_weights(d.instance), d.values), ZERO)


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
    concurrent (fractional and integral optima agree), so that is
    enforced.
    """
    if not is_optimal_dual(instance, d):
        raise ValueError("dual solution is not optimal")
    if instance.kind is GameKind.GENERAL and not is_concurrent(instance):
        raise ValueError("not concurrent: optimal covers are not imputations")
    payoffs = {q: F(instance.capacity(q)) * d.vertex(q) for q in instance.agents}
    return make_imputation(instance, payoffs)


# ---------------------------------------------------------------------------
# The optimal dual face.
# ---------------------------------------------------------------------------

class DualFace:
    """Exact scans over the set of optimal dual solutions of one instance.

    A thin view over the instance's one ``OptimalFace``: the dual program
    is solved once per instance, and that solve serves ``optimal_dual``,
    ``primal_optimum``, ``is_optimal_dual`` and every ``DualFace`` built
    for the instance. Its queries, ``optimize`` and ``extremum``, are the
    engine's own methods and take one coefficient per column of
    ``build_dual(instance)``. D(I) membership fixes columns instead, so
    ``in_dual_image`` solves the program once with changed bounds and
    compares optima.
    """

    def __init__(self, instance: GameInstance):
        self.instance = instance
        self._engine = _optimal_face(instance)
        self.lp, self.base = self._engine.lp, self._engine.base
        self.optimize, self.extremum = self._engine.optimize, self._engine.extremum

    def vertex_coeffs(self, q: str) -> list[Fraction]:
        """The functional reading agent q's vertex dual."""
        coeffs = [ZERO] * len(self.lp.variables)
        coeffs[self.lp.index(vertex_dual_var(q))] = ONE
        return coeffs

    def vertex_range(self, q: str) -> tuple[Fraction | None, Fraction | None]:
        return self._engine.range(self.vertex_coeffs(q))

    def max_overpayment(self, key: EdgeKey) -> Fraction | None:
        """Max slack of the edge's dual row over the face; None = unbounded."""
        row = self.lp.constraints[self.instance.edges.index(self.instance.edge(key))]
        top = self.extremum(row.coeffs, Sense.MAXIMIZE)
        return None if top is None else top - row.rhs


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


def _coalition_demands(instance: GameInstance) -> Iterator[
        tuple[tuple[str, ...], Fraction, DualSolution | None]]:
    """The coalition rows of the core with their demands, lazily.

    Yields (members, demand, dual) in size-then-lexicographic order
    (agents in instance order). With every capacity one the rows are the
    proper edge pairs: v(S) is the weight of a matching in S, so payoffs
    >= 0 paying every edge pay every coalition (Shapley and Shubik 1971;
    Deng, Ibaraki and Nagamochi 1999). Else the rows are the closed proper
    coalitions, each member with a neighbour inside, and each demands what
    its own sub-game yields: its worth or, for the bounds-capacity kind,
    the surplus under the Bland-rule optimal dual of its sub-game, so
    repeated runs agree; that dual is yielded too (else None). Any other
    coalition demands what its closed part, its members on an inner edge,
    demands: a member on no inner edge adds nothing to a matching, and to
    the dual a column with no row entry and cost >= 0, which Bland's rule
    never enters (Bland 1977). Paid no less than that part under payoffs
    >= 0, it needs no row of its own.
    """
    agents = instance.agents
    at = {q: j for j, q in enumerate(agents)}
    hk = instance.kind is GameKind.HOFFMAN_KRUSKAL
    if not hk and all(instance.capacity(q) == 1 for q in agents):
        pairs = sorted((*sorted((at[e.u], at[e.v])), e.weight) for e in instance.edges)
        for i, j, w in pairs if len(agents) > 2 else ():    # a proper pair
            yield (agents[i], agents[j]), w, None
        return
    near = [0] * len(agents)        # bit k of near[j]: agents j and k share an edge
    for e in instance.edges:
        near[at[e.u]] |= 1 << at[e.v]
        near[at[e.v]] |= 1 << at[e.u]
    for size in range(2, len(agents)):
        for picked in combinations(range(len(agents)), size):
            mask = sum(1 << j for j in picked)
            if not all(near[j] & mask for j in picked):
                continue
            members = tuple(agents[j] for j in picked)
            if hk:
                d = optimal_dual(restrict(instance, members))
                yield members, _surplus(d), d
            else:
                yield members, worth(instance, members), None


def _grand_range(instance: GameInstance) -> tuple[Fraction, Fraction | None]:
    """The totals the grand coalition may be paid, as (lo, hi).

    Non-bounds kinds: the worth at both ends. Bounds-capacity kind: the
    surplus under some optimal dual, i.e. the capacity-weighted sum of its
    vertex duals. Over the convex optimal dual face that sum takes exactly
    the values between its minimum and its maximum, two phase-2 queries.
    Vertex duals are >= 0, so the minimum is finite; an unbounded maximum
    is None.
    """
    if instance.kind is not GameKind.HOFFMAN_KRUSKAL:
        w = optimal_weight(instance)
        return w, w
    return _optimal_face(instance).range(_surplus_weights(instance))


def _payoffs(instance: GameInstance, imp: Imputation) -> list[Fraction]:
    """The imputation's payoffs in agent order; ValueError unless it pays
    exactly the instance's agents, each at least zero."""
    if imp.as_dict.keys() != set(instance.agents):
        raise ValueError("imputation pays other agents than the instance's")
    for q in instance.agents:
        if imp[q] < 0:
            raise ValueError(f"negative payoff for {q!r}")
    return [imp[q] for q in instance.agents]


def is_core_imputation(instance: GameInstance, imp: Imputation) -> CoreVerdict:
    """Exact core membership over the coalition rows of ``_coalition_demands``.

    The imputation must pay exactly the instance's agents, each at least
    zero (else ValueError), and its total must lie in the grand range
    (``_grand_range``): the worth, or for the bounds-capacity kind the
    surplus under some optimal dual; outside it the grand coalition is the
    witness, with the violated end as its demand. A coalition blocks when
    it can generate strictly more on its own (its worth, or for the
    bounds-capacity kind deterministic surplus) than it is allocated.
    The first blocking coalition in size-then-lexicographic order is
    returned as the witness. It is a row of ``_coalition_demands``: the
    closed part of a blocking coalition comes no later, demands as much
    and is paid no more, so it blocks too. With every capacity one that
    is an edge pair, and for the bounds-capacity kind ``witness_dual`` is
    the dual of the witness's own sub-game.
    """
    agents = instance.agents
    check_instance_size(len(agents), len(instance.edges))
    payoffs = _payoffs(instance, imp)
    lo, hi = _grand_range(instance)
    total = imp.total
    if total < lo or (hi is not None and total > hi):
        return CoreVerdict(False, frozenset(agents), lo if total < lo else hi, total, None)
    ints, scale = scaled(payoffs)
    pay = dict(zip(agents, ints))
    for members, demand, d in _coalition_demands(instance):
        paid = sum(pay[q] for q in members)
        if demand.numerator * scale > paid * demand.denominator:
            return CoreVerdict(False, frozenset(members), demand, F(paid, scale), d)
    return CoreVerdict(True)


def in_dual_image(instance: GameInstance, imp: Imputation) -> bool:
    """Membership in D(I): does some optimal dual map to these payoffs?

    Decided exactly by one solve of the dual program with every vertex
    dual fixed, through its bounds, to payoff divided by capacity: that
    program's optimum equals the dual optimum exactly when some optimal
    dual has these vertex duals. ValueError unless ``imp`` pays exactly
    the instance's agents, each at least zero, so every fixed value lies
    within its column's bounds (lower 0, no upper).
    """
    if instance.kind not in BIPARTITE_KINDS:
        raise ValueError("the dual-image test applies to bipartite kinds")
    payoffs = _payoffs(instance, imp)
    face = _optimal_face(instance)
    lp = face.lp
    lower, upper = list(lp.lower), list(lp.upper)
    for q, payoff in zip(instance.agents, payoffs):
        j = lp.index(vertex_dual_var(q))
        lower[j] = upper[j] = payoff / F(instance.capacity(q))
    fixed = solve(LinearProgram(lp.sense, lp.variables, lp.objective,
                                lp.constraints, lower, upper))
    return fixed.status is Status.OPTIMAL and fixed.value == face.base.value


class _CoalitionCuts:
    """Exact row generation over the coalition rows of the core, those of
    ``_coalition_demands`` (edge pairs when every capacity is one, else
    the closed coalitions).

    The LP starts from the total rows alone: one equation when the grand
    range (``_grand_range``) is one value, else a row for each bounded
    end. After each solve the most violated coalition row (the first in
    size-then-lexicographic order on ties) is added, until the LP is
    infeasible or no row is violated (Dantzig, Fulkerson and Johnson 1954;
    Kelley 1960). A relaxed optimum that violates no row is optimal for
    the full system, and a vertex of the core because it is a vertex of a
    larger polyhedron. Rows found stay for later objectives. The LP keeps
    payoffs >= 0, so no coalition is more violated than its closed part,
    which comes no later: the rows of ``_coalition_demands`` are enough.
    """

    def __init__(self, instance: GameInstance):
        agents = instance.agents
        check_instance_size(len(agents), len(instance.edges))
        lo, hi = _grand_range(instance)
        ends = [(Relation.EQ, lo)] if lo == hi else [(Relation.GE, lo), (Relation.LE, hi)]
        self.instance = instance
        # Rows of demand <= 0 can never be violated by payoffs >= 0.
        self.table = [(members, demand)
                      for members, demand, _ in _coalition_demands(instance)
                      if demand > 0]
        self.rows = [Constraint(tuple(ONE for _ in agents), relation, end)
                     for relation, end in ends if end is not None]

    def row(self, entry) -> Constraint:
        members, demand = entry
        coeffs = tuple(ONE if q in members else ZERO for q in self.instance.agents)
        return Constraint(coeffs, Relation.GE, demand)

    def _most_violated(self, values: tuple[Fraction, ...]):
        ints, scale = scaled(values)
        pay = dict(zip(self.instance.agents, ints))
        # A row's excess is short / (den * scale), and scale is common to
        # every row, so rows compare by short / den, cross-multiplied.
        worst, gap, gap_den = None, 0, 1
        for entry in self.table:
            members, demand = entry
            den = demand.denominator
            short = demand.numerator * scale - sum(pay[q] for q in members) * den
            if short * gap_den > gap * den:
                worst, gap, gap_den = entry, short, den
        return worst

    def solve(self, objective, sense: Sense) -> LpSolution:
        """Optimize over the full core by adding violated rows as needed."""
        while True:
            sol = solve(LinearProgram(sense, self.instance.agents, objective, self.rows))
            if sol.status is not Status.OPTIMAL:
                return sol
            worst = self._most_violated(sol.values)
            if worst is None:
                return sol
            self.rows.append(self.row(worst))


def _imputation_from(instance: GameInstance, sol: LpSolution) -> Imputation:
    return make_imputation(instance, dict(zip(instance.agents, sol.values)))


def core_nonempty(instance: GameInstance) -> tuple[bool, Imputation | None]:
    """Balancedness, decided exactly by row generation.

    The core is {payoffs >= 0, total in the grand range, every proper
    coalition allocated at least its demand}: the same polyhedron whose
    membership ``is_core_imputation`` decides. The grand range is the
    worth, or for the bounds-capacity kind the surplus under some optimal
    dual; the demands are worths, or for that kind surpluses under the
    deterministic optimal duals of the sub-games; the edge rows (every
    capacity one) or the closed coalitions cut out the same core
    (``_coalition_demands``). Rows are
    added only when the current payoffs violate them, so the LP stays
    small; the verdict is the one the LP with every row gives. Returns
    (False, None) when the core is empty, else (True, a witness core
    imputation); which one, when the core has more than one point, is not
    specified.
    """
    cuts = _CoalitionCuts(instance)
    sol = cuts.solve([ZERO] * len(instance.agents), Sense.MINIMIZE)
    if sol.status is not Status.OPTIMAL:
        return False, None
    return True, _imputation_from(instance, sol)


def sample_core_vertices(instance: GameInstance, count: int, seed: int) -> list[Imputation]:
    """Distinct core vertices that maximize random rational objectives.

    For worth-based kinds only. Each of ``count`` objectives (integer
    coefficients in -9..9 drawn from ``seed``) is maximized over the core
    by the same row generation as ``core_nonempty``, keeping the coalition
    rows found for earlier objectives. When an objective has several
    optimal vertices, which one is returned is not specified. An empty
    core yields no vertices.
    """
    if instance.kind is GameKind.HOFFMAN_KRUSKAL:
        raise ValueError("payoff-space core polytope is for worth-based kinds")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, not {count}")
    cuts = _CoalitionCuts(instance)
    rng = random.Random(seed)
    seen = set()
    out = []
    for _ in range(count):
        objective = [F(rng.randint(-9, 9)) for _ in instance.agents]
        sol = cuts.solve(objective, Sense.MAXIMIZE)
        if sol.status is not Status.OPTIMAL:
            return out      # the core is empty, whatever the objective
        if sol.values not in seen:
            seen.add(sol.values)
            out.append(_imputation_from(instance, sol))
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
        objective = [F(rng.randint(-9, 9)) for _ in face.lp.variables]
        sol = face.optimize(objective, Sense.MAXIMIZE)
        if sol.status is not Status.OPTIMAL or sol.values in seen:
            continue
        seen.add(sol.values)
        out.append(DualSolution(instance, sol.values))
    if count and not out:
        out.append(DualSolution(instance, face.base.values))
    return out


# ---------------------------------------------------------------------------
# Complementarity: who gets paid, which teams are overpaid.
# ---------------------------------------------------------------------------

def paid_sometimes(instance: GameInstance, q: str,
                   face: DualFace | None = None) -> bool | None:
    """Is the agent paid under some dual-derived core imputation?

    True iff the agent's dual coordinate has positive maximum over the
    optimal dual face. On a non-concurrent general instance the core is
    empty and the distinguished outcome None is returned.
    """
    if instance.kind is GameKind.GENERAL and not is_concurrent(instance):
        return None
    face = _face_of(instance, face)
    top = face.extremum(face.vertex_coeffs(q), Sense.MAXIMIZE)
    return top is None or top > 0


def always_paid_fairly(instance: GameInstance, key: EdgeKey,
                       face: DualFace | None = None) -> bool | None:
    """Is the team's dual row tight under every optimal dual?

    The row slack is the overpayment: vertex duals (plus upper-bound dual,
    minus lower-bound dual, where present) beyond the edge weight. None is
    the distinguished empty-core outcome for non-concurrent general games.
    """
    if instance.kind is GameKind.GENERAL and not is_concurrent(instance):
        return None
    face = _face_of(instance, face)
    over = face.max_overpayment(key)
    return over == 0


def payoff_range(instance: GameInstance, q: str,
                 face: DualFace | None = None) -> tuple[Fraction | None, Fraction | None]:
    """Lowest and highest payoff of one agent across dual-derived imputations
    (ValueError on a non-concurrent general game, which has none)."""
    if instance.kind is GameKind.GENERAL and not is_concurrent(instance):
        raise ValueError("not concurrent: optimal covers are not imputations")
    face = _face_of(instance, face)
    lo, hi = face.vertex_range(q)
    b = F(instance.capacity(q))
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
    only (when concurrent) and record strict gaps.
    """
    kind = instance.kind
    general = kind is GameKind.GENERAL
    concurrent = is_concurrent(instance) if general else None
    # On an empty core the classes are oracle facts and still meaningful;
    # the payment verdicts get the distinguished outcome None unasked, and
    # the general checks below run only when ``concurrent`` is True.
    empty = general and not concurrent
    face = None if empty else DualFace(instance)
    degenerate = is_degenerate(instance)
    violations: list[str] = []
    gaps: list[str] = ["core is empty"] if empty else []

    players = []
    for q in instance.agents:
        label = classify_player(instance, q)
        paid = None if empty else paid_sometimes(instance, q, face)
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
    for e in instance.edges:
        label = classify_team(instance, e.key)
        fair = None if empty else always_paid_fairly(instance, e.key, face)
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
    (left-low, right-high), assembled from per-coordinate ranges over the
    optimal dual face and re-verified to be optimal duals."""
    if instance.kind not in _EXTREME_KINDS:
        raise ValueError("extreme imputations apply to assignment and "
                         "uniform-capacity kinds")
    face = _face_of(instance, face)
    ranges = {q: face.vertex_range(q) for q in instance.agents}
    left = set(instance.side_u)
    favor_left = make_dual(instance, {
        q: (hi if q in left else lo) for q, (lo, hi) in ranges.items()})
    favor_right = make_dual(instance, {
        q: (lo if q in left else hi) for q, (lo, hi) in ranges.items()})
    try:
        return (dual_to_imputation(instance, favor_left),
                dual_to_imputation(instance, favor_right))
    except ValueError:
        raise ArithmeticError("assembled extreme is not an optimal dual; this "
                              "contradicts the antipodal-imputation theorem") from None


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

    Averages, with equal weight, one witnessing optimal dual per essential
    player (coordinate maximized) and per subpar team (overpayment
    maximized); the required properties are asserted before returning.
    """
    if instance.kind not in _EXTREME_KINDS:
        raise ValueError("the simultaneous imputation applies to assignment "
                         "and uniform-capacity kinds")
    face = DualFace(instance)
    witnesses = []
    essentials = set()
    subpars = set()
    for q in instance.agents:
        if classify_player(instance, q) is ClassLabel.ESSENTIAL:
            essentials.add(q)
            witnesses.append(face.optimize(face.vertex_coeffs(q), Sense.MAXIMIZE))
    # Row i of the dual program is edge i's; its slack is the overpayment.
    rows = list(zip(instance.edges, face.lp.constraints))
    for e, row in rows:
        if classify_team(instance, e.key) is ClassLabel.SUBPAR:
            subpars.add(e.key)
            witnesses.append(face.optimize(row.coeffs, Sense.MAXIMIZE))
    if not witnesses:
        witnesses.append(face.base)
    k = F(len(witnesses))
    d = DualSolution(instance, tuple(sum(column, ZERO) / k
                                     for column in zip(*(w.values for w in witnesses))))
    imp = dual_to_imputation(instance, d)
    for q in instance.agents:
        if (imp[q] > 0) != (q in essentials):
            raise ArithmeticError(f"simultaneous imputation mispays player {q}")
    for e, row in rows:
        if (row.activity(d.values) > row.rhs) != (e.key in subpars):
            raise ArithmeticError(f"simultaneous imputation mistreats team {e.key}")
    return imp
