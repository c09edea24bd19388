"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's pivot rule, and one
fraction-free elimination, ``eliminate`` (rank and determinant), for all
other exact linear algebra. Programs and results are ``fractions.Fraction``;
the tableau computes in integers, each row over one denominator (see
``_Tableau``). No rounding, no tolerances: identical inputs always produce
the identical basic optimal solution. The optimal face has one
representation, ``OptimalFace``: it solves once and answers each
secondary objective by phase 2 alone from the optimal basis, over the
columns whose reduced cost there is zero, with no row pinning its
objective to the optimum.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .rationals import ONE, ZERO, ensure_rational, scaled


class Sense(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction

    def activity(self, values: Sequence[Fraction]) -> Fraction:
        return sum((a * x for a, x in zip(self.coeffs, values)), ZERO)

    def satisfied_by(self, values: Sequence[Fraction]) -> bool:
        lhs = self.activity(values)
        if self.relation is Relation.LE:
            return lhs <= self.rhs
        if self.relation is Relation.GE:
            return lhs >= self.rhs
        return lhs == self.rhs

    def tight_at(self, values: Sequence[Fraction]) -> bool:
        return self.activity(values) == self.rhs


def _normalize_bounds(bounds, variables, default):
    if bounds is None:
        return tuple(default for _ in variables)
    if isinstance(bounds, Mapping):
        raise TypeError("bounds are None or one value per variable, not a mapping")
    seq = list(bounds)
    if len(seq) != len(variables):
        raise ValueError("bounds length does not match variable count")
    return tuple(None if v is None else ensure_rational(v) for v in seq)


class LinearProgram:
    """An immutable LP over named variables; a row is a ``Constraint`` or a
    ``(coeffs, relation, rhs)`` tuple, and is not named.

    Every variable has a finite lower bound: zero unless ``lower`` gives
    one value per variable. ``upper`` gives one value or None (no upper
    bound) per variable. A variable with no lower bound is refused, so the
    feasible set never contains a line and has a vertex whenever it is
    nonempty. Malformed input is rejected here, not at solve time.
    """

    def __init__(self, sense, variables, objective, constraints=(),
                 lower=None, upper=None):
        self.sense = sense if isinstance(sense, Sense) else Sense(sense)
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        n = len(self.variables)
        self.objective: tuple[Fraction, ...] = tuple(ensure_rational(c) for c in objective)
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")

        rows = []
        for i, item in enumerate(constraints):
            if isinstance(item, Constraint):
                con = item
            else:
                coeffs, relation, rhs = item
                relation = relation if isinstance(relation, Relation) else Relation(relation)
                con = Constraint(tuple(ensure_rational(a) for a in coeffs),
                                 relation, ensure_rational(rhs))
            if len(con.coeffs) != n:
                raise ValueError(f"constraint {i} has wrong arity")
            rows.append(con)
        self.constraints: tuple[Constraint, ...] = tuple(rows)

        self.lower = _normalize_bounds(lower, self.variables, ZERO)
        self.upper = _normalize_bounds(upper, self.variables, None)
        for name, lo, hi in zip(self.variables, self.lower, self.upper):
            if lo is None:
                raise ValueError(f"variable {name!r} has no finite lower bound")
            if hi is not None and lo > hi:
                raise ValueError(f"variable {name!r} has lower bound above upper bound")
        self._index = {name: j for j, name in enumerate(self.variables)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        return sum((c * x for c, x in zip(self.objective, values)), ZERO)

    def is_feasible(self, values: Sequence[Fraction]) -> bool:
        if len(values) != len(self.variables):
            return False
        for x, lo, hi in zip(values, self.lower, self.upper):
            if x < lo or (hi is not None and x > hi):
                return False
        return all(c.satisfied_by(values) for c in self.constraints)

    def with_extra_constraints(self, extra: Iterable) -> "LinearProgram":
        return LinearProgram(self.sense, self.variables, self.objective,
                             self.constraints + tuple(extra),
                             self.lower, self.upper)


@dataclass(frozen=True)
class LpSolution:
    status: Status
    variables: tuple[str, ...]
    value: Fraction | None = None
    values: tuple[Fraction, ...] | None = None
    basis: frozenset = frozenset()

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.variables)}

    def __getitem__(self, name: str) -> Fraction:
        if self.values is None:
            raise ValueError(f"no assignment available (status {self.status.value})")
        try:
            return self.values[self._positions[name]]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None


def _lowest(row: list[int], den: int) -> tuple[list[int], int]:
    """``row / den`` with the common factor of the row and ``den`` removed."""
    g = gcd(*row, den)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


class _Tableau:
    """Dense simplex tableau in standard form (equalities, xi >= 0).

    Column j < n is variable j shifted to its lower bound, ``xi_j = x_j -
    lower_j``; a finite upper bound adds the row ``xi_j <= upper_j -
    lower_j``. The slack columns of the inequality rows follow, in row
    order, and phase 1 appends its artificial columns after them and
    drops them again by position. So a basic solution is ``lower_j +
    xi_j`` and its basis is the columns below n.

    The arithmetic is in integers, fraction-free as in Edmonds (1967) and
    Bareiss (1968). Row i is a list of ints, its right-hand side last, over
    a positive denominator ``dens[i]``: the true row is
    ``rows[i] / dens[i]``, kept in lowest terms by dividing out the gcd of
    the row and its denominator. While a run lasts, the reduced-cost row,
    the objective value last, is one more such row. Since denominators are
    positive, sign and zero tests read the numerators, and Bland's ratio
    test compares ``b_i / a_i`` by cross-multiplying; so the pivot
    sequence, basis and vertex are exactly those of rational arithmetic.
    Only the values of an ``LpSolution`` are built as ``Fraction``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = len(lp.variables)
        system = []
        for con in lp.constraints:
            shift = sum((a * lo for a, lo in zip(con.coeffs, lp.lower) if a and lo), ZERO)
            system.append((con.coeffs, con.relation, con.rhs - shift))
        for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
            if hi is not None:
                unit = [0] * n
                unit[j] = 1
                system.append((unit, Relation.LE, hi - lo))

        # Slack columns, then sign-normalize right-hand sides and scale
        # each row to integers.
        self.slack_of_row = []
        self.ncols = n
        for _, rel, _ in system:
            if rel is Relation.EQ:
                self.slack_of_row.append(-1)
            else:
                self.slack_of_row.append(self.ncols)
                self.ncols += 1
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for (coeffs, rel, b), s in zip(system, self.slack_of_row):
            row = [*coeffs, *[0] * (self.ncols - n), b]
            if s >= 0:
                row[s] = 1 if rel is Relation.LE else -1
            if b < 0:
                row = [-a for a in row]
            row, den = scaled(row)
            self.rows.append(row)
            self.dens.append(den)

    # -- simplex core ------------------------------------------------------

    def _init_zrow(self, obj: Sequence[Fraction]) -> tuple[list[int], int]:
        """Reduced costs of maximizing ``obj`` at the current basis, with
        the objective value last, as (ints, den)."""
        cost, scale = scaled(obj)
        terms = [(cost[bj], self.rows[i], self.dens[i])
                 for i, bj in enumerate(self.basis) if cost[bj]]
        den = lcm(*(d for _, _, d in terms))
        zrow = [-c * den for c in cost]
        zrow.append(0)
        for c, row, d in terms:
            f = c * (den // d)
            zrow = [z + f * a for z, a in zip(zrow, row)]
        return _lowest(zrow, den * scale)

    def _pivot(self, leave: int, enter: int) -> None:
        rows, dens = self.rows, self.dens
        prow = rows[leave]
        p = prow[enter]
        if p != dens[leave]:
            # The pivot row divided by its pivot: p becomes its denominator.
            if p < 0:
                prow = [-a for a in prow]
                p = -p
            g = gcd(*prow)
            if g != 1:
                prow = [a // g for a in prow]
                p //= g
            rows[leave] = prow
            dens[leave] = p
        nz = [(j, a) for j, a in enumerate(prow) if a]
        for i, row in enumerate(rows):
            f = row[enter]
            if not f or i == leave:
                continue
            # row / den - (f / den) * (prow / p), over den * p / gcd(f, p).
            scale = 1
            if p != 1:
                g = gcd(f, p)
                scale = p // g
                f //= g
            if scale == 1:
                for j, a in nz:
                    row[j] -= f * a
            else:
                row = rows[i] = [scale * a - f * b for a, b in zip(row, prow)]
                dens[i] *= scale
            den = dens[i]
            if den != 1:
                rows[i], dens[i] = _lowest(row, den)
        self.basis[leave] = enter

    def _run(self, obj: Sequence[Fraction], allowed) -> tuple[str, list[int]]:
        """Maximize obj over the tableau with Bland's rule.

        Returns the status and the numerators of the final reduced-cost
        row, the objective value last, over a positive denominator.
        """
        rows, basis = self.rows, self.basis
        m = len(rows)
        zrow, zden = self._init_zrow(obj)
        rows.append(zrow)
        self.dens.append(zden)
        while True:
            zrow = rows[m]
            enter = -1
            for j in allowed:
                if zrow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                status = "optimal"
                break
            leave = -1
            for i in range(m):
                row = rows[i]
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave, best_b, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, row[-1], a
            if leave < 0:
                status = "unbounded"
                break
            self._pivot(leave, enter)
        rows.pop()
        self.dens.pop()
        return status, zrow

    def _phase1(self) -> bool:
        """Find a feasible basis and drop the artificial columns.

        Returns False when the program is infeasible.
        """
        rows, dens, ncols = self.rows, self.dens, self.ncols
        m = len(rows)

        # Phase 1 basis: row slacks where usable, artificials elsewhere.
        self.basis = [-1] * m
        for i in range(m):
            s = self.slack_of_row[i]
            if s >= 0 and rows[i][s] == dens[i]:
                self.basis[i] = s
        needy = [i for i in range(m) if self.basis[i] < 0]
        if not needy:
            return True
        for k, i in enumerate(needy):
            self.basis[i] = ncols + k
        for r, row in enumerate(rows):
            row[-1:-1] = [dens[r] if r == i else 0 for i in needy]

        phase1 = [ZERO] * ncols + [-ONE] * len(needy)
        _, zrow = self._run(phase1, range(len(phase1)))
        if zrow[-1] < 0:
            return False
        # Drive leftover artificials out of the basis; drop rows that
        # turn out to be redundant.
        keep = []
        for i in range(m):
            if self.basis[i] < ncols:
                keep.append(i)
                continue
            enter = next((j for j in range(ncols) if rows[i][j]), -1)
            if enter >= 0:
                self._pivot(i, enter)
                keep.append(i)
        # Remove the artificial columns, the last before the right-hand side.
        self.rows, self.dens = [], []
        for i in keep:
            row, den = _lowest(rows[i][:ncols] + rows[i][-1:], dens[i])
            self.rows.append(row)
            self.dens.append(den)
        self.basis = [self.basis[i] for i in keep]
        return True

    def optimize(self, objective: Sequence[Fraction], sense: Sense,
                 allowed) -> LpSolution:
        """Phase 2 from the current feasible basis, entering only ``allowed``
        columns. The final reduced-cost numerators are kept in
        ``self.reduced``."""
        lp = self.lp
        n = len(lp.variables)
        obj = [c if sense is Sense.MAXIMIZE else -c for c in objective]
        status, zrow = self._run(obj + [ZERO] * (self.ncols - n), allowed)
        self.reduced = zrow[:-1]
        if status == "unbounded":
            return LpSolution(Status.UNBOUNDED, lp.variables)

        values = list(lp.lower)
        for row, den, bj in zip(self.rows, self.dens, self.basis):
            if bj < n:
                values[bj] += Fraction(row[-1], den)
        values = tuple(values)
        basis_vars = frozenset(b for b in self.basis if b < n)
        value = sum((c * x for c, x in zip(objective, values)), ZERO)
        return LpSolution(Status.OPTIMAL, lp.variables, value, values, basis_vars)

    def fork(self) -> "_Tableau":
        """A copy whose pivots leave this tableau as it is."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.dens = self.dens[:]
        twin.basis = self.basis[:]
        return twin

    def solve(self) -> LpSolution:
        if not self._phase1():
            return LpSolution(Status.INFEASIBLE, self.lp.variables)
        return self.optimize(self.lp.objective, self.lp.sense, range(self.ncols))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve exactly; status is optimal, infeasible, or unbounded.

    An optimal assignment is a basic solution, and so a vertex of the
    feasible polyhedron: every variable is bounded below, so the
    polyhedron has no line and its basic solutions are its vertices.
    """
    return _Tableau(lp).solve()


class OptimalFace:
    """The optimal face of ``lp``, held as the final tableau of one solve.

    ``base`` is exactly ``solve(lp)``. At that optimal basis every reduced
    cost is of one sign, so a feasible point is optimal exactly when each
    column of nonzero reduced cost is zero. ``optimize`` therefore starts
    phase 2 from a copy of the optimal basis and lets only the columns of
    zero reduced cost enter (Bland's rule, same column order): no phase 1
    and no extra row. Its results are basic solutions, vertices of the
    face as ``solve``'s are of the polyhedron, and ``"unbounded"`` means
    the face has a ray along which the secondary objective improves. A
    question that fixes variables, rather than optimizing over the face,
    is one solve of ``lp`` with those variables' bounds fixed: the face
    meets the fixed set exactly when that optimum is ``base.value``.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._tableau = _Tableau(lp)
        self.base = self._tableau.solve()
        if self.base.status is Status.OPTIMAL:
            self._columns = [j for j, d in enumerate(self._tableau.reduced) if not d]

    def optimize(self, objective, sense) -> LpSolution:
        """Optimize a secondary objective over the optimal face."""
        if self.base.status is not Status.OPTIMAL:
            raise ValueError(f"base program is {self.base.status.value}, not optimal")
        objective = tuple(ensure_rational(c) for c in objective)
        if len(objective) != len(self.lp.variables):
            raise ValueError("objective length does not match variable count")
        sense = sense if isinstance(sense, Sense) else Sense(sense)
        return self._tableau.fork().optimize(objective, sense, self._columns)

    def extremum(self, objective, sense) -> Fraction | None:
        """The optimum over the face; None when the face has a ray along
        which the objective improves."""
        sol = self.optimize(objective, sense)
        return sol.value if sol.status is Status.OPTIMAL else None

    def range(self, objective) -> tuple[Fraction | None, Fraction | None]:
        """(min, max) over the face; an unbounded side is None."""
        return (self.extremum(objective, Sense.MINIMIZE),
                self.extremum(objective, Sense.MAXIMIZE))


def coordinate_range(lp: LinearProgram, name: str):
    """(min, max) of one variable over the optimal face.

    An unbounded side is reported as None. The ranges of all variables are
    degenerate (min = max) exactly when the optimum is unique.
    """
    unit = [ZERO] * len(lp.variables)
    unit[lp.index(name)] = ONE
    return OptimalFace(lp).range(unit)


def eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int | None]:
    """(rank, determinant) of integer rows; the determinant is None unless
    the matrix is square. Fraction-free elimination (Bareiss 1968): after
    k pivots each entry below them is a minor of order k + 1, so dividing
    by the previous pivot is exact, and the last pivot of a nonsingular
    square matrix is its determinant, negated once per row swap."""
    mat = [list(r) for r in rows]
    m, n = len(mat), len(mat[0]) if mat else 0
    rank, sign, prev = 0, 1, 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if mat[i][col]), -1)
        if piv < 0:
            continue
        if piv != rank:
            mat[rank], mat[piv], sign = mat[piv], mat[rank], -sign
        prow = mat[rank]
        p = prow[col]
        for i in range(rank + 1, m):
            f = mat[i][col]
            mat[i] = [(a * p - f * b) // prev for a, b in zip(mat[i], prow)]
        prev, rank = p, rank + 1
    if m != n:
        return rank, None
    return rank, sign * prev if rank == n else 0


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: ``eliminate`` on each row over its common denominator."""
    return eliminate([scaled(row)[0] for row in rows])[0]


def tight_rows_at(lp: LinearProgram, values: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    """Coefficient rows of all constraints and bounds tight at ``values``."""
    n = len(lp.variables)
    rows: list[tuple[Fraction, ...]] = []
    for con in lp.constraints:
        if con.tight_at(values):
            rows.append(con.coeffs)
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        if values[j] == lp.lower[j] or values[j] == lp.upper[j]:     # no value equals None
            rows.append(unit)
    return rows


def is_vertex(lp: LinearProgram, values: Sequence[Fraction]) -> bool:
    """True when ``values`` is feasible and a vertex of the polyhedron."""
    if not lp.is_feasible(values):
        return False
    rows = tight_rows_at(lp, values)
    n = len(lp.variables)
    return len(rows) >= n and rank_of_rows(rows) == n
