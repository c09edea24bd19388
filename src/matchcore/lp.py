"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's pivot rule, and one
fraction-free elimination, ``eliminate`` (rank and determinant), for all
other exact linear algebra. Programs and results are ``fractions.Fraction``,
but the arithmetic is in integers. A program is put into integers once:
each ``Constraint`` keeps its row over its smallest common denominator
and each ``LinearProgram`` its objective, both computed when they are
built, or written straight in by the formulations' trusted builders, and
the tableau (see ``_Tableau``) only copies those integers, so a row or
objective solved again is never scaled again; a program given in
integers alone is solved unbuilt (``LinearProgram._bland_part``). Phase 1 stores no
artificial column: each row owns one unit column, its slack or, for an
equality row, a column that no phase-2 run lets enter, and reads its
artificial off it; the objective's reduced-cost row rides through phase
1, so phase 2 starts where phase 1 stops. Activities and objective values
are ``rationals.dot``, one integer sum of products. Fractions are built
only at the layer's edge: the inputs, the ``values`` and ``value`` of an
``LpSolution``, and each ``dot``'s one result. No rounding, no
tolerances: identical inputs always produce the identical basic optimal
solution. The optimal face has one representation, ``OptimalFace``: it
solves once and answers each secondary objective by phase 2 alone from
the optimal basis, over the columns whose reduced cost there is zero,
and keeps each answer, keyed by the query's integers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .rationals import ONE, ZERO, dot, ensure_rational, scaled


class Sense(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


# Bound once: an enum member read off its class costs a lookup that the
# per-row loops of ``_Tableau`` and ``Constraint._holds_at`` would repeat.
_LE, _GE, _EQ = Relation.LE, Relation.GE, Relation.EQ


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


_UNITS = {1: ONE, -1: -ONE}


@dataclass(frozen=True, slots=True, init=False)
class Constraint:
    """The row ``coeffs . x  relation  rhs``. Building one coerces the
    relation to ``Relation`` and each number to ``Fraction`` (the
    package's TypeError on a float or a bool), and keeps the row in
    integers: ``_scaled_row`` is ``scaled([*coeffs, rhs])``, computed once
    here. The tableau copies it and ``is_feasible`` reads it; neither
    scales the row again. ``_signed`` writes a row of unit coefficients
    straight into integers: every row of ``build_primal``, of
    ``build_dual`` and of row generation (``analysis._core_optimum``).
    A coalition's dual rows are cut from the game's rows' kept integers
    and solved unbuilt by ``LinearProgram._bland_part``."""
    coeffs: tuple[Fraction, ...]
    relation: Relation
    rhs: Fraction
    _scaled_row: tuple[list[int], int] = field(repr=False, compare=False)

    def __init__(self, coeffs, relation, rhs):
        coeffs = tuple(map(ensure_rational, coeffs))
        rhs = ensure_rational(rhs)
        self._set(coeffs, relation if isinstance(relation, Relation) else Relation(relation),
                  rhs, scaled([*coeffs, rhs]))

    def _set(self, coeffs, relation, rhs, scaled_row) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "_scaled_row", scaled_row)

    @staticmethod
    def _signed(width: int, signs: Mapping[int, int], relation: Relation,
                rhs: Fraction) -> "Constraint":
        """The row with coefficient s (1 or -1) at each column of ``signs``
        ({column: s}), zero elsewhere, and the coerced ``rhs``. Its
        integers, ``scaled([*coeffs, rhs])``, are each s times the
        denominator of ``rhs`` and then its numerator: nothing is scaled."""
        den = rhs.denominator
        coeffs = [ZERO] * width
        ints = [0] * width
        for j, s in signs.items():
            coeffs[j] = _UNITS[s]
            ints[j] = s * den
        ints.append(rhs.numerator)
        row = object.__new__(Constraint)
        row._set(tuple(coeffs), relation, rhs, (ints, den))
        return row

    def activity(self, values: Sequence[Fraction]) -> Fraction:
        return dot(self.coeffs, values)

    def _holds_at(self, point: Sequence[int], scale: int) -> bool:
        """Whether the row holds at the point ``point / scale``: the sign of
        (activity - rhs) times the positive ``den * scale``, read off the
        kept integer row."""
        ints, _ = self._scaled_row
        gap = sum(map(mul, ints, point)) - ints[-1] * scale
        if self.relation is _LE:
            return gap <= 0
        if self.relation is _GE:
            return gap >= 0
        return gap == 0

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
    """An immutable LP over labelled columns, read by position (column j
    is entry j of every vector); a row is a ``Constraint`` or a
    ``(coeffs, relation, rhs)`` tuple, and is not named.

    Every variable has a finite lower bound: zero unless ``lower`` gives
    one value per variable. ``upper`` gives one value or None (no upper
    bound) per variable. A variable with no lower bound is refused, so the
    feasible set never contains a line and has a vertex whenever it is
    nonempty. Malformed input is rejected here, or by ``Constraint``, not
    at solve time. ``_scaled_objective`` is the objective as
    ``scaled(objective)``, and ``_shifted`` whether a lower bound is
    nonzero, both computed once here.
    """

    def __init__(self, sense, variables, objective, constraints=(),
                 lower=None, upper=None):
        self.sense = sense if isinstance(sense, Sense) else Sense(sense)
        self.variables: tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        n = len(self.variables)
        self.objective: tuple[Fraction, ...] = tuple(map(ensure_rational, objective))
        if len(self.objective) != n:
            raise ValueError("objective length does not match variable count")
        self._scaled_objective: tuple[list[int], int] = scaled(self.objective)

        rows = []
        for i, item in enumerate(constraints):
            if isinstance(item, Constraint):
                con = item
            else:
                coeffs, relation, rhs = item
                con = Constraint(coeffs, relation, rhs)
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
        self._shifted = any(self.lower)

    @staticmethod
    def _trusted(sense, variables, objective, scaled_objective, constraints,
                 lower, upper) -> "LinearProgram":
        """The program of parts already as ``__init__`` leaves them, with
        ``scaled_objective`` equal to ``scaled(objective)``, unchecked: the
        callers, ``build_primal``, ``build_dual`` and row generation's
        rounds (``analysis._core_optimum``), build every part soundly, each
        row through ``Constraint._signed``, and a valid instance's names
        (distinct, free of ',', '[' and ']') name distinct columns."""
        lp = object.__new__(LinearProgram)
        lp.sense, lp.variables, lp.objective = sense, variables, objective
        lp._scaled_objective = scaled_objective
        lp.constraints, lp.lower, lp.upper = constraints, lower, upper
        lp._shifted = any(lower)
        return lp

    @staticmethod
    def _bland_part(n: int, rows: Sequence[tuple[list[int], int]], costs: Sequence[int],
                    k: int) -> Fraction:
        """``costs[:k] . x``, one Fraction, at the vertex minimizing the
        integers ``costs`` over x >= 0 and the >= ``rows``, each (ints, den)
        as ``Constraint._scaled_row`` keeps one: ``solve``'s pivots on that
        program, never built. ValueError when it has no optimum."""
        tableau = object.__new__(_Tableau)
        tableau._start(n, rows, (_GE,) * len(rows), (), costs, 1)
        if not tableau._phase1() or tableau._run(tableau.rows.pop(), tableau.dens.pop(),
                                                  range(tableau.ncols))[0] is not None:
            raise ValueError("the program has no optimum")
        num, den = 0, 1
        for row, d, bj in zip(tableau.rows, tableau.dens, tableau.basis):
            if bj < k:
                num, den = num * d + costs[bj] * row[-1] * den, den * d
        return Fraction(num, den)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        return dot(self.objective, values)

    def is_feasible(self, values: Sequence[Fraction]) -> bool:
        """Within every bound and row; the point is scaled to integers once
        (TypeError on a float, rows or none) and each row's kept integers
        are read."""
        if len(values) != len(self.variables):
            return False
        ints, scale = scaled(values)
        for x, lo, hi in zip(values, self.lower, self.upper):
            if x < lo or (hi is not None and x > hi):
                return False
        return all(c._holds_at(ints, scale) for c in self.constraints)

    def with_extra_constraints(self, extra: Iterable) -> "LinearProgram":
        return LinearProgram(self.sense, self.variables, self.objective,
                             self.constraints + tuple(extra),
                             self.lower, self.upper)


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome; ``values`` and ``basis`` give columns by position."""
    status: Status
    value: Fraction | None = None
    values: tuple[Fraction, ...] | None = None
    basis: frozenset = frozenset()


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
    order, then those of the bound rows: these ``ncols`` columns are the
    program's. After them each equality row has one unit column, in row
    order, that no phase-2 run lets enter. So a basic solution is
    ``lower_j + xi_j``, its basis is the columns below n, and each row
    owns one unit column, ``unit[i]``: its slack or its equality column.

    Phase 1 stores no artificial column. The k-th row whose unit column
    cannot start the basis (an equality row, or a slack entry of -1: a
    >= row, or a <= row whose right-hand side was negated) reads its
    artificial off that column. An equality column is the artificial; a
    slack is minus it, and its phase-1 reduced cost is one minus the
    slack's. The artificial keeps the index ``ncols + k`` in the basis and
    in Bland's order, as if it were appended. When it enters, the pivot
    is on the slack, the pivot row is negated, and the pivot row over
    its pivot is added to the phase-1 reduced-cost row, since the two
    columns' phase-1 costs differ by one; the other rows need nothing.
    Phase 1's reduced-cost row starts as minus the sum of those rows.
    The objective's reduced-cost row rides along as one more row that no
    ratio test reads; at the starting basis it is minus the cost, and
    phase 2 starts from it where phase 1 stops.

    The arithmetic is in integers, fraction-free as in Edmonds (1967) and
    Bareiss (1968). Row i is a list of ints, its right-hand side last, over
    a positive denominator ``dens[i]``: the true row is
    ``rows[i] / dens[i]``. A row starts as a copy of its ``Constraint``'s
    kept integers, with plus or minus its denominator as its unit entry;
    when a lower bound is nonzero the right-hand side is shifted in
    integers, over the lower bounds' common denominator, and the row put
    in lowest terms again, so no row is scaled here. Every constraint row
    is so in one normal form: in lowest terms, with plus or minus its
    denominator in its basic column or, while its artificial is basic,
    in the unit column the artificial is read off. Each pivot keeps it:
    an updated row is put in lowest terms, and the pivot row divided by
    its pivot needs no gcd, since its entries, one of them plus or minus
    its old denominator, share no factor. While a run lasts, its
    reduced-cost row, the objective value last, is the last row. Since denominators are positive, sign and zero tests
    read the numerators, and Bland's ratio test compares ``b_i / a_i`` by
    cross-multiplying; so the pivot sequence, basis and vertex are
    exactly those of rational arithmetic. The objective value is read off
    the final reduced-cost row, plus ``objective . lower`` (one ``dot``)
    when a lower bound is nonzero; so only the ``values`` and ``value`` of
    an ``LpSolution`` are built as ``Fraction``, besides the ``dot``
    results that shift by the bounds.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        rows = [con._scaled_row for con in lp.constraints]
        if lp._shifted:
            # rhs - coeffs . lower, over den * lscale, in lowest terms.
            lows, lscale = scaled(lp.lower)
            rows = [_lowest([a * lscale for a in ints[:-1]]
                            + [ints[-1] * lscale - sum(map(mul, ints, lows))], den * lscale)
                    for ints, den in rows]
        ints, scale = lp._scaled_objective
        self._start(len(lp.variables), rows, [con.relation for con in lp.constraints],
                    [(j, hi - lo) for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper))
                     if hi is not None],
                    ints if lp.sense is Sense.MINIMIZE else [-c for c in ints], scale)

    def _start(self, n: int, rows: Sequence[tuple[list[int], int]],
               relations: Sequence[Relation], caps, costs: Sequence[int], scale: int) -> None:
        """The slack basis for minimizing ``costs / scale`` over n columns >= 0,
        row i ``rows[i]`` (coefficients and right-hand side over den, lowest
        terms) under ``relations[i]``, column j <= cap per (j, cap) of ``caps``."""
        # Unit columns: a slack per inequality row, then per upper bound,
        # then a column per equality row.
        self.unit = []
        slack = n
        equal = self.ncols = n + len(caps) + sum(r is not _EQ for r in relations)
        for relation in relations:
            if relation is _EQ:
                self.unit.append(equal)
                equal += 1
            else:
                self.unit.append(slack)
                slack += 1
        self.unit += range(slack, self.ncols)
        self.width = equal

        # Each row copies its integers, right-hand sides made >= 0.
        zeros = [0] * (equal - n)
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for (ints, den), relation, u in zip(rows, relations, self.unit):
            row = [*ints]
            row[-1:-1] = zeros
            if relation is not _EQ:
                row[u] = den if relation is _LE else -den
            if row[-1] < 0:
                row = [-a for a in row]
            if relation is _EQ:
                row[u] = den
            self.rows.append(row)
            self.dens.append(den)
        for (j, cap), u in zip(caps, self.unit[len(rows):]):
            row = [0] * (equal + 1)
            row[j] = row[u] = cap.denominator
            row[-1] = cap.numerator
            self.rows.append(row)
            self.dens.append(cap.denominator)
        # At the starting basis, slacks and artificials, every cost is zero.
        self.rows.append([*costs] + [0] * (equal - n + 1))
        self.dens.append(scale)

    # -- simplex core ------------------------------------------------------

    def _pivot(self, leave: int, enter: int) -> None:
        """Make column ``enter`` basic in row ``leave``; an index from
        ``ncols`` on is phase 1's artificial, read off its unit column."""
        rows, dens = self.rows, self.dens
        column = enter if enter < self.ncols else self.artificial[enter - self.ncols]
        prow = rows[leave]
        p = prow[column]
        if p != dens[leave]:
            # The pivot row divided by its pivot: p becomes its
            # denominator, in lowest terms by the normal form.
            if p < 0:
                prow = [-a for a in prow]
                p = -p
            rows[leave] = prow
            dens[leave] = p
        nz = [(j, a) for j, a in enumerate(prow) if a]
        for i, row in enumerate(rows):
            f = row[column]
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
        if column < self.ncols <= enter:
            # The artificial is minus the slack, at a phase-1 cost one
            # lower: its row is the slack's negated, and the phase-1 row,
            # last, gains the slack's row.
            z, zden = rows[-1], dens[-1]
            den = lcm(zden, p)
            fz, fp = den // zden, den // p
            rows[-1], dens[-1] = _lowest([fz * a + fp * b for a, b in zip(z, prow)], den)
            rows[leave] = [-a for a in prow]
        self.basis[leave] = enter

    def _run(self, zrow, zden, allowed, artificial=()) -> tuple[int | None, list[int], int]:
        """Bland's rule on the reduced-cost row ``zrow / zden``, the last row
        while the run lasts, over the rows of the basis: the first column
        of ``allowed`` with a negative reduced cost enters, then the first
        artificial that has one, by unit column, ``artificial`` (phase 1
        only). Returns the ray's entering column (None at an optimum) and
        the final reduced-cost row and denominator, taken off the rows."""
        rows, dens, basis, ncols = self.rows, self.dens, self.basis, self.ncols
        m = len(basis)
        rows.append(zrow)
        dens.append(zden)
        while True:
            zrow = rows[-1]
            for j in allowed:
                if zrow[j] < 0:
                    enter = column = j
                    break
            else:
                zden = dens[-1]
                for k, column in enumerate(artificial):
                    # An equality column is its artificial; a slack is
                    # minus it, at reduced cost one minus the slack's.
                    if zrow[column] < 0 if column >= ncols else zrow[column] > zden:
                        enter = ncols + k
                        break
                else:
                    return None, rows.pop(), dens.pop()
            negated = column < ncols <= enter
            leave = -1
            for i in range(m):
                row = rows[i]
                a = -row[column] if negated else row[column]
                if a > 0:
                    if leave < 0:
                        leave, best_b, best_a = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, row[-1], a
            if leave < 0:
                return column, rows.pop(), dens.pop()
            self._pivot(leave, enter)

    def _phase1(self) -> bool:
        """Find a feasible basis, carrying the objective's row, the last,
        along. Returns False when the program is infeasible."""
        rows, dens, ncols = self.rows, self.dens, self.ncols
        # Phase 1 basis: slacks of entry 1 where they are, artificials
        # elsewhere.
        self.basis, needy = [], []
        for i, u in enumerate(self.unit):
            if u < ncols and rows[i][u] == dens[i]:
                self.basis.append(u)
            else:
                self.basis.append(ncols + len(needy))
                needy.append(i)
        if not needy:
            return True
        self.artificial = [self.unit[i] for i in needy]
        # Minus the sum of the needy rows; an equality column's reduced
        # cost, its own cost of -1 added back, is zero.
        den = lcm(*(dens[i] for i in needy))
        zrow = [-sum(col) for col in zip(*(
            rows[i] if dens[i] == den else [a * (den // dens[i]) for a in rows[i]]
            for i in needy))]
        for u in self.artificial:
            if u >= ncols:
                zrow[u] = 0
        _, zrow, _ = self._run(*_lowest(zrow, den), range(ncols), self.artificial)
        if zrow[-1] < 0:
            return False
        # Drive leftover artificials out of the basis; drop rows that
        # turn out to be redundant.
        keep = []
        for i, bj in enumerate(self.basis):
            if bj < ncols:
                keep.append(i)
                continue
            enter = next((j for j in range(ncols) if rows[i][j]), -1)
            if enter >= 0:
                self._pivot(i, enter)
                keep.append(i)
        if len(keep) < len(self.basis):
            self.rows = [rows[i] for i in keep] + [rows[-1]]
            self.dens = [dens[i] for i in keep] + [dens[-1]]
            self.basis = [self.basis[i] for i in keep]
            self.unit = [self.unit[i] for i in keep]
        return True

    def _phase2(self, zrow: list[int], zden: int, objective: tuple[Sequence[int], int],
                sense: Sense, allowed) -> LpSolution:
        """Phase 2 from the current feasible basis and the objective's
        reduced-cost row ``zrow / zden``, entering only ``allowed``
        columns. ``objective`` is (ints, scale) like ``scaled``'s result.
        The final reduced-cost numerators of the program's columns are
        kept in ``self.reduced``; the row's last entry over its
        denominator is the value of the objective at the shifted vertex."""
        ray, zrow, zden = self._run(zrow, zden, allowed)
        self.reduced = zrow[:self.ncols]
        if ray is not None:
            return LpSolution(Status.UNBOUNDED)
        return self._vertex(objective, sense, zrow[-1], zden)

    def _vertex(self, objective: tuple[Sequence[int], int], sense: Sense,
                znum: int, zden: int) -> LpSolution:
        """The current basic solution for ``objective`` (ints, scale), whose
        value at the shifted vertex, the last entry of the objective's
        reduced-cost row at this basis, is ``znum / zden``."""
        lp = self.lp
        n = len(lp.variables)
        values = [ZERO] * n
        for row, den, bj in zip(self.rows, self.dens, self.basis):
            if bj < n:
                values[bj] = Fraction(row[-1], den)
        basis_vars = frozenset(b for b in self.basis if b < n)
        value = Fraction(znum if sense is Sense.MAXIMIZE else -znum, zden)
        if lp._shifted:
            ints, scale = objective
            values = [lo + x for lo, x in zip(lp.lower, values)]
            value += dot(ints, lp.lower) / scale
        return LpSolution(Status.OPTIMAL, value, tuple(values), basis_vars)

    def _cost_row(self, cost: Sequence[int], scale: int) -> tuple[list[int], int]:
        """The reduced-cost row (row, den) of maximizing ``cost / scale``, zero
        past its end, at this basis: minus it plus each basic row times its cost."""
        terms = [(cost[bj], self.rows[i], self.dens[i])
                 for i, bj in enumerate(self.basis) if bj < len(cost) and cost[bj]]
        den = lcm(*(d for _, _, d in terms))
        zrow = [-c * den for c in cost] + [0] * (self.width - len(cost) + 1)
        for c, row, d in terms:
            f = c * (den // d)
            zrow = [z + f * a for z, a in zip(zrow, row)]
        return _lowest(zrow, den * scale)

    def optimize(self, objective: tuple[Sequence[int], int], sense: Sense,
                 allowed) -> LpSolution:
        """Phase 2 from the current feasible basis for ``objective``, given
        as (ints, scale) like ``scaled``'s result, entering only ``allowed``
        columns; see ``_phase2``. When no allowed column has a negative
        reduced cost (``_cost_row``) Bland's rule would enter none, so the
        current vertex is the answer and this tableau is left as it is;
        otherwise phase 2 runs on a ``fork``."""
        ints, scale = objective
        zrow, zden = self._cost_row(ints if sense is Sense.MAXIMIZE else [-c for c in ints],
                                    scale)
        if not any(zrow[j] < 0 for j in allowed):
            return self._vertex(objective, sense, zrow[-1], zden)
        return self.fork()._phase2(zrow, zden, objective, sense, allowed)

    def fork(self) -> "_Tableau":
        """A copy whose pivots leave this tableau as it is."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.dens = self.dens[:]
        twin.basis = self.basis[:]
        return twin

    def solve(self) -> LpSolution:
        if not self._phase1():
            return LpSolution(Status.INFEASIBLE)
        lp = self.lp
        return self._phase2(self.rows.pop(), self.dens.pop(), lp._scaled_objective,
                            lp.sense, range(self.ncols))


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
    phase 2 from the optimal basis and lets only the columns of zero
    reduced cost enter (Bland's rule, same column order): no phase 1, no
    extra row, and a copy of the tableau only when a column enters. Its
    results are basic solutions, vertices of the face as ``solve``'s are
    of the polyhedron, and ``"unbounded"`` means the face has a ray along
    which the secondary objective improves. A question that fixes
    variables is one solve of ``lp`` with their bounds fixed: the face
    meets the fixed set exactly when that optimum is ``base.value``. Each
    answer of ``optimize`` is kept and handed out again for the same
    objective and sense; an ``LpSolution`` is frozen, so sharing it is
    safe. ``support``, kept too, is read off the base vertex and then one
    ``fork``: each round, one phase-2 run, maximizes the sum of the
    coordinates not yet seen positive and ends on a vertex that shows
    one, at zero (the next round enters nothing), or on a ray, which
    raises its entering column and each basic column negative in it.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self._tableau = _Tableau(lp)
        self.base = self._tableau.solve()
        self._answers: dict[tuple, LpSolution] = {}
        self._support = None
        if self.base.status is Status.OPTIMAL:
            self._columns = [j for j, d in enumerate(self._tableau.reduced) if not d]

    def support(self) -> tuple[frozenset[int], frozenset[int]]:
        """(columns, rows): the positions of the columns above their lower
        bound and of the inequality rows with slack somewhere on the face,
        all at one point of it (Goldman and Tucker 1956)."""
        if self._support is None:
            if self.base.status is not Status.OPTIMAL:
                raise ValueError(f"base program is {self.base.status.value}, not optimal")
            n, tableau, seen = len(self.lp.variables), self._tableau.fork(), set()
            rows = [i for i, con in enumerate(self.lp.constraints) if con.relation is not _EQ]
            while True:
                seen.update(bj for row, bj in zip(tableau.rows, tableau.basis) if row[-1] > 0)
                # The columns, then the slacks of the inequality rows.
                zrow, zden = tableau._cost_row(
                    [int(j not in seen) for j in range(n + len(rows))], 1)
                if not any(zrow[j] < 0 for j in self._columns):
                    break
                ray = tableau._run(zrow, zden, self._columns)[0]
                if ray is not None:
                    seen.update((ray,), (bj for row, bj in zip(tableau.rows, tableau.basis)
                                         if row[ray] < 0))
            self._support = (frozenset(j for j in seen if j < n),
                             frozenset(i for k, i in enumerate(rows) if n + k in seen))
        return self._support

    def optimize(self, objective, sense) -> LpSolution:
        """Optimize a secondary objective over the optimal face."""
        if self.base.status is not Status.OPTIMAL:
            raise ValueError(f"base program is {self.base.status.value}, not optimal")
        ints, scale = scaled(tuple(map(ensure_rational, objective)))
        if len(ints) != len(self.lp.variables):
            raise ValueError("objective length does not match variable count")
        sense = sense if isinstance(sense, Sense) else Sense(sense)
        # Scaled once and keyed by its integers: ``scaled`` gives the
        # smallest common denominator, so equal objectives give equal keys,
        # and ints hash far faster than a Fraction.
        key = (tuple(ints), scale, sense)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._tableau.optimize(
                (ints, scale), sense, self._columns)
        return answer

    def extremum(self, objective, sense) -> Fraction | None:
        """The optimum over the face; None when the face has a ray along
        which the objective improves."""
        sol = self.optimize(objective, sense)
        return sol.value if sol.status is Status.OPTIMAL else None

    def range(self, objective) -> tuple[Fraction | None, Fraction | None]:
        """(min, max) over the face; an unbounded side is None."""
        return (self.extremum(objective, Sense.MINIMIZE),
                self.extremum(objective, Sense.MAXIMIZE))


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
