"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's pivot rule. Programs and results
are ``fractions.Fraction``; the tableau computes in integers, each row
over one denominator (see ``_Tableau``). The arithmetic is exact: no
rounding, no tolerances, and identical inputs always produce the
identical basic optimal solution. The optimal face has one
representation, ``OptimalFace``: it solves once and answers each
secondary objective by phase 2 alone from the optimal basis, over the
columns whose reduced cost there is zero. No program here gains a row
pinning its objective to the optimum.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .rationals import ONE, ZERO, ensure_rational


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
    name: str = ""

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
        out = []
        for name in variables:
            val = bounds.get(name, default)
            out.append(None if val is None else ensure_rational(val))
        return tuple(out)
    seq = list(bounds)
    if len(seq) != len(variables):
        raise ValueError("bounds length does not match variable count")
    return tuple(None if v is None else ensure_rational(v) for v in seq)


class LinearProgram:
    """An immutable LP over named variables.

    Variables default to a lower bound of zero. Pass ``lower={name: None}``
    (or a sequence containing None) for a free variable, and ``upper`` for
    finite upper bounds. Malformed input is rejected here, not at solve
    time.
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
        for item in constraints:
            if isinstance(item, Constraint):
                con = item
            else:
                coeffs, relation, rhs = item[0], item[1], item[2]
                name = item[3] if len(item) > 3 else ""
                relation = relation if isinstance(relation, Relation) else Relation(relation)
                con = Constraint(tuple(ensure_rational(a) for a in coeffs),
                                 relation, ensure_rational(rhs), name)
            if len(con.coeffs) != n:
                raise ValueError(f"constraint {con.name!r} has wrong arity")
            rows.append(con)
        self.constraints: tuple[Constraint, ...] = tuple(rows)

        self.lower = _normalize_bounds(lower, self.variables, ZERO)
        self.upper = _normalize_bounds(upper, self.variables, None)
        for name, lo, hi in zip(self.variables, self.lower, self.upper):
            if lo is not None and hi is not None and lo > hi:
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
            if lo is not None and x < lo:
                return False
            if hi is not None and x > hi:
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

    def as_dict(self) -> dict[str, Fraction]:
        if self.values is None:
            raise ValueError(f"no assignment available (status {self.status.value})")
        return dict(zip(self.variables, self.values))


# Internal column tags.
_STRUCTURAL = 0
_SLACK = 1
_ARTIFICIAL = 2


def _lowest(row: list[int], den: int) -> tuple[list[int], int]:
    """``row / den`` with the common factor of the row and ``den`` removed."""
    g = gcd(*row, den)
    if g == 1:
        return row, den
    return [a // g for a in row], den // g


def _integral(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` as (ints, den) over the smallest positive common ``den``."""
    den = lcm(*(a.denominator for a in values))
    return [a.numerator * (den // a.denominator) for a in values], den


class _Tableau:
    """Dense simplex tableau in standard form (equalities, xi >= 0).

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
        # Column encodings: x_j is recovered from structural columns via
        # x_j = shift + sign * xi (shifted/mirrored) or xi_plus - xi_minus.
        self.col_kind: list[int] = []
        self.col_var: list[int] = []          # original variable index, -1 for slack/artificial
        self.col_sign: list[int] = []
        self.var_mode: list[tuple] = []       # per original variable
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        bound_rows: list[tuple[int, Fraction]] = []   # (column, cap) meaning xi_col <= cap

        def new_col(kind, var=-1, sign=1) -> int:
            self.col_kind.append(kind)
            self.col_var.append(var)
            self.col_sign.append(sign)
            return len(self.col_kind) - 1

        for j in range(n):
            lo, hi = lp.lower[j], lp.upper[j]
            if lo is not None:
                col = new_col(_STRUCTURAL, j, 1)
                self.var_mode.append(("shift", col, lo))
                if hi is not None:
                    bound_rows.append((col, hi - lo))
            elif hi is not None:
                col = new_col(_STRUCTURAL, j, -1)
                self.var_mode.append(("shift", col, hi))
            else:
                cp = new_col(_STRUCTURAL, j, 1)
                cm = new_col(_STRUCTURAL, j, -1)
                self.var_mode.append(("split", cp, cm))
        self.n_structural = len(self.col_kind)

        def expand(coeffs: Sequence[Fraction], rel: Relation, b: Fraction):
            row = [ZERO] * self.n_structural
            shift_total = ZERO
            for j, a in enumerate(coeffs):
                if not a:
                    continue
                mode = self.var_mode[j]
                if mode[0] == "shift":
                    _, col, base = mode
                    sign = self.col_sign[col]
                    row[col] += a if sign == 1 else -a
                    shift_total += a * base
                else:
                    _, cp, cm = mode
                    row[cp] += a
                    row[cm] -= a
            rows.append(row)
            rhs.append(b - shift_total)
            return rel

        self.row_rel: list[Relation] = []
        for con in lp.constraints:
            self.row_rel.append(expand(con.coeffs, con.relation, con.rhs))
        for col, cap in bound_rows:
            row = [ZERO] * self.n_structural
            row[col] = ONE
            rows.append(row)
            rhs.append(cap)
            self.row_rel.append(Relation.LE)

        # Slack columns, then sign-normalize right-hand sides and scale
        # each row to integers.
        self.slack_of_row = [-1 if rel is Relation.EQ else new_col(_SLACK)
                             for rel in self.row_rel]
        n_slack = len(self.col_kind) - self.n_structural
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for i, rel in enumerate(self.row_rel):
            row = rows[i] + [0] * n_slack + [rhs[i]]
            s = self.slack_of_row[i]
            if s >= 0:
                row[s] = 1 if rel is Relation.LE else -1
            if rhs[i] < 0:
                row = [-a for a in row]
            row, den = _integral(row)
            self.rows.append(row)
            self.dens.append(den)

    # -- simplex core ------------------------------------------------------

    def _init_zrow(self, obj: Sequence[Fraction]) -> tuple[list[int], int]:
        """Reduced costs of maximizing ``obj`` at the current basis, with
        the objective value last, as (ints, den)."""
        cost, scale = _integral(obj)
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
        rows, dens = self.rows, self.dens
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
        artificials = []
        for i in needy:
            col = len(self.col_kind)
            self.col_kind.append(_ARTIFICIAL)
            self.col_var.append(-1)
            self.col_sign.append(1)
            artificials.append(col)
            self.basis[i] = col
        for r, row in enumerate(rows):
            row[-1:-1] = [dens[r] if r == i else 0 for i in needy]

        ncols = len(self.col_kind)
        phase1 = [ZERO] * ncols
        for col in artificials:
            phase1[col] = -ONE
        _, zrow = self._run(phase1, range(ncols))
        if zrow[-1] < 0:
            return False
        # Drive leftover artificials out of the basis; drop rows that
        # turn out to be redundant.
        art_set = set(artificials)
        keep = []
        for i in range(m):
            if self.basis[i] not in art_set:
                keep.append(i)
                continue
            enter = next((j for j in range(ncols)
                          if self.col_kind[j] != _ARTIFICIAL and rows[i][j]), -1)
            if enter >= 0:
                self._pivot(i, enter)
                keep.append(i)
        # Remove artificial columns entirely.
        live = [j for j in range(ncols) if self.col_kind[j] != _ARTIFICIAL]
        live.append(ncols)      # the right-hand side
        remap = {j: k for k, j in enumerate(live)}
        self.rows, self.dens = [], []
        for i in keep:
            row, den = _lowest([rows[i][j] for j in live], dens[i])
            self.rows.append(row)
            self.dens.append(den)
        self.col_kind = [self.col_kind[j] for j in live[:-1]]
        self.col_var = [self.col_var[j] for j in live[:-1]]
        self.col_sign = [self.col_sign[j] for j in live[:-1]]
        self.basis = [remap[self.basis[i]] for i in keep]
        return True

    def optimize(self, objective: Sequence[Fraction], sense: Sense,
                 allowed) -> LpSolution:
        """Phase 2 from the current feasible basis, entering only ``allowed``
        columns. The final reduced-cost numerators are kept in
        ``self.reduced``."""
        lp = self.lp
        ncols = len(self.col_kind)
        maximize = sense is Sense.MAXIMIZE
        obj = [ZERO] * ncols
        for j in range(ncols):
            v = self.col_var[j]
            if v >= 0:
                c = objective[v]
                obj[j] = (c if maximize else -c) * self.col_sign[j]
        status, zrow = self._run(obj, allowed)
        self.reduced = zrow[:-1]
        if status == "unbounded":
            return LpSolution(Status.UNBOUNDED, lp.variables)

        xi = [ZERO] * ncols
        for row, den, bj in zip(self.rows, self.dens, self.basis):
            xi[bj] = Fraction(row[-1], den)
        values = []
        for mode in self.var_mode:
            if mode[0] == "shift":
                _, col, base = mode
                values.append(base + xi[col] if self.col_sign[col] == 1 else base - xi[col])
            else:
                _, cp, cm = mode
                values.append(xi[cp] - xi[cm])
        values = tuple(values)
        basis_vars = frozenset(self.col_var[b] for b in self.basis if self.col_var[b] >= 0)
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
        return self.optimize(self.lp.objective, self.lp.sense,
                             range(len(self.col_kind)))


def solve(lp: LinearProgram) -> LpSolution:
    """Solve exactly; status is optimal, infeasible, or unbounded.

    Optimal assignments are basic solutions: vertices of the feasible
    polyhedron when no variable is free. A free x is split as x+ - x-, and
    the point found may then not be a vertex even if the polyhedron has one.
    """
    return _Tableau(lp).solve()


class OptimalFace:
    """The optimal face of ``lp``, held as the final tableau of one solve.

    ``base`` is exactly ``solve(lp)``. At that optimal basis every reduced
    cost is of one sign, so a feasible point is optimal exactly when each
    column of nonzero reduced cost is zero. ``optimize`` therefore starts
    phase 2 from a copy of the optimal basis and lets only the columns of
    zero reduced cost enter (Bland's rule, same column order): no phase 1
    and no extra row. Its results are basic solutions, as in ``solve``, and
    ``"unbounded"`` means the face has a ray along which the secondary
    objective improves. A question that fixes variables, rather than
    optimizing over the face, is one solve of ``lp`` with those variables'
    bounds fixed: the face meets the fixed set exactly when that optimum
    is ``base.value``.
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


def coordinate_range(lp: LinearProgram, name: str):
    """(min, max) of one variable over the optimal face.

    An unbounded side is reported as None. The ranges of all variables are
    degenerate (min = max) exactly when the optimum is unique.
    """
    j = lp.index(name)
    unit = [ZERO] * len(lp.variables)
    unit[j] = ONE
    face = OptimalFace(lp)
    hi = face.optimize(unit, Sense.MAXIMIZE)
    lo = face.optimize(unit, Sense.MINIMIZE)
    return (lo.value if lo.status is Status.OPTIMAL else None,
            hi.value if hi.status is Status.OPTIMAL else None)


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), -1)
        if piv < 0:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = ONE / prow[col]
        mat[rank] = prow = [a * inv for a in prow]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def tight_rows_at(lp: LinearProgram, values: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    """Coefficient rows of all constraints and bounds tight at ``values``."""
    n = len(lp.variables)
    rows: list[tuple[Fraction, ...]] = []
    for con in lp.constraints:
        if con.tight_at(values):
            rows.append(con.coeffs)
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        if lp.lower[j] is not None and values[j] == lp.lower[j]:
            rows.append(unit)
        elif lp.upper[j] is not None and values[j] == lp.upper[j]:
            rows.append(unit)
    return rows


def is_vertex(lp: LinearProgram, values: Sequence[Fraction]) -> bool:
    """True when ``values`` is feasible and a vertex of the polyhedron."""
    if not lp.is_feasible(values):
        return False
    rows = tight_rows_at(lp, values)
    n = len(lp.variables)
    return len(rows) >= n and rank_of_rows(rows) == n
