"""Exact linear programming over the rationals.

A two-phase primal simplex with Bland's pivot rule. All arithmetic is done
with ``fractions.Fraction``: no rounding, no tolerances, and identical
inputs always produce the identical basic optimal solution. Secondary
objectives over the optimal face are answered by ``OptimalFace``, which
solves once and then runs phase 2 alone from the optimal basis, over the
columns whose reduced cost there is zero.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
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

    def with_objective(self, objective, sense) -> "LinearProgram":
        return LinearProgram(sense, self.variables, objective,
                             self.constraints, self.lower, self.upper)

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


class _Tableau:
    """Dense simplex tableau in standard form (equalities, xi >= 0)."""

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

        # Slack columns, then sign-normalize right-hand sides.
        m = len(rows)
        self.slack_of_row = [-1] * m
        for i in range(m):
            rel = self.row_rel[i]
            if rel is Relation.EQ:
                continue
            col = new_col(_SLACK)
            for r in range(m):
                rows[r].append(ZERO)
            rows[i][col] = ONE if rel is Relation.LE else -ONE
            self.slack_of_row[i] = col
        for i in range(m):
            if rhs[i] < 0:
                rows[i] = [-a for a in rows[i]]
                rhs[i] = -rhs[i]
        self.rows = rows
        self.rhs = rhs

    # -- simplex core ------------------------------------------------------

    def _init_zrow(self, obj: list[Fraction]):
        ncols = len(self.col_kind)
        zrow = [-obj[j] for j in range(ncols)]
        zval = ZERO
        for i, bj in enumerate(self.basis):
            c = obj[bj]
            if c:
                row = self.rows[i]
                for j in range(ncols):
                    if row[j]:
                        zrow[j] += c * row[j]
                zval += c * self.rhs[i]
        return zrow, zval

    def _pivot(self, zrow, leave: int, enter: int):
        rows, rhs = self.rows, self.rhs
        prow = rows[leave]
        piv = prow[enter]
        if piv != ONE:
            inv = ONE / piv
            rows[leave] = prow = [a * inv for a in prow]
            rhs[leave] = rhs[leave] * inv
        nz = [j for j, a in enumerate(prow) if a]
        pb = rhs[leave]
        for i, row in enumerate(rows):
            if i == leave:
                continue
            f = row[enter]
            if f:
                for j in nz:
                    row[j] -= f * prow[j]
                if pb:
                    rhs[i] -= f * pb
        f = zrow[enter]
        delta = ZERO
        if f:
            for j in nz:
                zrow[j] -= f * prow[j]
            delta = f * pb
        self.basis[leave] = enter
        return delta

    def _run(self, obj: list[Fraction], allowed):
        """Maximize obj over the tableau with Bland's rule.

        Returns the status, the objective value and the final row of
        reduced costs.
        """
        zrow, zval = self._init_zrow(obj)
        rows, rhs, basis = self.rows, self.rhs, self.basis
        m = len(rows)
        while True:
            enter = -1
            for j in allowed:
                if zrow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", zval, zrow
            leave = -1
            best = None
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    r = rhs[i] / a
                    if best is None or r < best or (r == best and basis[i] < basis[leave]):
                        best = r
                        leave = i
            if leave < 0:
                return "unbounded", zval, zrow
            zval -= self._pivot(zrow, leave, enter)

    def _phase1(self) -> bool:
        """Find a feasible basis and drop the artificial columns.

        Returns False when the program is infeasible.
        """
        rows = self.rows
        m = len(rows)

        # Phase 1 basis: row slacks where usable, artificials elsewhere.
        self.basis = [-1] * m
        artificials = []
        for i in range(m):
            s = self.slack_of_row[i]
            if s >= 0 and rows[i][s] == ONE:
                self.basis[i] = s
        for i in range(m):
            if self.basis[i] >= 0:
                continue
            col = len(self.col_kind)
            self.col_kind.append(_ARTIFICIAL)
            self.col_var.append(-1)
            self.col_sign.append(1)
            for r in range(m):
                rows[r].append(ONE if r == i else ZERO)
            artificials.append(col)
            self.basis[i] = col
        if not artificials:
            return True

        ncols = len(self.col_kind)
        phase1 = [ZERO] * ncols
        for col in artificials:
            phase1[col] = -ONE
        _, zval, _ = self._run(phase1, range(ncols))
        if zval < 0:
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
                zrow_dummy = [ZERO] * ncols
                self._pivot(zrow_dummy, i, enter)
                keep.append(i)
        if len(keep) != m:
            rows = [rows[i] for i in keep]
            self.rhs = [self.rhs[i] for i in keep]
            self.basis = [self.basis[i] for i in keep]
        # Remove artificial columns entirely.
        live = [j for j in range(ncols) if self.col_kind[j] != _ARTIFICIAL]
        remap = {j: k for k, j in enumerate(live)}
        self.rows = [[row[j] for j in live] for row in rows]
        self.col_kind = [self.col_kind[j] for j in live]
        self.col_var = [self.col_var[j] for j in live]
        self.col_sign = [self.col_sign[j] for j in live]
        self.basis = [remap[b] for b in self.basis]
        return True

    def optimize(self, objective: Sequence[Fraction], sense: Sense,
                 allowed) -> LpSolution:
        """Phase 2 from the current feasible basis, entering only ``allowed``
        columns. The final reduced costs are kept in ``self.reduced``."""
        lp = self.lp
        ncols = len(self.col_kind)
        maximize = sense is Sense.MAXIMIZE
        obj = [ZERO] * ncols
        for j in range(ncols):
            v = self.col_var[j]
            if v >= 0:
                c = objective[v]
                obj[j] = (c if maximize else -c) * self.col_sign[j]
        status, _, self.reduced = self._run(obj, allowed)
        if status == "unbounded":
            return LpSolution(Status.UNBOUNDED, lp.variables)

        xi = [ZERO] * ncols
        for i, bj in enumerate(self.basis):
            xi[bj] = self.rhs[i]
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
        twin.rhs = self.rhs[:]
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
    objective improves.
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


def optimal_face(lp: LinearProgram, base: LpSolution | None = None) -> LinearProgram:
    """The optimal face of ``lp`` as an LP: ``lp`` plus the row
    "objective = optimal value". Used where further rows are added."""
    if base is None:
        base = solve(lp)
    if base.status is not Status.OPTIMAL:
        raise ValueError(f"base program is {base.status.value}, not optimal")
    pin = Constraint(lp.objective, Relation.EQ, base.value, "objective-at-optimum")
    return lp.with_extra_constraints([pin])


def optimize_over_optimal_face(lp: LinearProgram, objective, sense) -> LpSolution:
    """Optimize a secondary objective over the optimal face of ``lp``.

    One call of ``OptimalFace``; build that engine directly to ask several
    questions of one face. The result may be unbounded when the optimal
    face contains rays in the secondary direction; callers must check the
    status.
    """
    return OptimalFace(lp).optimize(objective, sense)


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
