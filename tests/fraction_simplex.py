"""Reference simplex for the LP engine's tests: exact rational pivoting.

The tableau the engine used before its kernel became fraction-free,
kept as an oracle. Every cell is a ``Fraction``; Bland's rule, the column
order and the phase-1 set-up are the engine's, so on every program the
engine must reach the identical status, value, vertex and basis. The
set-up takes the engine's two start rules. A column whose lower bound
equals its upper bound is a constant: it gets no bound row and never
enters, in phase 1, its drive-out, phase 2 or a face query. A >= row
with right-hand side zero and no entry on a structural column that is
not fixed is negated, as a row with a negative right-hand side is, so
it starts on its slack instead of an artificial at zero. Only the
public types of ``matchcore.lp`` are used, never the engine's internals.
Each tableau keeps a pivot log, ``log``: one (phase, leaving row,
entering column) per pivot, the drive-out of phase 1 included, with the
k-th artificial column numbered ``first_artificial + k``, its place
after the slacks.
"""

import copy
from fractions import Fraction
from typing import Sequence

from matchcore.lp import LinearProgram, LpSolution, Relation, Sense, Status

ZERO = Fraction(0)
ONE = Fraction(1)


# Internal column tags.
_STRUCTURAL = 0
_SLACK = 1
_ARTIFICIAL = 2


class FractionTableau:
    """Dense simplex tableau in standard form (equalities, xi >= 0), every
    cell a ``Fraction``. ``ties`` counts the rows whose ratio equalled the
    least ratio found before them in a ratio test; ``log`` is the pivot
    log, shared with every fork; ``contested`` counts the artificial
    columns that entered while another artificial could have, and
    ``dropped`` the rows phase 1 found redundant."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        self.ties = 0
        self.log: list[tuple[int, int, int]] = []
        self.phase = 2
        self.contested = 0
        self.dropped = 0
        n = len(lp.variables)
        # Column encodings: x_j is recovered from structural columns via
        # x_j = shift + sign * xi (shifted/mirrored) or xi_plus - xi_minus.
        self.col_kind: list[int] = []
        self.col_var: list[int] = []          # original variable index, -1 for slack/artificial
        self.col_sign: list[int] = []
        self.var_mode: list[tuple] = []       # per original variable
        self.fixed: set[int] = set()          # columns whose bounds are equal
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
                if hi == lo:
                    self.fixed.add(col)
                elif hi is not None:
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
            over_constants = not any(rows[i][j] for j in range(self.n_structural)
                                     if j not in self.fixed)
            if rhs[i] < 0 or (self.row_rel[i] is Relation.GE and rhs[i] == 0
                              and over_constants):
                rows[i] = [-a for a in rows[i]]
                rhs[i] = -rhs[i]
        self.rows = rows
        self.rhs = rhs

    def _movable(self) -> list[int]:
        """The columns that may enter: every column but the fixed ones."""
        return [j for j in range(len(self.col_kind)) if j not in self.fixed]

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
        self.log.append((self.phase, leave, enter))
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
            if self.col_kind[enter] == _ARTIFICIAL:
                self.contested += sum(zrow[j] < 0 for j in allowed
                                      if self.col_kind[j] == _ARTIFICIAL) > 1
            leave = -1
            best = None
            for i in range(m):
                a = rows[i][enter]
                if a > 0:
                    r = rhs[i] / a
                    self.ties += r == best
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
        self.first_artificial = len(self.col_kind)
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
        _, zval, _ = self._run(phase1, self._movable())
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
            enter = next((j for j in self._movable()
                          if self.col_kind[j] != _ARTIFICIAL and rows[i][j]), -1)
            if enter >= 0:
                zrow_dummy = [ZERO] * ncols
                self._pivot(zrow_dummy, i, enter)
                keep.append(i)
        self.dropped = m - len(keep)
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
            return LpSolution(Status.UNBOUNDED)

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
        return LpSolution(Status.OPTIMAL, value, values, basis_vars)

    def fork(self) -> "FractionTableau":
        """A copy whose pivots leave this tableau as it is."""
        twin = copy.copy(self)
        twin.rows = [row[:] for row in self.rows]
        twin.rhs = self.rhs[:]
        twin.basis = self.basis[:]
        return twin

    def solve(self) -> LpSolution:
        self.phase = 1
        feasible = self._phase1()
        self.phase = 2
        if not feasible:
            return LpSolution(Status.INFEASIBLE)
        return self.optimize(self.lp.objective, self.lp.sense, self._movable())


class FractionFace:
    """The optimal face of ``lp`` by the reference tableau: one solve, then
    phase 2 from a copy of the optimal basis over the columns of zero
    reduced cost. ``ties`` adds up the ratio ties of every run, and
    ``log`` holds the pivots of the solve and then of every query."""

    def __init__(self, lp: LinearProgram):
        self._tableau = FractionTableau(lp)
        self.base = self._tableau.solve()
        self.ties = self._tableau.ties
        self.log = self._tableau.log
        if self.base.status is Status.OPTIMAL:
            self._columns = [j for j in self._tableau._movable() if not self._tableau.reduced[j]]

    def optimize(self, objective, sense: Sense) -> LpSolution:
        twin = self._tableau.fork()
        twin.ties = 0
        result = twin.optimize([Fraction(c) for c in objective], sense, self._columns)
        self.ties += twin.ties
        return result
