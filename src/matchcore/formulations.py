"""The matching linear programs, their duals, and polytope structure checks.

Construction is a verbatim transcription of each game's primal/dual pair
with a canonical variable and constraint ordering (agents in input order,
edges in input order), so solver output is reproducible; rows carry no
label. A coalition's sub-game dual (``sub_dual``) is written from the
game's layout, which that ordering makes exact, with the game's names
and costs and each row through ``Constraint._signed``. Also houses the
total-unimodularity test of coefficient rows and the half-integral
vertex structure check for general-graph matching programs. The test
takes matrices with at most two nonzeros per column, as every
`build_primal` matrix is, and decides them at any size by Heller &
Tompkins's two-colouring of its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .caps import MAX_VERTICES, CapExceededError
from .games import EdgeKey, GameInstance, GameKind
from .lp import Constraint, LinearProgram, Relation, Sense, is_vertex
from .rationals import ONE, ZERO, ensure_rational, scaled

F = Fraction


def primal_var(key: EdgeKey) -> str:
    return f"x[{key[0]},{key[1]}]"


def vertex_dual_var(q: str) -> str:
    return f"pay[{q}]"


def lower_dual_var(key: EdgeKey) -> str:
    return f"floor[{key[0]},{key[1]}]"


def upper_dual_var(key: EdgeKey) -> str:
    return f"ceil[{key[0]},{key[1]}]"


def build_primal(instance: GameInstance) -> LinearProgram:
    """Maximum-weight (fractional) matching program for the instance.

    One variable per edge, one capacity row per vertex. The
    capacity-with-edge-bounds kind carries its per-edge multiplicity
    window as variable bounds; a missing upper bound leaves the variable
    uncapped above. Each row is written straight into integers
    (``Constraint._signed``) and the program is assembled unchecked
    (``LinearProgram._trusted``), as a validated instance allows.
    """
    edges = instance.edges
    names = tuple(primal_var(e.key) for e in edges)
    objective = tuple(ensure_rational(e.weight) for e in edges)
    rows = tuple(Constraint._signed(len(edges), {j: 1 for j, e in enumerate(edges)
                                                 if e.touches(q)},
                                    Relation.LE, F(instance.capacity(q)))
                 for q in instance.agents)
    lower = (ZERO,) * len(edges)
    upper = (None,) * len(edges)
    if instance.kind is GameKind.HOFFMAN_KRUSKAL:
        lower = tuple(F(e.lower) for e in edges)
        upper = tuple(None if e.upper is None else F(e.upper) for e in edges)
    return LinearProgram._trusted(Sense.MAXIMIZE, names, objective, scaled(objective),
                                  rows, lower, upper)


def build_dual(instance: GameInstance) -> LinearProgram:
    """The dual of :func:`build_primal`, written out explicitly.

    Column j is agent j's vertex dual, weighted by its capacity. The
    capacity-with-edge-bounds kind then adds, edge by edge, a lower-bound
    dual and, when the edge has a finite upper bound, an upper-bound dual.
    Row i is edge i's: its vertex duals, minus its lower-bound dual, plus
    its upper-bound dual, at least its weight. Rows and program are built
    as :func:`build_primal`'s are, every objective entry an integer.
    """
    at = {q: j for j, q in enumerate(instance.agents)}
    names = [vertex_dual_var(q) for q in instance.agents]
    costs = [instance.capacity(q) for q in instance.agents]
    # Row i's nonzero coefficients by column, each placed as its column is.
    signs = [{at[e.u]: 1, at[e.v]: 1} for e in instance.edges]
    if instance.kind is GameKind.HOFFMAN_KRUSKAL:
        for e, entry in zip(instance.edges, signs):
            entry[len(names)] = -1
            names.append(lower_dual_var(e.key))
            costs.append(-e.lower)
            if e.upper is not None:
                entry[len(names)] = 1
                names.append(upper_dual_var(e.key))
                costs.append(e.upper)
    n = len(names)
    rows = tuple(Constraint._signed(n, entry, Relation.GE, ensure_rational(e.weight))
                 for e, entry in zip(instance.edges, signs))
    return LinearProgram._trusted(Sense.MINIMIZE, tuple(names), tuple(map(F, costs)),
                                  (costs, 1), rows, (ZERO,) * n, (None,) * n)


def sub_dual(lp: LinearProgram, instance: GameInstance,
             members: Iterable[str]) -> LinearProgram:
    """``build_dual(restrict(instance, members))``, written from ``lp``,
    which is ``build_dual(instance)``, as :func:`build_dual` writes it.
    ``restrict`` keeps the order of agents and edges, so the sub-game's
    columns are the members' and then its inner edges' bound duals, in
    ``lp``'s order: their names and costs are ``lp``'s at those positions
    (an integral objective, scale 1). Each inner edge's row is written
    through ``Constraint._signed`` with the relation and right-hand side
    of ``lp``'s row, already coerced, so no sub-game is built and nothing
    is checked or scaled again."""
    chosen = frozenset(members)
    agents = instance.agents
    columns = [j for j, q in enumerate(agents) if q in chosen]
    at = {agents[j]: k for k, j in enumerate(columns)}
    bounded = instance.kind is GameKind.HOFFMAN_KRUSKAL
    inner, nxt = [], len(agents)
    for e, row in zip(instance.edges, lp.constraints):
        bounds = ()
        if bounded:
            bounds = range(nxt, nxt + 1 + (e.upper is not None))
            nxt = bounds.stop
        if e.u in chosen and e.v in chosen:
            entry = {at[e.u]: 1, at[e.v]: 1}
            for j, s in zip(bounds, (-1, 1)):
                entry[len(columns)] = s
                columns.append(j)
            inner.append((entry, row))
    n = len(columns)
    ints, _ = lp._scaled_objective
    return LinearProgram._trusted(
        lp.sense, tuple([lp.variables[j] for j in columns]),
        tuple([lp.objective[j] for j in columns]), ([ints[j] for j in columns], 1),
        tuple([Constraint._signed(n, entry, row.relation, row.rhs) for entry, row in inner]),
        (ZERO,) * n, (None,) * n)


def build_odd_set_primal(instance: GameInstance) -> LinearProgram:
    """General-graph matching program strengthened by odd-set rows.

    For every odd vertex subset S with |S| >= 3, the edges inside S may
    carry total value at most (|S|-1)/2. All rows are materialized
    explicitly, so the vertex count is capped.
    """
    if instance.kind is not GameKind.GENERAL:
        raise ValueError("odd-set rows apply to general instances only")
    vertices = instance.agents
    if len(vertices) > MAX_VERTICES:
        raise CapExceededError(
            f"{len(vertices)} vertices exceed the odd-set cap of {MAX_VERTICES}")
    base = build_primal(instance)
    extra = []
    for size in range(3, len(vertices) + 1, 2):
        for subset in combinations(vertices, size):
            inside = set(subset)
            coeffs = tuple(ONE if (e.u in inside and e.v in inside) else ZERO
                           for e in instance.edges)
            if not any(coeffs):
                continue
            extra.append(Constraint(coeffs, Relation.LE, F(size - 1, 2)))
    return base.with_extra_constraints(extra)


def is_totally_unimodular(rows: Sequence[Sequence[Fraction | int]]) -> bool:
    """True iff every square submatrix has determinant -1, 0, or 1.

    ``rows`` are equal-length rows of ints or rationals (ValueError if
    ragged), as ``[c.coeffs for c in lp.constraints]``; an empty matrix
    is TUM. An entry outside {0, +-1} is a 1x1 counterexample, at any size.
    Otherwise a column with three or more nonzeros raises ValueError,
    naming the first such column (columns count from 0). Every other
    matrix is decided by Heller & Tompkins (1956), at any size: it is TUM
    iff its rows split into two classes with a column's two entries in
    different classes when they have the same sign and in the same class
    otherwise, which a two-colouring of the signed row graph tests.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != n for row in rows):
        raise ValueError("coefficient rows differ in length")
    ints = []
    for row in rows:
        entries, scale = scaled(row)
        if scale != 1 or any(abs(v) > 1 for v in entries):
            return False
        ints.append(entries)
    columns = [[(i, row[j]) for i, row in enumerate(ints) if row[j]] for j in range(n)]
    for j, col in enumerate(columns):
        if len(col) > 2:
            raise ValueError(f"column {j} has {len(col)} nonzeros; the test "
                             "takes at most two per column")
    # Edge (i, k, apart): rows i and k lie in different classes iff apart.
    neighbours: list[list[tuple[int, bool]]] = [[] for _ in range(m)]
    for col in columns:
        if len(col) == 2:
            (i, a), (k, b) = col
            neighbours[i].append((k, a == b))
            neighbours[k].append((i, a == b))
    side: list[bool | None] = [None] * m
    for start in range(m):
        if side[start] is not None:
            continue
        side[start] = False
        stack = [start]
        while stack:
            i = stack.pop()
            for k, apart in neighbours[i]:
                want = side[i] != apart
                if side[k] is None:
                    side[k] = want
                    stack.append(k)
                elif side[k] != want:
                    return False
    return True


@dataclass(frozen=True)
class HalfIntegralStructure:
    """Vertex-structure report for the general matching polytope.

    A valid vertex has every edge value in {0, 1/2, 1}; the 1-edges form
    a matching and the 1/2-edges split into vertex-disjoint odd cycles.
    """
    matched_edges: tuple[EdgeKey, ...]
    half_cycles: tuple[tuple[str, ...], ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_half_integrality(solution, instance: GameInstance) -> HalfIntegralStructure:
    """Classify a vertex of the general matching program.

    ``solution`` solves ``build_primal(instance)``: its values are read in
    that program's column order, the edge order. Raises if they are not a
    vertex of the polytope, a vector of the wrong length included
    (structure is only guaranteed at vertices).
    """
    if instance.kind is not GameKind.GENERAL:
        raise ValueError("half-integral structure applies to general instances")
    values = solution.values or ()
    if not is_vertex(build_primal(instance), values):
        raise ValueError("assignment is not a vertex of the matching polytope")

    violations = []
    ones: list[EdgeKey] = []
    halves: list[EdgeKey] = []
    half = F(1, 2)
    for e, x in zip(instance.edges, values):
        if x == 1:
            ones.append(e.key)
        elif x == half:
            halves.append(e.key)
        elif x != 0:
            violations.append(f"x[{e.u},{e.v}] = {x} is not in {{0, 1/2, 1}}")
    used = set()
    for u, v in ones:
        if u in used or v in used:
            violations.append(f"integral edges are not a matching at ({u},{v})")
        used.update((u, v))

    adjacency: dict[str, list[str]] = {}
    for u, v in halves:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
        if u in used or v in used:
            violations.append(f"half edge ({u},{v}) shares a vertex with a matched edge")
    for q, nbrs in adjacency.items():
        if len(nbrs) != 2:
            violations.append(f"half edges at {q} do not close a cycle")

    cycles: list[tuple[str, ...]] = []
    if not violations:
        # No parallel edges, so every half-degree-2 vertex has two distinct
        # neighbours and each component is a simple cycle.
        visited: set[str] = set()
        for start in sorted(adjacency):
            if start in visited:
                continue
            cycle = [start]
            prev, cur = None, start
            while True:
                nxt = next(n for n in adjacency[cur] if n != prev)
                if nxt == start:
                    break
                cycle.append(nxt)
                prev, cur = cur, nxt
            visited.update(cycle)
            if len(cycle) % 2 == 0:
                violations.append(f"half cycle through {start} has even length")
            cycles.append(tuple(cycle))
    return HalfIntegralStructure(tuple(ones), tuple(cycles), tuple(violations))
