#!/usr/bin/env python3
"""A short tour of the exact LP engine behind everything else.

Fractions in, fractions out: solutions are vertices, re-optimizing over
the optimal face restarts phase 2 from the optimal basis, and a
two-colouring of the rows (Heller & Tompkins) certifies the total
unimodularity that makes bipartite matching polytopes integral. The
test reads a matrix as its coefficient rows alone: plain sequences of
ints or fractions, here a program's ``[c.coeffs for c in
lp.constraints]``.

Run: python3 demos/exact_lp_tour.py
"""

from fractions import Fraction

from matchcore import (
    LinearProgram,
    Relation,
    OptimalFace,
    Sense,
    Status,
    build_primal,
    coordinate_range,
    is_totally_unimodular,
    parse_instance,
    solve,
)

F = Fraction

lp = LinearProgram(
    Sense.MAXIMIZE, ["x", "y"], [F(1, 3), F(1, 3)],
    [([1, 1], Relation.LE, F(7, 2)), ([2, 1], Relation.LE, 5)],
)
sol = solve(lp)
print(f"max (x+y)/3 over a little polygon: value {sol.value} at "
      f"(x, y) = ({sol['x']}, {sol['y']}) -- exact thirds, no floats.")

# The whole optimal face, not just one point.
lo, hi = coordinate_range(lp, "x")
print(f"Across all optima, x ranges over [{lo}, {hi}].")
tilted = OptimalFace(lp).optimize([1, 0], Sense.MAXIMIZE)
assert tilted.value == hi

# Unbounded secondary objectives are reported, not faked.
ray = LinearProgram(Sense.MAXIMIZE, ["a", "b"], [1, -1],
                    [([1, -1], Relation.LE, 0)])
escape = OptimalFace(ray).optimize([1, 0], Sense.MAXIMIZE)
print(f"A face with a ray reports its secondary optimum as "
      f"'{escape.status.value}'.")
assert escape.status is Status.UNBOUNDED

# Why bipartite matching LPs solve integrally: total unimodularity.
square = parse_instance(
    "game general\nvertices a b c d\n"
    "edge a b weight 1\nedge b c weight 1\nedge c d weight 1\nedge a d weight 1\n")
triangle = parse_instance(
    "game general\nvertices a b c\n"
    "edge a b weight 1\nedge b c weight 1\nedge a c weight 1\n")
# The test reads the matching program's coefficient rows, one per vertex.
incidence = [[c.coeffs for c in build_primal(g).constraints] for g in (square, triangle)]
print(f"Even cycle incidence matrix totally unimodular? "
      f"{is_totally_unimodular(incidence[0])}.")
print(f"Odd cycle? {is_totally_unimodular(incidence[1])} "
      f"(a 3x3 submatrix has determinant 2).")
