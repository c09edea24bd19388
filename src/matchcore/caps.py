"""The fixed desk-scale enumeration caps shared across modules.

Exhaustive machinery (matching enumeration, coalition sweeps, odd-set
rows, determinant sweeps) refuses cleanly above these sizes instead of
silently approximating: at most 12 vertices and 16 edges per instance,
and total-unimodularity sweeps up to submatrix order 8. The sweep cap
bounds only matrices with a column of three or more nonzeros: those
with at most two per column are decided at any size by Heller &
Tompkins's two-colouring (1956).
"""

from __future__ import annotations

MAX_VERTICES = 12
MAX_EDGES = 16
MAX_TUM_ORDER = 8


class CapExceededError(Exception):
    """The requested computation is above an enumeration cap."""


def check_instance_size(n_vertices: int, n_edges: int) -> None:
    if n_vertices > MAX_VERTICES:
        raise CapExceededError(
            f"{n_vertices} vertices exceed the enumeration cap of {MAX_VERTICES}")
    if n_edges > MAX_EDGES:
        raise CapExceededError(
            f"{n_edges} edges exceed the enumeration cap of {MAX_EDGES}")
