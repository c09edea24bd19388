"""The fixed desk-scale enumeration caps shared across modules.

Exhaustive machinery (matching enumeration, coalition sweeps, odd-set
rows) refuses cleanly above these sizes instead of silently
approximating: at most 12 vertices and 16 edges per instance, and at
most ``MAX_OPTIMA`` maximum-weight matchings listed per instance.
"""

from __future__ import annotations

MAX_VERTICES = 12
MAX_EDGES = 16
MAX_OPTIMA = 10_000


class CapExceededError(Exception):
    """The requested computation is above an enumeration cap."""


def check_instance_size(n_vertices: int, n_edges: int) -> None:
    if n_vertices > MAX_VERTICES:
        raise CapExceededError(
            f"{n_vertices} vertices exceed the enumeration cap of {MAX_VERTICES}")
    if n_edges > MAX_EDGES:
        raise CapExceededError(
            f"{n_edges} edges exceed the enumeration cap of {MAX_EDGES}")
