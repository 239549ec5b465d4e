"""Vertex enumeration of the feasible throughput region (Fig. 1c).

For the small path counts of the paper (three paths) the feasible region
``{x : A x <= c, x >= 0}`` can be described exactly by its vertices: every
vertex is the intersection of ``n`` linearly independent active constraints.
This module enumerates them by brute force, which doubles as a dependency-free
linear-program solver (the optimum of a bounded LP is attained at a vertex).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from ..errors import ModelError
from .bottleneck import ConstraintSystem


def enumerate_vertices(system: ConstraintSystem, tol: float = 1e-9) -> List[List[float]]:
    """All vertices of the feasible region, deduplicated, in deterministic order.

    Raises :class:`ModelError` if the region is unbounded in some coordinate
    (which cannot happen when every path crosses at least one finite-capacity
    link).
    """
    n = system.path_count
    a = system.matrix()
    c = system.rhs()

    for index in range(n):
        if not np.any(a[:, index] > 0):
            raise ModelError(
                f"path {index} crosses no capacity constraint; the region is unbounded"
            )

    # Stack the capacity constraints with the non-negativity constraints -x_i <= 0.
    full_a = np.vstack([a, -np.eye(n)])
    full_c = np.concatenate([c, np.zeros(n)])

    vertices: List[List[float]] = []
    seen: set = set()
    for rows in itertools.combinations(range(full_a.shape[0]), n):
        sub_a = full_a[list(rows)]
        sub_c = full_c[list(rows)]
        if abs(np.linalg.det(sub_a)) < tol:
            continue
        point = np.linalg.solve(sub_a, sub_c)
        if np.any(full_a @ point > full_c + 1e-7):
            continue
        key = tuple(round(float(v), 7) for v in point)
        if key in seen:
            continue
        seen.add(key)
        vertices.append([float(v) for v in point])
    vertices.sort()
    return vertices


def maximize_over_vertices(
    system: ConstraintSystem, weights: Sequence[float] | None = None
) -> List[float]:
    """Return the vertex maximising ``weights . x`` (uniform weights by default)."""
    vertices = enumerate_vertices(system)
    if not vertices:
        raise ModelError("the feasible region has no vertices (empty system?)")
    if weights is None:
        weights = [1.0] * system.path_count
    if len(weights) != system.path_count:
        raise ModelError("weights length must match the number of paths")
    return max(vertices, key=lambda v: sum(w * x for w, x in zip(weights, v)))
