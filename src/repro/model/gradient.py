"""Projected-gradient ascent on total throughput.

Section 2.1 notes that "convex optimization is often solved with some type of
gradient descent method, which is an iterative approach always stepping
towards the gradient", and Section 4 concludes that CUBIC's asynchronous
per-path actions "inherently eventuate the required gradient optimization
over the flows".  This module makes that comparison concrete: a projected
gradient ascent that maximises ``sum(x)`` over the feasible region, with the
projection computed by Dykstra's alternating-projection algorithm over the
capacity half-spaces and the non-negativity orthant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from .bottleneck import ConstraintSystem


def project_onto_feasible(
    system: ConstraintSystem,
    point: Sequence[float],
    *,
    iterations: int = 200,
    tol: float = 1e-9,
) -> List[float]:
    """Euclidean projection of ``point`` onto ``{x : A x <= c, x >= 0}``.

    Uses Dykstra's algorithm over the individual half-spaces, which converges
    to the exact projection for intersections of convex sets.
    """
    a = system.matrix()
    c = system.rhs()
    rows = [(a[i], c[i]) for i in range(a.shape[0])]
    n = system.path_count

    x = np.asarray(point, dtype=float).copy()
    if x.shape != (n,):
        raise ModelError(f"expected a point of dimension {n}")
    # One correction term per constraint set (half-spaces + orthant).
    corrections = [np.zeros(n) for _ in range(len(rows) + 1)]

    for _ in range(iterations):
        previous = x.copy()
        for index, (row, cap) in enumerate(rows):
            y = x + corrections[index]
            violation = float(row @ y) - cap
            if violation > 0:
                projected = y - violation * row / float(row @ row)
            else:
                projected = y
            corrections[index] = y - projected
            x = projected
        y = x + corrections[-1]
        projected = np.maximum(y, 0.0)
        corrections[-1] = y - projected
        x = projected
        if np.linalg.norm(x - previous) < tol:
            break
    return [float(v) for v in x]


@dataclass
class GradientTrace:
    """Trajectory of projected-gradient ascent."""

    iterates: List[List[float]] = field(default_factory=list)
    totals: List[float] = field(default_factory=list)

    @property
    def final_total(self) -> float:
        return self.totals[-1]

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def projected_gradient_ascent(
    system: ConstraintSystem,
    *,
    start: Optional[Sequence[float]] = None,
    step_size: float = 2.0,
    iterations: int = 500,
    tol: float = 1e-7,
) -> GradientTrace:
    """Maximise total throughput by projected gradient ascent.

    The gradient of ``sum(x)`` is the all-ones vector; each iterate steps in
    that direction and is projected back onto the feasible region.  Unlike
    the greedy per-path filling, this joint update escapes the Pareto-optimal
    but suboptimal corner the greedy strategy lands in.
    """
    n = system.path_count
    x = np.zeros(n) if start is None else np.asarray(start, dtype=float).copy()
    if x.shape != (n,):
        raise ModelError(f"expected a start point of dimension {n}")
    x = np.asarray(project_onto_feasible(system, x))

    trace = GradientTrace()
    trace.iterates.append([float(v) for v in x])
    trace.totals.append(float(np.sum(x)))

    gradient = np.ones(n)
    for iteration in range(iterations):
        step = step_size / np.sqrt(iteration + 1.0)
        candidate = x + step * gradient
        x_new = np.asarray(project_onto_feasible(system, candidate))
        trace.iterates.append([float(v) for v in x_new])
        trace.totals.append(float(np.sum(x_new)))
        if np.linalg.norm(x_new - x) < tol:
            x = x_new
            break
        x = x_new
    return trace
