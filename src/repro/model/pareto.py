"""Pareto-optimality analysis of throughput allocations.

Section 3 of the paper describes the state MPTCP-CUBIC reaches right after
start-up: "At this point, we have a Pareto optimal solution as none of the
TCP rates can be increased independently.  On the other hand, decreasing the
rate of Path 2 by x would increase the rate for both Path 1 and 3 by 2x
altogether."  This module provides exactly those two notions:

* :func:`is_pareto_optimal` -- can any single rate still grow?
* :func:`improving_exchange` -- is there a joint rate exchange (decrease some
  paths, increase others) that raises the total?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from .bottleneck import ConstraintSystem
from .lp import max_total_throughput


def is_pareto_optimal(system: ConstraintSystem, rates: Sequence[float], tol: float = 1e-6) -> bool:
    """True if no single path's rate can be increased without violating a constraint."""
    if not system.is_feasible(rates, tol):
        raise ModelError("rates are not feasible")
    for index in range(system.path_count):
        if system.max_rate_for_path(index, rates) > rates[index] + tol:
            return False
    return True


def blocking_constraints(system: ConstraintSystem, rates: Sequence[float], index: int, tol: float = 1e-6):
    """The tight constraints that prevent path ``index`` from growing."""
    return [
        constraint
        for constraint in system.tight_constraints(rates, tol)
        if index in constraint.path_indices
    ]


@dataclass
class Exchange:
    """A joint rate change that increases total throughput from a Pareto point."""

    deltas: List[float]
    total_gain: float
    new_rates: List[float]

    @property
    def decreased_paths(self) -> List[int]:
        return [i for i, d in enumerate(self.deltas) if d < -1e-9]

    @property
    def increased_paths(self) -> List[int]:
        return [i for i, d in enumerate(self.deltas) if d > 1e-9]


def improving_exchange(
    system: ConstraintSystem, rates: Sequence[float], tol: float = 1e-6
) -> Optional[Exchange]:
    """Find the best joint rate exchange from ``rates``, or None at the optimum.

    The exchange is obtained by re-solving the max-throughput LP and taking
    the difference to the current allocation; a Pareto-optimal but suboptimal
    point (like the paper's 'fill Path 2 first' state) yields an exchange that
    lowers some rates while raising others for a net gain.
    """
    if not system.is_feasible(rates, tol):
        raise ModelError("rates are not feasible")
    optimum = max_total_throughput(system)
    gain = optimum.total - float(sum(rates))
    if gain <= tol:
        return None
    deltas = [opt - cur for opt, cur in zip(optimum.rates, rates)]
    return Exchange(deltas=deltas, total_gain=gain, new_rates=list(optimum.rates))


def optimality_gap(system: ConstraintSystem, rates: Sequence[float]) -> float:
    """Absolute gap between ``sum(rates)`` and the LP optimum (>= 0)."""
    optimum = max_total_throughput(system)
    return max(optimum.total - float(sum(rates)), 0.0)


def pareto_frontier_2d(
    system: ConstraintSystem, fixed_index: int, fixed_values: Sequence[float]
) -> List[List[float]]:
    """Trace the maximum total throughput as one path's rate is swept.

    Useful for visualising why holding the default path at its bottleneck
    capacity caps the achievable total: for each value ``v`` of path
    ``fixed_index`` the remaining paths are optimised by the LP.
    """
    results: List[List[float]] = []
    n = system.path_count
    a = system.matrix()
    c = system.rhs()
    for value in fixed_values:
        # Fix x[fixed_index] = value by subtracting its contribution from c.
        reduced_c = c - a[:, fixed_index] * value
        if np.any(reduced_c < -1e-9) or value < 0:
            continue
        rates = [0.0] * n
        rates[fixed_index] = value
        remaining = [i for i in range(n) if i != fixed_index]
        if remaining:  # a one-path system has nothing left to optimise
            sub_optimum = max_total_throughput(_reduced_system(system, remaining, reduced_c))
            for position, original_index in enumerate(remaining):
                rates[original_index] = sub_optimum.rates[position]
        results.append(rates)
    return results


def _reduced_system(system: ConstraintSystem, keep: List[int], new_rhs: np.ndarray) -> ConstraintSystem:
    """Restrict the system to the ``keep`` paths with an updated RHS."""
    from .bottleneck import Constraint

    index_map = {original: position for position, original in enumerate(keep)}
    constraints = []
    for row, constraint in enumerate(system.constraints):
        indices = tuple(index_map[i] for i in constraint.path_indices if i in index_map)
        if not indices:
            continue
        constraints.append(
            Constraint(link=constraint.link, capacity=float(new_rhs[row]), path_indices=indices)
        )
    paths = [system.paths[i] for i in keep]
    return ConstraintSystem(paths, constraints)
