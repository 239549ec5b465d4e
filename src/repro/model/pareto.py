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
