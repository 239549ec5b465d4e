"""Greedy sequential filling -- the strategy the paper shows is suboptimal.

"In the above settings the simplest greedy approach to increase the rates
independently would give a suboptimal solution" (Section 2.1).  The greedy
strategy models what an MPTCP connection does right after start-up: it first
fills the default (shortest) path up to its bottleneck, then fills every
additional path as far as the already-committed rates allow.  The result is
Pareto-optimal (no single rate can grow) but globally suboptimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ModelError
from .bottleneck import ConstraintSystem


@dataclass
class GreedyResult:
    """Outcome of greedy sequential filling."""

    rates: List[float]
    total: float
    order: List[int]


def greedy_fill(
    system: ConstraintSystem,
    order: Optional[Sequence[int]] = None,
    *,
    start_rates: Optional[Sequence[float]] = None,
) -> GreedyResult:
    """Fill paths one at a time, each to the maximum the previous ones allow.

    Parameters
    ----------
    order:
        Path indices in filling order; the first entry plays the role of the
        default path.  Defaults to ``0, 1, ..., n-1``.
    start_rates:
        Optional starting allocation (defaults to all-zero).
    """
    n = system.path_count
    if order is None:
        order = list(range(n))
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ModelError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    rates = list(start_rates) if start_rates is not None else [0.0] * n
    if len(rates) != n:
        raise ModelError("start_rates length must match the number of paths")
    if not system.is_feasible(rates):
        raise ModelError("start_rates is not feasible")

    for index in order:
        rates[index] = max(rates[index], system.max_rate_for_path(index, rates))
    return GreedyResult(rates=rates, total=float(sum(rates)), order=order)
