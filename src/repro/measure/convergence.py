"""Convergence and stability metrics for MPTCP throughput trajectories.

The paper's Section 3 makes three kinds of quantitative statements that these
metrics capture:

* whether an algorithm *reaches the optimum* ("the default (CUBIC) congestion
  control algorithm always reached the optimum; ... LIA never could reach the
  optimum");
* *how long it takes* ("OLIA had the slowest convergence time: it took 20 sec
  ... to reach the optimum");
* *how stable* the throughput is afterwards ("later, the throughput was
  unstable for short periods" for CUBIC, "after that the throughput was
  stable" for OLIA).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .sampling import TimeSeries

#: Share of the optimum a run must hold to have reached it ("the default
#: (CUBIC) congestion control algorithm always reached the optimum").
REACH_FRACTION = 0.95


@dataclass
class ConvergenceReport:
    """Summary of one run against a known optimum."""

    optimum: float
    achieved_mean: float
    achieved_peak: float
    reached_optimum: bool
    time_to_optimum: Optional[float]
    utilization_of_optimum: float
    stability_cv: float
    threshold_fraction: float


def sustained_time_to_fraction(series: TimeSeries, optimum: float) -> Optional[float]:
    """First time the series holds at or above :data:`REACH_FRACTION` of the
    optimum (:meth:`~repro.measure.sampling.TimeSeries.first_time_held`)."""
    if optimum <= 0 or not series.values:
        return None
    return series.first_time_held(REACH_FRACTION * optimum, math.inf)


def stability_coefficient(series: TimeSeries) -> float:
    """Coefficient of variation over the series' steady state."""
    return series.steady_state().coefficient_of_variation()


def analyze_convergence(total_series: TimeSeries, optimum: float) -> ConvergenceReport:
    """Produce a :class:`ConvergenceReport` for a total-throughput trajectory."""
    time_to_optimum = sustained_time_to_fraction(total_series, optimum)
    tail_mean = total_series.steady_state_mean()
    return ConvergenceReport(
        optimum=optimum,
        achieved_mean=tail_mean,
        achieved_peak=total_series.max(),
        reached_optimum=time_to_optimum is not None,
        time_to_optimum=time_to_optimum,
        utilization_of_optimum=(tail_mean / optimum) if optimum > 0 else 0.0,
        stability_cv=stability_coefficient(total_series),
        threshold_fraction=REACH_FRACTION,
    )
