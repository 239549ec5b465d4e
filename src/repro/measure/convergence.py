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

from dataclasses import dataclass
from typing import Optional

from .sampling import TimeSeries


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


def sustained_time_to_fraction(
    series: TimeSeries, optimum: float, fraction: float = 0.95, hold: int = 3
) -> Optional[float]:
    """First time the series stays at or above ``fraction`` of the optimum for
    ``hold`` consecutive samples (a stricter notion of convergence)."""
    if optimum <= 0 or not series.values:
        return None
    threshold = fraction * optimum
    run = 0
    for t, v in zip(series.times, series.values):
        if v >= threshold:
            run += 1
            if run >= hold:
                return t
        else:
            run = 0
    return None


def stability_coefficient(series: TimeSeries, tail_fraction: float = 0.5) -> float:
    """Coefficient of variation over the last ``tail_fraction`` of the series."""
    if not series.values:
        return 0.0
    start_index = int(len(series.values) * (1.0 - tail_fraction))
    tail = TimeSeries(
        times=series.times[start_index:],
        values=series.values[start_index:],
        interval=series.interval,
    )
    return tail.coefficient_of_variation()


def analyze_convergence(
    total_series: TimeSeries,
    optimum: float,
    *,
    fraction: float = 0.95,
    tail_fraction: float = 0.5,
) -> ConvergenceReport:
    """Produce a :class:`ConvergenceReport` for a total-throughput trajectory."""
    time_to_optimum = sustained_time_to_fraction(total_series, optimum, fraction)
    start_index = int(len(total_series.values) * (1.0 - tail_fraction))
    tail_mean = (
        sum(total_series.values[start_index:]) / max(len(total_series.values) - start_index, 1)
        if total_series.values
        else 0.0
    )
    return ConvergenceReport(
        optimum=optimum,
        achieved_mean=tail_mean,
        achieved_peak=total_series.max(),
        reached_optimum=time_to_optimum is not None,
        time_to_optimum=time_to_optimum,
        utilization_of_optimum=(tail_mean / optimum) if optimum > 0 else 0.0,
        stability_cv=stability_coefficient(total_series, tail_fraction),
        threshold_fraction=fraction,
    )
