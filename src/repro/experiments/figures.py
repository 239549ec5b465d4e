"""Regenerate the data series behind the paper's figures.

Each function returns a :class:`FigureData` carrying the per-path and total
throughput series that the corresponding panel of Fig. 2 plots, plus the
analytical optimum for reference.  Absolute values depend on the substrate
(the paper used the v0.94 kernel on Mininet; we use a packet-level
simulator), but the qualitative shape -- which algorithm approaches the
90 Mbps optimum, how quickly, and how stably -- is what the benchmarks check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..measure.sampling import TimeSeries
from ..topologies.paper import PAPER_DEFAULT_PATH_INDEX
from .harness import ExperimentResult, paper_experiment, run_experiment


@dataclass
class FigureData:
    """The series plotted in one panel of Fig. 2."""

    figure_id: str
    description: str
    result: ExperimentResult

    @property
    def per_path_series(self) -> Dict[int, TimeSeries]:
        return self.result.per_path_series

    @property
    def total_series(self) -> TimeSeries:
        return self.result.total_series

    def summary(self) -> dict:
        data = self.result.summary()
        data["figure"] = self.figure_id
        data["description"] = self.description
        return data


def fig2a_cubic(
    *, duration: float = 4.0, sampling_interval: float = 0.1, variant: str = "as_stated"
) -> FigureData:
    """Fig. 2(a): per-path rate with uncoupled CUBIC, 100 ms sampling, 4 s."""
    config = paper_experiment(
        "cubic", duration=duration, sampling_interval=sampling_interval, variant=variant
    )
    return FigureData(
        figure_id="fig2a",
        description="MPTCP throughput with CUBIC congestion control (100 ms sampling)",
        result=run_experiment(config),
    )


def fig2b_olia(
    *, duration: float = 4.0, sampling_interval: float = 0.1, variant: str = "as_stated"
) -> FigureData:
    """Fig. 2(b): per-path rate with OLIA, 100 ms sampling, 4 s."""
    config = paper_experiment(
        "olia", duration=duration, sampling_interval=sampling_interval, variant=variant
    )
    return FigureData(
        figure_id="fig2b",
        description="MPTCP throughput with OLIA congestion control (100 ms sampling)",
        result=run_experiment(config),
    )


def fig2c_fine(
    *,
    duration: float = 0.5,
    sampling_interval: float = 0.01,
    variant: str = "as_stated",
    join_delay: float = 0.05,
) -> FigureData:
    """Fig. 2(c): the first 0.5 s with 10 ms sampling (sawtooth detail).

    The start-up zoom models the MPTCP establishment sequence explicitly: the
    initial subflow runs on the default path (Path 2) and the additional
    subflows join ``join_delay`` seconds later, which is why the default path
    is the first to reach its bottleneck in the paper's Fig. 2.
    """
    config = paper_experiment(
        "cubic", duration=duration, sampling_interval=sampling_interval, variant=variant
    )
    config = config.with_overrides(name="paper-cubic-10ms", join_delay=join_delay)
    return FigureData(
        figure_id="fig2c",
        description="MPTCP per-flow rate with 10 ms sampling (start-up detail)",
        result=run_experiment(config),
    )


def figure_with_algorithm(
    algorithm: str,
    *,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    default_path_index: int = PAPER_DEFAULT_PATH_INDEX,
    variant: str = "as_stated",
) -> FigureData:
    """A Fig. 2-style panel for any congestion-control algorithm."""
    config = paper_experiment(
        algorithm,
        duration=duration,
        sampling_interval=sampling_interval,
        default_path_index=default_path_index,
        variant=variant,
    )
    return FigureData(
        figure_id=f"fig2-{algorithm}",
        description=f"MPTCP throughput with {algorithm.upper()} congestion control",
        result=run_experiment(config),
    )
