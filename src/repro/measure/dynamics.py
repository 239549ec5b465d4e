"""Metrics for time-varying network runs (failover, capacity tracking).

The static metrics (:mod:`repro.measure.convergence`) ask "did the run reach
the optimum, how fast, how stably?".  Once the network changes mid-run
(:mod:`repro.netsim.dynamics`), three new questions appear, answered here:

* :func:`failover_gap` -- how long was connectivity degraded after an event
  (the outage between a path failing and the surviving/new subflows taking
  over)?
* :func:`reconvergence_time` -- how long after an event did throughput
  settle again?  The post-event window is held to the same rule as the
  static convergence metric
  (:meth:`~repro.measure.sampling.TimeSeries.first_time_held`), just
  measured from a mid-run epoch against :data:`RECONVERGENCE_FRACTION`.
* :func:`capacity_tracking_error` -- how closely did throughput follow a
  piecewise-constant capacity profile (the rate-step tracking scenario)?

:func:`analyze_dynamics` bundles all of it into a :class:`DynamicsReport`,
one epoch entry per scheduled event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .sampling import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.dynamics import DynamicsSpec

#: Seconds before an event whose mean throughput is the failover baseline.
FAILOVER_BASELINE_S = 0.5
#: Share of the baseline that throughput must fall below to count as an outage.
FAILOVER_FLOOR = 0.5
#: Share of the recovery level that throughput must regain to end an outage.
FAILOVER_RECOVER = 0.8
#: Share of the post-event reference a run must hold to have re-converged;
#: looser than the static reach share, as the run restarts mid-disruption.
RECONVERGENCE_FRACTION = 0.85
#: Seconds after a capacity step excluded from the tracking error: the
#: controller is granted that long to react.
TRACKING_SETTLE_S = 0.5


def failover_gap(
    series: TimeSeries,
    epoch: float,
    *,
    reference: Optional[float] = None,
) -> Optional[float]:
    """Duration of the throughput outage following an event at ``epoch``.

    The pre-event baseline is the mean over the :data:`FAILOVER_BASELINE_S`
    seconds before ``epoch``.  The gap is the time from ``epoch`` until the
    series first climbs back to :data:`FAILOVER_RECOVER` of the recovery
    level, *provided* it fell below :data:`FAILOVER_FLOOR` of the baseline
    at all.

    The recovery level is the baseline, capped by ``reference`` when given:
    a failover onto a lower-capacity path (Wi-Fi dies, cellular takes over)
    has *recovered* once it fills the surviving capacity -- the pre-event
    level is physically unreachable and would misreport a successful
    handover as a permanent outage.  Pass the post-event capacity as
    ``reference`` (``analyze_dynamics`` does this from the spec's capacity
    profile).

    Returns 0.0 when throughput never dropped below the floor (seamless
    failover), None when there is no usable baseline, no post-event samples,
    or the series never recovers.
    """
    if not series.values:
        return None
    baseline = series.window(epoch - FAILOVER_BASELINE_S, epoch).mean()
    if baseline <= 0.0:
        return None
    floor = FAILOVER_FLOOR * baseline
    recovery_level = baseline
    if reference is not None and 0.0 < reference < recovery_level:
        recovery_level = reference
    target = FAILOVER_RECOVER * recovery_level
    dipped = False
    for time, value in zip(series.times, series.values):
        if time <= epoch:
            continue
        if not dipped:
            if value < floor:
                dipped = True
            continue
        if value >= target:
            return time - epoch
    if not dipped:
        # Check there was at least one post-event sample to judge from.
        return 0.0 if series.times and series.times[-1] > epoch else None
    return None


def reconvergence_time(
    series: TimeSeries, epoch: float, reference: Optional[float] = None
) -> Optional[float]:
    """Settle time measured from a mid-run ``epoch``.

    The post-event window must hold :data:`RECONVERGENCE_FRACTION` of
    ``reference`` (the level the run should re-converge to -- e.g. the
    post-event capacity).  When ``reference`` is omitted, the window's own
    steady-state mean is used, i.e. "how long until the run reached its new
    steady state".  Returns seconds *after* the epoch, or None when the
    series never re-settles (or has no post-event samples).
    """
    if not series.values:
        return None
    end = series.times[-1]
    if end <= epoch:
        return None
    post = series.window(epoch, end)
    if not post.values:
        return None
    if reference is None:
        reference = post.steady_state_mean()
    if reference <= 0.0:
        return None
    settled_at = post.first_time_held(RECONVERGENCE_FRACTION * reference, math.inf)
    if settled_at is None:
        return None
    return settled_at - epoch


def capacity_at(profile: Sequence[Tuple[float, float]], time: float) -> float:
    """The piecewise-constant capacity in effect at ``time``."""
    capacity = 0.0
    for step_time, step_capacity in profile:
        if step_time <= time:
            capacity = step_capacity
        else:
            break
    return capacity


def capacity_tracking_error(
    series: TimeSeries, profile: Sequence[Tuple[float, float]]
) -> Optional[float]:
    """Mean relative error between throughput and a capacity profile.

    ``profile`` is a sorted list of ``(time, capacity_mbps)`` steps.  Each
    sample is compared against the capacity at its bin *midpoint* (sample
    timestamps mark the end of a bin, so a step falling exactly on a
    timestamp belongs to the next bin).  Samples within
    :data:`TRACKING_SETTLE_S` after any step are excluded; the remaining
    samples contribute ``|value - capacity| / capacity``.  Returns None when
    no samples remain.
    """
    if not series.values or not profile:
        return None
    profile = sorted(profile, key=lambda step: step[0])
    step_times = [time for time, _ in profile]
    half_bin = series.interval / 2.0
    total = 0.0
    count = 0
    for time, value in zip(series.times, series.values):
        if any(0.0 <= time - step_time < TRACKING_SETTLE_S for step_time in step_times):
            continue
        capacity = capacity_at(profile, time - half_bin)
        if capacity <= 0.0:
            continue
        total += abs(value - capacity) / capacity
        count += 1
    if count == 0:
        return None
    return total / count


@dataclass
class EpochMetrics:
    """Failover/re-convergence metrics for one event epoch."""

    epoch: float
    failover_gap_s: Optional[float]
    reconvergence_s: Optional[float]

    def as_dict(self) -> dict:
        return {
            "epoch_s": round(self.epoch, 4),
            "failover_gap_s": None
            if self.failover_gap_s is None
            else round(self.failover_gap_s, 4),
            "reconvergence_s": None
            if self.reconvergence_s is None
            else round(self.reconvergence_s, 4),
        }


@dataclass
class DynamicsReport:
    """Summary of one time-varying run."""

    epochs: List[EpochMetrics]
    tracking_error: Optional[float]

    @property
    def worst_gap_s(self) -> Optional[float]:
        """The largest measured failover gap across epochs (None if none)."""
        gaps = [e.failover_gap_s for e in self.epochs if e.failover_gap_s is not None]
        return max(gaps) if gaps else None

    def as_dict(self) -> dict:
        return {
            "epochs": [epoch.as_dict() for epoch in self.epochs],
            "worst_gap_s": None if self.worst_gap_s is None else round(self.worst_gap_s, 4),
            "tracking_error": None
            if self.tracking_error is None
            else round(self.tracking_error, 4),
        }


def analyze_dynamics(series: TimeSeries, spec: "DynamicsSpec") -> DynamicsReport:
    """Produce a :class:`DynamicsReport` for a total-throughput trajectory.

    One :class:`EpochMetrics` entry is produced per measurement epoch of the
    :class:`~repro.netsim.dynamics.DynamicsSpec`.  When the spec declares a
    capacity profile, the re-convergence reference at each epoch is the
    post-event capacity; otherwise the window's own steady state is used.
    """
    profile = spec.capacity_profile
    epochs: List[EpochMetrics] = []
    for epoch in spec.measurement_epochs():
        reference = capacity_at(profile, epoch) if profile else None
        if reference is not None and reference <= 0.0:
            reference = None
        epochs.append(
            EpochMetrics(
                epoch=epoch,
                failover_gap_s=failover_gap(series, epoch, reference=reference),
                reconvergence_s=reconvergence_time(series, epoch, reference),
            )
        )
    tracking = capacity_tracking_error(series, profile) if profile else None
    return DynamicsReport(epochs=epochs, tracking_error=tracking)
