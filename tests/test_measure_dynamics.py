"""Dynamics metrics, and the convergence.py edge cases dynamics exposes.

The failover-gap / re-convergence / capacity-tracking metrics are exercised
on hand-built series with known answers; the convergence helpers are pinned
on the edge cases the dynamics pipeline now feeds them (empty series, a flow
that never re-settles after an event, settle time measured from a mid-run
epoch).
"""

import json

import pytest

from repro.measure.convergence import (
    analyze_convergence,
    stability_coefficient,
    sustained_time_to_fraction,
)
from repro.measure.dynamics import (
    TRACKING_SETTLE_S,
    analyze_dynamics,
    capacity_at,
    capacity_tracking_error,
    failover_gap,
    reconvergence_time,
)
from repro.measure.sampling import TimeSeries
from repro.netsim.dynamics import DynamicsSpec, LinkDown, Schedule


def series(values, interval=0.1, start=0.0):
    times = [start + (i + 1) * interval for i in range(len(values))]
    return TimeSeries(times=times, values=list(values), interval=interval)


def flap_series():
    """Baseline 10 until t=2.0, outage near zero until 2.5, recovery to 9."""
    return series([10.0] * 20 + [0.5] * 5 + [9.0] * 15)


class TestFailoverGap:
    def test_gap_measured_from_event_to_recovery(self):
        s = flap_series()
        gap = failover_gap(s, 2.0)
        # First sample >= 0.8 * baseline(10) is at t=2.6 -> gap 0.6 s.
        assert gap == pytest.approx(0.6)

    def test_no_dip_means_zero_gap(self):
        s = series([10.0] * 30)
        assert failover_gap(s, 1.5) == 0.0

    def test_never_recovers_returns_none(self):
        s = series([10.0] * 20 + [0.5] * 20)
        assert failover_gap(s, 2.0) is None

    def test_no_baseline_returns_none(self):
        assert failover_gap(series([]), 1.0) is None
        assert failover_gap(series([0.0] * 20), 1.0) is None

    def test_event_after_series_end_returns_none(self):
        s = series([10.0] * 10)
        assert failover_gap(s, 5.0) is None

    def test_reference_caps_recovery_level_for_lower_capacity_failover(self):
        # Wi-Fi at 50 dies; cellular (20) takes over and fills its capacity.
        # Against the pre-event baseline alone this reads as "never
        # recovered"; with the post-event capacity as reference the
        # handover is recognised as complete.
        s = series([50.0] * 20 + [2.0] * 5 + [19.5] * 15)
        assert failover_gap(s, 2.0) is None
        assert failover_gap(s, 2.0, reference=20.0) == pytest.approx(0.6)
        # A reference above the baseline never *raises* the bar.
        assert failover_gap(s, 2.0, reference=100.0) is None


class TestReconvergence:
    def test_settle_time_from_mid_run_epoch(self):
        s = flap_series()
        # Post-event reference 9.0: samples >= 0.85*9 start at t=2.6; the
        # hold of 3 completes at t=2.8 -> 0.8 s after the epoch.
        assert reconvergence_time(s, 2.0, 9.0) == pytest.approx(0.8)

    def test_self_reference_uses_post_event_steady_state(self):
        s = flap_series()
        value = reconvergence_time(s, 2.0)
        assert value == pytest.approx(0.8)

    def test_never_resettles_returns_none(self):
        s = series([10.0] * 20 + [0.5] * 20)
        assert reconvergence_time(s, 2.0, 9.0) is None

    def test_empty_and_out_of_range_epochs(self):
        assert reconvergence_time(series([]), 1.0) is None
        assert reconvergence_time(series([1.0] * 5), 2.0) is None


class TestCapacityTracking:
    def test_capacity_at_steps(self):
        profile = [(0.0, 50.0), (1.5, 20.0), (3.0, 50.0)]
        assert capacity_at(profile, 0.0) == 50.0
        assert capacity_at(profile, 1.49) == 50.0
        assert capacity_at(profile, 1.5) == 20.0
        assert capacity_at(profile, 10.0) == 50.0

    def test_perfect_tracking_has_zero_error(self):
        # 2 s bins: the step at 3.4 s falls inside the bin ending at 4.0 s,
        # whose sample lies 0.6 s past the step (outside the settle window)
        # and whose midpoint (3.0 s) lies before it, so that sample is judged
        # against the old capacity, 10, not the new one.
        profile = [(0.0, 10.0), (3.4, 5.0)]
        s = series([10.0, 10.0, 5.0, 5.0], interval=2.0)
        assert 4.0 - 3.4 >= TRACKING_SETTLE_S
        assert capacity_at(profile, 4.0) == 5.0
        assert capacity_tracking_error(s, profile) == 0.0

    def test_error_excludes_settle_window(self):
        assert TRACKING_SETTLE_S == 0.5
        profile = [(0.0, 10.0), (2.0, 5.0)]
        # Horrible samples right after the step (t = 2.1 .. 2.4), inside the
        # settle window, are not counted ...
        inside = series([10.0] * 20 + [0.0] * 4 + [5.0] * 16)
        assert capacity_tracking_error(inside, profile) == pytest.approx(0.0)
        # ... the same samples past it (t = 2.6 .. 2.9) are.
        past = series([10.0] * 20 + [5.0] * 5 + [0.0] * 4 + [5.0] * 11)
        assert capacity_tracking_error(past, profile) > 0.0

    def test_empty_inputs_return_none(self):
        assert capacity_tracking_error(series([]), [(0.0, 10.0)]) is None
        assert capacity_tracking_error(series([1.0]), []) is None


class TestAnalyzeDynamics:
    def test_report_round_trips_to_json(self):
        spec = DynamicsSpec(
            schedule=Schedule().at(2.0, LinkDown("a", "b")),
            capacity_profile=((0.0, 10.0), (2.0, 9.0)),
        )
        report = analyze_dynamics(flap_series(), spec)
        assert [e.epoch for e in report.epochs] == [2.0]
        assert report.epochs[0].failover_gap_s == pytest.approx(0.6)
        assert report.worst_gap_s == pytest.approx(0.6)
        assert report.tracking_error is not None
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["epochs"][0]["epoch_s"] == 2.0

    def test_epochs_default_to_schedule_times(self):
        spec = DynamicsSpec(schedule=Schedule().at(1.0, LinkDown("a", "b")))
        report = analyze_dynamics(series([5.0] * 30), spec)
        assert [e.epoch for e in report.epochs] == [1.0]
        assert report.tracking_error is None


class TestConvergenceEdgeCases:
    """convergence.py paths the dynamics pipeline now exercises."""

    def test_empty_series(self):
        empty = series([])
        assert sustained_time_to_fraction(empty, 10.0) is None
        assert stability_coefficient(empty) == 0.0
        report = analyze_convergence(empty, 10.0)
        assert report.achieved_mean == 0.0
        assert not report.reached_optimum
        assert report.utilization_of_optimum == 0.0

    def test_never_settles_after_event(self):
        # A flow that collapses mid-run and never returns: the sustained
        # threshold is reached before the event but never afterwards.
        s = series([10.0] * 10 + [1.0] * 30)
        post_event = s.window(1.0, s.times[-1])
        assert sustained_time_to_fraction(post_event, 10.0) is None

    def test_settle_time_from_mid_run_epoch_window(self):
        s = flap_series()
        post_event = s.window(2.0, s.times[-1])
        settled_at = sustained_time_to_fraction(post_event, 9.0)
        assert settled_at == pytest.approx(2.8)  # absolute time of 3rd sample

    def test_nonpositive_optimum(self):
        s = series([1.0] * 10)
        assert sustained_time_to_fraction(s, 0.0) is None
        report = analyze_convergence(s, 0.0)
        assert report.utilization_of_optimum == 0.0

    def test_hold_resets_on_dip(self):
        s = series([10.0, 10.0, 1.0, 10.0, 10.0, 10.0])
        assert sustained_time_to_fraction(s, 10.0) == pytest.approx(0.6)
