"""Fairness metrics: Jain's index, bottleneck shares, settle times."""

import pytest

from repro.measure.fairness import (
    SETTLE_BAND,
    analyze_fairness,
    bottleneck_share,
    jains_index,
    mptcp_vs_tcp_ratio,
    settle_time,
)
from repro.measure.sampling import HOLD_SAMPLES, TimeSeries


def make_series(values, interval=0.1):
    times = [(i + 1) * interval for i in range(len(values))]
    return TimeSeries(times=times, values=list(values), interval=interval)


class TestJainsIndex:
    def test_equal_rates_are_perfectly_fair(self):
        assert jains_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_single_hog_gives_one_over_n(self):
        assert jains_index([30.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_empty_and_zero_vectors(self):
        assert jains_index([]) == 0.0
        assert jains_index([0.0, 0.0]) == 0.0

    def test_negative_rates_clamped(self):
        assert jains_index([10.0, -5.0]) == jains_index([10.0, 0.0])

    def test_known_two_flow_value(self):
        # (1+3)^2 / (2 * (1+9)) = 16/20
        assert jains_index([1.0, 3.0]) == pytest.approx(0.8)


class TestBottleneckShare:
    def test_shares_sum_to_one(self):
        shares = bottleneck_share({"a": 30.0, "b": 20.0})
        assert shares["a"] == pytest.approx(0.6)
        assert shares["b"] == pytest.approx(0.4)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_zero_aggregate(self):
        assert bottleneck_share({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}


class TestMptcpVsTcpRatio:
    def test_fair_split_is_one(self):
        rates = {"m": 25.0, "t": 25.0}
        kinds = {"m": "mptcp", "t": "tcp"}
        assert mptcp_vs_tcp_ratio(rates, kinds) == pytest.approx(1.0)

    def test_aggressive_mptcp(self):
        rates = {"m": 40.0, "t": 10.0}
        kinds = {"m": "mptcp", "t": "tcp"}
        assert mptcp_vs_tcp_ratio(rates, kinds) == pytest.approx(4.0)

    def test_means_over_populations(self):
        rates = {"m1": 30.0, "m2": 10.0, "t": 20.0}
        kinds = {"m1": "mptcp", "m2": "mptcp", "t": "tcp"}
        assert mptcp_vs_tcp_ratio(rates, kinds) == pytest.approx(1.0)

    def test_missing_population_returns_none(self):
        assert mptcp_vs_tcp_ratio({"m": 10.0}, {"m": "mptcp"}) is None
        assert mptcp_vs_tcp_ratio({"t": 10.0}, {"t": "tcp"}) is None
        assert (
            mptcp_vs_tcp_ratio({"m": 1.0, "t": 0.0}, {"m": "mptcp", "t": "tcp"}) is None
        )


class TestSettleTime:
    def test_converging_series_settles(self):
        assert (SETTLE_BAND, HOLD_SAMPLES) == (0.25, 3)
        series = make_series([1.0, 5.0, 7.0, 8.0, 10.0, 10.0, 10.0, 10.0])
        settled = settle_time(series)
        # Tail mean is 10; 7 is outside the 25% band, and the run 8, 10, 10
        # (t=0.4, 0.5, 0.6) is the first three-sample stretch inside it.
        assert settled == pytest.approx(0.6)

    def test_oscillating_series_never_settles(self):
        series = make_series([1.0, 20.0] * 10)
        assert settle_time(series) is None

    def test_empty_or_zero_series(self):
        assert settle_time(TimeSeries()) is None
        assert settle_time(make_series([0.0] * 10)) is None


class TestAnalyzeFairness:
    def test_full_report(self):
        flows = {
            "mptcp": make_series([20.0] * 10),
            "tcp": make_series([30.0] * 10),
        }
        kinds = {"mptcp": "mptcp", "tcp": "tcp"}
        report = analyze_fairness(flows, kinds, bottleneck_capacity_mbps=50.0)
        assert report.per_flow_mbps["mptcp"] == pytest.approx(20.0)
        assert report.per_flow_mbps["tcp"] == pytest.approx(30.0)
        assert report.jain_index == pytest.approx(jains_index([20.0, 30.0]))
        assert report.shares["tcp"] == pytest.approx(0.6)
        assert report.mptcp_tcp_ratio == pytest.approx(20.0 / 30.0)
        assert report.aggregate_mbps == pytest.approx(50.0)
        assert report.bottleneck_utilization == pytest.approx(1.0)
        assert report.settle_times["mptcp"] == pytest.approx(0.3)

    def test_no_bottleneck_capacity(self):
        report = analyze_fairness(
            {"a": make_series([5.0] * 4)}, {"a": "mptcp"}
        )
        assert report.bottleneck_capacity_mbps is None
        assert report.bottleneck_utilization is None
        assert report.mptcp_tcp_ratio is None

    def test_as_dict_round_trips(self):
        report = analyze_fairness(
            {"a": make_series([5.0] * 4), "b": make_series([5.0] * 4)},
            {"a": "mptcp", "b": "tcp"},
            bottleneck_capacity_mbps=20.0,
        )
        payload = report.as_dict()
        assert payload["jain_index"] == pytest.approx(1.0)
        assert payload["mptcp_tcp_ratio"] == pytest.approx(1.0)
        assert payload["bottleneck_utilization"] == pytest.approx(0.5)
        assert set(payload["per_flow_mbps"]) == {"a", "b"}
