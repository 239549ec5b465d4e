"""RTT estimation and RTO computation (RFC 6298).

The asserts read what the sender reads: ``srtt`` and ``_rto``."""

import pytest

from repro.tcp.rtt import RttEstimator


class TestFirstSample:
    def test_srtt_equals_first_sample(self):
        est = RttEstimator()
        est.update(0.02)
        assert est.srtt == pytest.approx(0.02)
        assert est.rttvar == pytest.approx(0.01)

    def test_rto_before_any_sample_is_initial(self):
        est = RttEstimator(initial_rto=0.3)
        assert est._rto == 0.3

    def test_no_srtt_before_sample(self):
        est = RttEstimator()
        assert est.srtt is None and est.samples == 0


class TestSmoothing:
    def test_constant_samples_converge_to_sample(self):
        est = RttEstimator()
        for _ in range(50):
            est.update(0.01)
        assert est.srtt == pytest.approx(0.01)
        assert est.rttvar == pytest.approx(0.0, abs=1e-3)

    def test_srtt_moves_towards_new_value(self):
        est = RttEstimator()
        est.update(0.01)
        est.update(0.02)
        assert 0.01 < est.srtt < 0.02

    def test_min_rtt_tracks_minimum(self):
        est = RttEstimator()
        for sample in (0.03, 0.01, 0.02):
            est.update(sample)
        assert est.min_rtt == pytest.approx(0.01)

    def test_latest_rtt(self):
        est = RttEstimator()
        est.update(0.05)
        est.update(0.02)
        assert est.latest_rtt == pytest.approx(0.02)

    def test_sample_count(self):
        est = RttEstimator()
        for _ in range(7):
            est.update(0.01)
        assert est.samples == 7


class TestRto:
    def test_rto_is_srtt_plus_four_rttvar(self):
        est = RttEstimator(min_rto=0.0)
        est.update(0.1)
        assert est._rto == pytest.approx(0.1 + 4 * 0.05)

    def test_rto_clamped_to_minimum(self):
        est = RttEstimator(min_rto=0.05)
        for _ in range(100):
            est.update(0.001)
        assert est._rto == 0.05

    def test_rto_clamped_to_maximum(self):
        est = RttEstimator(max_rto=1.0)
        est.update(10.0)
        assert est._rto == 1.0

    def test_rto_grows_with_variance(self):
        stable = RttEstimator(min_rto=0.0)
        jittery = RttEstimator(min_rto=0.0)
        for i in range(20):
            stable.update(0.02)
            jittery.update(0.02 if i % 2 == 0 else 0.06)
        assert jittery._rto > stable._rto


class TestValidation:
    def test_zero_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().update(0.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().update(-0.01)
