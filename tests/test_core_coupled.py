"""Coupled congestion control: coupling group, LIA, OLIA, BALIA, wVegas."""

import pytest

from repro.core.coupled import (
    MULTIPATH_ALGORITHMS,
    PAPER_ALGORITHMS,
    CouplingGroup,
    make_multipath_congestion_control,
)
from repro.core.coupled.balia import BaliaCongestionControl
from repro.core.coupled.lia import LiaCongestionControl
from repro.core.coupled.olia import OliaCongestionControl
from repro.core.coupled.uncoupled import UncoupledCubic, UncoupledReno
from repro.core.coupled.wvegas import WVegasCongestionControl
from repro.errors import ConfigurationError

MSS = 1400


def make_group(algorithm, n, rtts=None):
    """n coupled controllers sharing one group, pushed out of slow start."""
    group = CouplingGroup()
    members = [
        make_multipath_congestion_control(algorithm, mss=MSS, group=group) for _ in range(n)
    ]
    for index, cc in enumerate(members):
        cc.ssthresh = 10.0
        cc.cwnd = 10.0
        cc.srtt = rtts[index] if rtts else 0.01
    return group, members


class TestFactory:
    def test_all_advertised_algorithms_instantiate(self):
        for name in MULTIPATH_ALGORITHMS:
            group = CouplingGroup()
            cc = make_multipath_congestion_control(name, mss=MSS, group=group)
            assert cc.mss == MSS
            assert len(group) == 1

    def test_paper_algorithms_subset(self):
        assert set(PAPER_ALGORITHMS) <= set(MULTIPATH_ALGORITHMS)
        assert set(PAPER_ALGORITHMS) == {"cubic", "lia", "olia"}

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            make_multipath_congestion_control("vivace", mss=MSS)

    def test_expected_classes(self):
        mapping = {
            "cubic": UncoupledCubic,
            "reno": UncoupledReno,
            "lia": LiaCongestionControl,
            "olia": OliaCongestionControl,
            "balia": BaliaCongestionControl,
            "wvegas": WVegasCongestionControl,
        }
        for name, cls in mapping.items():
            assert isinstance(make_multipath_congestion_control(name, mss=MSS), cls)


class TestCouplingGroup:
    def test_members_share_group(self):
        group, members = make_group("lia", 3)
        assert group.members_view == members
        assert len(group) == 3

    def test_total_cwnd(self):
        group, members = make_group("lia", 3)
        assert group.total_cwnd() == pytest.approx(30.0)

    def test_unregister(self):
        group, members = make_group("lia", 2)
        group.unregister(members[0])
        assert len(group) == 1

    def test_each_connection_gets_default_group(self):
        cc = make_multipath_congestion_control("lia", mss=MSS)
        assert len(cc.group) == 1


class TestLia:
    def test_alpha_equals_one_for_single_path(self):
        _, (cc,) = make_group("lia", 1)
        # RFC 6356: with one subflow LIA must behave like standard TCP.
        assert cc.alpha() == pytest.approx(1.0, rel=1e-6)

    def test_single_path_increase_matches_reno(self):
        _, (cc,) = make_group("lia", 1)
        cc.on_ack(MSS, srtt=0.01, now=0.1)
        assert cc.cwnd == pytest.approx(10.0 + 1.0 / 10.0, rel=1e-3)

    def test_coupled_increase_is_capped_by_uncoupled(self):
        group, members = make_group("lia", 3)
        cc = members[0]
        before = cc.cwnd
        cc.on_ack(MSS, srtt=0.01, now=0.1)
        increase = cc.cwnd - before
        assert increase <= 1.0 / before + 1e-9

    def test_aggregate_increase_no_more_aggressive_than_single_flow(self):
        # Acknowledge one segment on every subflow: the total window growth must
        # not exceed what one TCP flow would gain from the same ACKs.
        group, members = make_group("lia", 3)
        total_before = group.total_cwnd()
        for cc in members:
            cc.on_ack(MSS, srtt=0.01, now=0.1)
        total_increase = group.total_cwnd() - total_before
        single_flow_increase = 3 * (1.0 / total_before)
        assert total_increase <= single_flow_increase * 1.05

    def test_loss_halves_window(self):
        _, members = make_group("lia", 2)
        members[0].on_loss(now=0.1)
        assert members[0].cwnd == pytest.approx(5.0)

    def test_alpha_favours_low_rtt_paths(self):
        group, members = make_group("lia", 2, rtts=[0.1, 0.01])
        # alpha grows when the best path (low RTT) dominates.
        assert members[0].alpha() > 0


class TestOlia:
    def test_single_path_behaves_sanely(self):
        _, (cc,) = make_group("olia", 1)
        before = cc.cwnd
        cc.on_ack(MSS, srtt=0.01, now=0.1)
        assert cc.cwnd > before

    def test_equal_paths_have_zero_alpha(self):
        _, members = make_group("olia", 3)
        for cc in members:
            cc._bytes_since_loss = 10000.0
        assert all(cc._alpha() == pytest.approx(0.0) for cc in members)

    def test_alpha_positive_for_best_path_with_small_window(self):
        _, members = make_group("olia", 2)
        good, big = members
        good.cwnd = 5.0          # small window
        good._bytes_since_loss = 1_000_000.0  # but best measured rate
        big.cwnd = 20.0
        big._bytes_since_loss = 10_000.0
        assert good._alpha() > 0
        assert big._alpha() < 0

    def test_alpha_values_bounded_by_design(self):
        _, members = make_group("olia", 3)
        members[0].cwnd = 5.0
        members[0]._bytes_since_loss = 1_000_000.0
        n = len(members)
        for cc in members:
            assert abs(cc._alpha()) <= 1.0 / n + 1e-9

    def test_loss_rotates_interval_bytes(self):
        _, (cc, _unused) = make_group("olia", 2)
        cc._bytes_since_loss = 50_000.0
        cc.on_loss(now=0.5)
        assert cc._bytes_between_losses == pytest.approx(50_000.0)
        assert cc._bytes_since_loss == 0.0

    def test_window_never_drops_below_one_segment(self):
        _, members = make_group("olia", 2)
        cc = members[0]
        cc.cwnd = 1.0
        cc._bytes_since_loss = 1.0
        members[1]._bytes_since_loss = 1_000_000.0
        for _ in range(100):
            cc.on_ack(MSS, srtt=0.01, now=0.1)
        assert cc.cwnd >= 1.0

    def test_increase_smaller_than_uncoupled_tcp(self):
        _, members = make_group("olia", 3)
        cc = members[0]
        before = cc.cwnd
        cc.on_ack(MSS, srtt=0.01, now=0.1)
        assert cc.cwnd - before < 1.0 / before


class TestBalia:
    def test_increase_positive(self):
        _, members = make_group("balia", 2)
        before = members[0].cwnd
        members[0].on_ack(MSS, srtt=0.01, now=0.1)
        assert members[0].cwnd > before

    def test_loss_decrease_bounded(self):
        _, members = make_group("balia", 2)
        cc = members[0]
        cc.cwnd = 20.0
        cc.on_loss(now=0.1)
        # The decrease factor is capped at 1.5/2 = 75% of the window.
        assert cc.cwnd >= 20.0 * 0.25 - 1e-9
        assert cc.cwnd < 20.0

    def test_alpha_of_best_path_is_one(self):
        _, members = make_group("balia", 2)
        members[0].cwnd = 20.0
        members[1].cwnd = 10.0
        assert members[0]._alpha() == pytest.approx(1.0)
        assert members[1]._alpha() == pytest.approx(2.0)


class TestWVegas:
    def test_holds_window_when_backlog_on_target(self):
        _, (cc, other) = make_group("wvegas", 2)
        cc.base_rtt = 0.01
        before = cc.cwnd
        # RTT equal to base RTT -> no queueing -> grow.
        cc.on_ack(MSS, srtt=0.01, now=0.1)
        assert cc.cwnd > before

    def test_backs_off_when_queueing_detected(self):
        _, (cc, other) = make_group("wvegas", 2)
        cc.base_rtt = 0.01
        cc.cwnd = 50.0
        before = cc.cwnd
        # RTT doubled -> half the window is queued -> way above target -> shrink.
        cc.on_ack(MSS, srtt=0.02, now=0.1)
        assert cc.cwnd < before

    def test_weights_sum_to_one(self):
        _, members = make_group("wvegas", 3)
        assert sum(cc._weight() for cc in members) == pytest.approx(1.0)

    def test_loss_halves_window(self):
        _, members = make_group("wvegas", 2)
        members[0].cwnd = 30.0
        members[0].on_loss(now=0.1)
        assert members[0].cwnd == pytest.approx(15.0)

    def test_repeated_losses_never_drop_below_one_segment(self):
        # Regression: the loss decrease had no floor, so a loss burst could
        # drive cwnd below one segment (and asymptotically to zero).
        _, members = make_group("wvegas", 2)
        cc = members[0]
        cc.cwnd = 1.2
        for _ in range(10):
            cc._loss_decrease(now=0.1)
        assert cc.cwnd >= 1.0


class TestUncoupled:
    def test_uncoupled_cubic_ignores_siblings(self):
        group = CouplingGroup()
        a = make_multipath_congestion_control("cubic", mss=MSS, group=group)
        b = make_multipath_congestion_control("cubic", mss=MSS, group=group)
        a.ssthresh = a.cwnd = 10.0
        solo = make_multipath_congestion_control("cubic", mss=MSS)
        solo.ssthresh = solo.cwnd = 10.0
        for now in (0.01, 0.02, 0.03):
            a.on_ack(MSS, srtt=0.01, now=now)
            solo.on_ack(MSS, srtt=0.01, now=now)
        assert a.cwnd == pytest.approx(solo.cwnd)

    def test_uncoupled_registers_with_group_for_observability(self):
        group = CouplingGroup()
        make_multipath_congestion_control("cubic", mss=MSS, group=group)
        make_multipath_congestion_control("cubic", mss=MSS, group=group)
        assert len(group) == 2
