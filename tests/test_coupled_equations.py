"""The coupled controllers against their published equations.

LIA (RFC 6356 §3) carries its α twice: the readable ``alpha()`` and the
fused walk in ``_congestion_avoidance``, whose comment says its floats are
bit-identical to the multi-pass result.  After one ACK of ``acked`` segments
in congestion avoidance the window must be::

    old + min(alpha() * acked / total, acked / old)

exactly, ``total`` being the members' windows summed in member order.

BALIA (Peng, Walid, Hwang, Low, IEEE/ACM ToN 2016), with ``x_p = w_p / τ_p``
and ``α_r = max_p x_p / x_r``, must give exactly::

    w_r + (x_r / τ_r) / (Σ_p x_p)² · (1 + α_r)/2 · (4 + α_r)/5 · acked   per ACK
    w_r − w_r/2 · min(α_r, 1.5)                                      on a loss

OLIA (Khalili, Gast, Popovic, Le Boudec, IEEE/ACM ToN 2013), with ``n``
members, ``ℓ_r = max(ℓ1_r, ℓ2_r)`` the bytes acknowledged between the last
two losses and since the last one, ``B`` the paths of largest ``ℓ_p² / τ_p``
and ``M`` the paths of largest window, must give per ACK::

    w_r + ((w_r / τ_r²) / (Σ_p w_p / τ_p)² + α_r / w_r) · acked

    α_r = 1 / (n |B∖M|)    if r ∈ B∖M
    α_r = −1 / (n |M|)     if r ∈ M and B∖M ≠ ∅
    α_r = 0                otherwise (so always 0 when B∖M = ∅)
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coupled.balia import BaliaCongestionControl
from repro.core.coupled.base import CouplingGroup
from repro.core.coupled.lia import LiaCongestionControl
from repro.core.coupled.olia import OliaCongestionControl
from repro.tcp.cc.base import MIN_CWND_SEGMENTS

_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=500,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)

#: Python 3.12's ``sum()`` adds floats with compensation (Neumaier): summed
#: with it, ``alpha()`` would give 1.6402058161026232 here, one ulp from the
#: fused walk's 1.640205816102623.  ``alpha()`` adds in a plain loop instead,
#: so the two agree on every Python version.
SUM_COMPENSATED = (
    [(1.636, 0.295), (222.083, 0.0), (371.485, 0.7377), (97.799, 0.0)],
    0,
    2.0,
)


@st.composite
def coupled_groups(draw):
    """1-4 members as (cwnd in segments, srtt in seconds, 0 meaning the 10 ms
    default), the index of the member the ACK reaches, and the acked segments."""
    members = draw(
        st.lists(
            st.tuples(st.floats(1.0, 500.0), st.just(0.0) | st.floats(1e-4, 1.0)),
            min_size=1,
            max_size=4,
        )
    )
    acker = draw(st.integers(0, len(members) - 1))
    acked = draw(st.floats(0.0, 4.0, exclude_min=True))
    return members, acker, acked


def in_congestion_avoidance(cls, members):
    """One coupled group of ``cls`` controllers at the drawn windows and RTTs,
    each with ssthresh at its window (congestion avoidance)."""
    group = CouplingGroup()
    controllers = [cls(group=group) for _ in members]
    for controller, (cwnd, srtt) in zip(controllers, members):
        controller.cwnd, controller.srtt, controller.ssthresh = cwnd, srtt, cwnd
    assert not any(controller.in_slow_start for controller in controllers)
    return controllers


def fused_and_alpha(state):
    """The window the fused walk leaves after one ACK, and the one ``alpha()``
    gives for the same group."""
    members, acker, acked = state
    controllers = in_congestion_avoidance(LiaCongestionControl, members)
    acking = controllers[acker]
    old = acking.cwnd
    total = 0.0
    for controller in controllers:
        total += controller.cwnd
    expected = old + min(acking.alpha() * acked / total, acked / old)
    acking._congestion_avoidance(acked, acking.srtt, 0.0)
    return acking.cwnd, expected


class TestLiaAlpha:
    @given(coupled_groups())
    @_SETTINGS
    def test_the_fused_walk_applies_alpha(self, state):
        fused, expected = fused_and_alpha(state)
        assert fused == expected

    def test_a_sum_that_compensation_rounds_apart(self):
        fused, expected = fused_and_alpha(SUM_COMPENSATED)
        assert fused == expected


def balia_rates(controllers):
    """``x_p = w_p / τ_p`` per member (τ the 10 ms default while srtt is 0),
    their sum in member order, and the acking member's ``α_r``."""
    rates = [c.cwnd / (c.srtt if c.srtt > 0 else 0.01) for c in controllers]
    total = 0.0
    for rate in rates:
        total += rate
    return rates, total


class TestBalia:
    @given(coupled_groups())
    @_SETTINGS
    def test_one_ack_follows_the_published_increase(self, state):
        members, acker, acked = state
        controllers = in_congestion_avoidance(BaliaCongestionControl, members)
        acking = controllers[acker]
        rates, total = balia_rates(controllers)
        w, tau, x = acking.cwnd, acking.rtt_or_default(), rates[acker]
        alpha = max(rates) / x
        assert acking._alpha() == alpha
        expected = w + (x / tau) / total ** 2 * ((1 + alpha) / 2) * ((4 + alpha) / 5) * acked
        acking._congestion_avoidance(acked, acking.srtt, 0.0)
        assert acking.cwnd == expected

    @given(coupled_groups())
    @_SETTINGS
    def test_a_loss_follows_the_published_decrease(self, state):
        members, acker, _ = state
        controllers = in_congestion_avoidance(BaliaCongestionControl, members)
        acking = controllers[acker]
        rates, _ = balia_rates(controllers)
        w, alpha = acking.cwnd, max(rates) / rates[acker]
        acking.on_loss(0.0)
        # The floor of two segments is every controller's (CongestionControl.on_loss).
        assert acking.cwnd == max(w - w / 2 * min(alpha, 1.5), MIN_CWND_SEGMENTS)


@st.composite
def olia_groups(draw):
    """A coupled group as :func:`coupled_groups` draws it, plus each member's
    (ℓ2, ℓ1) in bytes: between the last two losses, and since the last one."""
    members, acker, acked = draw(coupled_groups())
    interval = st.just(0.0) | st.floats(0.0, 1e7)
    intervals = draw(st.lists(st.tuples(interval, interval), min_size=len(members),
                              max_size=len(members)))
    return members, intervals, acker, acked


def olia_alpha(windows, qualities, r):
    """α_r over the best-quality set B and the max-window set M."""
    n = len(windows)
    best = {p for p, q in enumerate(qualities) if q == max(qualities)}
    max_window = {p for p, w in enumerate(windows) if w == max(windows)}
    collected = best - max_window
    if r in collected:
        return 1 / (n * len(collected))
    if r in max_window and collected:
        return -1 / (n * len(max_window))
    return 0.0


class TestOlia:
    @given(olia_groups())
    @_SETTINGS
    def test_one_ack_follows_the_published_increase(self, state):
        members, intervals, acker, acked = state
        controllers = in_congestion_avoidance(OliaCongestionControl, members)
        for controller, (between, since) in zip(controllers, intervals):
            controller._bytes_between_losses, controller._bytes_since_loss = between, since
        acking = controllers[acker]
        # The ACK's own bytes count towards ℓ1 of its path before α is taken.
        ells = [max(between, since) for between, since in intervals]
        ells[acker] = max(intervals[acker][0], intervals[acker][1] + acked * acking.mss)
        # The code floors ℓ at one segment; the paper does not (see
        # test_an_interval_below_one_segment).
        ells = [max(ell, acking.mss) for ell in ells]
        taus = [c.rtt_or_default() for c in controllers]
        windows = [c.cwnd for c in controllers]
        qualities = [ell ** 2 / tau for ell, tau in zip(ells, taus)]
        total = 0.0
        for w, tau in zip(windows, taus):
            total += w / tau
        w, tau = windows[acker], taus[acker]
        alpha = olia_alpha(windows, qualities, acker)
        # The window never falls below one segment (the code's floor).
        expected = max(1.0, w + ((w / tau ** 2) / total ** 2 + alpha / w) * acked)
        acking._congestion_avoidance(acked, acking.srtt, 0.0)
        assert acking.cwnd == expected

    def test_l_is_the_larger_of_the_two_intervals(self):
        olia = OliaCongestionControl(group=CouplingGroup())
        olia._bytes_between_losses, olia._bytes_since_loss = 50_000.0, 20_000.0
        assert olia.loss_interval_bytes == 50_000.0
        olia._bytes_between_losses, olia._bytes_since_loss = 20_000.0, 50_000.0
        assert olia.loss_interval_bytes == 50_000.0

    def test_alpha_is_zero_when_every_best_path_has_the_largest_window(self):
        group = CouplingGroup()
        controllers = [OliaCongestionControl(group=group) for _ in range(3)]
        for controller, cwnd, since in zip(controllers, (40.0, 40.0, 10.0),
                                           (9e6, 9e6, 1e5)):
            controller.cwnd, controller.srtt, controller._bytes_since_loss = cwnd, 0.05, since
        assert [c._alpha() for c in controllers] == [0.0, 0.0, 0.0]
        controllers[2]._bytes_since_loss = 9e6  # now best without the largest window
        assert [c._alpha() for c in controllers] == [-1 / 6, -1 / 6, 1 / 3]

    @pytest.mark.xfail(strict=True, reason="ROADMAP 12(c): the code floors ℓ at one "
                       "segment (OliaCongestionControl.loss_interval_bytes), the paper does not")
    def test_an_interval_below_one_segment(self):
        # Before the first loss, ℓ1 = ℓ2 = 0 on both paths: every path is best
        # by the paper, so the smaller window is collected.  The floor makes
        # the shorter RTT the only best path, and it has the largest window.
        group = CouplingGroup()
        controllers = [OliaCongestionControl(group=group) for _ in range(2)]
        windows = [20.0, 10.0]
        for controller, cwnd, srtt in zip(controllers, windows, (0.05, 0.1)):
            controller.cwnd, controller.srtt = cwnd, srtt
        published = [olia_alpha(windows, [0.0, 0.0], r) for r in range(2)]
        assert published == [-0.5, 0.5]
        assert [c._alpha() for c in controllers] == published
