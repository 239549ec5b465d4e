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
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coupled.balia import BaliaCongestionControl
from repro.core.coupled.base import CouplingGroup
from repro.core.coupled.lia import LiaCongestionControl
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
