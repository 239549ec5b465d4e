"""The coupled controllers against their published equations.

LIA (RFC 6356 §3) carries its α twice: the readable ``alpha()`` and the
fused walk in ``_congestion_avoidance``, whose comment says its floats are
bit-identical to the multi-pass result.  After one ACK of ``acked`` segments
in congestion avoidance the window must be::

    old + min(alpha() * acked / total, acked / old)

exactly, ``total`` being the members' windows summed in member order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.coupled.base import CouplingGroup
from repro.core.coupled.lia import LiaCongestionControl

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
def lia_groups(draw):
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


def fused_and_alpha(state):
    """The window the fused walk leaves after one ACK, and the one ``alpha()``
    gives for the same group."""
    members, acker, acked = state
    group = CouplingGroup()
    controllers = [LiaCongestionControl(group=group) for _ in members]
    for controller, (cwnd, srtt) in zip(controllers, members):
        controller.cwnd, controller.srtt, controller.ssthresh = cwnd, srtt, cwnd
    acking = controllers[acker]
    assert not acking.in_slow_start
    old = acking.cwnd
    total = 0.0
    for controller in controllers:
        total += controller.cwnd
    expected = old + min(acking.alpha() * acked / total, acked / old)
    acking._congestion_avoidance(acked, acking.srtt, 0.0)
    return acking.cwnd, expected


class TestLiaAlpha:
    @given(lia_groups())
    @_SETTINGS
    def test_the_fused_walk_applies_alpha(self, state):
        fused, expected = fused_and_alpha(state)
        assert fused == expected

    def test_a_sum_that_compensation_rounds_apart(self):
        fused, expected = fused_and_alpha(SUM_COMPENSATED)
        assert fused == expected
