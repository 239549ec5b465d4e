"""LIA -- the Linked Increases Algorithm (RFC 6356, Wischik et al. NSDI'11).

LIA couples the congestion-avoidance increase of the subflows so that the
aggregate is no more aggressive than a single TCP flow on the best path.
For each ACK of ``acked`` segments on subflow *i* the window grows by::

    min( alpha * acked / cwnd_total ,  acked / cwnd_i )

with::

    alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / ( sum_i cwnd_i / rtt_i )^2

The decrease on loss is the standard halving.  The paper finds that "the more
stable LIA never could reach the optimum" total throughput on the overlapping
paths topology; the coupled (and capped) increase is exactly why.
"""

from __future__ import annotations

from .base import CoupledCongestionControl


class LiaCongestionControl(CoupledCongestionControl):
    """RFC 6356 coupled congestion control."""

    name = "lia"

    __slots__ = ()

    def alpha(self) -> float:
        """The LIA aggressiveness factor computed over all subflows."""
        members = self.group.members_view
        # Plain additions in member order, as the fused walk makes them:
        # sum() compensates float additions from Python 3.12 and would round
        # apart from it.
        total_cwnd = 0
        rate_sum = 0
        for m in members:
            total_cwnd = total_cwnd + m.cwnd
            rate_sum = rate_sum + m.cwnd / m.rtt_or_default()
        if total_cwnd <= 0:
            return 1.0
        denominator = rate_sum ** 2
        if denominator <= 0:
            return 1.0
        numerator = max(m.cwnd / (m.rtt_or_default() ** 2) for m in members)
        return total_cwnd * numerator / denominator

    def _congestion_avoidance(self, acked_segments: float, srtt: float, now: float) -> None:
        # Fused per-ACK pass: the shared aggregates (total cwnd, sum of
        # cwnd/rtt, max cwnd/rtt^2) are computed in ONE walk over the group
        # instead of the four separate walks total_cwnd() + alpha() used to
        # make.  Accumulation order and per-member expressions are unchanged,
        # so every float is bit-identical to the multi-pass result.
        members = self.group.members_view
        total_cwnd = 0
        rate_sum = 0
        numerator = None
        for m in members:
            member_cwnd = m.cwnd
            total_cwnd = total_cwnd + member_cwnd
            rtt = m.rtt_or_default()
            rate_sum = rate_sum + member_cwnd / rtt
            term = member_cwnd / (rtt ** 2)
            if numerator is None or term > numerator:
                numerator = term
        cwnd = self.cwnd
        if total_cwnd <= 0 or cwnd <= 0:
            self.cwnd = max(cwnd, 1.0)
            return
        denominator = rate_sum ** 2
        if denominator <= 0:
            alpha = 1.0
        else:
            alpha = total_cwnd * numerator / denominator
        coupled_increase = alpha * acked_segments / total_cwnd
        uncoupled_increase = acked_segments / cwnd
        self.cwnd = cwnd + min(coupled_increase, uncoupled_increase)
