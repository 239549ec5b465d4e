"""Fairness metrics for multi-flow competition scenarios.

Coupled multipath congestion control exists to answer a fairness question: an
MPTCP connection sharing a bottleneck should take no more capacity than a
single TCP flow (the design goal behind LIA/OLIA/BALIA).  These metrics turn
per-flow throughput series from a multi-flow run into the numbers that
competition studies report:

* :func:`jains_index` -- Jain's fairness index over the per-flow rates;
* :func:`bottleneck_share` -- each flow's share of measured aggregate
  throughput (and, via :func:`mptcp_vs_tcp_ratio`, the MPTCP-vs-TCP
  bottleneck-share ratio, ~1.0 for a perfectly TCP-fair coupled controller);
* :func:`settle_time` -- per-flow convergence: when a flow's throughput
  first stays inside a band around its steady-state (tail) mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from .sampling import TimeSeries

#: Half-width of the band around a flow's steady-state mean that it must
#: hold to count as settled, relative to that mean.
SETTLE_BAND = 0.25


def jains_index(rates: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly equal rates; ``1/n`` means one flow takes everything.
    An empty or all-zero rate vector returns 0.0.
    """
    rates = [max(float(r), 0.0) for r in rates]
    if not rates:
        return 0.0
    total = sum(rates)
    squares = sum(r * r for r in rates)
    if squares <= 0.0:
        return 0.0
    return (total * total) / (len(rates) * squares)


def bottleneck_share(rates: Mapping[str, float]) -> Dict[str, float]:
    """Each flow's fraction of the measured aggregate throughput."""
    total = sum(max(rate, 0.0) for rate in rates.values())
    if total <= 0.0:
        return {name: 0.0 for name in rates}
    return {name: max(rate, 0.0) / total for name, rate in rates.items()}


def mptcp_vs_tcp_ratio(
    rates: Mapping[str, float], kinds: Mapping[str, str]
) -> Optional[float]:
    """Mean MPTCP connection rate over mean single-path TCP rate.

    The classic bottleneck-fairness number: ~1.0 when the coupled controller
    is exactly as aggressive as one TCP flow, >1 when MPTCP takes more than
    its fair share.  ``None`` when either population is absent or TCP measured
    zero throughput.
    """
    mptcp = [rates[name] for name, kind in kinds.items() if kind == "mptcp"]
    tcp = [rates[name] for name, kind in kinds.items() if kind == "tcp"]
    if not mptcp or not tcp:
        return None
    tcp_mean = sum(tcp) / len(tcp)
    if tcp_mean <= 0.0:
        return None
    return (sum(mptcp) / len(mptcp)) / tcp_mean


def settle_time(series: TimeSeries) -> Optional[float]:
    """First time the series holds within :data:`SETTLE_BAND` of its
    steady-state mean.

    The settle time is the first sample from which the series remains inside
    ``[(1-SETTLE_BAND), (1+SETTLE_BAND)] * steady_state_mean`` for
    :data:`~repro.measure.sampling.HOLD_SAMPLES` consecutive samples.
    ``None`` when the series never settles (or is empty / converges to zero).
    """
    tail_mean = series.steady_state_mean()
    if tail_mean <= 0.0:
        return None
    return series.first_time_held(
        (1.0 - SETTLE_BAND) * tail_mean, (1.0 + SETTLE_BAND) * tail_mean
    )


@dataclass
class FairnessReport:
    """Fairness summary of one multi-flow run."""

    per_flow_mbps: Dict[str, float]
    kinds: Dict[str, str]
    jain_index: float
    shares: Dict[str, float]
    mptcp_tcp_ratio: Optional[float]
    settle_times: Dict[str, Optional[float]]
    bottleneck_capacity_mbps: Optional[float] = None
    aggregate_mbps: float = 0.0
    bottleneck_utilization: Optional[float] = field(default=None)

    def as_dict(self) -> dict:
        return {
            "per_flow_mbps": {k: round(v, 3) for k, v in self.per_flow_mbps.items()},
            "kinds": dict(self.kinds),
            "jain_index": round(self.jain_index, 4),
            "shares": {k: round(v, 4) for k, v in self.shares.items()},
            "mptcp_tcp_ratio": None
            if self.mptcp_tcp_ratio is None
            else round(self.mptcp_tcp_ratio, 4),
            "settle_times_s": {
                k: None if v is None else round(v, 3) for k, v in self.settle_times.items()
            },
            "bottleneck_capacity_mbps": self.bottleneck_capacity_mbps,
            "aggregate_mbps": round(self.aggregate_mbps, 3),
            "bottleneck_utilization": None
            if self.bottleneck_utilization is None
            else round(self.bottleneck_utilization, 4),
        }


def analyze_fairness(
    series_by_flow: Mapping[str, TimeSeries],
    kinds: Mapping[str, str],
    *,
    bottleneck_capacity_mbps: Optional[float] = None,
) -> FairnessReport:
    """Produce a :class:`FairnessReport` from per-flow throughput series.

    Parameters
    ----------
    series_by_flow:
        One receiver-side throughput series per flow, keyed by flow name.
    kinds:
        Flow kind per name (``"mptcp"``, ``"tcp"``, ``"udp"``, ``"onoff"``),
        used for the MPTCP-vs-TCP share ratio.
    bottleneck_capacity_mbps:
        When given, also report aggregate utilisation of that capacity.
    """
    per_flow: Dict[str, float] = {}
    settle: Dict[str, Optional[float]] = {}
    for name, series in series_by_flow.items():
        per_flow[name] = series.steady_state_mean()
        settle[name] = settle_time(series)
    aggregate = sum(per_flow.values())
    return FairnessReport(
        per_flow_mbps=per_flow,
        kinds=dict(kinds),
        jain_index=jains_index(list(per_flow.values())),
        shares=bottleneck_share(per_flow),
        mptcp_tcp_ratio=mptcp_vs_tcp_ratio(per_flow, kinds),
        settle_times=settle,
        bottleneck_capacity_mbps=bottleneck_capacity_mbps,
        aggregate_mbps=aggregate,
        bottleneck_utilization=(
            aggregate / bottleneck_capacity_mbps
            if bottleneck_capacity_mbps and bottleneck_capacity_mbps > 0
            else None
        ),
    )
