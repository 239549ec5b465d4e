"""Congestion-signal-plane metrics: ECN marking and AQM drop behaviour.

Aggregates the per-queue counters of a packet-level network (see
:meth:`repro.netsim.network.Network.signal_plane_totals`) into the rates and
delays the experiment layer reports per run: marks and early drops per
second, the split between AQM-law drops and buffer exhaustion, and the mean
sojourn time packets spent queued at an AQM discipline.  The flow-level
backend synthesises the same record analytically so cross-fidelity
comparisons line up key-for-key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..units import DEFAULT_QUEUE_PACKETS

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.network import Network


class SignalPlaneReport:
    """Network-wide congestion-signal counters normalised over a run."""

    __slots__ = (
        "duration",
        "ecn_marks",
        "early_drops",
        "full_drops",
        "total_drops",
        "mean_queue_delay_s",
    )

    def __init__(
        self,
        *,
        duration: float,
        ecn_marks: int = 0,
        early_drops: int = 0,
        full_drops: int = 0,
        total_drops: int = 0,
        mean_queue_delay_s: float = 0.0,
    ) -> None:
        self.duration = duration
        self.ecn_marks = ecn_marks
        self.early_drops = early_drops
        self.full_drops = full_drops
        self.total_drops = total_drops
        self.mean_queue_delay_s = mean_queue_delay_s

    @property
    def marking_rate_per_s(self) -> float:
        return self.ecn_marks / self.duration if self.duration > 0 else 0.0

    @property
    def early_drop_rate_per_s(self) -> float:
        return self.early_drops / self.duration if self.duration > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "ecn_marks": self.ecn_marks,
            "marking_rate_per_s": self.marking_rate_per_s,
            "early_drops": self.early_drops,
            "early_drop_rate_per_s": self.early_drop_rate_per_s,
            "full_drops": self.full_drops,
            "total_drops": self.total_drops,
            "mean_queue_delay_s": self.mean_queue_delay_s,
        }


def signal_plane_report(network: "Network", duration: float) -> SignalPlaneReport:
    """Build the :class:`SignalPlaneReport` of one packet-level run."""
    totals = network.signal_plane_totals()
    dequeued = totals["dequeued"]
    mean_delay = totals["queue_delay_sum"] / dequeued if dequeued else 0.0
    return SignalPlaneReport(
        duration=duration,
        ecn_marks=totals["ecn_marks"],
        early_drops=totals["early_drops"],
        full_drops=totals["full_drops"],
        total_drops=totals["dropped"],
        mean_queue_delay_s=mean_delay,
    )


#: Nominal congestion-signal rate per responsive flow at a saturated AQM
#: bottleneck: one signal every 50 ms (roughly once per RTT at the default
#: topologies' delays).  A modelling constant, not a measured quantity.
NOMINAL_SIGNALS_PER_FLOW_PER_S = 20.0

#: Utilisation above which the fluid model considers the bottleneck
#: congested (greedy responsive flows pin the allocation at capacity).
CONGESTION_UTILIZATION = 0.9

#: Serialisation time of one queued packet in the analytic queue delays: a
#: 1500-byte packet at 12 Mbps, the order of the stock bottlenecks.
MEAN_PACKET_TIME_S = 0.001


def modeled_signal_plane(
    *,
    duration: float,
    queue_kind: str,
    ecn: bool,
    utilization: float,
    flows: int = 1,
) -> SignalPlaneReport:
    """Analytic stand-in used by the flow-level backend.

    The fluid engine never drops or marks anything, so the signal plane of a
    flow-level run is synthesised deterministically (NaN-free by
    construction): when the achieved utilisation says the bottleneck is
    saturated, each responsive flow collects signals at the nominal
    once-per-RTT rate, split between CE marks and early drops by the ECN
    setting, and the standing-queue delay is the discipline's operating
    point (CoDel pins the sojourn time at its 5 ms target; RED sits near the
    mid-threshold; drop-tail at a full buffer).
    """
    if duration <= 0:
        return SignalPlaneReport(duration=0.0)
    if not (utilization >= 0.0):  # also catches NaN
        utilization = 0.0
    congested = utilization >= CONGESTION_UTILIZATION
    if not congested:
        return SignalPlaneReport(duration=duration)
    signals = int(max(flows, 1) * NOMINAL_SIGNALS_PER_FLOW_PER_S * duration)
    if queue_kind == "droptail":
        return SignalPlaneReport(
            duration=duration,
            full_drops=signals,
            total_drops=signals,
            mean_queue_delay_s=DEFAULT_QUEUE_PACKETS * MEAN_PACKET_TIME_S,
        )
    if queue_kind == "codel":
        standing_delay = 0.005
    else:
        standing_delay = 0.5 * DEFAULT_QUEUE_PACKETS * MEAN_PACKET_TIME_S
    if ecn:
        return SignalPlaneReport(
            duration=duration,
            ecn_marks=signals,
            mean_queue_delay_s=standing_delay,
        )
    return SignalPlaneReport(
        duration=duration,
        early_drops=signals,
        total_drops=signals,
        mean_queue_delay_s=standing_delay,
    )
