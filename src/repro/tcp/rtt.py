"""Round-trip-time estimation and retransmission timeout computation.

Implements the classic Jacobson/Karels estimator used by Linux TCP
(RFC 6298): exponentially weighted moving averages of the RTT (SRTT) and of
its deviation (RTTVAR), with the retransmission timeout clamped to
``[min_rto, max_rto]``.

On the compiled kernel a sender holding exactly this class runs
:meth:`RttEstimator.update` as C over these slots (``kernel/_transport.h``,
``rtt_update``; keep the two in sync); a subclass, or any other object with
``update``/``samples``/``srtt``/``_rto``, is called and read as Python.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """SRTT/RTTVAR/RTO estimator (RFC 6298).

    Parameters
    ----------
    alpha, beta:
        Gains of the SRTT and RTTVAR moving averages (RFC defaults 1/8, 1/4).
    min_rto, max_rto:
        Bounds on the computed retransmission timeout, in seconds.  The
        default lower bound of 200 ms matches Linux (TCP_RTO_MIN); it keeps
        queue-build-up from triggering spurious timeouts, leaving fast
        retransmit as the primary loss-recovery mechanism exactly as in the
        paper's kernel-based measurements.
    initial_rto:
        RTO used before the first RTT sample.
    """

    __slots__ = (
        "alpha",
        "beta",
        "min_rto",
        "max_rto",
        "initial_rto",
        "srtt",
        "rttvar",
        "min_rtt",
        "latest_rtt",
        "samples",
        "_rto",
    )

    def __init__(
        self,
        alpha: float = 0.125,
        beta: float = 0.25,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        initial_rto: float = 0.2,
    ) -> None:
        self.alpha = alpha
        self.beta = beta
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.initial_rto = initial_rto
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt: Optional[float] = None
        self.latest_rtt: Optional[float] = None
        self.samples = 0
        #: The current retransmission timeout in seconds, refreshed at the end
        #: of update(); the sender reads it on every timer (re-)arm.
        self._rto = initial_rto

    # ------------------------------------------------------------------
    def update(self, sample: float) -> None:
        """Incorporate a new RTT measurement (seconds)."""
        if sample <= 0:
            raise ValueError(f"RTT sample must be positive, got {sample}")
        self.latest_rtt = sample
        self.samples += 1
        if self.min_rtt is None or sample < self.min_rtt:
            self.min_rtt = sample
        srtt = self.srtt
        if srtt is None:
            self.srtt = srtt = sample
            self.rttvar = rttvar = sample / 2.0
        else:
            diff = srtt - sample
            if diff < 0:
                diff = -diff
            self.rttvar = rttvar = (1.0 - self.beta) * self.rttvar + self.beta * diff
            self.srtt = srtt = (1.0 - self.alpha) * srtt + self.alpha * sample
        rto = srtt + max(4.0 * rttvar, 0.0001)
        self._rto = min(max(rto, self.min_rto), self.max_rto)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        srtt = f"{self.srtt * 1e3:.2f} ms" if self.srtt is not None else "n/a"
        return f"RttEstimator(srtt={srtt}, rto={self._rto * 1e3:.1f} ms, samples={self.samples})"
