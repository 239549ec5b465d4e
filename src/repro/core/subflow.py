"""Subflow: one TCP session pinned to one tagged path.

"MPTCP extends TCP so that a single connection can be striped across multiple
sub-flows, each being a TCP session along a unique path" (paper, §1).  A
:class:`Subflow` bundles the per-path sender, receiver and congestion-control
instance together with the :class:`~repro.model.paths.Path` it is pinned to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..model.paths import Path
from ..units import throughput_mbps

if TYPE_CHECKING:  # pragma: no cover
    from ..tcp.cc.base import CongestionControl
    from ..tcp.receiver import TcpReceiver
    from ..tcp.sender import TcpSender


class Subflow:
    """One MPTCP subflow and its simulation objects.

    A plain ``__slots__`` class (not a dataclass): ``acked_bytes`` is bumped
    and ``sender`` dereferenced once per acknowledged segment of every
    subflow, and slotted attribute access keeps that hot path lean.
    """

    __slots__ = (
        "subflow_id",
        "path",
        "tag",
        "is_default",
        "sender",
        "receiver",
        "cc",
        "started_at",
        "acked_bytes",
        "state",
    )

    #: Lifecycle states: ``"active"`` (usable), ``"down"`` (its path lost a
    #: link; the subflow survives and resumes when the path heals) and
    #: ``"closed"`` (removed at runtime; never comes back).
    STATES = ("active", "down", "closed")

    def __init__(
        self,
        subflow_id: int,
        path: Path,
        tag: Optional[int],
        is_default: bool = False,
        sender: "TcpSender" = None,  # type: ignore[assignment]
        receiver: "TcpReceiver" = None,  # type: ignore[assignment]
        cc: "CongestionControl" = None,  # type: ignore[assignment]
        started_at: Optional[float] = None,
        acked_bytes: int = 0,
        state: str = "active",
    ) -> None:
        self.subflow_id = subflow_id
        self.path = path
        self.tag = tag
        self.is_default = is_default
        self.sender = sender
        self.receiver = receiver
        self.cc = cc
        self.started_at = started_at
        self.acked_bytes = acked_bytes
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Subflow(subflow_id={self.subflow_id!r}, path={self.path!r}, "
            f"tag={self.tag!r}, is_default={self.is_default!r}, "
            f"started_at={self.started_at!r}, acked_bytes={self.acked_bytes!r})"
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.path.name or f"subflow-{self.subflow_id}"

    @property
    def cwnd_segments(self) -> float:
        return self.cc.cwnd if self.cc is not None else 0.0

    @property
    def srtt(self) -> Optional[float]:
        if self.sender is None:
            return None
        return self.sender.rtt.srtt

    @property
    def retransmissions(self) -> int:
        return self.sender.stats.retransmissions if self.sender is not None else 0

    def mean_throughput_mbps(self, now: float) -> float:
        """Mean subflow goodput since it started, in Mbps."""
        if self.started_at is None or now <= self.started_at:
            return 0.0
        return throughput_mbps(self.acked_bytes, now - self.started_at)

    def __str__(self) -> str:
        role = " (default)" if self.is_default else ""
        return f"{self.name}{role} [tag={self.tag}]"
