"""Coupling infrastructure shared by multipath congestion-control algorithms.

Coupled algorithms (LIA, OLIA, BALIA, wVegas) adapt each subflow's
congestion-avoidance increase using the state of *all* subflows of the MPTCP
connection.  A :class:`CouplingGroup` is created per connection and every
per-subflow congestion-control instance registers with it, mirroring how the
Linux MPTCP implementation walks ``mptcp_for_each_sk`` inside the coupled
``cong_avoid`` handlers.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ...tcp.cc.base import CongestionControl


class CouplingGroup:
    """Shared state of the subflow congestion controllers of one connection."""

    def __init__(self) -> None:
        self._members: List["CoupledCongestionControl"] = []
        # type -> members of that type, in registration order.  The coupled
        # algorithms filter the group by their own class on every ACK; the
        # membership only changes on register/unregister, so the filtered
        # lists are cached here and invalidated on mutation.
        self._typed_cache: dict = {}

    # ------------------------------------------------------------------
    def register(self, member: "CoupledCongestionControl") -> None:
        if member not in self._members:
            self._members.append(member)
            self._typed_cache.clear()

    def unregister(self, member: "CoupledCongestionControl") -> None:
        if member in self._members:
            self._members.remove(member)
            self._typed_cache.clear()

    def clear(self) -> None:
        """Drop every member (:meth:`~repro.core.connection.MptcpConnection.release`)."""
        self._members.clear()
        self._typed_cache.clear()

    def members_of(self, cls: type) -> List["CoupledCongestionControl"]:
        """The registered members that are instances of ``cls`` (cached).

        Read-only by convention, like :attr:`members_view`.
        """
        cached = self._typed_cache.get(cls)
        if cached is None:
            cached = [m for m in self._members if isinstance(m, cls)]
            self._typed_cache[cls] = cached
        return cached

    @property
    def members_view(self) -> List["CoupledCongestionControl"]:
        """The live member list, NOT copied — read-only by convention.

        The coupled algorithms iterate this on every ACK; mutating it
        corrupts the group (use register/unregister instead).
        """
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterable["CoupledCongestionControl"]:
        return iter(self._members)

    # ------------------------------------------------------------------ views
    def total_cwnd(self) -> float:
        """Sum of the member congestion windows, in segments."""
        return sum(m.cwnd for m in self._members)


class CoupledCongestionControl(CongestionControl):
    """Base class for algorithms that need a view of their sibling subflows."""

    name = "coupled-base"

    __slots__ = ("group",)

    def __init__(self, *args, group: Optional[CouplingGroup] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group = group if group is not None else CouplingGroup()
        self.group.register(self)

    # ------------------------------------------------------------------
    def rtt_or_default(self, default: float = 0.01) -> float:
        """Smoothed RTT of this subflow, falling back to ``default`` seconds."""
        return self.srtt if self.srtt and self.srtt > 0 else default

    def _congestion_avoidance(self, acked_segments: float, srtt: float, now: float) -> None:
        raise NotImplementedError
