"""Multipath wrappers for the signal-driven controller families.

SFC and telehaptic are per-subflow controllers (their state is the path's
own signal history, not a coupled aggregate), so like
:mod:`repro.core.coupled.uncoupled` they reuse the single-path
implementations and only register with the coupling group so that
connection-level statistics and the sibling subflows can observe them.
"""

from __future__ import annotations

from typing import Optional

from ...tcp.cc.sfc import SfcCongestionControl
from ...tcp.cc.telehaptic import TelehapticCongestionControl
from .base import CouplingGroup


class MultipathSfc(SfcCongestionControl):
    """Per-subflow SFC pushback pacing on an MPTCP connection."""

    name = "sfc"

    __slots__ = ("group",)

    def __init__(self, *args, group: Optional[CouplingGroup] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group = group if group is not None else CouplingGroup()
        self.group.register(self)  # type: ignore[arg-type]


class MultipathTelehaptic(TelehapticCongestionControl):
    """Per-subflow telehaptic delay-gradient control on an MPTCP connection."""

    name = "telehaptic"

    __slots__ = ("group",)

    def __init__(self, *args, group: Optional[CouplingGroup] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group = group if group is not None else CouplingGroup()
        self.group.register(self)  # type: ignore[arg-type]
