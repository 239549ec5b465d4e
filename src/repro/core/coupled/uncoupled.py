"""Uncoupled per-subflow congestion control.

This is the configuration the paper calls "CUBIC (the default in Linux)":
every MPTCP subflow runs an ordinary single-path congestion controller and
there is *no interaction between the individual TCP congestion control
actions* (Section 3 of the paper).  The classes below simply reuse the
single-path algorithms while still registering with the coupling group so
that connection-level statistics and the other subflows can observe them.
"""

from __future__ import annotations

from typing import Optional

from ...tcp.cc.cubic import CubicCongestionControl
from ...tcp.cc.reno import RenoCongestionControl
from .base import CouplingGroup


class UncoupledCubic(CubicCongestionControl):
    """Per-subflow CUBIC with no coupling (the paper's default setup)."""

    name = "cubic"

    __slots__ = ("group",)

    def __init__(self, *args, group: Optional[CouplingGroup] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group = group if group is not None else CouplingGroup()
        self.group.register(self)  # type: ignore[arg-type]


class UncoupledReno(RenoCongestionControl):
    """Per-subflow Reno with no coupling."""

    name = "reno"

    __slots__ = ("group",)

    def __init__(self, *args, group: Optional[CouplingGroup] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.group = group if group is not None else CouplingGroup()
        self.group.register(self)  # type: ignore[arg-type]
