"""Multipath congestion-control algorithms and the per-connection factory.

The paper measures three algorithms: uncoupled CUBIC (the Linux default),
LIA and OLIA.  BALIA and wVegas are provided as extensions.  Use
:func:`make_multipath_congestion_control` to build per-subflow instances that
share one :class:`CouplingGroup` per MPTCP connection.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import TYPE_CHECKING, Optional

from ..._lazy import lazy_exports
from ...errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ...tcp.cc.base import CongestionControl
    from .base import CouplingGroup

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".balia": ("BaliaCongestionControl",),
        ".base": ("CoupledCongestionControl", "CouplingGroup"),
        ".lia": ("LiaCongestionControl",),
        ".olia": ("OliaCongestionControl",),
        ".signal": ("MultipathSfc", "MultipathTelehaptic"),
        ".uncoupled": ("UncoupledCubic", "UncoupledReno"),
        ".wvegas": ("WVegasCongestionControl",),
    },
)
__all__ = sorted(
    [*__all__, "MULTIPATH_ALGORITHMS", "PAPER_ALGORITHMS", "make_multipath_congestion_control"]
)


class _Registry(Mapping):
    """``name -> controller class``; a class loads on lookup, the names load nothing."""

    def __init__(self, class_names: dict) -> None:
        self._class_names = class_names

    def __getitem__(self, name: str) -> type:
        return getattr(sys.modules[__name__], self._class_names[name])

    def __contains__(self, name: object) -> bool:  # Mapping's own would look the class up
        return name in self._class_names

    def __iter__(self):
        return iter(self._class_names)

    def __len__(self) -> int:
        return len(self._class_names)


#: Algorithms the paper measures plus the extensions, keyed by the names used
#: throughout the experiment configurations.
MULTIPATH_ALGORITHMS = _Registry(
    {
        "cubic": "UncoupledCubic",
        "reno": "UncoupledReno",
        "lia": "LiaCongestionControl",
        "olia": "OliaCongestionControl",
        "balia": "BaliaCongestionControl",
        "wvegas": "WVegasCongestionControl",
        "sfc": "MultipathSfc",
        "telehaptic": "MultipathTelehaptic",
    }
)

#: The three algorithms evaluated in the paper's measurements.
PAPER_ALGORITHMS = ("cubic", "lia", "olia")


def make_multipath_congestion_control(
    name: str,
    *,
    mss: int,
    group: Optional[CouplingGroup] = None,
    **kwargs,
) -> CongestionControl:
    """Create one per-subflow congestion controller registered with ``group``."""
    try:
        cls = MULTIPATH_ALGORITHMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown multipath congestion control {name!r}; "
            f"choose from {sorted(MULTIPATH_ALGORITHMS)}"
        ) from None
    return cls(mss=mss, group=group, **kwargs)
