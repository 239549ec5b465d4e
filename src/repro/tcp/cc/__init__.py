"""Congestion-control algorithms for single TCP flows.

The coupled multipath algorithms (LIA, OLIA, BALIA, wVegas) live in
:mod:`repro.core.coupled`; this package holds the per-flow algorithms and the
factory used by both layers.
"""

from __future__ import annotations

from ...errors import ConfigurationError
from .base import CongestionControl, INITIAL_CWND_SEGMENTS, MIN_CWND_SEGMENTS
from .cubic import CubicCongestionControl
from .reno import RenoCongestionControl
from .sfc import SfcCongestionControl
from .telehaptic import TelehapticCongestionControl

_SINGLE_PATH_ALGORITHMS = {
    "reno": RenoCongestionControl,
    "newreno": RenoCongestionControl,
    "cubic": CubicCongestionControl,
    "sfc": SfcCongestionControl,
    "telehaptic": TelehapticCongestionControl,
}


def _single_path_class(name: str) -> type:
    """The single-path algorithm registered as ``name``, or a ConfigurationError."""
    try:
        return _SINGLE_PATH_ALGORITHMS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown single-path congestion control {name!r}; "
            f"choose from {sorted(_SINGLE_PATH_ALGORITHMS)}"
        ) from None


def make_congestion_control(name: str, *, mss: int, **kwargs) -> CongestionControl:
    """Instantiate a single-path congestion-control algorithm by name."""
    return _single_path_class(name)(mss=mss, **kwargs)


__all__ = [
    "CongestionControl",
    "CubicCongestionControl",
    "INITIAL_CWND_SEGMENTS",
    "MIN_CWND_SEGMENTS",
    "RenoCongestionControl",
    "SfcCongestionControl",
    "TelehapticCongestionControl",
    "make_congestion_control",
]
