"""Single-path TCP substrate: congestion control, sender, receiver."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".cc": (
            "CongestionControl", "CubicCongestionControl", "RenoCongestionControl",
            "make_congestion_control",
        ),
        ".connection": ("BulkDataAdapter", "TcpConnection"),
        ".receiver": ("TcpReceiver",),
        ".rtt": ("RttEstimator",),
        ".sender": ("TcpSender",),
    },
)
