"""MPTCP over overlapping paths -- the paper's primary subject.

Public surface:

* :class:`MptcpConnection` -- the multipath connection object
* :class:`Subflow` -- one tagged TCP session along one path
* path managers -- :class:`TagPathManager` (the paper's modified
  ``ndiffports``) and :class:`FailoverPathManager` (mobile handover)
* schedulers -- :class:`MinRttScheduler`, :class:`RoundRobinScheduler`,
  :class:`RedundantScheduler`
* coupled congestion control -- LIA, OLIA, BALIA, wVegas and the uncoupled
  CUBIC/Reno wrappers, created via :func:`make_multipath_congestion_control`
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".connection": ("MptcpConnection",),
        ".coupled": (
            "BaliaCongestionControl", "CoupledCongestionControl", "CouplingGroup",
            "LiaCongestionControl", "MULTIPATH_ALGORITHMS", "OliaCongestionControl",
            "PAPER_ALGORITHMS", "UncoupledCubic", "UncoupledReno", "WVegasCongestionControl",
            "make_multipath_congestion_control",
        ),
        ".options": ("DsnAllocator", "DsnReassembler"),
        ".path_manager": ("FailoverPathManager", "PathManager", "TagPathManager"),
        ".scheduler": (
            "MinRttScheduler", "RedundantScheduler", "RoundRobinScheduler", "Scheduler",
            "make_scheduler",
        ),
        ".subflow": ("Subflow",),
    },
)
