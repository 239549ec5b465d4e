"""Topology builders: the paper's network (Fig. 1a) and generic scenarios."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generators": (
            "disjoint_paths", "pairwise_overlap", "parking_lot", "shared_bottleneck",
            "two_bottleneck_diamond", "wifi_cellular",
        ),
        ".paper": (
            "PAPER_DEFAULT_PATH_INDEX", "PAPER_OPTIMAL_RATES", "PAPER_OPTIMAL_TOTAL",
            "PAPER_SHARED_CAPACITIES", "build_paper_topology", "paper_paths", "paper_scenario",
            "paper_shared_link", "paper_variants",
        ),
    },
)
