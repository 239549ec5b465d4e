"""Topology builders: the paper's network (Fig. 1a) and the shared-bottleneck,
disjoint, Wi-Fi + cellular and pairwise-overlap generators."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".generators": (
            "disjoint_paths", "pairwise_overlap", "shared_bottleneck", "wifi_cellular",
        ),
        ".paper": (
            "PAPER_DEFAULT_PATH_INDEX", "PAPER_OPTIMAL_RATES", "PAPER_OPTIMAL_TOTAL",
            "PAPER_SHARED_CAPACITIES", "build_paper_topology", "paper_paths", "paper_scenario",
        ),
    },
)
