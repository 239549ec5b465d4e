"""Analytical model of MPTCP throughput over overlapping paths.

This package contains everything needed to reason about the paper's
optimisation problem without running the packet simulator: path overlap
analysis, constraint extraction (Fig. 1c), the max-throughput LP and its
optimum, alternative allocations (max-min fair, proportionally fair, greedy),
Pareto-optimality checks, projected-gradient ascent and fluid models of the
congestion-control dynamics.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".bottleneck": (
            "Constraint", "ConstraintSystem", "build_constraints", "shared_bottleneck_summary",
        ),
        ".fluid": ("FluidModel", "FluidResult", "compare_equilibria"),
        ".gradient": ("GradientTrace", "project_onto_feasible", "projected_gradient_ascent"),
        ".greedy": ("GreedyResult", "best_greedy_order", "greedy_fill", "worst_greedy_order"),
        ".lp": ("LpResult", "max_total_throughput", "proportional_fair_rates"),
        ".maxmin": ("MaxMinResult", "max_min_fair_rates"),
        ".pareto": (
            "Exchange", "blocking_constraints", "improving_exchange", "is_pareto_optimal",
            "optimality_gap", "pareto_frontier_2d",
        ),
        ".paths": ("Path", "PathSet", "paths_from_node_lists"),
        ".polytope": ("enumerate_vertices", "feasible_region_volume", "maximize_over_vertices"),
    },
)
