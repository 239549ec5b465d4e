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
        ".bottleneck": ("Constraint", "ConstraintSystem", "build_constraints"),
        ".fluid": ("FluidModel", "FluidResult", "compare_equilibria"),
        ".gradient": ("GradientTrace", "project_onto_feasible", "projected_gradient_ascent"),
        ".greedy": ("GreedyResult", "greedy_fill"),
        ".lp": ("LpResult", "max_total_throughput", "proportional_fair_rates"),
        ".maxmin": ("MaxMinResult", "max_min_fair_rates"),
        ".pareto": ("Exchange", "improving_exchange", "is_pareto_optimal"),
        ".paths": ("Path", "PathSet"),
        ".polytope": ("enumerate_vertices", "maximize_over_vertices"),
    },
)
