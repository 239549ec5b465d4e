"""The throughput-maximisation linear program of Section 2.1.

"The MPTCP load balancer is facing a multidimensional optimization problem
with the following objective function max x1 + x2 + x3" -- this module solves
exactly that problem: maximise total throughput subject to the link-capacity
constraints, using scipy's HiGHS solver with a vertex-enumeration fallback.

It also provides a proportionally fair allocation (log-utility maximisation)
as an alternative objective, since coupled congestion controllers are
designed around fairness rather than raw throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.util import find_spec
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from .bottleneck import Constraint, ConstraintSystem
from .polytope import maximize_over_vertices

#: scipy.optimize costs ~0.3 s to import, so only the functions that solve
#: load it; WorkerPool loads it once in the parent before forking workers.
_HAVE_SCIPY = find_spec("scipy") is not None


@dataclass
class LpResult:
    """Solution of a throughput allocation problem."""

    rates: List[float]
    total: float
    tight_links: List[Constraint] = field(default_factory=list)
    objective: str = "max-total"
    solver: str = "highs"

    def rate_of(self, index: int) -> float:
        return self.rates[index]

    def as_dict(self) -> dict:
        return {
            "rates": [round(r, 6) for r in self.rates],
            "total": round(self.total, 6),
            "objective": self.objective,
            "solver": self.solver,
            "tight_links": [str(c) for c in self.tight_links],
        }


def max_total_throughput(
    system: ConstraintSystem,
    weights: Optional[Sequence[float]] = None,
    *,
    solver: str = "auto",
) -> LpResult:
    """Maximise (weighted) total throughput over the feasible region.

    Parameters
    ----------
    system:
        The constraint system produced by :func:`repro.model.bottleneck.build_constraints`.
    weights:
        Optional per-path weights; uniform by default (the paper's objective).
    solver:
        ``"highs"`` (scipy), ``"vertex"`` (exact enumeration) or ``"auto"``.
    """
    system.validate()
    n = system.path_count
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ModelError("weights length must match the number of paths")

    use_scipy = solver in ("auto", "highs") and _HAVE_SCIPY
    if solver == "highs" and not _HAVE_SCIPY:
        raise ModelError("scipy is not available for the 'highs' solver")

    if use_scipy:
        from scipy.optimize import linprog

        result = linprog(
            c=[-w for w in weights],
            A_ub=system.matrix(),
            b_ub=system.rhs(),
            bounds=[(0, None)] * n,
            method="highs",
        )
        if not result.success:  # pragma: no cover - defensive
            raise ModelError(f"LP solver failed: {result.message}")
        rates = [float(x) for x in result.x]
        solver_used = "highs"
    else:
        rates = maximize_over_vertices(system, weights)
        solver_used = "vertex"

    total = float(sum(rates))
    return LpResult(
        rates=rates,
        total=total,
        tight_links=system.tight_constraints(rates, tol=1e-5),
        objective="max-total" if all(w == 1.0 for w in weights) else "max-weighted",
        solver=solver_used,
    )


def proportional_fair_rates(
    system: ConstraintSystem, *, min_rate: float = 1e-3
) -> LpResult:
    """Proportionally fair allocation: maximise ``sum(log(x_i))``.

    Coupled MPTCP congestion control aims at fairness across the network
    rather than raw aggregate throughput; the proportionally fair point is a
    useful reference between the max-throughput optimum and max-min fairness.
    """
    if not _HAVE_SCIPY:
        raise ModelError("proportional fairness requires scipy")
    from scipy.optimize import minimize

    system.validate()
    n = system.path_count
    a = system.matrix()
    c = system.rhs()

    def negative_log_utility(x: np.ndarray) -> float:
        return -float(np.sum(np.log(np.maximum(x, 1e-12))))

    def gradient(x: np.ndarray) -> np.ndarray:
        return -1.0 / np.maximum(x, 1e-12)

    # One stacked constraint c - A x >= 0 whose Jacobian is exactly -A.
    jacobian = -a
    constraints = {"type": "ineq", "fun": lambda x: c - a @ x, "jac": lambda x: jacobian}
    start = np.full(n, max(min_rate, float(np.min(c)) / (2.0 * n)))
    result = minimize(
        negative_log_utility,
        start,
        jac=gradient,
        bounds=[(min_rate, None)] * n,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-10},
    )
    if not result.success:  # pragma: no cover - defensive
        raise ModelError(f"proportional fairness solver failed: {result.message}")
    rates = [float(x) for x in result.x]
    return LpResult(
        rates=rates,
        total=float(sum(rates)),
        tight_links=system.tight_constraints(rates, tol=1e-4),
        objective="proportional-fair",
        solver="slsqp",
    )
