"""The throughput-maximisation linear program of Section 2.1.

"The MPTCP load balancer is facing a multidimensional optimization problem
with the following objective function max x1 + x2 + x3" -- this module solves
exactly that problem: maximise total throughput subject to the link-capacity
constraints, using scipy's HiGHS solver with a vertex-enumeration fallback.
Both scipy solvers here (HiGHS and, below, SLSQP) are its compiled modules,
loaded by :mod:`repro.model._scipy_solvers` without ``scipy.optimize``.

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
from ._scipy_solvers import EXIT_MODES, HIGHS, load, minimize_slsqp
from .bottleneck import Constraint, ConstraintSystem
from .polytope import maximize_over_vertices

#: Only the functions that solve load scipy's solver modules (≈ 8 ms, never
#: ``scipy.optimize``); WorkerPool loads them in the parent before it forks.
_HAVE_SCIPY = find_spec("scipy") is not None


@dataclass
class LpResult:
    """Solution of a throughput allocation problem."""

    rates: List[float]
    total: float
    tight_links: List[Constraint] = field(default_factory=list)
    objective: str = "max-total"
    solver: str = "highs"

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
        ``"highs"`` (scipy's HiGHS bindings), ``"vertex"`` (exact enumeration) or ``"auto"``.
    """
    system.validate()
    n = system.path_count
    if weights is None:
        weights = [1.0] * n
    if len(weights) != n:
        raise ModelError("weights length must match the number of paths")

    core = None
    if solver in ("auto", "highs") and _HAVE_SCIPY:
        try:  # scipy's HiGHS bindings, loaded at the first solve
            core = load(HIGHS)
        except ImportError:  # scipy older than 1.15
            pass
    if solver == "highs" and core is None:
        raise ModelError("the 'highs' solver needs scipy.optimize._highspy (scipy >= 1.15)")

    if core is not None:
        rates = _solve_highs(core, system.matrix(), system.rhs(), weights)
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


def _solve_highs(core, a: np.ndarray, b: np.ndarray, weights: Sequence[float]) -> List[float]:
    """``linprog(-weights, A_ub=a, b_ub=b, method="highs").x`` as one HiGHS call:
    ``linprog``'s model, options and post-check (``_linprog_highs``,
    ``_linprog_util._check_result``) without re-checking them on every call."""
    m, n = a.shape
    inf = core.kHighsInf
    cols, rows = np.nonzero(a.T)
    rhs = np.clip(b, -inf, inf)  # ±inf as ±kHighsInf, which HiGHS reads as no bound
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = a.T[cols, rows]
    lp.col_cost_ = -np.asarray(weights, dtype=float)
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, inf)
    lp.row_lower_ = np.full(m, -inf)
    lp.row_upper_ = rhs
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    highs.run()
    if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
        raise ModelError(f"LP solver failed: {highs.modelStatusToString(highs.getModelStatus())}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - np.array(solution.row_value)
    # x >= 0 and b - A x >= 0 within linprog's tolerance; a NaN fails too.
    if not np.concatenate((x, slack)).min() >= -np.sqrt(1e-9) * 10:
        raise ModelError("LP solver failed: the solution violates x >= 0 or A x <= b")
    return [float(v) for v in x]


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

    system.validate()
    n = system.path_count
    a = system.matrix()
    c = system.rhs()

    def negative_log_utility(x: np.ndarray) -> float:
        return -float(np.sum(np.log(np.maximum(x, 1e-12))))

    def gradient(x: np.ndarray) -> np.ndarray:
        return -1.0 / np.maximum(x, 1e-12)

    # One stacked constraint c - A x >= 0 whose Jacobian is exactly -A.
    start = np.full(n, max(min_rate, float(np.min(c)) / (2.0 * n)))
    x, mode, _ = minimize_slsqp(
        negative_log_utility, gradient, start, a, c, np.full(n, float(min_rate)), np.full(n, np.inf)
    )
    if mode != 0:
        raise ModelError(f"proportional fairness solver failed: {EXIT_MODES[mode]}")
    rates = [float(rate) for rate in x]
    return LpResult(
        rates=rates,
        total=float(sum(rates)),
        tight_links=system.tight_constraints(rates, tol=1e-4),
        objective="proportional-fair",
        solver="slsqp",
    )
