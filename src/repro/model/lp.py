"""The throughput-maximisation linear program of Section 2.1.

"The MPTCP load balancer is facing a multidimensional optimization problem
with the following objective function max x1 + x2 + x3" -- this module solves
exactly that problem: maximise total throughput subject to the link-capacity
constraints, using scipy's HiGHS solver with a vertex-enumeration fallback.
HiGHS is scipy's compiled module, loaded by :mod:`repro.model._scipy_solvers`
without ``scipy.optimize``.

It also provides the proportionally fair allocation (Kelly, Maulloo & Tan's
weighted log utility) as an alternative objective, since coupled congestion
controllers are designed around fairness rather than raw throughput: one
interior-point body in numpy over rate classes, which certifies its answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib.util import find_spec
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError
from ._scipy_solvers import HIGHS, load
from .bottleneck import Constraint, ConstraintSystem
from .classes import ClassDemand, check_classes, serve_first, unit_classes
from .polytope import maximize_over_vertices

#: Only the LP loads scipy's HiGHS module (≈ 8 ms, never ``scipy.optimize``);
#: WorkerPool loads it in the parent before it forks.
_HAVE_SCIPY = find_spec("scipy") is not None

#: A proportionally fair solve's duality gap is at most this share of
#: ``sum(n_c * w_c)``: the tests' closed forms then hold to 1e-10 of a rate.
GAP_BOUND = 1e-10
#: A cap or a link's room above ``min_rate`` narrower than this share of it
#: leaves no interior a double can step through.
_NARROW = 1e-9
#: Guards against floating-point stagnation only: no solve of 13 000 random
#: class systems took more than 31 iterations.
_MAX_ITERATIONS = 100


@dataclass
class LpResult:
    """Solution of a throughput allocation problem."""

    rates: List[float]
    total: float
    tight_links: List[Constraint] = field(default_factory=list)
    objective: str = "max-total"
    solver: str = "highs"
    #: A proportionally fair solve's duality gap: its utility is within this
    #: of the optimum (``None`` for the LP).
    gap: Optional[float] = None

    def as_dict(self) -> dict:
        data = {
            "rates": [round(r, 6) for r in self.rates],
            "total": round(self.total, 6),
            "objective": self.objective,
            "solver": self.solver,
            "tight_links": [str(c) for c in self.tight_links],
        }
        if self.gap is not None:
            data["gap"] = self.gap
        return data


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
    It is :func:`proportional_fair` over one unit class per path.
    """
    system.validate()
    rates, gap = proportional_fair(*unit_classes(system), min_rate=min_rate)
    return LpResult(
        rates=rates,
        total=float(sum(rates)),
        tight_links=system.tight_constraints(rates, tol=1e-4),
        objective="proportional-fair",
        solver="interior-point",
        gap=gap,
    )


def proportional_fair(
    demands: Sequence[ClassDemand], capacity: Sequence[float], *, min_rate: float = 1e-3
) -> Tuple[List[float], float]:
    """Per-flow rate of each class (parallel to ``demands``) maximising
    ``sum(n_c * w_c * log(x_c))`` under the link capacities and
    ``min_rate <= x_c <= cap_c``, and the solve's duality gap, at most
    :data:`GAP_BOUND` times ``sum(n_c * w_c)`` over the solved classes.

    First constant-bit-rate classes, then responsive ones capped at
    ``min_rate`` or on infinite links only, take their cap or their share of
    what is left (:func:`~repro.model.classes.serve_first`); a responsive
    class on a link left with no more than ``min_rate`` per responsive flow
    gets 0.  ("At" and "no more" are up to :data:`_NARROW`.)  What is left has
    the strict interior the solve starts from.
    """
    check_classes(demands, capacity)
    rates = [0.0] * len(demands)
    remaining = [float(c) for c in capacity]
    populated = [i for i, d in enumerate(demands) if d.count > 0]
    first = [i for i in populated if not demands[i].responsive] + [
        i for i in populated if demands[i].responsive and demands[i].cap is not None and (
            demands[i].cap <= min_rate * (1.0 + _NARROW)
            or all(remaining[link] == math.inf for link in demands[i].links))
    ]
    serve_first(demands, first, rates, remaining)
    served = set(first)
    solved = [i for i in populated if i not in served]
    flows: Dict[int, int] = {}
    for index in solved:
        for link in demands[index].links:
            flows[link] = flows.get(link, 0) + demands[index].count
    exhausted = {j for j, n in flows.items() if remaining[j] <= min_rate * n * (1.0 + _NARROW)}
    solved = [i for i in solved if exhausted.isdisjoint(demands[i].links)]
    if not solved:
        return rates, 0.0
    # One row per finite link the solved classes cross, holding flow counts.
    links = sorted({j for i in solved for j in demands[i].links if remaining[j] < math.inf})
    a = np.array(
        [[demands[i].count * demands[i].links.count(j) for i in solved] for j in links], dtype=float
    )
    weights = np.array([demands[i].weight for i in solved])
    counts = np.array([demands[i].count for i in solved])
    caps = np.array([math.inf if demands[i].cap is None else demands[i].cap for i in solved])
    x, gap = _interior_point(
        counts * weights, weights, a, np.array([remaining[j] for j in links]), min_rate, caps
    )
    for index, rate in zip(solved, x.tolist()):
        rates[index] = rate
    return rates, gap


def _interior_point(
    v: np.ndarray, w: np.ndarray, a: np.ndarray, c: np.ndarray, lo: float, hi: np.ndarray
) -> Tuple[np.ndarray, float]:
    """``max v @ log(x)`` subject to ``a @ x <= c`` and ``lo <= x <= hi``, as
    ``(x, duality gap)``.

    ``v`` is each class's utility weight ``n_c * w_c``, ``w`` its per-flow
    weight, ``a`` its flow count on each link; ``hi`` may hold ``inf``.  The
    problem must have a strict interior: ``c > lo * a.sum(axis=1)`` and
    ``lo < hi``.  A primal-dual path-following method (Boyd & Vandenberghe,
    §11.7) from a strictly feasible start, so every iterate is feasible; it
    stops once the dual function at the link prices certifies the gap.
    """
    m, k = a.shape
    capped = np.isfinite(hi)
    eye = np.eye(k)
    # Every constraint as a row of g @ x <= h: the links, x >= lo, x <= cap.
    g = np.concatenate((a, -eye, eye[capped]))
    h = np.concatenate((c, np.full(k, -lo), hi[capped]))
    rows, total = len(h), v.sum()
    target = GAP_BOUND * total
    # Start at 0.999 of each class's weighted share of the room above lo on
    # its tightest link (the optimum where no two classes share a link).
    room = (c - lo * a.sum(axis=1)) / (a @ w)
    share = np.minimum.reduce(np.where(a > 0, room[:, None], np.inf))
    x = lo + 0.999 * np.minimum(w * share, hi - lo)
    s = h - g @ x  # slacks, kept > 0
    lam = (0.05 * total / rows) / s  # multipliers, kept > 0; lam[:m] are the link prices
    for _ in range(_MAX_ITERATIONS):
        products = s * lam
        eta = np.add.reduce(products)  # the surrogate gap, which the certificate tracks
        if eta <= 10.0 * target:
            gap = _certified_gap(v, a, c, lo, hi, x, lam[:m])
            if gap <= target:
                return x, gap
        # Aim the complementarity at sigma * its mean: superlinearly smaller
        # near the optimum, larger while some product lags far behind the mean
        # (Vanderbei's LOQO rule).
        spread = np.minimum.reduce(products) * rows / eta
        sigma = max(min(0.1, eta / total), 0.1 * min(0.05 * (1.0 - spread) / spread, 2.0) ** 3)
        mu = sigma * eta / rows
        # Newton step on v / x = g.T @ lam and lam * s = mu, reduced to x; the
        # objective's Hessian v / x**2 joins the x >= lo rows' (g is -I there).
        inv_s = 1.0 / s
        q = v / x
        d = lam * inv_s
        d[m:m + k] += q / x
        dx = np.linalg.solve((g.T * d) @ g, q - g.T @ (mu * inv_s))
        grow_s = (g @ dx) * -inv_s  # relative change of each slack
        grow_lam = mu / products - 1.0 - grow_s  # ... and of each multiplier
        worst = np.minimum.reduce(np.minimum(grow_s, grow_lam))
        # The full step where it keeps everything positive near the optimum,
        # else 99 % of the way to the boundary.
        alpha = 1.0 if eta < 1e-2 * total and worst > -1.0 else min(1.0, -0.99 / worst)
        x += alpha * dx
        s = h - g @ x
        lam *= 1.0 + alpha * grow_lam
    return x, _certified_gap(v, a, c, lo, hi, x, lam[:m])


def _certified_gap(v, a, c, lo, hi, x, z) -> float:
    """``f(x) - g(z)`` for ``f = -v @ log(x)``: the Lagrangian dual of the link
    constraints at prices ``z >= 0``, minimised over the box in closed form,
    bounds the optimum from below, so ``x`` is within this of it."""
    p = a.T @ z  # each class's price per unit of rate
    best = np.minimum(np.maximum(v / p, lo), hi)  # argmin of -v log y + p y over the box
    return float(v @ np.log(best / x) - p @ best + c @ z)
