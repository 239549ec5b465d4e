"""Instantaneous rate allocators for the flow-level backend.

Between two events the flow-level engine holds every flow's rate constant;
whenever the set of active flows or the link capacities change it asks an
allocator to re-solve the bandwidth sharing.  Flows with identical routing,
weight and rate cap are interchangeable, so the engine aggregates them into
*rate classes* and the allocator works on classes, never on individual flows
-- the solve cost scales with the number of distinct routes, not with the
number of concurrent flows.

Three rules are provided, mirroring the reference allocations the analytical
models already compute (:mod:`repro.model`):

* :class:`MaxMinAllocator` (default) -- weighted progressive filling with
  rate caps.  Coupled MPTCP connections give each subflow weight ``1/n`` so
  a whole connection claims one TCP-fair share of a shared bottleneck, which
  is exactly the operating point LIA/OLIA aim for.
* :class:`ProportionalFairAllocator` -- weighted log-utility maximisation
  (scipy SLSQP), the equilibrium of utility-fair congestion control.
* :class:`FluidAllocator` -- the equilibrium of the matching
  :class:`~repro.model.fluid.FluidModel` congestion-control family, solved on
  a per-flow replicated constraint system (validation-scale scenarios only).

Non-responsive classes (UDP / on-off cross-traffic) are served first at
``min(cap, fair share of the remaining capacity)`` -- a constant-bit-rate
source does not back off, so it must not participate in the fair sharing of
what is left.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

from ..errors import ConfigurationError, ModelError


class ClassDemand(NamedTuple):
    """One rate class as the allocator sees it.

    ``links`` are indices into the capacity vector; ``count`` is the number
    of interchangeable flows in the class; ``weight`` scales the class's
    claim per flow in weighted fair sharing; ``cap`` bounds the per-flow rate
    (``None`` = greedy); ``responsive`` is False for constant-bit-rate
    sources that do not back off under congestion.
    """

    links: Tuple[int, ...]
    count: int
    weight: float = 1.0
    cap: Optional[float] = None
    responsive: bool = True


class RateAllocator:
    """Base class: map (rate classes, link capacities) to per-flow rates."""

    name = "base"

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:  # pragma: no cover - abstract
        """Per-flow rate (Mbps) for each class, parallel to ``demands``."""
        raise NotImplementedError


_EPS = 1e-9


class MaxMinAllocator(RateAllocator):
    """Weighted max-min fairness by progressive filling, with rate caps.

    All unfrozen classes grow together in proportion to their weights until a
    link saturates (freezing every class crossing it) or a class reaches its
    cap; repeat until nothing can grow.  With uniform weights and no caps
    this is exactly :func:`repro.model.maxmin.max_min_fair_rates` evaluated
    per flow.
    """

    name = "maxmin"

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:
        remaining = [float(c) for c in capacity]
        rates = [0.0] * len(demands)

        # Non-responsive classes first: a CBR source takes min(cap, its share
        # of what the link has) and never backs off below that.
        for index, demand in enumerate(demands):
            if demand.responsive or demand.count <= 0:
                continue
            share = min(remaining[link] for link in demand.links) / demand.count
            rate = max(0.0, share if demand.cap is None else min(demand.cap, share))
            rates[index] = rate
            claimed = rate * demand.count
            for link in demand.links:
                remaining[link] -= claimed

        active = {
            index
            for index, demand in enumerate(demands)
            if demand.responsive and demand.count > 0
        }
        # A class that starts on an already-exhausted link stays at rate 0.
        self._freeze_on_tight_links(demands, remaining, active)

        max_rounds = len(demands) + len(remaining) + 1
        for _ in range(max_rounds):
            if not active:
                break
            weight_demand: Dict[int, float] = {}
            for index in active:
                demand = demands[index]
                claim = demand.count * demand.weight
                for link in demand.links:
                    weight_demand[link] = weight_demand.get(link, 0.0) + claim
            increment = min(
                remaining[link] / total for link, total in weight_demand.items()
            )
            capped_now: List[int] = []
            for index in active:
                demand = demands[index]
                if demand.cap is None:
                    continue
                headroom = (demand.cap - rates[index]) / demand.weight
                if headroom <= increment + _EPS:
                    increment = min(increment, headroom)
                    capped_now.append(index)
            increment = max(increment, 0.0)
            for index in active:
                demand = demands[index]
                rates[index] += demand.weight * increment
            for link, total in weight_demand.items():
                remaining[link] -= total * increment
            for index in capped_now:
                rates[index] = demands[index].cap
                active.discard(index)
            frozen = self._freeze_on_tight_links(demands, remaining, active)
            if increment <= 0.0 and not frozen and not capped_now:
                break  # pragma: no cover - defensive against float stalls
        return rates

    @staticmethod
    def _freeze_on_tight_links(
        demands: Sequence[ClassDemand],
        remaining: Sequence[float],
        active: set,
    ) -> bool:
        tight = {link for link, slack in enumerate(remaining) if slack <= _EPS}
        if not tight:
            return False
        frozen = [
            index
            for index in active
            if any(link in tight for link in demands[index].links)
        ]
        for index in frozen:
            active.discard(index)
        return bool(frozen)


class ProportionalFairAllocator(RateAllocator):
    """Weighted proportional fairness: maximise ``sum(n_c * w_c * log r_c)``.

    The utility-fair equilibrium on the same capacity region, solved with
    scipy's SLSQP (the solver behind
    :func:`repro.model.lp.proportional_fair_rates`).  Weighted subflow terms
    approximate coupled connections; intended for validation-scale scenarios,
    not the 10k-flow regime.  A responsive class capped below ``min_rate`` is
    served at its cap after the constant-bit-rate classes; one that crosses a
    link left with less than ``min_rate`` per responsive flow (capacity 0, or
    taken by the served classes) gets 0.  Neither enters the solve, whose
    bounds ``[min_rate, cap]`` they could not meet.
    """

    name = "proportional_fair"

    def __init__(self, *, min_rate: float = 1e-3) -> None:
        self.min_rate = min_rate

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:
        import numpy as np

        from ..model._scipy_solvers import EXIT_MODES, minimize_slsqp

        populated = [i for i, d in enumerate(demands) if d.count > 0]
        if not populated:
            return [0.0] * len(demands)
        fixed: Dict[int, float] = {}
        remaining = [float(c) for c in capacity]
        # Constant-bit-rate classes first, then responsive ones capped below
        # min_rate: each takes its cap, or its share of what is left.
        constant = [i for i in populated if not demands[i].responsive]
        below = [
            i
            for i in populated
            if demands[i].responsive
            and demands[i].cap is not None
            and demands[i].cap < self.min_rate
        ]
        for index in constant + below:
            demand = demands[index]
            share = min(remaining[link] for link in demand.links) / demand.count
            rate = max(0.0, share if demand.cap is None else min(demand.cap, share))
            fixed[index] = rate
            for link in demand.links:
                remaining[link] -= rate * demand.count
            populated.remove(index)
        # A link that cannot give every responsive flow on it min_rate (float
        # dust included) is exhausted: the classes crossing it get 0.
        flows: Dict[int, int] = {}
        for index in populated:
            for link in demands[index].links:
                flows[link] = flows.get(link, 0) + demands[index].count
        exhausted = {link for link, n in flows.items() if remaining[link] < self.min_rate * n}
        for index in list(populated):
            if any(link in exhausted for link in demands[index].links):
                fixed[index] = 0.0
                populated.remove(index)
        if not populated:
            return [fixed.get(i, 0.0) for i in range(len(demands))]

        counts = np.asarray([demands[i].count for i in populated], dtype=float)
        weights = np.asarray([demands[i].weight for i in populated], dtype=float)
        objective_weights = counts * weights

        def negative_utility(x: "np.ndarray") -> float:
            return -float(objective_weights @ np.log(np.maximum(x, 1e-12)))

        def gradient(x: "np.ndarray") -> "np.ndarray":
            return -objective_weights / np.maximum(x, 1e-12)

        rows: Dict[int, List[Tuple[int, float]]] = {}
        for column, index in enumerate(populated):
            for link in demands[index].links:
                rows.setdefault(link, []).append((column, demands[index].count))
        # One stacked constraint budget - A x >= 0 whose Jacobian is exactly -A.
        links = sorted(rows)
        matrix = np.zeros((len(links), len(populated)))
        for row, link in enumerate(links):
            for column, count in rows[link]:
                matrix[row, column] += count
        budget = np.asarray([remaining[link] for link in links])  # none exhausted, see above
        start = np.full(
            len(populated),
            max(self.min_rate, min(max(r, 0.0) for r in remaining) / (2.0 * counts.sum())),
        )
        x, mode, _ = minimize_slsqp(
            negative_utility,
            gradient,
            start,
            matrix,
            budget,
            np.full(len(populated), float(self.min_rate)),
            np.asarray([np.inf if demands[i].cap is None else demands[i].cap for i in populated]),
        )
        if mode != 0:
            raise ModelError(f"proportional-fair allocator failed: {EXIT_MODES[mode]}")
        rates = [0.0] * len(demands)
        for column, index in enumerate(populated):
            rates[index] = float(x[column])
        for index, rate in fixed.items():
            rates[index] = rate
        return rates


class FluidAllocator(RateAllocator):
    """Equilibrium rates of the matching fluid congestion-control family.

    Replicates each class into one fluid-model path per flow and runs
    :class:`~repro.model.fluid.FluidModel` to (near-)equilibrium, so the
    flow-level backend can expose the exact allocation the model-validation
    suite already predicts.  Replication makes this linear in the number of
    flows -- it refuses scenarios beyond ``max_flows``.
    """

    name = "fluid"

    def __init__(
        self,
        algorithm: str = "uncoupled",
        *,
        duration: float = 8.0,
        max_flows: int = 256,
    ) -> None:
        self.algorithm = algorithm
        self.duration = duration
        self.max_flows = max_flows

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:
        from ..model.bottleneck import Constraint, ConstraintSystem
        from ..model.fluid import FluidModel
        from ..model.paths import Path

        populated = [i for i, d in enumerate(demands) if d.count > 0]
        if not populated:
            return [0.0] * len(demands)
        if any(not demands[i].responsive or demands[i].cap is not None for i in populated):
            raise ModelError(
                "the fluid allocator models greedy responsive flows only; "
                "use the maxmin allocator for capped/non-responsive traffic"
            )
        total_flows = sum(demands[i].count for i in populated)
        if total_flows > self.max_flows:
            raise ModelError(
                f"fluid allocator limited to {self.max_flows} concurrent flows "
                f"(got {total_flows}); use the maxmin allocator at scale"
            )
        columns: List[int] = []  # column -> demand index
        for index in populated:
            columns.extend([index] * demands[index].count)
        link_columns: Dict[int, List[int]] = {}
        for column, index in enumerate(columns):
            for link in demands[index].links:
                link_columns.setdefault(link, []).append(column)
        constraints = [
            Constraint(
                link=("link", str(link)),
                capacity=float(capacity[link]),
                path_indices=tuple(cols),
            )
            for link, cols in sorted(link_columns.items())
        ]
        paths = [Path((f"src{c}", f"dst{c}")) for c in range(len(columns))]
        system = ConstraintSystem(paths, constraints)
        equilibrium = FluidModel(system).run(self.algorithm, duration=self.duration)
        per_column = equilibrium.mean_rates(0.25)
        totals: Dict[int, float] = {}
        for column, index in enumerate(columns):
            totals[index] = totals.get(index, 0.0) + per_column[column]
        return [
            totals.get(i, 0.0) / demands[i].count if demands[i].count else 0.0
            for i in range(len(demands))
        ]


#: Allocator registry keyed by the names used in configurations and the CLI.
ALLOCATORS: Dict[str, Type[RateAllocator]] = {
    "maxmin": MaxMinAllocator,
    "proportional_fair": ProportionalFairAllocator,
    "fluid": FluidAllocator,
}


def make_allocator(name_or_instance, **kwargs) -> RateAllocator:
    """Resolve an allocator name (or pass an instance through)."""
    if isinstance(name_or_instance, RateAllocator):
        return name_or_instance
    try:
        cls = ALLOCATORS[str(name_or_instance)]
    except KeyError:
        raise ConfigurationError(
            f"unknown flow allocator {name_or_instance!r}; "
            f"choose from {sorted(ALLOCATORS)}"
        ) from None
    return cls(**kwargs)
