"""Instantaneous rate allocators for the flow-level backend.

Between two events the flow-level engine holds every flow's rate constant;
whenever the set of active flows or the link capacities change it asks an
allocator to re-solve the bandwidth sharing.  Flows with identical routing,
weight and rate cap are interchangeable, so the engine aggregates them into
*rate classes* (:class:`~repro.model.classes.ClassDemand`) and the allocator
works on classes, never on individual flows -- the solve cost scales with the
number of distinct routes, not with the number of concurrent flows.

Three rules are provided.  The first two are the analytical models' own
bodies (:mod:`repro.model`), which a constraint system reaches as one unit
class per path:

* :class:`MaxMinAllocator` (default) -- weighted progressive filling with
  rate caps (:func:`repro.model.maxmin.progressive_filling`).  Coupled MPTCP
  connections give each subflow weight ``1/n`` so a whole connection claims
  one TCP-fair share of a shared bottleneck, which is exactly the operating
  point LIA/OLIA aim for.
* :class:`ProportionalFairAllocator` -- weighted log-utility maximisation
  (:func:`repro.model.lp.proportional_fair`, an interior-point solve with a
  certified duality gap), the equilibrium of utility-fair congestion control.
* :class:`FluidAllocator` -- the equilibrium of the matching
  :class:`~repro.model.fluid.FluidModel` congestion-control family, solved on
  a per-flow replicated constraint system (validation-scale scenarios only).

Non-responsive classes (UDP / on-off cross-traffic) are served first at
``min(cap, fair share of the remaining capacity)`` -- a constant-bit-rate
source does not back off, so it must not participate in the fair sharing of
what is left.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from ..errors import ConfigurationError, ModelError
from ..model.classes import ClassDemand
from ..model.maxmin import progressive_filling


class RateAllocator:
    """Base class: map (rate classes, link capacities) to per-flow rates."""

    name = "base"

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:  # pragma: no cover - abstract
        """Per-flow rate (Mbps) for each class, parallel to ``demands``."""
        raise NotImplementedError


class MaxMinAllocator(RateAllocator):
    """Weighted max-min fairness by progressive filling, with rate caps.

    All unfrozen classes grow together in proportion to their weights until a
    link saturates (freezing every class crossing it) or a class reaches its
    cap; repeat until nothing can grow.
    """

    name = "maxmin"

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:
        return progressive_filling(demands, capacity)


class ProportionalFairAllocator(RateAllocator):
    """Weighted proportional fairness: maximise ``sum(n_c * w_c * log r_c)``.

    The utility-fair equilibrium on the same capacity region.  Weighted
    subflow terms approximate coupled connections; intended for
    validation-scale scenarios, not the 10k-flow regime.  Rates below
    ``min_rate`` are served before the solve or get 0, as
    :func:`repro.model.lp.proportional_fair` says.
    """

    name = "proportional_fair"

    def __init__(self, *, min_rate: float = 1e-3) -> None:
        self.min_rate = min_rate

    def solve(
        self, demands: Sequence[ClassDemand], capacity: Sequence[float]
    ) -> List[float]:
        from ..model.lp import proportional_fair  # numpy loads where a PF run solves

        return proportional_fair(demands, capacity, min_rate=self.min_rate)[0]


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
