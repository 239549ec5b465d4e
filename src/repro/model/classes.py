"""Rate classes: the input of both fairness solvers.

A rate class is a set of interchangeable flows (same links, weight and cap),
so max-min filling (:mod:`repro.model.maxmin`) and the proportionally fair
solve (:mod:`repro.model.lp`) work per class, never per flow.  A constraint
system is one unit class per path; the flow-level allocators pass their
engine's classes.  Both solvers start with the check and the pass here.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ModelError


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


def unit_classes(system) -> Tuple[List[ClassDemand], List[float]]:
    """A :class:`~repro.model.bottleneck.ConstraintSystem` as one unit class
    per path (one flow, weight 1, no cap) over its constraints' capacities."""
    links: List[List[int]] = [[] for _ in range(system.path_count)]
    for row, constraint in enumerate(system.constraints):
        for path in constraint.path_indices:
            links[path].append(row)
    return [ClassDemand(tuple(rows), 1) for rows in links], system.capacities


def check_classes(demands: Sequence[ClassDemand], capacity: Sequence[float]) -> None:
    """A :class:`ModelError` naming the class or link no allocation can serve:
    a class with no links, a weight that is not finite and positive, a cap or
    a capacity that is negative or NaN, and a class with flows and no finite
    limit anywhere (no cap, every link infinite), which is unbounded."""
    infinite = set()
    for link, limit in enumerate(capacity):
        if not limit >= 0.0:
            raise ModelError(f"link {link} has capacity {limit!r}; a capacity is >= 0")
        if limit == math.inf:
            infinite.add(link)
    for index, demand in enumerate(demands):
        if not demand.links:
            raise ModelError(f"class {index} crosses no link")
        if not 0.0 < demand.weight < math.inf:
            raise ModelError(f"class {index} has weight {demand.weight!r}; it must be in (0, inf)")
        if demand.cap is not None and not demand.cap >= 0.0:
            raise ModelError(f"class {index} has cap {demand.cap!r}; a cap is >= 0")
        if demand.cap is None and demand.count > 0 and infinite.issuperset(demand.links):
            raise ModelError(f"class {index} is unbounded: no cap, and only infinite links")


def serve_first(
    demands: Sequence[ClassDemand],
    order: Sequence[int],
    rates: List[float],
    remaining: List[float],
) -> None:
    """Serve the classes in ``order`` before any fair sharing, in that order.

    Each takes ``min(cap, its share of the least link it crosses)`` per flow
    -- a constant-bit-rate source does not back off, so it takes what the
    link has and never less -- and the links it crosses lose what it took.
    ``rates`` and ``remaining`` are updated in place.
    """
    for index in order:
        demand = demands[index]
        share = min(remaining[link] for link in demand.links) / demand.count
        rate = max(0.0, share if demand.cap is None else min(demand.cap, share))
        rates[index] = rate
        for link in demand.links:
            remaining[link] -= rate * demand.count
