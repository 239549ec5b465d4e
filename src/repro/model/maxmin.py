"""Max-min fair allocation by progressive filling.

Max-min fairness is the classic alternative objective to the paper's
max-total-throughput LP: all path rates are increased together until a link
saturates, the paths crossing that link are frozen, and the process repeats.
On the paper's topology the max-min allocation is strictly below the
90 Mbps optimum, which illustrates why a fairness-seeking coupled controller
(LIA) does not reach the maximum.

:func:`progressive_filling` is the one body, over rate classes; a constraint
system is one unit class per path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from .classes import ClassDemand, check_classes, serve_first, unit_classes

if TYPE_CHECKING:
    from .bottleneck import ConstraintSystem

_EPS = 1e-9


@dataclass
class MaxMinResult:
    """Outcome of progressive filling."""

    rates: List[float]
    total: float


def max_min_fair_rates(system: "ConstraintSystem") -> MaxMinResult:
    """Compute the max-min fair allocation by progressive filling."""
    system.validate()
    rates = progressive_filling(*unit_classes(system))
    return MaxMinResult(rates=rates, total=float(sum(rates)))


def progressive_filling(
    demands: Sequence[ClassDemand], capacity: Sequence[float]
) -> List[float]:
    """Weighted max-min fair per-flow rate of each class, parallel to ``demands``.

    Constant-bit-rate classes are served first (:func:`serve_first`).  Then
    all unfrozen classes grow together in proportion to their weights until a
    link saturates (freezing every class crossing it) or a class reaches its
    cap; repeat until nothing can grow.  A class that starts on an exhausted
    link stays at 0.
    """
    check_classes(demands, capacity)
    remaining = [float(c) for c in capacity]
    rates = [0.0] * len(demands)
    populated = [i for i, d in enumerate(demands) if d.count > 0]
    serve_first(demands, [i for i in populated if not demands[i].responsive], rates, remaining)
    active = {i for i in populated if demands[i].responsive}
    _freeze_on_tight_links(demands, remaining, active)

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
        increment = min(remaining[link] / total for link, total in weight_demand.items())
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
            rates[index] += demands[index].weight * increment
        for link, total in weight_demand.items():
            remaining[link] -= total * increment
        for index in capped_now:
            rates[index] = demands[index].cap
            active.discard(index)
        frozen = _freeze_on_tight_links(demands, remaining, active)
        if increment <= 0.0 and not frozen and not capped_now:
            break  # pragma: no cover - defensive against float stalls
    return rates


def _freeze_on_tight_links(
    demands: Sequence[ClassDemand], remaining: Sequence[float], active: set
) -> bool:
    tight = {link for link, slack in enumerate(remaining) if slack <= _EPS}
    if not tight:
        return False
    frozen = [index for index in active if not tight.isdisjoint(demands[index].links)]
    for index in frozen:
        active.discard(index)
    return bool(frozen)
