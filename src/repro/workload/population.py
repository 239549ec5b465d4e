"""Seeded flat flow populations (sized transfers, no dependencies).

:func:`heavy_tailed_workload` (also exported from :mod:`repro.flowsim`,
whose engine consumes its output) generates a flat list of
independent sized transfers -- heavy-tailed sizes, Poisson arrivals -- ready
for the flow-level engine; for request/response sessions with dependency
edges see :class:`repro.workload.spec.WorkloadSpec`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..model.paths import PathSet


def pareto_size_sampler(
    mean_bytes: float,
    *,
    alpha: float = 1.5,
    min_bytes: int = 1,
) -> Callable[[random.Random], int]:
    """A bounded-mean Pareto sampler: heavy tail, finite mean.

    ``alpha`` must exceed 1 for the mean to exist; the scale is solved from
    ``mean = x_m * alpha / (alpha - 1)`` so the requested mean holds exactly.
    """
    if alpha <= 1.0:
        raise ConfigurationError("pareto alpha must exceed 1 for a finite mean")
    if mean_bytes <= 0:
        raise ConfigurationError("mean flow size must be positive")
    scale = mean_bytes * (alpha - 1.0) / alpha

    def sample(rng: random.Random) -> int:
        return max(min_bytes, int(scale * rng.paretovariate(alpha)))

    return sample


def heavy_tailed_workload(
    paths: PathSet,
    *,
    flows: int,
    seed: int,
    mean_size_bytes: float = 2_000_000.0,
    alpha: float = 1.5,
    arrival_rate_per_s: float = 500.0,
    name_prefix: str = "flow",
    size_sampler: Optional[Callable[[random.Random], int]] = None,
    path_weights: Optional[Sequence[float]] = None,
) -> list:
    """Generate ``flows`` sized transfers over the given paths.

    Sizes are heavy-tailed (Pareto, mean ``mean_size_bytes``), arrivals are
    Poisson with rate ``arrival_rate_per_s``, and each flow picks one path
    (uniformly, or by ``path_weights``).  Deterministic for a fixed seed.
    Returns a list of :class:`~repro.flowsim.engine.FlowDescriptor`.
    """
    # Imported here, not at module top: repro.flowsim's package __init__
    # re-exports this function, so a top-level engine import would be cyclic.
    from ..flowsim.engine import FlowDescriptor

    if flows <= 0:
        raise ConfigurationError("workload needs at least one flow")
    if arrival_rate_per_s <= 0:
        raise ConfigurationError("arrival rate must be positive")
    if not len(paths):
        raise ConfigurationError("workload needs at least one path")
    if path_weights is not None and len(path_weights) != len(paths):
        raise ConfigurationError(
            f"got {len(path_weights)} path weights for {len(paths)} paths"
        )
    sampler = size_sampler or pareto_size_sampler(mean_size_bytes, alpha=alpha)
    rng = random.Random(seed)
    routes: Tuple[Tuple[str, ...], ...] = tuple(tuple(p.nodes) for p in paths)
    tags = tuple(p.tag for p in paths)
    weights = list(path_weights) if path_weights is not None else None

    descriptors: List[FlowDescriptor] = []
    clock = 0.0
    for index in range(flows):
        clock += rng.expovariate(arrival_rate_per_s)
        if weights is None:
            choice = rng.randrange(len(routes))
        else:
            choice = rng.choices(range(len(routes)), weights=weights)[0]
        descriptors.append(
            FlowDescriptor(
                name=f"{name_prefix}-{index:05d}",
                routes=(routes[choice],),
                start=clock,
                size_bytes=sampler(rng),
                tags=(tags[choice],),
                kind="workload",
            )
        )
    return descriptors
