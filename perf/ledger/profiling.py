"""One ``cProfile`` pass over a round, self time bucketed by ``repro`` package.

``cProfile`` charges every Python call and nothing inside native code, so
it inflates call-heavy Python layers: the shares rank layers and are never
quoted as seconds.  Time spent outside ``repro`` (numpy, scipy, builtins) is
charged to the nearest ``repro`` caller, so a layer that does its work
through scipy is not under-counted; methods of the compiled extension
(``KernelSim.run``, the native scene's ``run``) are the ``kernel`` layer.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from typing import Callable, Dict, Optional, Tuple

NETSIM_MODULES = ("engine", "link", "queues", "capture", "packet", "dynamics", "network")


def layer_of(func: Tuple[str, int, str]) -> Optional[str]:
    """The ledger layer a profiled function belongs to; None outside ``repro``."""
    filename, _, name = func
    if filename == "~":
        return "kernel" if "_ckernel" in name else None
    _, found, inside = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return None
    parts = inside.split("/")
    package = parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    if package == "netsim" and len(parts) > 1:
        module = parts[1][:-3]
        return f"netsim.{module}" if module in NETSIM_MODULES else "netsim.other"
    return package


def layer_shares(stats: Dict[tuple, tuple]) -> Dict[str, float]:
    """Share of total profiled self time per layer (``unattributed`` for the rest)."""
    memo: Dict[tuple, Dict[str, float]] = {}

    def owners(func: tuple, seen: frozenset) -> Dict[str, float]:
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in seen:
            return {}
        callers = stats[func][4]
        weight = sum(edge[2] for edge in callers.values())
        spread: Dict[str, float] = {}
        if weight > 0:
            for caller, edge in callers.items():
                if caller not in stats:
                    continue
                for name, share in owners(caller, seen | {func}).items():
                    spread[name] = spread.get(name, 0.0) + share * edge[2] / weight
        memo[func] = spread
        return spread

    seconds: Dict[str, float] = {}
    total = 0.0
    for func, (_, _, self_time, _, _) in stats.items():
        total += self_time
        attributed = 0.0
        for name, share in owners(func, frozenset()).items():
            seconds[name] = seconds.get(name, 0.0) + share * self_time
            attributed += share * self_time
        seconds["unattributed"] = seconds.get("unattributed", 0.0) + self_time - attributed
    return {name: value / total for name, value in seconds.items()} if total > 0 else {}


def profile_round(fn: Callable[[], object]) -> Tuple[Dict[str, float], float]:
    """Run ``fn`` once under ``cProfile``; returns (layer shares, profiled wall)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(fn)
    wall = time.perf_counter() - start
    return layer_shares(pstats.Stats(profiler).stats), wall
