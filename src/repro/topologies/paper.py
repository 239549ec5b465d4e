"""The paper's example network (Fig. 1a) and its three overlapping paths.

Six nodes (``s``, ``v1``..``v4``, ``d``) and three paths from ``s`` to ``d``
such that every pair of paths shares exactly one link.  The shared links get
the capacities 40, 60 and 80 Mbps and every other link keeps the default
100 Mbps, producing the constraint system of Fig. 1c:

* ``as_stated`` variant (the inequalities printed in Section 2.1)::

      x1 + x2 <= 40      x2 + x3 <= 60      x1 + x3 <= 80

  whose unique optimum is ``(30, 10, 50)``, total 90 Mbps.

* ``as_solution`` variant (the labelling consistent with the optimum the
  paper reports, ``(10, 30, 50)``)::

      x1 + x2 <= 40      x1 + x3 <= 60      x2 + x3 <= 80

Both variants are the same network up to a relabelling of two links; the
total optimum is 90 Mbps either way.  Link delays are chosen so that Path 2
has the smallest round-trip time, because the paper designates Path 2 as the
connection's "default shortest path".
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import ConfigurationError
from ..model.paths import Path, PathSet
from ..netsim.topology import Topology
from ..units import DEFAULT_QUEUE_PACKETS

#: Total optimal throughput of the paper's example (Mbps).
PAPER_OPTIMAL_TOTAL = 90.0

#: Optimal per-path rates for each capacity labelling.
PAPER_OPTIMAL_RATES = {
    "as_stated": (30.0, 10.0, 50.0),
    "as_solution": (10.0, 30.0, 50.0),
}

#: Capacity of the pairwise shared links, keyed by the path pair, per variant.
PAPER_SHARED_CAPACITIES: Dict[str, Dict[Tuple[int, int], float]] = {
    "as_stated": {(1, 2): 40.0, (2, 3): 60.0, (1, 3): 80.0},
    "as_solution": {(1, 2): 40.0, (2, 3): 80.0, (1, 3): 60.0},
}

#: The index (0-based) of the paper's default path, Path 2.
PAPER_DEFAULT_PATH_INDEX = 1

#: Node lists of the three paths (Fig. 1b).
_PATH_NODES = (
    ("s", "v1", "v4", "d"),          # Path 1
    ("s", "v1", "v2", "v3", "d"),    # Path 2 (default / shortest RTT)
    ("s", "v2", "v3", "v4", "d"),    # Path 3
)

#: Which physical link carries each pairwise constraint.
_SHARED_LINKS: Dict[Tuple[int, int], Tuple[str, str]] = {
    (1, 2): ("s", "v1"),
    (2, 3): ("v2", "v3"),
    (1, 3): ("v4", "d"),
}

#: Per-link one-way delays (seconds); chosen so Path 2 has the smallest RTT.
_LINK_DELAYS: Dict[Tuple[str, str], float] = {
    ("s", "v1"): 0.001,
    ("s", "v2"): 0.001,
    ("v1", "v2"): 0.0003,
    ("v1", "v4"): 0.001,
    ("v2", "v3"): 0.0003,
    ("v3", "v4"): 0.001,
    ("v3", "d"): 0.001,
    ("v4", "d"): 0.001,
}


def build_paper_topology(
    variant: str = "as_stated",
    *,
    default_capacity: float = 100.0,
    queue_packets: int = DEFAULT_QUEUE_PACKETS,
) -> Topology:
    """Build the Fig. 1a topology with the requested capacity labelling."""
    if variant not in PAPER_SHARED_CAPACITIES:
        raise ConfigurationError(
            f"unknown paper-topology variant {variant!r}; "
            f"choose from {tuple(PAPER_SHARED_CAPACITIES)}"
        )
    shared = PAPER_SHARED_CAPACITIES[variant]

    topology = Topology(name=f"paper-{variant}")
    topology.add_host("s")
    topology.add_host("d")
    for router in ("v1", "v2", "v3", "v4"):
        topology.add_router(router)

    capacities: Dict[Tuple[str, str], float] = {
        link: default_capacity for link in _LINK_DELAYS
    }
    for pair, link in _SHARED_LINKS.items():
        capacities[link] = shared[pair]

    for (a, b), delay in _LINK_DELAYS.items():
        topology.add_link(
            a,
            b,
            capacity_mbps=capacities[(a, b)],
            delay=delay,
            queue_packets=queue_packets,
        )
    return topology


def paper_paths() -> PathSet:
    """The three tagged paths of Fig. 1b (tags 1, 2, 3)."""
    return PathSet(
        [
            Path(nodes, tag=index + 1, name=f"Path {index + 1}")
            for index, nodes in enumerate(_PATH_NODES)
        ]
    )


def paper_scenario(
    variant: str = "as_stated", *, queue_packets: int = DEFAULT_QUEUE_PACKETS
) -> Tuple[Topology, PathSet]:
    """Topology and paths together -- the usual entry point for experiments."""
    return build_paper_topology(variant, queue_packets=queue_packets), paper_paths()
