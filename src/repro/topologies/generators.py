"""Topology generators for scenarios beyond the paper's example network.

These cover the other situations discussed in the paper's introduction and
the standard scenarios of the MPTCP literature:

* :func:`shared_bottleneck` -- every path crosses one common link (the
  fairness scenario coupled congestion control was designed for);
* :func:`disjoint_paths` / :func:`wifi_cellular` -- fully disjoint paths
  ("the primary use case of MPTCP ... both Wi-Fi and cellular networks");
* :func:`pairwise_overlap` -- the generalisation of the paper's construction
  to ``n`` paths where every pair shares its own bottleneck link.

Every generator returns ``(Topology, PathSet)`` ready to be passed to the
experiment harness.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..model.paths import Path, PathSet
from ..netsim.topology import Topology
from ..units import DEFAULT_LINK_DELAY, DEFAULT_QUEUE_PACKETS

Scenario = Tuple[Topology, PathSet]


def shared_bottleneck(
    n_paths: int = 2,
    bottleneck_mbps: float = 50.0,
    access_mbps: float = 100.0,
    *,
    delay: float = DEFAULT_LINK_DELAY,
    queue_packets: int = DEFAULT_QUEUE_PACKETS,
) -> Scenario:
    """All paths traverse one shared bottleneck link.

    The paths differ only in their access segment, so a coupled controller
    should use no more of the bottleneck than a single TCP flow would.
    """
    if n_paths < 1:
        raise ConfigurationError("need at least one path")
    topology = Topology("shared-bottleneck")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("agg")
    topology.add_router("core")
    topology.add_link("agg", "core", bottleneck_mbps, delay, queue_packets)
    topology.add_link("core", "d", access_mbps * n_paths, delay, queue_packets)

    paths: List[Path] = []
    for index in range(n_paths):
        access = f"a{index + 1}"
        topology.add_router(access)
        topology.add_link("s", access, access_mbps, delay, queue_packets)
        topology.add_link(access, "agg", access_mbps, delay, queue_packets)
        paths.append(
            Path(["s", access, "agg", "core", "d"], tag=index + 1, name=f"Path {index + 1}")
        )
    return topology, PathSet(paths)


def disjoint_paths(
    capacities_mbps: Sequence[float] = (50.0, 20.0),
    delays: Optional[Sequence[float]] = None,
    *,
    queue_packets: int = DEFAULT_QUEUE_PACKETS,
) -> Scenario:
    """Fully disjoint paths, one per capacity value."""
    if not capacities_mbps:
        raise ConfigurationError("need at least one path capacity")
    if delays is None:
        delays = [DEFAULT_LINK_DELAY] * len(capacities_mbps)
    if len(delays) != len(capacities_mbps):
        raise ConfigurationError("delays and capacities must have equal length")
    topology = Topology("disjoint")
    topology.add_host("s")
    topology.add_host("d")
    paths: List[Path] = []
    for index, (capacity, delay) in enumerate(zip(capacities_mbps, delays)):
        relay = f"r{index + 1}"
        topology.add_router(relay)
        topology.add_link("s", relay, capacity, delay, queue_packets)
        topology.add_link(relay, "d", capacity * 2, delay, queue_packets)
        paths.append(Path(["s", relay, "d"], tag=index + 1, name=f"Path {index + 1}"))
    return topology, PathSet(paths)


def wifi_cellular(
    wifi_mbps: float = 50.0,
    cellular_mbps: float = 20.0,
    *,
    wifi_delay: float = 0.005,
    cellular_delay: float = 0.030,
    queue_packets: int = DEFAULT_QUEUE_PACKETS,
) -> Scenario:
    """The multi-homed host use case: independent Wi-Fi and cellular paths."""
    topology = Topology("wifi-cellular")
    topology.add_host("client")
    topology.add_host("server")
    topology.add_router("wifi_ap")
    topology.add_router("lte_bs")
    topology.add_link("client", "wifi_ap", wifi_mbps, wifi_delay, queue_packets)
    topology.add_link("wifi_ap", "server", wifi_mbps * 2, wifi_delay, queue_packets)
    topology.add_link("client", "lte_bs", cellular_mbps, cellular_delay, queue_packets)
    topology.add_link("lte_bs", "server", cellular_mbps * 2, cellular_delay, queue_packets)
    paths = PathSet(
        [
            Path(["client", "wifi_ap", "server"], tag=1, name="Wi-Fi"),
            Path(["client", "lte_bs", "server"], tag=2, name="Cellular"),
        ]
    )
    return topology, paths


def pairwise_overlap(
    n_paths: int = 3,
    capacities: Optional[Sequence[float]] = None,
    *,
    default_capacity: float = 200.0,
    delay: float = DEFAULT_LINK_DELAY,
    queue_packets: int = DEFAULT_QUEUE_PACKETS,
    seed: int = 0,
) -> Scenario:
    """Generalise the paper's construction: every pair of paths shares a link.

    For ``n_paths = 3`` and capacities ``(40, 60, 80)`` this is structurally
    the paper's network.  Larger ``n`` gives progressively harder instances of
    the same optimisation problem (``n(n-1)/2`` coupled constraints).
    """
    if n_paths < 2:
        raise ConfigurationError("need at least two paths")
    pairs = [(i, j) for i in range(n_paths) for j in range(i + 1, n_paths)]
    if capacities is None:
        rng = random.Random(seed)
        capacities = [float(rng.randrange(30, 100, 10)) for _ in pairs]
    if len(capacities) != len(pairs):
        raise ConfigurationError(f"need {len(pairs)} capacities, got {len(capacities)}")

    topology = Topology(f"pairwise-overlap-{n_paths}")
    topology.add_host("s")
    topology.add_host("d")
    # One dedicated shared link per pair of paths.
    shared_link: dict = {}
    for pair, capacity in zip(pairs, capacities):
        a, b = f"p{pair[0]}{pair[1]}a", f"p{pair[0]}{pair[1]}b"
        topology.add_router(a)
        topology.add_router(b)
        topology.add_link(a, b, capacity, delay, queue_packets)
        shared_link[pair] = (a, b)

    paths: List[Path] = []
    for index in range(n_paths):
        # Path i traverses the shared link of every pair it belongs to; a
        # private access and exit segment keep the shared links the only
        # overlap between any two paths.
        access, exit_node = f"in{index}", f"out{index}"
        topology.add_router(access)
        topology.add_router(exit_node)
        topology.add_link("s", access, default_capacity, delay, queue_packets)
        topology.add_link(exit_node, "d", default_capacity, delay, queue_packets)
        hops: List[str] = ["s", access]
        for pair in pairs:
            if index in pair:
                a, b = shared_link[pair]
                previous = hops[-1]
                if not topology.has_link(previous, a):
                    topology.add_link(previous, a, default_capacity, delay, queue_packets)
                hops.extend([a, b])
        if not topology.has_link(hops[-1], exit_node):
            topology.add_link(hops[-1], exit_node, default_capacity, delay, queue_packets)
        hops.extend([exit_node, "d"])
        paths.append(Path(hops, tag=index + 1, name=f"Path {index + 1}"))
    return topology, PathSet(paths)
