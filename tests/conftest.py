"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, settings

from repro.model.paths import Path, PathSet
from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.netsim.topology import Topology
from repro.topologies.paper import paper_scenario


#: ``pytest --hypothesis-profile=deep``: the local soak of the differential
#: kernel fuzzer (tests/test_kernel_differential.py); random, not derandomised.
settings.register_profile(
    "deep",
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def left_to_collector(run):
    """``(run(), n)``: ``n`` objects ``run`` created are garbage that only the
    cyclic collector frees (``gc.collect()`` with the collector off during
    the call).  What existed before the call is frozen out of the count, so
    the collection costs what ``run`` allocated, not the whole suite's heap."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        result = run()
        return result, gc.collect()
    finally:
        gc.unfreeze()
        if gc_was_enabled:
            gc.enable()


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture(params=["python", "compiled"])
def each_kernel(request) -> str:
    """Run the test once per kernel (``repro.kernel.override``).

    Golden-equivalence suites use this to pin both the pure-Python and the
    compiled kernel against the same golden files.  The ``compiled`` leg
    skips (rather than silently passing on the Python fallback) when the
    extension cannot be built, so a green run genuinely covered both.
    """
    from repro import kernel

    mode = request.param
    if mode == "compiled":
        available, reason = kernel.compiled_available()
        if not available:
            pytest.skip(f"compiled kernel unavailable: {reason}")
    with kernel.override(mode):
        yield mode


def make_chain_topology(
    capacity_mbps: float = 100.0,
    delay: float = 0.001,
    queue_packets: int = 50,
    hops: int = 1,
) -> Topology:
    """s -- r1 -- ... -- rN -- d chain with uniform links."""
    topology = Topology("chain")
    topology.add_host("s")
    topology.add_host("d")
    previous = "s"
    for index in range(hops):
        router = f"r{index + 1}"
        topology.add_router(router)
        topology.add_link(previous, router, capacity_mbps, delay, queue_packets)
        previous = router
    topology.add_link(previous, "d", capacity_mbps, delay, queue_packets)
    return topology


def chain_path(hops: int = 1, tag: int | None = 1) -> Path:
    nodes = ["s"] + [f"r{i + 1}" for i in range(hops)] + ["d"]
    return Path(nodes, tag=tag, name="chain")


@pytest.fixture
def chain_network() -> Network:
    """A built s--r1--d network with a 100 Mbps path installed under tag 1."""
    network = Network(make_chain_topology())
    network.install_path(["s", "r1", "d"], tag=1, as_default=True)
    return network


@pytest.fixture
def slow_chain_network() -> Network:
    """A built s--r1--d network with a 20 Mbps bottleneck."""
    network = Network(make_chain_topology(capacity_mbps=20.0))
    network.install_path(["s", "r1", "d"], tag=1, as_default=True)
    return network


@pytest.fixture
def paper_network():
    """The built paper network plus its path set."""
    topology, paths = paper_scenario()
    return Network(topology), paths


@pytest.fixture
def paper_setup():
    """Topology and paths of the paper scenario (not yet built)."""
    return paper_scenario()


def make_two_path_scenario(cap1: float = 30.0, cap2: float = 60.0):
    """Two fully disjoint paths with the given capacities."""
    topology = Topology("two-disjoint")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("a")
    topology.add_router("b")
    topology.add_link("s", "a", cap1, 0.001, 50)
    topology.add_link("a", "d", cap1 * 2, 0.001, 50)
    topology.add_link("s", "b", cap2, 0.001, 50)
    topology.add_link("b", "d", cap2 * 2, 0.001, 50)
    paths = PathSet(
        [
            Path(["s", "a", "d"], tag=1, name="Path 1"),
            Path(["s", "b", "d"], tag=2, name="Path 2"),
        ]
    )
    return topology, paths
