"""Isolated per-layer probes: one layer's public surface, nothing around it.

Each probe times a tight loop over one layer's public API and reports the
median of three repeats per unit of work.  They exist so that a change to
one layer shows in a number that no other layer can move; seconds quoted for
a layer come from here and from spans, never from profile shares.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.flowsim.allocator import ClassDemand, make_allocator
from repro.model import (
    ConstraintSystem,
    FluidModel,
    max_min_fair_rates,
    max_total_throughput,
    proportional_fair_rates,
)
from repro.netsim.engine import make_simulator
from repro.netsim.network import Network
from repro.netsim.packet import acquire_data
from repro.netsim.queues import make_queue
from repro.netsim.topology import Topology
from repro.units import HEADER_SIZE
from repro.workload.sources import UdpConstantBitRate

REPEATS = 3


def _median_seconds(fn: Callable[[], object]) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _pump(schedule_name: str, events: int) -> None:
    """Self-scheduling event chains, as ``benchmarks/bench_netsim_engine.py`` pumps them."""
    sim = make_simulator()
    schedule = getattr(sim, schedule_name)

    def tick(remaining: int) -> None:
        if remaining > 0:
            schedule(0.0001, tick, remaining - 1)

    for _ in range(50):
        schedule(0.0, tick, events // 50)
    sim.run()


def engine_probes(events: int = 100_000) -> Dict[str, float]:
    """Bare event-loop cost: fire-and-forget path and cancellable-handle path."""
    return {
        "netsim.engine.pump_ns_per_event": _median_seconds(
            lambda: _pump("schedule_fast", events)
        ) / events * 1e9,
        "netsim.engine.handle_ns_per_event": _median_seconds(
            lambda: _pump("schedule", events)
        ) / events * 1e9,
    }


def line_topology(link_mbps: float) -> Topology:
    """The 2-hop drop-tail line ``s - r - d`` of ``bench_netsim_engine.single_tcp_second``."""
    topology = Topology("line")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("r")
    topology.add_link("s", "r", link_mbps, 0.001, 100)
    topology.add_link("r", "d", link_mbps, 0.001, 100)
    return topology


def _udp_forward(packet_size: int, packets: int) -> None:
    network = Network(line_topology(1000.0))
    network.install_path(["s", "r", "d"], tag=1, as_default=True)
    # Half the link rate: queues stay empty, so this is forwarding and nothing else.
    source = UdpConstantBitRate(network, "s", "d", 500.0, tag=1, packet_size=packet_size)
    interval = (packet_size + HEADER_SIZE) * 8.0 / 500e6
    source.start(at=0.0, stop_at=packets * interval)
    network.run(packets * interval + 0.1)
    if source.sink.packets_received < packets - 1:
        raise RuntimeError("UDP forwarding probe lost packets")


def link_probes(packets: int = 20_000) -> Dict[str, float]:
    """Bare two-hop forwarding with no transport, at the smallest and MSS payload."""
    return {
        f"netsim.link.udp{size}_ns_per_packet": _median_seconds(
            lambda size=size: _udp_forward(size, packets)
        ) / packets * 1e9
        for size in (64, 1500)
    }


def _queue_cycle(kind: str, packets: int) -> None:
    queue = make_queue(kind, 100)
    batch = [
        acquire_data("s", "d", 1500, 1, 1, 0, index * 1460, 1460, index * 1460, False, 0.0)
        for index in range(50)
    ]
    now = 0.0
    for _ in range(packets // len(batch)):
        for packet in batch:
            now += 1e-4
            queue.enqueue(packet, now)
        for _ in batch:
            now += 1e-4
            queue.dequeue(now)


def queue_probes(kinds, packets: int = 50_000) -> Dict[str, float]:
    """One enqueue plus one dequeue per packet through ``make_queue(kind)``."""
    return {
        f"netsim.queues.{kind}_ns_per_packet": _median_seconds(
            lambda kind=kind: _queue_cycle(kind, packets)
        ) / packets * 1e9
        for kind in kinds
    }


def allocator_probes() -> Dict[str, float]:
    """One rate solve over three classes sharing links, per allocator."""
    demands = [
        ClassDemand(links=(0, 1), count=40),
        ClassDemand(links=(1, 2), count=25, weight=2.0),
        ClassDemand(links=(0, 2), count=10, cap=3.0),
    ]
    capacity = [100.0, 60.0, 80.0]
    out = {}
    for metric, name, solves in (("maxmin", "maxmin", 2000), ("pf", "proportional_fair", 30)):
        allocator = make_allocator(name)

        def run(allocator=allocator, solves=solves) -> None:
            for _ in range(solves):
                allocator.solve(demands, capacity)

        out[f"flowsim.allocator.{metric}_us_per_solve"] = _median_seconds(run) / solves * 1e6
    return out


def model_seconds(system: ConstraintSystem, fluid_algorithm: str) -> Dict[str, float]:
    """Each reference model solved once, directly on one point's constraint system.

    These are the children of ``measure.validation_s``, which is a single
    public call and cannot be spanned from outside.
    """
    calls = {
        "model.lp_s": lambda: max_total_throughput(system),
        "model.maxmin_s": lambda: max_min_fair_rates(system),
        "model.pf_s": lambda: proportional_fair_rates(system),
        "model.fluid_s": lambda: FluidModel(system).run(fluid_algorithm, duration=8.0),
    }
    out = {}
    for name, call in calls.items():
        start = time.perf_counter()
        call()
        out[name] = time.perf_counter() - start
    return out
