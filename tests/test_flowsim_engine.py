"""Flow-level simulation engine: rate allocator, event loop, workload
synthesis and the segment -> TimeSeries bridge.

The engine's promise is exactness between rate-change events: every
assertion here is against closed-form fluid arithmetic (progressive
filling, size / rate completion times), not loose statistical bands.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.flowsim import (
    ALLOCATORS,
    FlowLevelSim,
    MaxMinAllocator,
    heavy_tailed_workload,
    pareto_size_sampler,
)
from repro.flowsim.allocator import ClassDemand, make_allocator
from repro.flowsim.engine import FlowDescriptor, segments_to_timeseries
from repro.netsim.topology import Topology
from repro.topologies.paper import paper_scenario

MBPS_TO_BYTES = 1e6 / 8.0


def one_link_topology(capacity_mbps: float = 50.0) -> Topology:
    topology = Topology(name="one-link")
    topology.add_host("a")
    topology.add_host("b")
    topology.add_link("a", "b", capacity_mbps=capacity_mbps, delay=0.001)
    return topology


def greedy(name: str, **overrides) -> FlowDescriptor:
    params = {"name": name, "routes": (("a", "b"),)}
    params.update(overrides)
    return FlowDescriptor(**params)


class TestMaxMinAllocator:
    def setup_method(self):
        self.alloc = MaxMinAllocator()

    def test_equal_split_single_link(self):
        demands = [ClassDemand(links=(0,), count=1) for _ in range(3)]
        rates = self.alloc.solve(demands, [50.0])
        assert rates == pytest.approx([50.0 / 3] * 3)

    def test_weighted_split(self):
        demands = [
            ClassDemand(links=(0,), count=1, weight=1.0),
            ClassDemand(links=(0,), count=1, weight=2.0),
        ]
        rates = self.alloc.solve(demands, [30.0])
        assert rates == pytest.approx([10.0, 20.0])

    def test_cap_releases_share_to_others(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=5.0),
            ClassDemand(links=(0,), count=1),
        ]
        rates = self.alloc.solve(demands, [50.0])
        assert rates == pytest.approx([5.0, 45.0])

    def test_two_bottleneck_textbook_case(self):
        # A on link0 with B; B continues over link1 with C.  Link0 (10) is
        # B's bottleneck -> A=B=5; C soaks up the rest of link1 (100).
        demands = [
            ClassDemand(links=(0,), count=1),
            ClassDemand(links=(0, 1), count=1),
            ClassDemand(links=(1,), count=1),
        ]
        rates = self.alloc.solve(demands, [10.0, 100.0])
        assert rates == pytest.approx([5.0, 5.0, 95.0])

    def test_non_responsive_allocated_first(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=3.0, responsive=False),
            ClassDemand(links=(0,), count=1),
        ]
        rates = self.alloc.solve(demands, [8.0])
        assert rates == pytest.approx([3.0, 5.0])

    def test_count_aggregates_members(self):
        # Rates are per member: a class of 2 and a class of 1 split the
        # link three ways.
        demands = [
            ClassDemand(links=(0,), count=2),
            ClassDemand(links=(0,), count=1),
        ]
        rates = self.alloc.solve(demands, [30.0])
        assert rates == pytest.approx([10.0, 10.0])

    def test_down_link_gives_zero(self):
        demands = [ClassDemand(links=(0,), count=1)]
        assert self.alloc.solve(demands, [0.0]) == pytest.approx([0.0])


class TestAllocatorFactory:
    def test_registry_names(self):
        assert set(ALLOCATORS) >= {"maxmin", "proportional_fair", "fluid"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_allocator("waterfilling")

    def test_instance_passthrough(self):
        alloc = MaxMinAllocator()
        assert make_allocator(alloc) is alloc

    def test_proportional_fair_equal_split(self):
        alloc = make_allocator("proportional_fair")
        demands = [ClassDemand(links=(0,), count=1) for _ in range(2)]
        rates = alloc.solve(demands, [40.0])
        assert rates == pytest.approx([20.0, 20.0], rel=1e-3)

    @pytest.mark.parametrize(
        "demands, capacity, exact",
        [
            (  # weights, counts and a cap
                [
                    ClassDemand(links=(0, 1), count=40),
                    ClassDemand(links=(1, 2), count=25, weight=2.0),
                    ClassDemand(links=(0, 2), count=10, cap=3.0),
                ],
                # link 1 binds: 40 x + 25 y = 60 with y = 2 x; the capped class takes 3
                [100.0, 60.0, 80.0],
                [2 / 3, 4 / 3, 3.0],
            ),
            (  # a CBR class served first, an empty class
                [
                    ClassDemand(links=(0,), count=2, cap=5.0, responsive=False),
                    ClassDemand(links=(0, 1), count=3),
                    ClassDemand(links=(1,), count=0),
                    ClassDemand(links=(1,), count=1, weight=0.5),
                ],
                # link 1 binds: 3 x + y = 30, split 3 : 0.5 by weight
                [50.0, 30.0],
                [5.0, 60 / 7, 0.0, 30 / 7],
            ),
            (  # the paper's overlapping paths as three one-flow classes
                [
                    ClassDemand(links=(0, 2), count=1),
                    ClassDemand(links=(0, 1), count=1),
                    ClassDemand(links=(1,), count=1),
                ],
                # 3 x2^2 - 200 x2 + 2400 = 0 (tests/test_model_bottleneck_lp.py)
                [40.0, 60.0, 40.0],
                [(20 + 20 * 7**0.5) / 3, (100 - 20 * 7**0.5) / 3, (80 + 20 * 7**0.5) / 3],
            ),
        ],
    )
    def test_proportional_fair_matches_the_closed_form(self, demands, capacity, exact):
        rates = make_allocator("proportional_fair").solve(demands, capacity)
        assert rates == pytest.approx(exact, rel=1e-9, abs=0.0)


class TestFlowDescriptorValidation:
    def test_needs_routes(self):
        with pytest.raises(ConfigurationError):
            FlowDescriptor(name="f", routes=())

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            greedy("f", size_bytes=0)

    def test_start_must_be_finite_nonnegative(self):
        with pytest.raises(ConfigurationError):
            greedy("f", start=-1.0)


class TestEngineExactness:
    def test_three_greedy_flows_split_evenly(self):
        sim = FlowLevelSim(one_link_topology(50.0))
        sim.add_flows([greedy(f"f{i}") for i in range(3)])
        result = sim.run(6.0)
        for flow in result.flows.values():
            assert flow.bytes_delivered == pytest.approx(
                (50.0 / 3) * MBPS_TO_BYTES * 6.0
            )
        assert result.max_concurrent == 3

    def test_sized_flows_processor_sharing_completion_times(self):
        # 1 MB and 2 MB on 8 Mbps (= 1 MB/s): shared until the small flow
        # finishes at t=2 (each got 1 MB/2), then the big one runs alone
        # and finishes its remaining 1 MB at t=3.
        sim = FlowLevelSim(one_link_topology(8.0))
        sim.add_flows(
            [
                greedy("small", size_bytes=1_000_000),
                greedy("big", size_bytes=2_000_000),
            ]
        )
        result = sim.run(10.0)
        finish = {c.name: c.finish for c in result.completions}
        assert finish["small"] == pytest.approx(2.0)
        assert finish["big"] == pytest.approx(3.0)
        assert result.transitions == 4  # two arrivals + two departures

    def test_duplicate_flow_name_rejected(self):
        sim = FlowLevelSim(one_link_topology())
        sim.add_flow(greedy("f"))
        with pytest.raises(ConfigurationError):
            sim.add_flow(greedy("f"))

    def test_stop_time_bounds_greedy_flow(self):
        sim = FlowLevelSim(one_link_topology(10.0))
        sim.add_flow(greedy("f", stop=2.0))
        result = sim.run(10.0)
        assert result.flows["f"].bytes_delivered == pytest.approx(
            10.0 * MBPS_TO_BYTES * 2.0
        )

    def test_paper_topology_maxmin_rates(self):
        # One greedy flow pinned to each paper path: the weighted max-min
        # allocation over the overlapping links is the paper's (20, 20, 40).
        topology, paths = paper_scenario()
        sim = FlowLevelSim(topology)
        for index, path in enumerate(paths):
            sim.add_flow(
                FlowDescriptor(name=f"p{index + 1}", routes=(tuple(path.nodes),))
            )
        result = sim.run(5.0)
        rates = {
            name: flow.bytes_delivered / MBPS_TO_BYTES / 5.0
            for name, flow in result.flows.items()
        }
        assert rates["p1"] == pytest.approx(20.0)
        assert rates["p2"] == pytest.approx(20.0)
        assert rates["p3"] == pytest.approx(40.0)

    def test_cbr_leaves_remainder_to_responsive(self):
        sim = FlowLevelSim(one_link_topology(8.0))
        sim.add_flow(greedy("cbr", cap_mbps=3.0, responsive=False, kind="udp"))
        sim.add_flow(greedy("tcp"))
        result = sim.run(4.0)
        assert result.flows["cbr"].bytes_delivered == pytest.approx(
            3.0 * MBPS_TO_BYTES * 4.0
        )
        assert result.flows["tcp"].bytes_delivered == pytest.approx(
            5.0 * MBPS_TO_BYTES * 4.0
        )

    def test_dynamics_schedule_exact_segments(self):
        # 10 Mbps for 2 s, 4 Mbps for 2 s, down for 2 s, 4 Mbps for 2 s,
        # 2 Mbps for 2 s: exactly 5 MB delivered.
        sim = FlowLevelSim(one_link_topology(10.0), record_timeseries=True)
        sim.add_flow(greedy("f"))
        sim.schedule(2.0, sim.set_link_rate, "a", "b", 4.0)
        sim.schedule(4.0, sim.set_link_down, "a", "b")
        sim.schedule(6.0, sim.set_link_up, "a", "b")
        sim.schedule(6.0, sim.set_link_rate, "a", "b", 4.0)
        sim.schedule(8.0, sim.set_link_rate, "a", "b", 2.0)
        result = sim.run(10.0)
        assert result.flows["f"].bytes_delivered == pytest.approx(5_000_000.0)
        series = result.flows["f"].series(interval=1.0, start=0.0, end=10.0)
        assert list(series.values) == pytest.approx(
            [10.0, 10.0, 4.0, 4.0, 0.0, 0.0, 4.0, 4.0, 2.0, 2.0]
        )

    def test_scale_link_mid_run(self):
        sim = FlowLevelSim(one_link_topology(10.0))
        sim.add_flow(greedy("f"))
        sim.schedule(5.0, sim.scale_link, "a", "b", 0.5)
        result = sim.run(10.0)
        assert result.flows["f"].bytes_delivered == pytest.approx(
            (10.0 * 5.0 + 5.0 * 5.0) * MBPS_TO_BYTES
        )

    def test_a_scheduled_action_takes_keyword_arguments(self):
        # The backend's dynamics translation passes ``bidirectional=``.
        sim = FlowLevelSim(one_link_topology(10.0))
        sim.add_flow(greedy("f"))
        sim.schedule(5.0, sim.set_link_rate, "a", "b", 5.0, bidirectional=False)
        result = sim.run(10.0)
        assert result.flows["f"].bytes_delivered == pytest.approx(
            (10.0 * 5.0 + 5.0 * 5.0) * MBPS_TO_BYTES
        )

    def test_unknown_link_rejected(self):
        sim = FlowLevelSim(one_link_topology())
        with pytest.raises(ConfigurationError):
            sim.set_link_rate("a", "nowhere", 1.0)

    def test_summary_reports_percentiles(self):
        sim = FlowLevelSim(one_link_topology(8.0))
        sim.add_flows(
            [greedy(f"f{i}", size_bytes=1_000_000) for i in range(4)]
        )
        summary = sim.run(100.0).summary()
        assert summary["completed"] == 4
        assert summary["fct_p50_s"] <= summary["fct_p99_s"]

    @pytest.mark.parametrize("duration", [0.0, float("nan"), -1.0, float("inf")])
    def test_a_run_length_that_is_not_positive_is_refused(self, duration):
        # NaN compares false both ways: only ``not 0 < duration`` catches it.
        sim = FlowLevelSim(one_link_topology())
        sim.add_flows([greedy("f")])
        with pytest.raises(ConfigurationError, match="duration must be positive and finite"):
            sim.run(duration)


class TestSegmentsToTimeseries:
    def test_bins_match_throughput_convention(self):
        series = segments_to_timeseries(
            [(0.0, 1.0, 8.0), (1.0, 2.0, 4.0)], 0.5, start=0.0, end=2.0
        )
        assert list(series.times) == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert list(series.values) == pytest.approx([8.0, 8.0, 4.0, 4.0])

    def test_partial_overlap_averages_within_bin(self):
        series = segments_to_timeseries(
            [(0.0, 0.5, 8.0)], 1.0, start=0.0, end=1.0
        )
        assert list(series.values) == pytest.approx([4.0])

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            segments_to_timeseries([], 0.0, start=0.0, end=1.0)


class TestWorkload:
    def test_deterministic_for_seed(self):
        _, paths = paper_scenario()
        first = heavy_tailed_workload(paths, flows=50, seed=11)
        second = heavy_tailed_workload(paths, flows=50, seed=11)
        assert first == second
        assert len(first) == 50

    def test_arrivals_sorted_and_sizes_positive(self):
        _, paths = paper_scenario()
        flows = heavy_tailed_workload(paths, flows=100, seed=5)
        starts = [flow.start for flow in flows]
        assert starts == sorted(starts)
        assert all(flow.size_bytes >= 1 for flow in flows)
        assert flows[0].name == "flow-00000"

    def test_pareto_sampler_respects_floor_and_mean(self):
        sampler = pareto_size_sampler(1_000_000, min_bytes=1000)
        rng = random.Random(1)
        samples = [sampler(rng) for _ in range(5000)]
        assert min(samples) >= 1000
        # alpha=1.5 has infinite variance; the sample mean is only loosely
        # pinned, so just check the order of magnitude.
        mean = sum(samples) / len(samples)
        assert 200_000 < mean < 5_000_000

    def test_invalid_parameters_rejected(self):
        _, paths = paper_scenario()
        with pytest.raises(ConfigurationError):
            heavy_tailed_workload(paths, flows=0, seed=1)
        with pytest.raises(ConfigurationError):
            heavy_tailed_workload([], flows=5, seed=1)
        with pytest.raises(ConfigurationError):
            pareto_size_sampler(1000, alpha=1.0)
