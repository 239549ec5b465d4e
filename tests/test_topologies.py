"""Topology builders: the paper network and the generic generators."""

import pytest

from repro.errors import ConfigurationError
from repro.model.bottleneck import build_constraints
from repro.model.lp import max_total_throughput
from repro.topologies.generators import (
    disjoint_paths,
    pairwise_overlap,
    shared_bottleneck,
    wifi_cellular,
)
from repro.topologies.paper import (
    PAPER_DEFAULT_PATH_INDEX,
    PAPER_OPTIMAL_RATES,
    PAPER_OPTIMAL_TOTAL,
    PAPER_SHARED_CAPACITIES,
    build_paper_topology,
    paper_paths,
    paper_scenario,
)


class TestPaperTopology:
    def test_six_nodes(self):
        topology = build_paper_topology()
        assert len(topology.nodes) == 6
        assert [n for n in topology.nodes if topology.node(n).kind == "host"] == ["s", "d"]

    def test_paths_are_valid(self):
        topology, paths = paper_scenario()
        for path in paths:
            topology.validate_path(path.nodes)

    def test_default_path_index_is_path_2(self):
        assert PAPER_DEFAULT_PATH_INDEX == 1
        assert paper_paths()[PAPER_DEFAULT_PATH_INDEX].name == "Path 2"

    def test_as_stated_capacities(self):
        # Paths 1+2 share s-v1, paths 2+3 share v2-v3, paths 1+3 share v4-d.
        topology = build_paper_topology("as_stated")
        assert topology.capacity_of("s", "v1") == 40.0
        assert topology.capacity_of("v2", "v3") == 60.0
        assert topology.capacity_of("v4", "d") == 80.0

    def test_as_solution_capacities(self):
        topology = build_paper_topology("as_solution")
        assert topology.capacity_of("s", "v1") == 40.0
        assert topology.capacity_of("v2", "v3") == 80.0
        assert topology.capacity_of("v4", "d") == 60.0

    def test_both_variants_have_optimum_90(self):
        for variant in PAPER_SHARED_CAPACITIES:
            topology = build_paper_topology(variant)
            system = build_constraints(topology, paper_paths())
            result = max_total_throughput(system)
            assert result.total == pytest.approx(PAPER_OPTIMAL_TOTAL)
            assert result.rates == pytest.approx(list(PAPER_OPTIMAL_RATES[variant]), abs=1e-4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            build_paper_topology("mislabelled")

    def test_non_shared_links_default_to_100(self):
        topology = build_paper_topology()
        assert topology.capacity_of("s", "v2") == 100.0
        assert topology.capacity_of("v1", "v4") == 100.0

    def test_path2_has_lowest_delay(self):
        topology, paths = paper_scenario()
        delays = [p.propagation_delay(topology) for p in paths]
        assert delays.index(min(delays)) == PAPER_DEFAULT_PATH_INDEX

    def test_queue_size_configurable(self):
        topology = build_paper_topology(queue_packets=25)
        assert topology.link("s", "v1").queue_packets == 25


class TestGenerators:
    def test_shared_bottleneck_constraint(self):
        topology, paths = shared_bottleneck(n_paths=3, bottleneck_mbps=45.0)
        system = build_constraints(topology, paths)
        assert max_total_throughput(system).total == pytest.approx(45.0)
        assert len(paths) == 3

    def test_disjoint_paths_are_disjoint(self):
        _, paths = disjoint_paths((30.0, 50.0, 10.0))
        assert paths.is_disjoint()
        assert len(paths) == 3

    def test_disjoint_paths_validation(self):
        with pytest.raises(ConfigurationError):
            disjoint_paths(())
        with pytest.raises(ConfigurationError):
            disjoint_paths((10.0,), delays=(0.1, 0.2))

    def test_wifi_cellular_shape(self):
        topology, paths = wifi_cellular(wifi_mbps=50.0, cellular_mbps=20.0)
        assert paths.is_disjoint()
        system = build_constraints(topology, paths)
        assert max_total_throughput(system).total == pytest.approx(70.0)
        assert paths[0].propagation_delay(topology) < paths[1].propagation_delay(topology)

    def test_pairwise_overlap_reproduces_paper_structure(self):
        topology, paths = pairwise_overlap(3, capacities=(40.0, 60.0, 80.0))
        system = build_constraints(topology, paths, include_private_links=False)
        shared = {c.path_indices: c.capacity for c in system.shared_constraints()}
        assert shared[(0, 1)] == 40.0
        assert shared[(0, 2)] == 60.0
        assert shared[(1, 2)] == 80.0
        assert max_total_throughput(system).total == pytest.approx(90.0)

    def test_pairwise_overlap_larger_instance(self):
        topology, paths = pairwise_overlap(4, seed=3)
        assert len(paths) == 4
        system = build_constraints(topology, paths)
        assert len(system.shared_constraints()) >= 6
        for path in paths:
            topology.validate_path(path.nodes)

    def test_pairwise_overlap_validation(self):
        with pytest.raises(ConfigurationError):
            pairwise_overlap(1)
        with pytest.raises(ConfigurationError):
            pairwise_overlap(3, capacities=(40.0,))
