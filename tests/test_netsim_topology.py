"""Declarative topology: nodes, links, paths, validation."""

import pytest

from repro.errors import TopologyError
from repro.netsim.topology import Topology


@pytest.fixture
def square():
    t = Topology("square")
    t.add_host("s")
    t.add_host("d")
    t.add_router("a")
    t.add_router("b")
    t.add_link("s", "a", 50, 0.001)
    t.add_link("a", "d", 100, 0.001)
    t.add_link("s", "b", 80, 0.002)
    t.add_link("b", "d", 100, 0.002)
    return t


class TestNodes:
    def test_duplicate_node_rejected(self, square):
        with pytest.raises(TopologyError):
            square.add_router("a")

    def test_unknown_node_lookup_raises(self, square):
        with pytest.raises(TopologyError):
            square.node("zzz")

    def test_node_kind(self, square):
        assert square.node("s").kind == "host"
        assert square.node("a").kind == "router"

    def test_host_metadata(self):
        t = Topology()
        t.add_host("h", role="client")
        assert t.node("h").metadata["role"] == "client"


class TestLinks:
    def test_links_are_bidirectional(self, square):
        assert square.has_link("s", "a")
        assert square.has_link("a", "s")

    def test_capacity_lookup(self, square):
        assert square.capacity_of("s", "a") == 50
        assert square.capacity_of("a", "s") == 50

    def test_asymmetric_capacity(self):
        t = Topology()
        t.add_host("x")
        t.add_host("y")
        t.add_link("x", "y", 100, capacity_mbps_reverse=10)
        assert t.capacity_of("x", "y") == 100
        assert t.capacity_of("y", "x") == 10

    def test_duplicate_link_rejected(self, square):
        with pytest.raises(TopologyError):
            square.add_link("s", "a", 10)

    def test_reverse_duplicate_link_rejected(self, square):
        with pytest.raises(TopologyError):
            square.add_link("a", "s", 10)

    def test_self_loop_rejected(self, square):
        with pytest.raises(TopologyError):
            square.add_link("s", "s", 10)

    def test_link_to_unknown_node_rejected(self, square):
        with pytest.raises(TopologyError):
            square.add_link("s", "zzz", 10)

    def test_nonpositive_capacity_rejected(self, square):
        t = Topology()
        t.add_host("x")
        t.add_host("y")
        with pytest.raises(TopologyError):
            t.add_link("x", "y", 0)

    def test_links_listing_counts_both_directions(self, square):
        assert len(square.links) == 8

    def test_unknown_link_lookup_raises(self, square):
        with pytest.raises(TopologyError):
            square.link("a", "b")


class TestGraphsAndPaths:
    def test_graph_carries_capacity_attribute(self, square):
        g = square.graph()
        assert g["s"]["a"]["capacity_mbps"] == 50

    def test_shortest_path(self, square):
        path = square.shortest_path("s", "d")
        assert path[0] == "s" and path[-1] == "d" and len(path) == 3

    def test_shortest_path_missing_raises(self, square):
        square.add_router("island")
        with pytest.raises(TopologyError):
            square.shortest_path("s", "island")

    def test_k_shortest_paths_unreachable_or_unknown_raises(self, square):
        """Was networkx.NetworkXNoPath / NodeNotFound."""
        square.add_router("island")
        with pytest.raises(TopologyError, match="no path"):
            square.k_shortest_paths("s", "island", 2)
        with pytest.raises(TopologyError, match="unknown node"):
            square.k_shortest_paths("s", "nowhere", 2)

    def test_simple_paths_unknown_endpoint_raises_on_first_next(self, square):
        """Was networkx.NodeNotFound for the source, silence for the target."""
        with pytest.raises(TopologyError, match="unknown node"):
            next(square.simple_paths("nowhere", "d"))
        with pytest.raises(TopologyError, match="unknown node"):
            next(square.simple_paths("s", "nowhere"))

    def test_simple_paths_enumerates_both(self, square):
        paths = list(square.simple_paths("s", "d"))
        assert sorted(paths) == [["s", "a", "d"], ["s", "b", "d"]]

    def test_k_shortest_paths(self, square):
        paths = square.k_shortest_paths("s", "d", 2)
        assert len(paths) == 2
        assert all(p[0] == "s" and p[-1] == "d" for p in paths)

    def test_validate_path_accepts_existing_links(self, square):
        square.validate_path(["s", "a", "d"])

    def test_validate_path_rejects_missing_link(self, square):
        with pytest.raises(TopologyError):
            square.validate_path(["s", "d"])

    def test_validate_path_rejects_single_node(self, square):
        with pytest.raises(TopologyError):
            square.validate_path(["s"])
