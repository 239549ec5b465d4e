"""Routing tables: static shortest path, tag pinning, ECMP hashing."""

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.netsim.packet import Packet
from repro.netsim.routing import (
    EcmpRoutingTable,
    StaticRoutingTable,
    TagRoutingTable,
)
from repro.netsim.topology import Topology


def diamond_graph():
    g = nx.Graph()
    g.add_edges_from([("s", "a"), ("s", "b"), ("a", "d"), ("b", "d")])
    return g


class TestStaticRouting:
    def test_forwards_towards_destination(self):
        table = StaticRoutingTable(diamond_graph())
        packet = Packet("s", "d", 100)
        hop = table.next_hop("s", packet)
        assert hop in ("a", "b")

    def test_last_hop_reaches_destination(self):
        table = StaticRoutingTable(diamond_graph())
        packet = Packet("s", "d", 100)
        assert table.next_hop("a", packet) == "d"
        assert table.next_hop("b", packet) == "d"

    def test_unknown_destination_returns_none(self):
        table = StaticRoutingTable(diamond_graph())
        packet = Packet("s", "nowhere", 100)
        assert table.next_hop("s", packet) is None


@st.composite
def topologies(draw):
    """2-12 hosts and routers created in shuffled order; 1...all node pairs
    linked in shuffled order with random orientation.  Disconnected components
    and isolated nodes come out of sparse draws."""
    count = draw(st.integers(2, 12))
    names = draw(st.permutations([f"n{i}" for i in range(count)]))
    topology = Topology("drawn")
    for name in names:
        (topology.add_host if draw(st.booleans()) else topology.add_router)(name)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    linked = draw(st.integers(1, len(pairs)))
    for a, b in draw(st.permutations(pairs))[:linked]:
        topology.add_link(*((a, b) if draw(st.booleans()) else (b, a)))
    return topology


def networkx_next_hops(graph):
    """The table as it was built before the BFS: the oracle of the twin test."""
    table = {}
    for dst in graph.nodes:
        for src, path in nx.shortest_path(graph, target=dst).items():
            if src != dst:
                table[(src, dst)] = path[1]
    return table


_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_TWIN_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)


class TestStaticRoutingMatchesNetworkx:
    @given(topologies())
    @_TWIN_SETTINGS
    def test_same_next_hops_in_the_same_order(self, topology):
        graph = topology.undirected_graph()
        assert topology.adjacency() == {node: list(graph.adj[node]) for node in graph}
        assert list(topology.adjacency()) == list(graph)
        expected = networkx_next_hops(graph)
        built = StaticRoutingTable(topology.adjacency())._next
        assert built == expected
        assert list(built) == list(expected)
        assert StaticRoutingTable(graph)._next == expected

    def test_unknown_destination_returns_none(self):
        topology = Topology("pair")
        topology.add_host("a")
        topology.add_host("b")
        topology.add_host("island")
        topology.add_link("a", "b")
        table = StaticRoutingTable(topology.adjacency())
        assert table.next_hop("a", Packet("a", "b", 100)) == "b"
        assert table.next_hop("a", Packet("a", "island", 100)) is None
        assert table.next_hop("a", Packet("a", "nowhere", 100)) is None


class TestTagRouting:
    def test_forward_path_follows_tag(self):
        table = TagRoutingTable()
        table.install_path(["s", "a", "d"], tag=1)
        table.install_path(["s", "b", "d"], tag=2)
        assert table.next_hop("s", Packet("s", "d", 100, tag=1)) == "a"
        assert table.next_hop("s", Packet("s", "d", 100, tag=2)) == "b"

    def test_reverse_path_installed_for_acks(self):
        table = TagRoutingTable()
        table.install_path(["s", "a", "d"], tag=1)
        ack = Packet("d", "s", 60, tag=1, is_ack=True)
        assert table.next_hop("d", ack) == "a"
        assert table.next_hop("a", ack) == "s"

    def test_default_route_used_for_unknown_tag(self):
        table = TagRoutingTable()
        table.install_path(["s", "a", "d"], tag=1, as_default=True)
        assert table.next_hop("s", Packet("s", "d", 100, tag=99)) == "a"
        assert table.next_hop("s", Packet("s", "d", 100, tag=None)) == "a"

    def test_no_route_returns_none(self):
        table = TagRoutingTable()
        table.install_path(["s", "a", "d"], tag=1)
        assert table.next_hop("s", Packet("s", "d", 100, tag=2)) is None

    def test_fallback_table_consulted(self):
        fallback = StaticRoutingTable(diamond_graph())
        table = TagRoutingTable(fallback=fallback)
        assert table.next_hop("s", Packet("s", "d", 100, tag=5)) in ("a", "b")

    def test_short_path_rejected(self):
        with pytest.raises(RoutingError):
            TagRoutingTable().install_path(["s"], tag=1)

    def test_looping_path_rejected(self):
        with pytest.raises(RoutingError):
            TagRoutingTable().install_path(["s", "a", "s"], tag=1)

    def test_different_tags_may_share_a_prefix(self):
        table = TagRoutingTable()
        table.install_path(["s", "a", "d"], tag=1)
        table.install_path(["s", "a", "b", "d"], tag=2)
        assert table.next_hop("a", Packet("s", "d", 100, tag=1)) == "d"
        assert table.next_hop("a", Packet("s", "d", 100, tag=2)) == "b"


class TestEcmpRouting:
    def test_next_hop_is_on_a_shortest_path(self):
        table = EcmpRoutingTable(diamond_graph())
        packet = Packet("s", "d", 100, flow_id=1, subflow_id=0)
        assert table.next_hop("s", packet) in ("a", "b")

    def test_same_flow_always_hashes_to_same_hop(self):
        table = EcmpRoutingTable(diamond_graph())
        packet = Packet("s", "d", 100, flow_id=12, subflow_id=3)
        hops = {table.next_hop("s", Packet("s", "d", 100, flow_id=12, subflow_id=3)) for _ in range(5)}
        assert len(hops) == 1

    def test_different_subflows_can_take_different_paths(self):
        table = EcmpRoutingTable(diamond_graph())
        hops = {
            table.next_hop("s", Packet("s", "d", 100, flow_id=1, subflow_id=i)) for i in range(32)
        }
        assert hops == {"a", "b"}

    def test_unknown_destination_returns_none(self):
        table = EcmpRoutingTable(diamond_graph())
        assert table.next_hop("s", Packet("s", "zzz", 100)) is None
