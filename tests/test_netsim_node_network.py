"""Nodes, hosts, agent dispatch and the Network façade."""

import pytest

from repro.errors import ConfigurationError, RoutingError, SimulationError, TopologyError
from repro.netsim.network import Network
from repro.netsim.packet import Packet

from .conftest import make_chain_topology


class CollectingAgent:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)


@pytest.fixture
def built_chain():
    network = Network(make_chain_topology())
    network.install_path(["s", "r1", "d"], tag=1, as_default=True)
    return network


class TestNetworkBuild:
    def test_nodes_created(self, built_chain):
        assert set(built_chain.nodes) == {"s", "r1", "d"}

    def test_links_created_in_both_directions(self, built_chain):
        assert ("s", "r1") in built_chain.links
        assert ("r1", "s") in built_chain.links

    def test_host_accessor_type_checks(self, built_chain):
        built_chain.host("s")
        with pytest.raises(TopologyError):
            built_chain.host("r1")

    def test_unknown_node_raises(self, built_chain):
        with pytest.raises(TopologyError):
            built_chain.node("zzz")

    def test_unknown_link_raises(self, built_chain):
        with pytest.raises(TopologyError):
            built_chain.link("s", "d")

    def test_install_path_validates_links(self, built_chain):
        with pytest.raises(TopologyError):
            built_chain.install_path(["s", "d"], tag=2)

    def test_install_path_requires_tag_routing(self):
        from repro.netsim.routing import StaticRoutingTable

        topology = make_chain_topology()
        network = Network(topology, routing=StaticRoutingTable(topology.undirected_graph()))
        with pytest.raises(TopologyError):
            network.install_path(["s", "r1", "d"], tag=1)


class TestPacketDelivery:
    def test_end_to_end_delivery_to_registered_agent(self, built_chain):
        agent = CollectingAgent()
        built_chain.host("d").register_agent(flow_id=1, subflow_id=0, agent=agent)
        packet = Packet("s", "d", 1000, tag=1, flow_id=1, subflow_id=0, payload_len=940)
        built_chain.host("s").send(packet)
        built_chain.run(1.0)
        assert agent.packets == [packet]
        assert packet.hops == 2

    def test_unregistered_flow_is_dropped_silently(self, built_chain):
        packet = Packet("s", "d", 1000, tag=1, flow_id=9, subflow_id=0)
        built_chain.host("s").send(packet)
        built_chain.run(1.0)
        assert built_chain.host("d").stats.delivered == 1

    def test_duplicate_agent_registration_rejected(self, built_chain):
        built_chain.host("d").register_agent(1, 0, CollectingAgent())
        with pytest.raises(RoutingError):
            built_chain.host("d").register_agent(1, 0, CollectingAgent())

    def test_unregister_agent(self, built_chain):
        agent = CollectingAgent()
        host = built_chain.host("d")
        host.register_agent(1, 0, agent)
        host.unregister_agent(1, 0)
        host.register_agent(1, 0, CollectingAgent())  # no error after unregister

    def test_packet_without_route_counts_routing_drop(self, built_chain):
        packet = Packet("s", "d", 1000, tag=42, flow_id=1, subflow_id=0)
        # Tag 42 has no installed path and no default exists for it only if
        # defaults are absent; default exists here, so use an unknown dst.
        missing = Packet("s", "nowhere", 1000, tag=1)
        assert built_chain.host("s").send(missing) is False
        assert built_chain.host("s").stats.routing_drops == 1
        assert built_chain.host("s").send(packet) is True  # falls back to default

    def test_node_without_routing_table_raises(self, sim):
        from repro.netsim.node import Host

        host = Host("lonely", sim, routing=None)
        with pytest.raises(RoutingError):
            host.send(Packet("lonely", "x", 100))

    def test_router_forward_counters(self, built_chain):
        agent = CollectingAgent()
        built_chain.host("d").register_agent(1, 0, agent)
        for _ in range(3):
            built_chain.host("s").send(Packet("s", "d", 500, tag=1, flow_id=1, subflow_id=0))
        built_chain.run(1.0)
        router = built_chain.node("r1")
        assert router.stats.forwarded == 3
        assert router.stats.received == 3


class TestCaptures:
    def test_capture_records_delivered_packets(self, built_chain):
        capture = built_chain.attach_capture("d")
        built_chain.host("d").register_agent(1, 0, CollectingAgent())
        built_chain.host("s").send(Packet("s", "d", 800, tag=1, flow_id=1, subflow_id=0, payload_len=740))
        built_chain.run(1.0)
        assert len(capture) == 1
        assert capture.records[0].tag == 1

    def test_attach_capture_is_idempotent(self, built_chain):
        first = built_chain.attach_capture("d")
        second = built_chain.attach_capture("d")
        assert first is second


class TestNetworkRun:
    @pytest.mark.parametrize("duration", [float("nan"), 0.0, -1.0, float("inf")])
    def test_a_run_length_that_is_not_positive_is_refused(self, each_kernel, built_chain, duration):
        """NaN or infinity would never end the event loop; 0 or -1 would
        return at once with nothing run.  Either kernel refuses them all."""
        agent = CollectingAgent()
        built_chain.host("d").register_agent(1, 0, agent)
        built_chain.host("s").send(Packet("s", "d", 1500, tag=1, flow_id=1, subflow_id=0))
        with pytest.raises(ConfigurationError, match="duration must be positive and finite"):
            built_chain.run(duration)
        assert built_chain.sim.now == 0.0
        built_chain.run(1.0)  # the refused call left the network runnable
        assert len(agent.packets) == 1


class TestNetworkClose:
    def test_close_drops_the_graph_and_keeps_the_counters(self, each_kernel, built_chain):
        agent = CollectingAgent()
        built_chain.host("d").register_agent(1, 0, agent)
        built_chain.attach_capture("d")
        for _ in range(3):
            built_chain.host("s").send(Packet("s", "d", 1500, tag=1, flow_id=1, subflow_id=0))
        built_chain.run(0.0005)  # the first packet is still on the wire
        assert built_chain.sim.pending_events > 0
        sent = built_chain.link("s", "r1").stats.packets_sent
        built_chain.close()
        assert built_chain.sim.pending_events == 0
        assert all(not node.links for node in built_chain.nodes.values())
        host = built_chain.host("d")
        assert not host._agents and not host._agents_by_flow and not host._captures
        assert host._sole_agent is None
        assert built_chain.link("s", "r1").stats.packets_sent == sent == 3

    def test_a_closed_network_refuses_to_run(self, each_kernel, built_chain):
        """A closed network has no links or agents left: running it would
        simulate nothing and say nothing, so either kernel refuses."""
        built_chain.host("d").register_agent(1, 0, CollectingAgent())
        built_chain.host("s").send(Packet("s", "d", 1500, tag=1, flow_id=1, subflow_id=0))
        built_chain.close()
        refusal = "network 'chain' is closed and cannot run"
        with pytest.raises(SimulationError, match=refusal) as refused:
            built_chain.run(1.0)
        assert str(refused.value) == refusal
        assert built_chain.sim.now == 0.0 and built_chain.sim.events_processed == 0


class TestNetworkStats:
    def test_total_drops_initially_zero(self, built_chain):
        assert built_chain.total_drops() == 0

    def test_link_utilization_between_zero_and_one(self, built_chain):
        built_chain.host("d").register_agent(1, 0, CollectingAgent())
        for _ in range(10):
            built_chain.host("s").send(Packet("s", "d", 1500, tag=1, flow_id=1, subflow_id=0))
        built_chain.run(1.0)
        utilization = built_chain.link_utilization("s", "r1", 1.0)
        assert 0.0 < utilization <= 1.0
