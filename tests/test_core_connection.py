"""MptcpConnection: construction, data striping, statistics."""

import pytest

from repro.core.connection import MptcpConnection
from repro.errors import ConfigurationError
from repro.netsim.network import Network
from repro.topologies.paper import paper_scenario

from .conftest import make_two_path_scenario


def build_paper_connection(cc="cubic", **kwargs):
    topology, paths = paper_scenario()
    network = Network(topology)
    connection = MptcpConnection(
        network, "s", "d", paths, congestion_control=cc, default_path_index=1, **kwargs
    )
    return network, connection


class TestConstruction:
    def test_three_subflows_with_tags(self):
        _, connection = build_paper_connection()
        assert len(connection.subflows) == 3
        assert sorted(sf.tag for sf in connection.subflows) == [1, 2, 3]

    def test_default_path_is_path_2(self):
        _, connection = build_paper_connection()
        assert [sf.path.name for sf in connection.subflows if sf.is_default] == ["Path 2"]

    def test_agents_registered_on_both_hosts(self):
        network, connection = build_paper_connection()
        src, dst = network.host("s"), network.host("d")
        for subflow in connection.subflows:
            assert (connection.flow_id, subflow.subflow_id) in src._agents
            assert (connection.flow_id, subflow.subflow_id) in dst._agents

    def test_coupled_cc_shares_one_group(self):
        _, connection = build_paper_connection(cc="lia")
        groups = {id(sf.cc.group) for sf in connection.subflows}
        assert len(groups) == 1
        assert len(connection.coupling_group) == 3

    def test_raw_node_lists_accepted(self):
        topology, paths = make_two_path_scenario()
        network = Network(topology)
        connection = MptcpConnection(
            network, "s", "d", [list(p.nodes) for p in paths], congestion_control="lia"
        )
        assert len(connection.subflows) == 2

    def test_same_endpoints_rejected(self):
        topology, paths = paper_scenario()
        network = Network(topology)
        with pytest.raises(ConfigurationError):
            MptcpConnection(network, "s", "s", paths)

    def test_paths_or_path_manager_required(self):
        topology, _ = paper_scenario()
        network = Network(topology)
        with pytest.raises(ConfigurationError):
            MptcpConnection(network, "s", "d", None)

    def test_unique_flow_ids(self):
        topology, paths = make_two_path_scenario()
        network = Network(topology)
        a = MptcpConnection(network, "s", "d", paths)
        b = MptcpConnection(network, "d", "s", [list(reversed(p.nodes)) for p in paths])
        assert a.flow_id != b.flow_id


class TestDataStriping:
    def test_request_data_assigns_increasing_dsn(self):
        _, connection = build_paper_connection()
        sender = connection.subflows[0].sender
        first = connection.request_data(sender, 1400)
        second = connection.request_data(sender, 1400)
        assert first == (0, 1400)
        assert second == (1400, 1400)

    def test_on_data_acked_updates_subflow_and_allocator(self):
        _, connection = build_paper_connection()
        subflow = connection.subflows[0]
        connection.request_data(subflow.sender, 1400)
        connection.on_data_acked(subflow.sender, 0, 1400, now=0.1)
        assert subflow.acked_bytes == 1400
        assert connection.allocator.acked_bytes == 1400

    def test_receiver_side_reassembly(self):
        _, connection = build_paper_connection()
        assert connection.on_subflow_data(0, 1400, 1400, now=0.1) == 0
        assert connection.on_subflow_data(1, 0, 1400, now=0.2) == 2800
        assert connection.bytes_delivered == 2800


class TestRunningConnection:
    def test_short_run_delivers_data_on_all_subflows(self):
        network, connection = build_paper_connection()
        connection.start(0.0)
        network.run(0.4)
        assert connection.bytes_delivered > 0
        assert all(sf.acked_bytes > 0 for sf in connection.subflows)

    def test_join_delay_staggers_subflow_start(self):
        network, connection = build_paper_connection(join_delay=0.1)
        connection.start(0.0)
        network.run(0.05)
        started = [sf for sf in connection.subflows if sf.sender.stats.segments_sent > 0]
        assert len(started) == 1
        assert started[0].is_default

    def test_total_throughput_positive_and_bounded(self):
        network, connection = build_paper_connection()
        connection.start(0.0)
        network.run(0.5)
        total = connection.total_throughput_mbps(0.5)
        assert 0 < total < 101.0  # cannot exceed the sum of access capacities

    def test_finite_transfer_stops(self):
        network, connection = build_paper_connection(total_bytes=300_000)
        connection.start(0.0)
        network.run(1.0)
        assert connection.allocator.acked_bytes == 300_000
        assert connection.reassembler.data_ack == 300_000

    def test_send_buffer_limits_outstanding_data(self):
        network, connection = build_paper_connection(send_buffer_bytes=64_000)
        connection.start(0.0)
        network.run(0.3)
        allocator = connection.allocator
        assert allocator.next_dsn - allocator.acked_bytes <= 64_000
        assert connection.bytes_delivered > 0
