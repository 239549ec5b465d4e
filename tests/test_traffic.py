"""Traffic generation: UDP CBR, on-off sources and the iperf wrapper."""

import pytest

from repro.core.connection import MptcpConnection
from repro.errors import ConfigurationError
from repro.netsim.network import Network
from repro.tcp.connection import TcpConnection
from repro.topologies.paper import paper_scenario
from repro.workload.sources import IperfClient, OnOffSource, UdpConstantBitRate

from .conftest import make_chain_topology


@pytest.fixture
def chain():
    network = Network(make_chain_topology(capacity_mbps=50.0))
    network.install_path(["s", "r1", "d"], tag=1, as_default=True)
    return network


class TestUdpCbr:
    def test_rate_is_respected(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=10.0, tag=1)
        source.start(at=0.0, stop_at=1.0)
        chain.run(1.1)
        assert source.sink.throughput_mbps() == pytest.approx(10.0, rel=0.05)

    def test_no_loss_below_capacity(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=20.0, tag=1)
        source.start(0.0, stop_at=0.5)
        chain.run(0.6)
        assert source.delivery_ratio == pytest.approx(1.0)

    def test_losses_above_capacity(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=80.0, tag=1)
        source.start(0.0, stop_at=0.5)
        chain.run(0.6)
        assert source.delivery_ratio < 0.8
        assert chain.total_drops() > 0

    def test_stop_time_honoured(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=10.0, tag=1)
        source.start(0.0, stop_at=0.2)
        chain.run(1.0)
        sent_after = source.packets_sent
        chain.run(0.5)
        assert source.packets_sent == sent_after

    def test_invalid_rate_rejected(self, chain):
        with pytest.raises(ConfigurationError):
            UdpConstantBitRate(chain, "s", "d", rate_mbps=0.0)

    def test_delivery_ratio_zero_before_start(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=10.0, tag=1)
        assert source.delivery_ratio == 0.0


class TestOnOff:
    def test_duty_cycle_halves_throughput(self, chain):
        source = OnOffSource(
            chain, "s", "d", rate_mbps=10.0, on_duration=0.1, off_duration=0.1, tag=1
        )
        source.start(0.0, stop_at=1.0)
        chain.run(1.2)
        delivered_mbps = source.sink.bytes_received * 8 / 1e6 / 1.0
        assert delivered_mbps == pytest.approx(5.0, rel=0.25)

    def test_invalid_durations_rejected(self, chain):
        with pytest.raises(ConfigurationError):
            OnOffSource(chain, "s", "d", 10.0, on_duration=0.0, off_duration=0.1)


class TestIperf:
    def test_single_path_report(self, chain):
        capture = chain.attach_capture("d", data_only=True)
        connection = TcpConnection(chain, "s", "d", cc="cubic", tag=1)
        client = IperfClient(connection, capture=capture, report_interval=0.25)
        client.start(0.0)
        chain.run(1.0)
        report = client.report(1.0)
        assert report.mean_throughput_mbps > 0.6 * 50.0
        assert report.bytes_transferred > 0
        assert len(report.interval_series) == 4

    def test_mptcp_report(self):
        topology, paths = paper_scenario()
        network = Network(topology)
        capture = network.attach_capture("d", data_only=True)
        connection = MptcpConnection(network, "s", "d", paths, congestion_control="cubic")
        client = IperfClient(connection, capture=capture)
        client.start(0.0)
        network.run(0.5)
        report = client.report(0.5)
        assert report.mean_throughput_mbps > 10.0
        assert report.retransmissions >= 0
        assert report.as_dict()["duration_s"] == 0.5

    def test_report_without_capture_has_empty_series(self, chain):
        connection = TcpConnection(chain, "s", "d", cc="cubic", tag=1)
        client = IperfClient(connection)
        client.start(0.0)
        chain.run(0.2)
        report = client.report(0.2)
        assert len(report.interval_series) == 0
        assert report.bytes_transferred > 0
