"""Traffic generation: UDP CBR and on-off sources."""

import pytest

from repro.errors import ConfigurationError
from repro.netsim.network import Network
from repro.workload.sources import OnOffSource, UdpConstantBitRate

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
        assert source.sink.packets_received == source.packets_sent

    def test_losses_above_capacity(self, chain):
        source = UdpConstantBitRate(chain, "s", "d", rate_mbps=80.0, tag=1)
        source.start(0.0, stop_at=0.5)
        chain.run(0.6)
        assert source.sink.packets_received < 0.8 * source.packets_sent
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
