"""Unit conversions and protocol constants."""

import pytest

from repro import units


class TestRateConversions:
    def test_mbps_to_bps(self):
        assert units.mbps(100) == 100_000_000.0

    def test_to_mbps_roundtrip(self):
        assert units.to_mbps(units.mbps(42.5)) == pytest.approx(42.5)


class TestTimeConversions:
    def test_to_milliseconds(self):
        assert units.to_milliseconds(0.0075) == pytest.approx(7.5)


class TestDataConversions:
    def test_bytes_to_bits(self):
        assert units.bytes_to_bits(1) == 8


class TestTransmissionTime:
    def test_transmission_time_of_a_packet(self):
        # 1500 bytes on a 100 Mbps link take 120 microseconds.
        assert units.transmission_time(1500, units.mbps(100)) == pytest.approx(120e-6)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_time(1500, 0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_time(1500, -1)


class TestThroughput:
    def test_throughput_mbps(self):
        # 12.5 MB in one second is 100 Mbps.
        assert units.throughput_mbps(12_500_000, 1.0) == pytest.approx(100.0)

    def test_zero_duration_is_zero(self):
        assert units.throughput_mbps(1000, 0.0) == 0.0

    def test_negative_duration_is_zero(self):
        assert units.throughput_mbps(1000, -1.0) == 0.0


class TestConstants:
    def test_mss_smaller_than_typical_mtu(self):
        assert 0 < units.DEFAULT_MSS <= 1460

    def test_header_and_ack_sizes_positive(self):
        assert units.HEADER_SIZE > 0
        assert units.ACK_SIZE > 0

    def test_default_capacity_matches_paper(self):
        # "the capacities are ... the default 100"
        assert units.DEFAULT_CAPACITY_MBPS == 100.0
