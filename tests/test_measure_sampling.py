"""Throughput time series and the tshark-style binning."""

import pytest

from repro.measure.sampling import (
    TimeSeries,
    per_tag_timeseries,
    throughput_timeseries,
    total_timeseries,
)
from repro.netsim.capture import CaptureRecord, PacketCapture
from repro.netsim.packet import Packet


def record(time, size=1250, tag=1, subflow=0, is_ack=False):
    return CaptureRecord(
        time=time,
        size=size,
        payload_len=size - 60,
        tag=tag,
        flow_id=1,
        subflow_id=subflow,
        is_ack=is_ack,
        seq=0,
        dsn=0,
        is_retransmission=False,
    )


class TestThroughputTimeseries:
    def test_constant_rate_bins_evenly(self):
        # 1250 bytes every 1 ms = 10 Mbps.
        records = [record(0.001 * i) for i in range(100)]
        series = throughput_timeseries(records, interval=0.01, start=0.0, end=0.1)
        assert len(series) == 10
        assert series.values[3] == pytest.approx(10.0, rel=0.01)

    def test_empty_interval_is_zero(self):
        records = [record(0.005)]
        series = throughput_timeseries(records, interval=0.01, start=0.0, end=0.05)
        assert series.values[0] > 0
        assert series.values[1:] == [0.0] * 4

    def test_total_bytes_preserved(self):
        records = [record(0.013 * i) for i in range(37)]
        series = throughput_timeseries(records, interval=0.1, start=0.0, end=0.5)
        binned_bytes = sum(v * 1e6 / 8 * 0.1 for v in series.values)
        assert binned_bytes == pytest.approx(37 * 1250, rel=1e-6)

    def test_payload_only_mode(self):
        records = [record(0.0)]
        wire = throughput_timeseries(records, interval=0.1, end=0.1)
        goodput = throughput_timeseries(records, interval=0.1, end=0.1, use_payload=True)
        assert goodput.values[0] < wire.values[0]

    def test_records_outside_range_ignored(self):
        records = [record(0.05), record(5.0)]
        series = throughput_timeseries(records, interval=0.1, start=0.0, end=0.2)
        assert sum(series.values) == pytest.approx(series.values[0])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            throughput_timeseries([], interval=0.0)

    def test_sampling_interval_changes_resolution_not_mean(self):
        records = [record(0.001 * i) for i in range(400)]
        coarse = throughput_timeseries(records, interval=0.1, start=0.0, end=0.4)
        fine = throughput_timeseries(records, interval=0.01, start=0.0, end=0.4)
        assert coarse.mean() == pytest.approx(fine.mean(), rel=0.01)
        assert len(fine) == 10 * len(coarse)


class TestTimeSeriesStats:
    @pytest.fixture
    def series(self):
        return TimeSeries(times=[0.1, 0.2, 0.3, 0.4], values=[10.0, 20.0, 30.0, 40.0], interval=0.1)

    def test_mean_and_max(self, series):
        assert series.mean() == 25.0
        assert series.max() == 40.0

    def test_stddev_and_cv(self, series):
        assert series.stddev() == pytest.approx(12.909, rel=1e-3)
        assert series.coefficient_of_variation() == pytest.approx(12.909 / 25.0, rel=1e-3)

    def test_window(self, series):
        window = series.window(0.1, 0.3)
        assert window.values == [20.0, 30.0]

    def test_mean_over(self, series):
        assert series.mean_over(0.2, 0.4) == pytest.approx(35.0)

    def test_first_time_above(self, series):
        assert series.first_time_above(25.0) == pytest.approx(0.3)
        assert series.first_time_above(100.0) is None

    def test_empty_series_statistics(self):
        empty = TimeSeries()
        assert empty.mean() == 0.0
        assert empty.stddev() == 0.0
        assert empty.coefficient_of_variation() == 0.0


class TestCaptureIntegration:
    @pytest.fixture
    def capture(self):
        cap = PacketCapture()
        for i in range(50):
            cap.on_packet(
                Packet("s", "d", 1250, tag=1, flow_id=1, subflow_id=0, payload_len=1190),
                0.002 * i,
            )
            cap.on_packet(
                Packet("s", "d", 1250, tag=2, flow_id=1, subflow_id=1, payload_len=1190),
                0.002 * i + 0.001,
            )
        return cap

    def test_per_tag_series(self, capture):
        series = per_tag_timeseries(capture, interval=0.02, end=0.1)
        assert set(series) == {1, 2}
        assert series[1].mean() == pytest.approx(series[2].mean(), rel=0.05)

    def test_total_equals_sum_of_tags(self, capture):
        per_tag = per_tag_timeseries(capture, interval=0.02, end=0.1)
        total = total_timeseries(capture, interval=0.02, end=0.1)
        summed = [sum(values) for values in zip(*(s.values for s in per_tag.values()))]
        for total_value, summed_value in zip(total.values, summed):
            assert total_value == pytest.approx(summed_value)

    def test_explicit_tag_selection(self, capture):
        series = per_tag_timeseries(capture, interval=0.02, end=0.1, tags=[1, 3])
        assert set(series) == {1, 3}
        assert series[3].mean() == 0.0
