"""Throughput time series and the tshark-style binning."""

import importlib
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.measure.convergence import sustained_time_to_fraction
from repro.measure.fairness import settle_time
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


#: Samples as the measure layer can meet them: finite, zero, +-inf and nan.
#: Rates in Mbps tell a list sum from numpy's pairwise one; small whole
#: numbers make holds and bands likely.
_SAMPLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(0.0, 100.0),
    st.integers(1, 4).map(float),
)
_SERIES = st.lists(_SAMPLES, max_size=40).map(
    lambda values: TimeSeries(
        times=[0.1 * (i + 1) for i in range(len(values))], values=values
    )
)
_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_SETTINGS = (
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


def _same(a, b) -> bool:
    """``==`` that counts two NaNs as equal."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


# Literal transcriptions of the steady-state window and the hold loop as each
# measure module wrote them out before they shared one body.
def _convergence_tail_mean(series, tail_fraction=0.5):
    start_index = int(len(series.values) * (1.0 - tail_fraction))
    return (
        sum(series.values[start_index:]) / max(len(series.values) - start_index, 1)
        if series.values
        else 0.0
    )


def _validation_tail_mean(series, tail_fraction=0.5):
    if not series.values:
        return 0.0
    start = int(len(series.values) * (1.0 - tail_fraction))
    tail = series.values[min(start, len(series.values) - 1):]
    return float(sum(tail)) / len(tail)


def _fairness_tail_mean(series, tail_fraction=0.5):
    start_index = int(len(series.values) * (1.0 - tail_fraction))
    tail = series.values[start_index:]
    return sum(tail) / max(len(tail), 1) if tail else 0.0


def _held_at_or_above(series, threshold, hold=3):
    run = 0
    for t, v in zip(series.times, series.values):
        if v >= threshold:
            run += 1
            if run >= hold:
                return t
        else:
            run = 0
    return None


def _held_within(series, low, high, hold=3):
    run = 0
    for time, value in zip(series.times, series.values):
        if low <= value <= high:
            run += 1
            if run >= hold:
                return time
        else:
            run = 0
    return None


def _sustained_time_to_fraction(series, optimum, fraction=0.95, hold=3):
    if optimum <= 0 or not series.values:
        return None
    threshold = fraction * optimum
    run = 0
    for t, v in zip(series.times, series.values):
        if v >= threshold:
            run += 1
            if run >= hold:
                return t
        else:
            run = 0
    return None


def _settle_time(series, tail_fraction=0.5, band=0.25, hold=3):
    if not series.values:
        return None
    start_index = int(len(series.values) * (1.0 - tail_fraction))
    tail = series.values[start_index:]
    tail_mean = sum(tail) / max(len(tail), 1)
    if tail_mean <= 0.0:
        return None
    low, high = (1.0 - band) * tail_mean, (1.0 + band) * tail_mean
    run = 0
    for time, value in zip(series.times, series.values):
        if low <= value <= high:
            run += 1
            if run >= hold:
                return time
        else:
            run = 0
    return None


class TestSharedBodiesMatchTheirTranscriptions:
    """The one window and the one hold loop give what each copy gave."""

    @_SETTINGS
    @given(_SERIES)
    def test_the_window(self, series):
        start = int(len(series.values) * (1.0 - 0.5))
        tail = series.steady_state()
        assert tail.times == series.times[start:]
        assert tail.values == series.values[start:]
        mean = series.steady_state_mean()
        assert _same(mean, _convergence_tail_mean(series))
        assert _same(mean, _validation_tail_mean(series))
        assert _same(mean, _fairness_tail_mean(series))

    @_SETTINGS
    @given(_SERIES, _SAMPLES)
    def test_the_hold_rule_at_a_threshold(self, series, threshold):
        assert series.first_time_held(threshold, math.inf) == _held_at_or_above(
            series, threshold
        )
        assert sustained_time_to_fraction(series, threshold) == _sustained_time_to_fraction(
            series, threshold
        )

    @_SETTINGS
    @given(_SERIES, _SAMPLES, _SAMPLES)
    def test_the_hold_rule_within_a_band(self, series, low, high):
        assert series.first_time_held(low, high) == _held_within(series, low, high)
        assert settle_time(series) == _settle_time(series)

    def test_empty_and_one_sample_series(self):
        empty = TimeSeries()
        assert empty.steady_state_mean() == 0.0
        assert empty.first_time_held(-math.inf, math.inf) is None
        assert settle_time(empty) is None
        one = TimeSeries(times=[0.1], values=[4.0])
        assert one.steady_state().values == [4.0]
        assert one.steady_state_mean() == 4.0
        assert one.first_time_held(-math.inf, math.inf) is None
        assert settle_time(one) is None


#: Every named measurement definition, as the README table names it.
MEASUREMENT_CONSTANTS = (
    "sampling.STEADY_STATE_SHARE",
    "sampling.HOLD_SAMPLES",
    "convergence.REACH_FRACTION",
    "fairness.SETTLE_BAND",
    "dynamics.RECONVERGENCE_FRACTION",
    "dynamics.FAILOVER_BASELINE_S",
    "dynamics.FAILOVER_FLOOR",
    "dynamics.FAILOVER_RECOVER",
    "dynamics.TRACKING_SETTLE_S",
    "validation.CROSS_FIDELITY_RANK_TOL",
)


def readme_definitions():
    """``{"module.NAME": value}`` from the README's measurement table."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Measurement definitions", 1)[1]
    rows = {}
    for line in section.split("\n\n#", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            rows[cells[0].strip("`")] = float(cells[1].split()[0])
    return rows


class TestTheReadmeStatesEachDefinition:
    def test_one_row_per_constant_with_its_value(self):
        rows = readme_definitions()
        assert sorted(rows) == sorted(MEASUREMENT_CONSTANTS)
        for name, value in rows.items():
            module, constant = name.split(".")
            code = getattr(importlib.import_module(f"repro.measure.{module}"), constant)
            assert value == code, name


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
