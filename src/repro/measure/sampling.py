"""Throughput time series from captured packets (the tshark post-processing).

The paper reports "the throughput of each flow sampled with 10 or 100 ms by
tshark at the receiver side".  :func:`throughput_timeseries` performs the same
binning: captured packet records are filtered (typically by tag) and the bytes
received in each sampling interval are converted to Mbps.

The binning is vectorised: record timestamps and byte counts are mapped to
bin indices in one shot and accumulated with :func:`numpy.bincount`, which is
bit-for-bit identical to the historical per-record Python loop (integer byte
counts are exact in float64 and the per-bin Mbps conversion applies the same
operations in the same order).  :func:`per_tag_timeseries` extracts the
capture's columns once and bins every tag from that single pass instead of
running one full filter per tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..netsim.capture import CaptureColumns, CaptureRecord, PacketCapture

#: Anything :func:`throughput_timeseries` can bin.
BinSource = Union[Iterable[CaptureRecord], CaptureColumns, PacketCapture]

#: Share of a run, counted back from its end, read as its steady state: the
#: paper judges a run on what it settles to, not on its start-up.
STEADY_STATE_SHARE = 0.5
#: Consecutive samples a level must hold to count as reached: one sample
#: above a threshold is a spike, not convergence.
HOLD_SAMPLES = 3


@dataclass
class TimeSeries:
    """A regularly sampled throughput series.

    ``times[i]`` is the *end* of the i-th sampling interval and ``values[i]``
    the mean throughput (Mbps) inside that interval, matching how tshark's
    ``io,stat`` output is usually plotted.

    ``times`` and ``values`` stay plain Python lists (callers index, slice
    and compare them), but every statistic is computed on a numpy view.
    """

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)
    label: str = ""
    interval: float = 0.1

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times, dtype=np.float64), np.asarray(self.values, dtype=np.float64)

    # ------------------------------------------------------------------ stats
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0

    def max(self) -> float:
        return float(np.max(self.values)) if self.values else 0.0

    def stddev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    def coefficient_of_variation(self) -> float:
        mean = self.mean()
        return self.stddev() / mean if mean > 0 else 0.0

    def window(self, start: float, end: float) -> "TimeSeries":
        """The sub-series with ``start < time <= end``."""
        times, values = self._arrays()
        mask = (times > start) & (times <= end)
        return TimeSeries(
            times=times[mask].tolist(),
            values=values[mask].tolist(),
            label=self.label,
            interval=self.interval,
        )

    def mean_over(self, start: float, end: float) -> float:
        return self.window(start, end).mean()

    def _steady_state_start(self) -> int:
        """Index of the first sample of the last :data:`STEADY_STATE_SHARE`."""
        return int(len(self.values) * (1.0 - STEADY_STATE_SHARE))

    def steady_state(self) -> "TimeSeries":
        """The last :data:`STEADY_STATE_SHARE` of the series."""
        start = self._steady_state_start()
        return TimeSeries(
            times=self.times[start:],
            values=self.values[start:],
            label=self.label,
            interval=self.interval,
        )

    def steady_state_mean(self) -> float:
        """Mean of :meth:`steady_state` (0.0 when empty).

        A builtin ``sum`` over the list, not numpy's pairwise sum: every
        recorded steady-state rate was computed this way, to the last bit.
        """
        values = self.values[self._steady_state_start():]
        return sum(values) / len(values) if values else 0.0

    def first_time_held(self, low: float, high: float) -> Optional[float]:
        """Time of the sample that completes the first :data:`HOLD_SAMPLES`
        consecutive samples inside ``[low, high]`` (None if none does)."""
        run = 0
        for time, value in zip(self.times, self.values):
            if low <= value <= high:
                run += 1
                if run >= HOLD_SAMPLES:
                    return time
            else:
                run = 0
        return None

    def first_time_above(self, threshold: float) -> Optional[float]:
        """First sample time whose value is at least ``threshold`` (or None)."""
        times, values = self._arrays()
        mask = values >= threshold
        if not mask.any():
            return None
        return float(times[int(np.argmax(mask))])


# ---------------------------------------------------------------------- binning
def _extract_arrays(records: BinSource, use_payload: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Timestamps and byte counts of ``records`` as flat arrays."""
    if isinstance(records, PacketCapture):
        records = records.columns(data_only=True)
    if isinstance(records, CaptureColumns):
        return records.time, records.payload_len if use_payload else records.size
    materialised = records if isinstance(records, (list, tuple)) else list(records)
    times = np.fromiter((r.time for r in materialised), dtype=np.float64, count=len(materialised))
    if use_payload:
        sizes = np.fromiter((r.payload_len for r in materialised), dtype=np.int64, count=len(materialised))
    else:
        sizes = np.fromiter((r.size for r in materialised), dtype=np.int64, count=len(materialised))
    return times, sizes


def _bin_series(
    times: np.ndarray,
    sizes: np.ndarray,
    interval: float,
    start: float,
    end: Optional[float],
    label: str,
) -> TimeSeries:
    """Vectorised equivalent of the historical per-record binning loop."""
    if end is None:
        end = (float(times.max()) if len(times) else start) + interval
    bin_count = max(int((end - start) / interval + 0.5), 1)
    in_range = (times >= start) & (times <= end)
    # Same arithmetic as the scalar loop: truncate (time - start) / interval,
    # clamp the final partial interval into the last bin.
    indices = ((times[in_range] - start) / interval).astype(np.int64)
    np.minimum(indices, bin_count - 1, out=indices)
    bins = np.bincount(indices, weights=sizes[in_range], minlength=bin_count)
    # Mbps conversion, elementwise in the same operation order as
    # units.throughput_mbps: (bytes * 8 / duration) / 1e6.
    values = (bins * 8.0 / interval) / 1e6
    times_out = (np.arange(1, bin_count + 1, dtype=np.int64) * interval + start).tolist()
    return TimeSeries(times=times_out, values=values.tolist(), label=label, interval=interval)


def throughput_timeseries(
    records: BinSource,
    interval: float = 0.1,
    *,
    start: float = 0.0,
    end: Optional[float] = None,
    use_payload: bool = False,
    label: str = "",
) -> TimeSeries:
    """Bin captured packets into a throughput time series.

    Parameters
    ----------
    records:
        Capture records (typically ``capture.filter(tag=...)``), a
        :class:`CaptureColumns` selection, or a whole :class:`PacketCapture`
        (binned data-only, the columnar fast path).
    interval:
        Sampling interval in seconds (the paper uses 0.01 and 0.1).
    start, end:
        Time range; ``end`` defaults to the last record's timestamp rounded up
        to a full interval.
    use_payload:
        Count payload bytes only instead of wire bytes (goodput vs throughput).
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    times, sizes = _extract_arrays(records, use_payload)
    return _bin_series(times, sizes, interval, start, end, label)


def per_tag_timeseries(
    capture: PacketCapture,
    interval: float = 0.1,
    *,
    start: float = 0.0,
    end: Optional[float] = None,
    tags: Optional[Sequence[int]] = None,
) -> Dict[int, TimeSeries]:
    """One throughput series per tag seen in the capture (the Fig. 2 curves).

    The capture's columns are extracted once and every tag is binned from
    that single grouped pass, instead of one full record filter per tag.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    if tags is None:
        tags = capture.tags()
    cols = capture.columns(data_only=True)
    result: Dict[int, TimeSeries] = {}
    for tag in tags:
        mask = cols.tag == tag
        result[tag] = _bin_series(
            cols.time[mask], cols.size[mask], interval, start, end, f"tag {tag}"
        )
    return result


def total_timeseries(
    capture: PacketCapture,
    interval: float = 0.1,
    *,
    start: float = 0.0,
    end: Optional[float] = None,
) -> TimeSeries:
    """Aggregate throughput series over all data packets (the 'Total' curve)."""
    return throughput_timeseries(
        capture.columns(data_only=True), interval, start=start, end=end, label="Total"
    )
