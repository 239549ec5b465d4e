"""Flow-completion-time metrics: the numbers operators actually watch.

Throughput time series answer "who gets the bandwidth"; user experience is
decided by *flow completion time* (FCT).  This module turns a list of
completed transfers (:class:`FctRecord`) into the standard workload report:

* FCT percentiles (p50/p90/p99) and the mean;
* a size-decile breakdown -- mice and elephants live in different FCT
  regimes, so one aggregate percentile hides the interesting structure;
* page-load times -- a page is one request/response group (main response
  plus its subresources); its load time runs from the first transfer's
  start to the last transfer's finish.

Everything is NaN-safe: empty inputs produce ``None`` fields, never NaN
(the ``--json`` contract of the CLI).  Percentiles use the same simple
order-statistic convention as
:meth:`repro.flowsim.engine.FlowLevelResult.summary` so the two reports
never disagree on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The FCT percentiles every report carries (fractions): median, tail and
#: far tail, the three web-workload studies quote.
DEFAULT_PERCENTILES = (0.50, 0.90, 0.99)

#: Size classes of a report's breakdown: deciles of the transfer sizes, fine
#: enough to split mice from elephants in every stock size distribution.
SIZE_DECILES = 10


@dataclass(frozen=True)
class FctRecord:
    """One completed transfer."""

    name: str
    size_bytes: int
    start: float
    finish: float
    #: Session (user) the transfer belongs to; "" for flat populations.
    session: str = ""
    #: Page (request group) index inside the session.
    page: int = 0

    @property
    def fct(self) -> float:
        return self.finish - self.start


def percentile(sorted_values: Sequence[float], fraction: float) -> Optional[float]:
    """Order-statistic percentile of an ascending sequence (None if empty)."""
    if not sorted_values:
        return None
    index = min(int(fraction * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def fct_percentiles(records: Iterable[FctRecord]) -> Dict[str, Optional[float]]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` of the completion times
    (seconds), at :data:`DEFAULT_PERCENTILES`."""
    durations = sorted(record.fct for record in records)
    return {
        f"p{int(round(fraction * 100))}": percentile(durations, fraction)
        for fraction in DEFAULT_PERCENTILES
    }


def size_decile_breakdown(records: Sequence[FctRecord]) -> List[dict]:
    """Per-size-decile FCT statistics.

    Records are sorted by size and split into :data:`SIZE_DECILES`
    equal-count groups (the last group absorbs the remainder); each row
    reports the group's size range, mean FCT and tail FCT.  Fewer records
    than groups simply yields fewer rows.
    """
    ordered = sorted(records, key=lambda r: (r.size_bytes, r.name))
    if not ordered:
        return []
    group_size = max(len(ordered) // SIZE_DECILES, 1)
    rows: List[dict] = []
    for group_index in range(SIZE_DECILES):
        lo = group_index * group_size
        if lo >= len(ordered):
            break
        hi = len(ordered) if group_index == SIZE_DECILES - 1 else min(lo + group_size, len(ordered))
        group = ordered[lo:hi]
        if not group:
            break
        durations = sorted(r.fct for r in group)
        rows.append(
            {
                "decile": group_index + 1,
                "flows": len(group),
                "min_bytes": group[0].size_bytes,
                "max_bytes": group[-1].size_bytes,
                "mean_fct_s": sum(durations) / len(durations),
                "p99_fct_s": percentile(durations, 0.99),
            }
        )
    return rows


def page_load_times(records: Iterable[FctRecord]) -> Dict[Tuple[str, int], float]:
    """Per-page load time: last finish minus first start of each page group."""
    starts: Dict[Tuple[str, int], float] = {}
    finishes: Dict[Tuple[str, int], float] = {}
    for record in records:
        key = (record.session, record.page)
        if key not in starts or record.start < starts[key]:
            starts[key] = record.start
        if key not in finishes or record.finish > finishes[key]:
            finishes[key] = record.finish
    return {key: finishes[key] - starts[key] for key in starts}


@dataclass
class FctReport:
    """Aggregated FCT statistics of one workload run."""

    completed: int
    #: Transfers the workload offered (completed <= offered; the difference
    #: was still in flight when the run ended).
    offered: int
    total_bytes: int
    mean_fct_s: Optional[float]
    percentiles: Dict[str, Optional[float]] = field(default_factory=dict)
    size_deciles: List[dict] = field(default_factory=list)
    pages: int = 0
    mean_page_load_s: Optional[float] = None
    page_load_percentiles: Dict[str, Optional[float]] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls,
        records: Sequence[FctRecord],
        *,
        offered: Optional[int] = None,
    ) -> "FctReport":
        durations = [record.fct for record in records]
        plt = sorted(page_load_times(records).values())
        return cls(
            completed=len(records),
            offered=len(records) if offered is None else offered,
            total_bytes=sum(record.size_bytes for record in records),
            mean_fct_s=(sum(durations) / len(durations)) if durations else None,
            percentiles=fct_percentiles(records),
            size_deciles=size_decile_breakdown(records),
            pages=len(plt),
            mean_page_load_s=(sum(plt) / len(plt)) if plt else None,
            page_load_percentiles={
                f"p{int(round(fraction * 100))}": percentile(plt, fraction)
                for fraction in DEFAULT_PERCENTILES
            },
        )

    @property
    def completion_ratio(self) -> float:
        if self.offered <= 0:
            return 0.0
        return self.completed / self.offered

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "offered": self.offered,
            "completion_ratio": round(self.completion_ratio, 4),
            "total_bytes": self.total_bytes,
            "mean_fct_s": self.mean_fct_s,
            "fct_percentiles_s": dict(self.percentiles),
            "size_deciles": [dict(row) for row in self.size_deciles],
            "pages": self.pages,
            "mean_page_load_s": self.mean_page_load_s,
            "page_load_percentiles_s": dict(self.page_load_percentiles),
        }
