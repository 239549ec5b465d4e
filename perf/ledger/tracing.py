"""Spans and counts for the traced run, kept in memory until the run ends.

A span is ``{name, start, end, parent, round}``: ``parent`` is the index of
the enclosing span (``None`` for a round's root) and ``round`` the traced
round it belongs to, so the spans of one round share an identifier.  The
harness is single-threaded, so children nest inside their parent and never
overlap; a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional

Span = Dict[str, object]


class Tracer:
    """Records spans and per-round counts placed by ``perf/`` around public calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: List[Dict[str, float]] = []
        self._open: List[int] = []
        self.round = -1

    def begin_round(self) -> None:
        self.round += 1
        self.counts.append({})

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record: Span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "round": self.round,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        counts = self.counts[self.round]
        counts[name] = counts.get(name, 0) + amount


class _Off:
    """Tracing off: the same calls, nothing recorded."""

    _no_span = nullcontext()

    def span(self, name: str):
        return self._no_span

    def count(self, name: str, amount: float = 1) -> None:
        pass


OFF = _Off()


def duration(span: Span) -> float:
    return float(span["end"]) - float(span["start"])


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span, parallel to ``spans``."""
    own = [duration(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def round_seconds(spans: List[Span], name: str) -> List[float]:
    """Total duration of the spans called ``name``, one figure per round."""
    totals: Dict[int, float] = {}
    for span in spans:
        if span["name"] == name:
            totals[span["round"]] = totals.get(span["round"], 0.0) + duration(span)
    return [totals[key] for key in sorted(totals)]


def median_seconds(spans: List[Span], name: str) -> Optional[float]:
    """Median over rounds of a layer's per-round span time; None if it never ran."""
    values = round_seconds(spans, name)
    return statistics.median(values) if values else None


def coverage_share(spans: List[Span], root: str) -> Optional[float]:
    """Share of the ``root`` spans' wall time that a named child span accounts for."""
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span["parent"] is None and span["name"] == root]
    wall = sum(duration(spans[i]) for i in roots)
    return None if wall <= 0 else 1.0 - sum(own[i] for i in roots) / wall


def exported(spans: List[Span]) -> List[Span]:
    """Spans with times rebased to the first start, ready for JSON."""
    if not spans:
        return []
    origin = min(float(span["start"]) for span in spans)
    return [
        {**span, "start": float(span["start"]) - origin, "end": float(span["end"]) - origin}
        for span in spans
    ]
