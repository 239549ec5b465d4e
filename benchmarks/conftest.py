"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (a figure panel, a results
claim or an ablation) and prints a ``paper vs measured`` block so the console
output of ``pytest benchmarks/ --benchmark-only`` documents the reproduction
directly; ``benchmarks/latest_results.txt`` (untracked) keeps the same rows
for the latest session alone: it is removed when a session starts, and every
benchmark that session runs appends its block.
"""

from __future__ import annotations

import pathlib
import sys

from repro.measure.report import format_comparison

#: Every benchmark appends its paper-vs-measured block here, so the record
#: survives pytest's output capturing.
RESULTS_FILE = pathlib.Path(__file__).with_name("latest_results.txt")


def pytest_sessionstart(session) -> None:
    """Start each session with no results file, so it holds this run's blocks only."""
    RESULTS_FILE.unlink(missing_ok=True)


def report(title: str, rows: list[dict]) -> None:
    """Print a paper-vs-measured comparison block and append it to RESULTS_FILE."""
    block = f"\n=== {title} ===\n{format_comparison(rows)}\n"
    print(block, file=sys.stderr)
    with RESULTS_FILE.open("a", encoding="utf-8") as handle:
        handle.write(block)


def series_preview(label: str, series, samples: int = 8) -> None:
    """Print a short preview of a throughput series."""
    step = max(len(series.values) // samples, 1)
    points = ", ".join(
        f"{t:.2f}s:{v:.1f}" for t, v in list(zip(series.times, series.values))[::step]
    )
    print(f"  {label}: {points}", file=sys.stderr)
