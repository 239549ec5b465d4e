"""Plain-text reporting helpers (tables and paper-vs-measured comparisons).

Benchmarks and examples print their results through these helpers so every
figure/table reproduction emits the same row format, which
``benchmarks/conftest.py`` collects in ``benchmarks/latest_results.txt``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence


def sanitize_metrics(value: object) -> object:
    """Recursively replace non-finite floats with ``None`` (JSON ``null``).

    ``json.dumps`` happily emits bare ``NaN`` / ``Infinity`` tokens, which are
    not valid JSON and break downstream parsers.  Every machine-readable
    summary (CLI ``--json`` output, the campaign result store) is passed
    through this first, and then serialised with ``allow_nan=False`` so any
    non-finite float that slips past fails loudly instead of silently
    corrupting the output.
    """
    if isinstance(value, dict):
        return {key: sanitize_metrics(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_metrics(item) for item in value]
    if isinstance(value, float):  # includes numpy.float64
        return float(value) if math.isfinite(value) else None
    return value


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a list of rows as an aligned plain-text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if cell is None:
        return "-"
    return str(cell)


def comparison_row(
    experiment: str,
    metric: str,
    paper_value: object,
    measured_value: object,
    note: str = "",
) -> Dict[str, object]:
    """One paper-vs-measured record (a row of :func:`format_comparison`)."""
    return {
        "experiment": experiment,
        "metric": metric,
        "paper": paper_value,
        "measured": measured_value,
        "note": note,
    }


def format_comparison(rows: List[Dict[str, object]]) -> str:
    """Render paper-vs-measured rows as a table."""
    return format_table(
        ["experiment", "metric", "paper", "measured", "note"],
        [[r["experiment"], r["metric"], r["paper"], r["measured"], r.get("note", "")] for r in rows],
    )


def print_section(title: str, body: str = "", *, out=None) -> None:
    """Print a titled section (used by the example scripts)."""
    import sys

    stream = out if out is not None else sys.stdout
    line = "=" * max(len(title), 8)
    print(line, file=stream)
    print(title, file=stream)
    print(line, file=stream)
    if body:
        print(body, file=stream)
    print(file=stream)
