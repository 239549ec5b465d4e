"""Bound and unresolved verdicts between two runs of the ledger.

``A`` is the parent, ``B`` the change.  For every workload and end-to-end
metric, ``B`` may be worse than ``A`` by at most the bound ``BENCHMARK.json``
fixes.  Where either run's own round-to-round spread of that metric (for
``wall_s`` this is ``bench.round_iqr_share``) is wider than the bound the
pairing is *unresolved*, not unchanged -- unless every round of ``B`` reads
better than every round of ``A``.  A metric read once per run has no spread
of its own and is judged on its value.  This guards against regressions; it never certifies a
gain (that takes the paired runs of the choosing-metrics guide).
"""

from __future__ import annotations

import statistics
from typing import Dict, List

OK, REGRESSED, UNRESOLVED = "ok", "REGRESSED", "unresolved"


class NotComparable(ValueError):
    """The two runs measured different things."""


def check_comparable(a: dict, b: dict) -> None:
    """Refuse runs whose kernel tier, scale or workload sizes differ."""
    tier_a, tier_b = a["header"]["kernel"]["kernel"], b["header"]["kernel"]["kernel"]
    if tier_a != tier_b:
        raise NotComparable(f"kernel tier differs: {tier_a} vs {tier_b}")
    for key in ("scale", "trace"):
        if a["header"][key] != b["header"][key]:
            raise NotComparable(f"{key} differs: {a['header'][key]} vs {b['header'][key]}")
    shared = set(a["workloads"]) & set(b["workloads"])
    if not shared:
        raise NotComparable("the runs share no workload")
    for name in sorted(shared):
        if a["workloads"][name]["sizes"] != b["workloads"][name]["sizes"]:
            raise NotComparable(f"workload sizes differ for {name}")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def iqr_share(samples: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: float, b: float, spec: dict, samples_a: List[float], samples_b: List[float]) -> str:
    """One workload x metric pairing judged against the metric's bound."""
    if max(iqr_share(samples_a), iqr_share(samples_b)) > spec["bound"]:
        lower = spec["better"] == "lower"
        if (max(samples_b) < min(samples_a)) if lower else (min(samples_b) > max(samples_a)):
            return OK
        return UNRESOLVED
    return REGRESSED if worse_by(a, b, spec["better"]) > spec["bound"] else OK


def quartiles(samples: List[float]) -> str:
    if len(samples) < 2:
        return "-"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"{q1:.4g}..{q3:.4g}"


def compare(a: dict, b: dict, end_to_end: List[dict]) -> List[dict]:
    """One row per shared workload; every end-to-end metric judged in it."""
    check_comparable(a, b)
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        run_a, run_b = a["workloads"][name], b["workloads"][name]
        cells: Dict[str, dict] = {}
        for spec in end_to_end:
            metric = spec["name"]
            value_a = run_a["metrics"][metric]["value"]
            value_b = run_b["metrics"][metric]["value"]
            samples_a = run_a["samples"].get(metric, [])
            samples_b = run_b["samples"].get(metric, [])
            cells[metric] = {
                "a": value_a,
                "b": value_b,
                "worse_by": worse_by(value_a, value_b, spec["better"]),
                "bound": spec["bound"],
                "quartiles_a": quartiles(samples_a),
                "quartiles_b": quartiles(samples_b),
                "verdict": verdict(value_a, value_b, spec, samples_a, samples_b),
            }
        cells["fail_share"] = {
            "a": run_a["fail_share"],
            "b": run_b["fail_share"],
            # Any increase in failed operations is a regression.
            "verdict": REGRESSED if run_b["fail_share"] > run_a["fail_share"] else OK,
        }
        rows.append(
            {
                "workload": name,
                "same_simulation": run_a["sim_digest"] == run_b["sim_digest"],
                "cells": cells,
            }
        )
    return rows


def render(rows: List[dict], *, quartile_columns: bool = False) -> str:
    """One printed row per workload."""
    lines = []
    for row in rows:
        parts = [f"{row['workload']:<16}"]
        for metric, cell in row["cells"].items():
            if metric == "fail_share":
                parts.append(f"fail {cell['a']:.3g}->{cell['b']:.3g} {cell['verdict']}")
                continue
            text = (
                f"{metric} {cell['a']:.4g}->{cell['b']:.4g} "
                f"({cell['worse_by']:+.1%}) {cell['verdict']}"
            )
            if quartile_columns:
                text += f" [q1..q3 {cell['quartiles_a']} | {cell['quartiles_b']}]"
            parts.append(text)
        parts.append("sim " + ("same" if row["same_simulation"] else "DIFFERS"))
        lines.append("  ".join(parts))
    return "\n".join(lines)


def regressed(rows: List[dict]) -> List[str]:
    return [
        f"{row['workload']} x {metric}"
        for row in rows
        for metric, cell in row["cells"].items()
        if cell["verdict"] == REGRESSED
    ]
