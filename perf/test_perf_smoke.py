"""Smoke test of the cost ledger.

Run with ``python -m pytest perf -q``; tier-1 (``testpaths = ["tests"]``)
does not collect it.  Every workload is driven at ``--scale tiny`` (one
round, the issue's durations divided by ten): one untraced run and two
traced runs each, in this process, plus one run through the command line to
pin the contract's result line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

import pytest

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

from ledger import compare, measure, tracing, workloads  # noqa: E402
from ledger.recompose import RecompositionError  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DECLARED = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
WORKLOADS = list(workloads.WORKLOADS)


def tiny_run(name: str, trace: int, tmp: pathlib.Path) -> dict:
    args = argparse.Namespace(seed=1, seconds=0.0, scale="tiny", trace=trace)
    return measure.measure(workloads.WORKLOADS[name](0.2, tmp), args, DECLARED)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return {
        name: {
            "untraced": tiny_run(name, 0, tmp),
            "traced": [tiny_run(name, 1, tmp), tiny_run(name, 1, tmp)],
        }
        for name in WORKLOADS
    }


# ------------------------------------------------------------------ the workloads
def test_benchmark_declares_workloads_the_code_has():
    # Four of the six: the driver's time cap leaves no room to gate them all.
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert BENCHMARK["paths"] == ["perf"]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    for metric in DECLARED.values():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert metric["unit"] and metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_operation_passes_its_checks(runs, name):
    for run in [runs[name]["untraced"], *runs[name]["traced"]]:
        assert run["failures"] == []
        assert run["correct"] and run["attempted"] >= 1 and run["failed"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(runs, name):
    metrics = runs[name]["untraced"]["metrics"]
    for spec in BENCHMARK["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["n"] >= 1


def test_every_per_layer_metric_is_measured_on_some_workload(runs):
    measured = set()
    for name in WORKLOADS:
        measured |= set(runs[name]["traced"][0]["metrics"])
    assert measured <= set(DECLARED)
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= measured


def test_layers_that_do_not_run_are_absent_not_zero(runs):
    flowlevel = runs["flowlevel_scale"]["traced"][0]
    assert not [m for m in flowlevel["metrics"] if m.startswith(("netsim.", "tcp.", "core."))]
    assert not [s for s in flowlevel["spans"] if s["name"].startswith(("netsim.", "core."))]
    assert "measure.validation_s" not in runs["paper_mptcp"]["traced"][0]["metrics"]
    assert "measure.validation_s" in runs["campaign_cold"]["traced"][0]["metrics"]


def test_bypass_separates_the_packet_workloads(runs):
    share = lambda name: runs[name]["traced"][0]["metrics"]["kernel.bypass_share"]["value"]
    if runs["tcp_bypass"]["traced"][0]["metrics"]["kernel.python_slowdown"]["value"] > 2:
        assert share("tcp_bypass") == 1  # compiled kernel present
    assert share("paper_mptcp") == 0 and share("contended_mix") == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_and_simulated_statistics_repeat_exactly(runs, name):
    first, second = runs[name]["traced"]
    assert first["sim_digest"] == second["sim_digest"] == runs[name]["untraced"]["sim_digest"]
    counted = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    for metric in counted:
        if metric in first["metrics"]:
            assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
    assert first["counts"] == second["counts"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_cover_the_traced_round(runs, name):
    run = runs[name]["traced"][0]
    assert run["metrics"]["bench.span_coverage_share"]["value"] >= 0.9
    for span in run["spans"]:
        assert span["end"] >= span["start"] >= 0
        if span["parent"] is not None:
            parent = run["spans"][span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["round"] == span["round"]


def test_command_line_prints_the_contract_result_line(tmp_path):
    out = tmp_path / "doc.json"
    child = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "flowlevel_scale",
         "--scale", "tiny", "--seed", "7", "--trace", "1", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    line = json.loads(child.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert line["metrics"]["netsim.run_s"]["value"] == 0  # absent layer reads 0 on the line
    header = json.loads(out.read_text(encoding="utf-8"))["header"]
    assert header["seed"] == 7 and header["kernel"]["compiled_reason"]
    for key in ("commit", "python", "numpy", "scipy", "nproc", "loadavg_1m"):
        assert key in header


def test_recomposition_guard_fails_loudly(tmp_path):
    campaign = workloads.CampaignCold(0.2, tmp_path)
    record = {"key": "k", "status": "ok", "summary": {"drops": 3}}
    campaign.check_recomposed([record], {"k": record})
    with pytest.raises(RecompositionError, match="differs"):
        campaign.check_recomposed([record], {"k": {**record, "summary": {"drops": 4}}})


# ------------------------------------------------------------------ span arithmetic
def synthetic_spans():
    def span(name, start, end, parent, round_=0):
        return {"name": name, "start": start, "end": end, "parent": parent, "round": round_}

    return [
        span("round", 0.0, 10.0, None),
        span("netsim.run", 1.0, 7.0, 0),
        span("measure.sampling", 2.0, 3.0, 1),
        span("measure.sampling", 7.0, 8.5, 0),
        span("user", 10.0, 14.0, None),
        span("round", 20.0, 24.0, None, 1),
        span("netsim.run", 20.0, 23.0, 5, 1),
    ]


def test_self_time_is_duration_minus_direct_children():
    assert tracing.self_times(synthetic_spans()) == pytest.approx(
        [2.5, 5.0, 1.0, 1.5, 4.0, 1.0, 3.0]
    )


def test_round_seconds_sum_per_round_and_coverage_ignores_other_roots():
    spans = synthetic_spans()
    assert tracing.round_seconds(spans, "measure.sampling") == pytest.approx([2.5])
    assert tracing.median_seconds(spans, "netsim.run") == pytest.approx(4.5)
    assert tracing.median_seconds(spans, "flowsim.run") is None
    assert tracing.coverage_share(spans, "round") == pytest.approx(1 - 3.5 / 14.0)


def test_quiet_is_the_lower_quartile_and_ignores_disturbed_rounds():
    assert measure.quiet([1.0]) == 1.0
    assert measure.quiet([1.0, 1.02, 1.04, 1.5, 1.9, 2.4, 1.01]) == pytest.approx(1.01)


def test_tracer_nests_spans_and_counts_per_round():
    tracer = tracing.Tracer()
    tracer.begin_round()
    with tracer.span("round"):
        with tracer.span("netsim.run"):
            tracer.count("netsim.engine.events", 5)
        tracer.count("netsim.engine.events", 2)
    tracer.begin_round()
    tracer.count("netsim.engine.events", 7)
    assert [s["parent"] for s in tracer.spans] == [None, 0]
    assert tracer.counts == [{"netsim.engine.events": 7}, {"netsim.engine.events": 7}]


# ------------------------------------------------------------------ --compare
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def document(wall, *, samples=None, tier="compiled", sizes=None, failed=0):
    return {
        "header": {"kernel": {"kernel": tier}, "scale": "full", "trace": 0},
        "workloads": {
            "w": {
                "sizes": sizes or {"duration_s": 2.0},
                "sim_digest": "abc",
                "fail_share": failed / 10,
                "samples": {"wall_s": samples or [wall] * 5},
                "metrics": {"wall_s": {"value": wall}, "setup_s": {"value": 1.0}},
            }
        },
    }


def cell(a, b, metric="wall_s"):
    (row,) = compare.compare(a, b, END_TO_END)
    return row["cells"][metric]["verdict"]


def test_compare_applies_the_bound_in_the_metrics_direction():
    assert cell(document(1.0), document(1.09)) == compare.OK
    assert cell(document(1.0), document(1.11)) == compare.REGRESSED
    assert cell(document(1.0), document(0.5)) == compare.OK
    assert compare.worse_by(10.0, 8.0, "higher") == pytest.approx(0.2)


def test_compare_reports_noisy_pairings_as_unresolved():
    noisy = document(1.3, samples=[1.0, 1.3, 1.6])
    assert compare.iqr_share([1.0, 1.3, 1.6]) > 0.1
    assert cell(document(1.0), noisy) == compare.UNRESOLVED
    assert cell(document(1.0), noisy, "setup_s") == compare.OK  # read once: judged on its value
    # ... unless every round of B reads better than every round of A.
    better = document(0.5, samples=[0.4, 0.5, 0.6])
    assert cell(document(1.0, samples=[0.9, 1.0, 1.1]), better) == compare.OK


def test_compare_counts_any_new_failure_as_a_regression():
    (row,) = compare.compare(document(1.0), document(1.0, failed=1), END_TO_END)
    assert row["cells"]["fail_share"]["verdict"] == compare.REGRESSED
    assert compare.regressed([row]) == ["w x fail_share"]


def test_compare_refuses_different_kernel_tiers_and_sizes():
    with pytest.raises(compare.NotComparable, match="kernel tier"):
        compare.compare(document(1.0), document(1.0, tier="python"), END_TO_END)
    with pytest.raises(compare.NotComparable, match="sizes"):
        compare.compare(document(1.0), document(1.0, sizes={"duration_s": 4.0}), END_TO_END)
