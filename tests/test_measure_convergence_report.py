"""Convergence metrics, flow statistics and report formatting."""

import io

import pytest

from repro.measure.convergence import (
    analyze_convergence,
    stability_coefficient,
    sustained_time_to_fraction,
)
from repro.measure.report import comparison_row, format_comparison, format_table, print_section
from repro.measure.sampling import TimeSeries


def ramp_series(values, interval=0.1):
    return TimeSeries(
        times=[interval * (i + 1) for i in range(len(values))],
        values=list(values),
        interval=interval,
    )


class TestTimeToFraction:
    def test_sustained_requires_hold(self):
        # A single spike above the threshold must not count as convergence.
        series = ramp_series([10, 90, 10, 10, 88, 89, 90, 90])
        sustained = sustained_time_to_fraction(series, 90)
        assert sustained == pytest.approx(0.7)

    def test_sustained_none_when_never_held(self):
        series = ramp_series([90, 10, 90, 10, 90, 10])
        assert sustained_time_to_fraction(series, 90) is None


class TestStability:
    def test_constant_tail_has_zero_cv(self):
        series = ramp_series([10, 50, 90, 90, 90, 90])
        assert stability_coefficient(series) == pytest.approx(0.0)

    def test_oscillating_tail_has_positive_cv(self):
        series = ramp_series([90, 90, 90, 60, 90, 60])
        assert stability_coefficient(series) > 0.1

    def test_empty_series(self):
        assert stability_coefficient(TimeSeries()) == 0.0


class TestAnalyzeConvergence:
    def test_converged_run(self):
        series = ramp_series([20, 60, 86, 88, 90, 89, 90, 90])
        report = analyze_convergence(series, optimum=90.0)
        assert report.reached_optimum
        assert report.time_to_optimum is not None
        assert report.utilization_of_optimum > 0.95
        assert report.achieved_peak == 90.0

    def test_non_converged_run(self):
        series = ramp_series([20, 40, 60, 62, 61, 60])
        report = analyze_convergence(series, optimum=90.0)
        assert not report.reached_optimum
        assert report.time_to_optimum is None
        assert report.utilization_of_optimum < 0.8


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["cubic", 90.0], ["lia", 82.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "cubic" in lines[2]
        assert "82.25" in lines[3] or "82.2" in lines[3]

    def test_format_table_handles_none(self):
        text = format_table(["a"], [[None]])
        assert "-" in text

    def test_print_section_frames_the_title(self):
        out = io.StringIO()
        print_section("LP optimum", "x1 + x2 <= 40", out=out)
        assert out.getvalue() == "==========\nLP optimum\n==========\nx1 + x2 <= 40\n\n"

    def test_print_section_rule_is_at_least_eight_wide(self, capsys):
        print_section("Fig")
        assert capsys.readouterr().out == "========\nFig\n========\n\n"

    def test_comparison_rows(self):
        rows = [
            comparison_row("FIG1-LP", "optimal total (Mbps)", 90, 90.0),
            comparison_row("RES-CC", "LIA reaches optimum", "no", "no", note="matches"),
        ]
        text = format_comparison(rows)
        assert "FIG1-LP" in text
        assert "matches" in text
