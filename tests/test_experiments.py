"""Experiment harness, figure regeneration and the CLI (short runs)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main as cli_main
from repro.core.coupled import MULTIPATH_ALGORITHMS
from repro.errors import ConfigurationError
from repro.experiments import harness
from repro.experiments.ascii_plot import ascii_chart, plot_figure
from repro.experiments.figures import fig2a_cubic, fig2b_olia, fig2c_fine, figure_with_algorithm
from repro.experiments.harness import (
    ExperimentConfig,
    WorkerPool,
    paper_experiment,
    run_experiment,
)
from repro.experiments.scenarios import (
    olia_default_path_sweep,
    queue_size_sweep,
    scheduler_comparison,
    summarize_results,
)
from repro.measure.sampling import TimeSeries
from repro.topologies.paper import PAPER_DEFAULT_PATH_INDEX, PAPER_OPTIMAL_RATES

from .conftest import make_two_path_scenario


class TestExperimentConfig:
    def test_defaults_match_paper_setup(self):
        config = ExperimentConfig()
        assert config.default_path_index == PAPER_DEFAULT_PATH_INDEX
        assert config.sampling_interval == 0.1
        assert config.duration == 4.0

    def test_with_overrides_returns_copy(self):
        config = ExperimentConfig()
        changed = config.with_overrides(duration=1.0, congestion_control="olia")
        assert changed.duration == 1.0
        assert config.duration == 4.0
        assert changed.congestion_control == "olia"

    def test_build_scenario_default_is_paper(self):
        topology, paths = ExperimentConfig().build_scenario()
        assert topology.name.startswith("paper")
        assert len(paths) == 3

    def test_build_scenario_accepts_callable_and_tuple(self):
        scenario = make_two_path_scenario()
        by_tuple = ExperimentConfig(scenario=scenario).build_scenario()
        by_callable = ExperimentConfig(scenario=make_two_path_scenario).build_scenario()
        assert len(by_tuple[1]) == len(by_callable[1]) == 2

    def test_paper_experiment_helper(self):
        config = paper_experiment("olia", duration=2.0)
        assert config.congestion_control == "olia"
        assert config.name == "paper-olia"


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def short_result(self):
        return run_experiment(paper_experiment("cubic", duration=0.6))

    def test_optimum_is_90(self, short_result):
        assert short_result.optimum.total == pytest.approx(90.0)

    def test_per_path_series_keyed_by_tag(self, short_result):
        assert set(short_result.per_path_series) == {1, 2, 3}
        for series in short_result.per_path_series.values():
            assert len(series) == 6

    def test_total_series_is_sum_of_paths(self, short_result):
        for index in range(len(short_result.total_series)):
            summed = sum(s.values[index] for s in short_result.per_path_series.values())
            assert short_result.total_series.values[index] == pytest.approx(summed, rel=1e-6)

    def test_summary_fields(self, short_result):
        summary = short_result.summary()
        assert summary["congestion_control"] == "cubic"
        assert summary["optimum_mbps"] == 90.0
        assert summary["achieved_mean_mbps"] > 0
        assert "reached_optimum" in summary

    def test_stats_cover_all_subflows(self, short_result):
        assert len(short_result.stats.subflows) == 3

    def test_non_paper_scenario(self):
        config = ExperimentConfig(
            name="two-path", scenario=make_two_path_scenario, duration=0.5
        )
        result = run_experiment(config)
        assert result.optimum.total == pytest.approx(90.0)  # 30 + 60
        assert set(result.per_path_series) == {1, 2}


class TestFigures:
    def test_fig2c_uses_fine_sampling(self):
        data = fig2c_fine(duration=0.3)
        assert data.figure_id == "fig2c"
        for series in data.per_path_series.values():
            assert series.interval == pytest.approx(0.01)
        assert data.result.optimum.total == pytest.approx(90.0)

    @pytest.mark.parametrize("variant", ["as_stated", "as_solution"])
    @pytest.mark.parametrize(
        "make, figure_id, algorithm",
        [(fig2a_cubic, "fig2a", "cubic"), (fig2b_olia, "fig2b", "olia")],
        ids=["fig2a", "fig2b"],
    )
    def test_fig2a_and_fig2b_run_the_paper_experiment(self, make, figure_id, algorithm, variant):
        data = make(duration=0.5, variant=variant)
        summary = data.summary()
        assert data.figure_id == summary["figure"] == figure_id
        assert summary["congestion_control"] == algorithm
        assert summary["default_path_index"] == PAPER_DEFAULT_PATH_INDEX
        # Both labelings have the 90 Mbps optimum, reached by different splits.
        assert data.result.optimal_total_mbps == pytest.approx(90.0)
        assert tuple(data.result.optimum.rates) == pytest.approx(PAPER_OPTIMAL_RATES[variant])
        assert set(data.per_path_series) == {1, 2, 3}
        for series in data.per_path_series.values():
            assert series.interval == pytest.approx(0.1)
            assert len(series) == 5

    def test_figure_with_algorithm_summary(self):
        data = figure_with_algorithm("lia", duration=0.4)
        summary = data.summary()
        assert summary["figure"] == "fig2-lia"
        assert summary["congestion_control"] == "lia"


class TestScenarios:
    def test_scheduler_comparison_keys(self):
        results = scheduler_comparison(("minrtt", "redundant"), duration=0.4)
        assert set(results) == {"minrtt", "redundant"}

    def test_olia_default_path_sweep_moves_the_default_path(self):
        results = olia_default_path_sweep(duration=0.3)
        assert set(results) == {0, 1, 2}
        for index, result in results.items():
            assert result.config.default_path_index == index
            assert result.config.name == f"paper-olia-default{index + 1}"
            assert result.config.congestion_control == "olia"
            assert result.optimum.total == pytest.approx(90.0)

    def test_queue_size_sweep_sizes_every_queue(self):
        results = queue_size_sweep((10, 200), duration=0.3)
        assert set(results) == {10, 200}
        assert results[10].config.name == "paper-cubic-q10"
        topology, _ = results[10].config.scenario()
        assert {spec.queue_packets for spec in topology.links} == {10}
        # A 10-packet buffer overflows where a 200-packet one does not.
        assert results[10].summary()["drops"] > results[200].summary()["drops"]

    def test_summarize_results(self):
        results = scheduler_comparison(("minrtt",), duration=0.3)
        rows = summarize_results(results)
        assert rows[0]["key"] == "minrtt"
        assert "achieved_mean_mbps" in rows[0]


class TestAsciiPlot:
    def test_chart_contains_markers_and_legend(self):
        series = [
            TimeSeries(times=[0.1, 0.2, 0.3], values=[10, 20, 30], label="Path 1", interval=0.1),
            TimeSeries(times=[0.1, 0.2, 0.3], values=[30, 20, 10], label="Path 2", interval=0.1),
        ]
        chart = ascii_chart(series, width=40, height=10, title="demo")
        assert "demo" in chart
        assert "1=Path 1" in chart
        assert "2=Path 2" in chart

    def test_empty_chart(self):
        assert ascii_chart([]) == "(no data)"

    def test_plot_figure_includes_total(self):
        per_path = {1: TimeSeries(times=[0.1], values=[10], interval=0.1)}
        total = TimeSeries(times=[0.1], values=[10], interval=0.1)
        chart = plot_figure(per_path, total)
        assert "Total" in chart


class TestCli:
    def test_lp_command_table(self, capsys):
        assert cli_main(["lp"]) == 0
        out = capsys.readouterr().out
        assert "x1 + x2 <= 40" in out
        assert "LP optimum" in out
        assert "90.0" in out

    def test_lp_command_json(self, capsys):
        assert cli_main(["lp", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimum"]["total"] == pytest.approx(90.0)
        assert data["greedy_from_default"]["total"] < 90.0

    def test_lp_command_without_scipy(self, capsys, monkeypatch):
        """The vertex LP, greedy, max-min and proportional-fair rows: only the
        LP needs scipy, and it falls back to vertex enumeration."""
        monkeypatch.setattr("repro.model.lp._HAVE_SCIPY", False)
        assert cli_main(["lp"]) == 0
        out = capsys.readouterr().out
        assert "LP optimum" in out and "Max-min fair" in out and "Proportional fair " in out
        assert "skipped" not in out
        assert cli_main(["lp", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["optimum"]["solver"] == "vertex"
        assert data["optimum"]["total"] == pytest.approx(90.0)
        assert data["max_min"]["total"] == pytest.approx(80.0)
        assert data["proportional_fair"]["solver"] == "interior-point"
        assert data["proportional_fair"]["total"] == pytest.approx(84.30501, rel=1e-6)
        assert data["proportional_fair"]["gap"] <= 1e-9 * 3

    def test_figure_command(self, capsys):
        assert cli_main(["figure", "2c"]) == 0
        out = capsys.readouterr().out
        assert "time [s]" in out
        assert '"figure": "fig2c"' in out

    @pytest.mark.parametrize(
        "argv, figure_id",
        [(["2a"], "fig2a"), (["2b"], "fig2b"), (["custom", "--cc", "balia"], "fig2-balia")],
        ids=["2a", "2b", "custom"],
    )
    def test_figure_panels(self, argv, figure_id, capsys):
        assert cli_main(["figure", *argv, "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "time [s]" in out
        summary = json.loads(out[out.index("{"):])
        assert summary["figure"] == figure_id
        assert summary["duration_s"] == 0.5

    def test_sweep_json_has_one_row_per_default_path(self, capsys):
        assert cli_main(["sweep", "--cc", "lia", "--duration", "0.3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["key"] for row in rows] == ["0", "1", "2"]
        assert [row["default_path_index"] for row in rows] == [0, 1, 2]
        assert {row["congestion_control"] for row in rows} == {"lia"}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["fairness", "two_mptcp_competition", "--bottleneck-mbps", "0"],
                "error: link capacity must be positive",
            ),
            (["campaign", "paper_cc_rate", "--chunk-size", "0"], "error: chunk_size must be at least 1"),
            (["compare", "--algorithms", "lia", "--duration", "nan"], "error: duration must be positive"),
        ],
        ids=["zero_capacity", "zero_chunk_size", "nan_duration"],
    )
    def test_a_library_error_is_one_line_and_exit_code_2(self, argv, message, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith(message)

    @pytest.mark.parametrize("duration", ["nan", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "2a"],
            ["compare", "--algorithms", "lia"],
            ["sweep"],
            ["fairness", "two_mptcp_competition"],
            ["fairness", "two_mptcp_competition", "--backend", "flowlevel"],
            ["workload", "web_page_load"],
            ["workload", "web_page_load", "--backend", "flowlevel"],
            ["campaign", "paper_cc_rate", "--no-plot"],
            ["dynamics", "link_flap_failover", "--no-plot"],
            ["dynamics", "capacity_step_tracking", "--no-plot"],
            ["dynamics", "handover_subflow_migration", "--no-plot"],
        ],
        ids=[
            "figure",
            "compare",
            "sweep",
            "fairness",
            "fairness_flowlevel",
            "workload",
            "workload_flowlevel",
            "campaign",
            "dynamics_link_flap",
            "dynamics_capacity_step",
            "dynamics_handover",
        ],
    )
    def test_a_run_length_that_is_not_positive_exits_2(
        self, argv, duration, capsys, tmp_path, monkeypatch
    ):
        """Refused before any result is printed or stored: one error line."""
        monkeypatch.chdir(tmp_path)
        assert cli_main([*argv, "--duration", duration]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", list(MULTIPATH_ALGORITHMS))
    def test_compare_runs_every_registered_controller(self, name, capsys):
        assert cli_main(["compare", "--algorithms", name, "--duration", "0.5", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["congestion_control"] == name
        assert row["optimum_mbps"] == pytest.approx(90.0)
        assert row["achieved_mean_mbps"] > 0.0


def _sleep_runner(seconds):
    time.sleep(seconds)
    return seconds


def _pid_runner(_config):
    return os.getpid()


def _crash_runner(code):
    os._exit(code)


def _raise_runner(config):
    raise ValueError(f"bad config {config}")


def _recording_runner(config):
    """Leave one line per execution; raise the OSError a bad builder would."""
    log, name = config
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, f"{name}\n".encode())
    finally:
        os.close(fd)
    if name == "missing":
        raise FileNotFoundError(f"no topology file for {name}")
    return name, os.getpid()


def _no_process(*args, **kwargs):
    raise AssertionError("no worker process may be started")


class TestWorkerPool:
    """The one process runner: in-process choices, ordering, watchdog, crashes."""

    @staticmethod
    def _configs(n=2, duration=0.3):
        return [
            paper_experiment("cubic", duration=duration).with_overrides(name=f"p{i}")
            for i in range(n)
        ]

    # -- when nothing leaves this process
    def test_unpicklable_scenario_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(harness, "_start_worker", _no_process)
        configs = [
            ExperimentConfig(
                name=f"lambda-{i}", scenario=lambda: make_two_path_scenario(), duration=0.3
            )
            for i in range(2)
        ]
        results = harness.run_scenarios_parallel(configs)
        assert [r.config.name for r in results] == ["lambda-0", "lambda-1"]
        assert all(r.optimum.total == pytest.approx(90.0) for r in results)

    def test_unpicklable_configs_go_to_the_serial_runner_even_when_isolated(
        self, monkeypatch
    ):
        monkeypatch.setattr(harness, "_start_worker", _no_process)
        pool = WorkerPool(
            runner=_sleep_runner,
            serial_runner=lambda config: config(),
            on_crash=lambda config, reason: reason,
        )
        assert pool.map([lambda: 1, lambda: 2]) == [1, 2]  # lambdas cannot cross processes

    def test_max_workers_one_without_isolation_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(harness, "_start_worker", _no_process)
        results = harness.run_scenarios_parallel(self._configs(), max_workers=1)
        assert [r.config.name for r in results] == ["p0", "p1"]

    def test_single_config_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(harness, "_start_worker", _no_process)
        assert harness.run_scenarios_parallel([0.0], runner=_sleep_runner) == [0.0]

    def test_custom_runner_is_applied(self):
        names = harness.run_scenarios_parallel(
            self._configs(), max_workers=1, runner=lambda config: config.name
        )
        assert names == ["p0", "p1"]

    @pytest.mark.parametrize("isolated", [False, True])
    def test_no_subprocess_support_falls_back_to_in_process(self, monkeypatch, isolated):
        """A sandbox that refuses to start processes: each config still runs
        exactly once, and the pool stops trying."""
        attempts = []

        def refuse(runner):
            attempts.append(runner)
            raise PermissionError("no subprocess support")

        monkeypatch.setattr(harness, "_start_worker", refuse)
        ran = []
        pool = WorkerPool(
            runner=_sleep_runner,
            serial_runner=lambda config: ran.append(config) or config,
            max_workers=2,
            on_crash=(lambda config, reason: reason) if isolated else None,
        )
        with pool:
            assert pool.map([0.0, 0.1, 0.2]) == [0.0, 0.1, 0.2]
            assert pool.map([0.3, 0.4]) == [0.3, 0.4]
        assert ran == [0.0, 0.1, 0.2, 0.3, 0.4]
        assert len(attempts) == 1

    def test_serial_run_still_reports_over_budget_points(self):
        pool = WorkerPool(
            runner=_sleep_runner,
            serial_runner=lambda config: config(),
            timeout=0.05,
            on_timeout=lambda config: "timed-out",
        )
        assert pool.map([lambda: time.sleep(0.2) or "slow"]) == ["timed-out"]

    # -- worker processes
    def test_results_come_back_in_config_order(self):
        results = harness.run_scenarios_parallel(
            [0.2, 0.0, 0.1], runner=_sleep_runner, max_workers=3
        )
        assert results == [0.2, 0.0, 0.1]

    def test_workers_persist_across_map_calls(self):
        with WorkerPool(runner=_pid_runner, max_workers=2) as pool:
            first = set(pool.map(range(4)))
            second = set(pool.map(range(4)))
        assert os.getpid() not in first
        assert 1 <= len(first) <= 2
        assert second <= first  # no worker was started for the second batch

    def test_worker_that_died_while_idle_is_replaced(self):
        with WorkerPool(runner=_pid_runner, max_workers=2) as pool:
            first = pool.map(range(2))
            for pid in set(first):
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            second = pool.map(range(2))
        assert len(second) == 2 and not set(second) & set(first)

    def test_runner_oserror_is_not_mistaken_for_missing_subprocess_support(
        self, tmp_path
    ):
        """Regression: an OSError raised *inside* the runner (a scenario
        builder's FileNotFoundError) used to be caught as "cannot start
        processes": the whole batch silently ran a second time in the
        parent and the pool went serial for good."""
        log = str(tmp_path / "executions.log")
        names = ["a", "missing", "b", "c"]
        with WorkerPool(runner=_recording_runner, max_workers=2) as pool:
            with pytest.raises(RuntimeError, match="FileNotFoundError: no topology file"):
                pool.map([(log, name) for name in names])
            with open(log, encoding="utf-8") as handle:
                assert sorted(handle.read().split()) == sorted(names)  # each exactly once
            # Parallelism survived: the next batch still runs in worker processes.
            later = pool.map([(log, "d"), (log, "e")])
        assert [name for name, _ in later] == ["d", "e"]
        assert all(pid != os.getpid() for _, pid in later)

    def test_runner_oserror_routes_to_on_crash(self, tmp_path):
        log = str(tmp_path / "executions.log")
        names = ["a", "missing", "b"]
        with WorkerPool(
            runner=_recording_runner,
            max_workers=2,
            on_crash=lambda config, reason: ("crash", reason),
        ) as pool:
            results = pool.map([(log, name) for name in names])
        assert results[0][0] == "a" and results[2][0] == "b"
        assert results[1][0] == "crash" and "FileNotFoundError" in results[1][1]
        with open(log, encoding="utf-8") as handle:
            assert sorted(handle.read().split()) == sorted(names)

    def test_hung_task_is_killed_and_costs_one_worker_not_the_pool(self):
        started = time.monotonic()
        with WorkerPool(
            runner=_sleep_runner,
            max_workers=2,
            timeout=0.5,
            on_timeout=lambda config: ("timeout", config),
        ) as pool:
            assert pool.map([0.0, 30.0]) == [0.0, ("timeout", 30.0)]
            assert time.monotonic() - started < 10.0  # nowhere near the 30s hang
            assert pool.map([0.0, 0.1, 0.0]) == [0.0, 0.1, 0.0]

    def test_crashed_worker_is_reported_via_on_crash_and_replaced(self):
        with WorkerPool(
            runner=_crash_runner,
            max_workers=1,
            on_crash=lambda config, reason: ("crash", config, reason),
        ) as pool:
            for code in (23, 24):  # the second task needs a respawned worker
                (result,) = pool.map([code])
                assert result[:2] == ("crash", code)
                assert f"exit code {code}" in result[2]

    def test_raised_exception_routes_to_on_crash(self):
        pool = WorkerPool(runner=_raise_runner, on_crash=lambda config, reason: reason)
        with pool:
            assert "ValueError: bad config x" in pool.map(["x"])[0]

    def test_raised_exception_without_handler_raises(self):
        with pytest.raises(RuntimeError, match="bad config"):
            harness.run_scenarios_parallel(["x", "y"], runner=_raise_runner)

    # -- arguments
    def test_timeout_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(runner=_sleep_runner, timeout=0.0, on_timeout=lambda c: None)
        with pytest.raises(ConfigurationError):
            WorkerPool(runner=_sleep_runner, timeout=1.0)

    def test_empty_configs(self):
        assert harness.run_scenarios_parallel([], runner=_sleep_runner) == []
        assert WorkerPool(on_crash=lambda config, reason: reason).map([]) == []


class TestCliJsonNanSafety:
    """Every handler's --json output must be valid JSON with NaN -> null.

    A handler imports what it runs when it runs, so each stub is patched
    into the module the handler imports it from.
    """

    @staticmethod
    def _parse(out):
        start = min(i for i in (out.find("{"), out.find("[")) if i >= 0)
        return json.loads(
            out[start:],
            parse_constant=lambda token: pytest.fail(f"non-finite JSON token {token!r}"),
        )

    def test_lp_json_sanitizes_nan(self, capsys, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(
            "repro.model.greedy.greedy_fill",
            lambda system, order=None: SimpleNamespace(
                rates=[float("nan")], total=float("nan")
            ),
        )
        assert cli_main(["lp", "--json"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data["greedy_from_default"]["total"] is None
        assert data["greedy_from_default"]["rates"] == [None]

    def test_compare_json_sanitizes_nan(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.scenarios.cc_comparison", lambda algorithms, duration: {}
        )
        monkeypatch.setattr(
            "repro.experiments.scenarios.summarize_results",
            lambda results: [{"key": "cubic", "settle_s": float("nan")}],
        )
        assert cli_main(["compare", "--json"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data[0]["settle_s"] is None

    def test_sweep_json_sanitizes_inf(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.experiments.scenarios.olia_default_path_sweep", lambda duration, algorithm: {}
        )
        monkeypatch.setattr(
            "repro.experiments.scenarios.summarize_results",
            lambda results: [{"key": "0", "time_to_optimum_s": float("inf")}],
        )
        assert cli_main(["sweep", "--json"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data[0]["time_to_optimum_s"] is None

    def test_fairness_json_sanitizes_nan(self, capsys, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(
            "repro.experiments.multiflow.run_multiflow",
            lambda config: SimpleNamespace(summary=lambda: {"jain_index": float("nan")}),
        )
        assert cli_main(["fairness", "mptcp_vs_tcp_shared_bottleneck", "--json"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data["jain_index"] is None

    def test_dynamics_json_sanitizes_nan(self, capsys, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(
            "repro.experiments.harness.run_experiment",
            lambda config: SimpleNamespace(
                summary=lambda: {"settle_time_s": float("nan")}, dynamics=None
            ),
        )
        assert cli_main(["dynamics", "link_flap_failover", "--json"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data["settle_time_s"] is None

    def test_figure_json_sanitizes_nan(self, capsys, monkeypatch):
        from types import SimpleNamespace

        monkeypatch.setattr(
            "repro.experiments.figures.fig2c_fine",
            lambda variant: SimpleNamespace(
                per_path_series={},
                total_series=TimeSeries(),
                description="stub",
                summary=lambda: {"achieved_mean_mbps": float("nan")},
            ),
        )
        assert cli_main(["figure", "2c"]) == 0
        data = self._parse(capsys.readouterr().out)
        assert data["achieved_mean_mbps"] is None
