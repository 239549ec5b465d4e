"""Tests for the backend-agnostic workload subsystem.

Covers the seeded spec/plan layer (validation, dependency structure,
scaling, determinism), the FCT metrics, the runner on both fidelities --
including the headline guarantee that one compiled plan drives an
*identical* flow population on the packet and flow-level backends -- the
cross-backend FCT comparison, the workload campaign kind and the CLI
``workload`` command.
"""

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError, ModelError
from repro.experiments.campaign import CampaignSpec, workload_fct_campaign
from repro.experiments.multiflow import FlowSpec
from repro.measure.fct import (
    FctRecord,
    FctReport,
    fct_percentiles,
    page_load_times,
    percentile,
    size_decile_breakdown,
)
from repro.measure.validation import compare_workload_backends
from repro.topologies.generators import shared_bottleneck
from repro.workload import (
    ArrivalProcess,
    RequestResponseSpec,
    SizeDistribution,
    WorkloadConfig,
    WorkloadSpec,
    run_workload,
)
from repro.workload.scenarios import WORKLOAD_SCENARIOS, conferencing_load, web_page_load


def tiny_spec(**overrides) -> WorkloadSpec:
    """A small but structurally rich workload: pages, subresources, reuse."""
    defaults = dict(
        name="tiny",
        seed=7,
        sessions=4,
        arrival=ArrivalProcess(kind="poisson", rate_per_s=4.0),
        request=RequestResponseSpec(
            requests_per_session=3,
            response_size=SizeDistribution(kind="lognormal", mean_bytes=40_000, sigma=0.6),
            think_time_s=0.1,
            subresources=2,
            subresource_size=SizeDistribution(kind="lognormal", mean_bytes=10_000, sigma=0.5),
            idle_timeout_s=0.15,
        ),
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def tiny_config(**overrides) -> WorkloadConfig:
    defaults = dict(
        name="tiny",
        scenario=shared_bottleneck(2, 50.0, 100.0),
        spec=tiny_spec(),
        duration=4.0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestSpecValidation:
    def test_unknown_size_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            SizeDistribution(kind="uniform")

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(ConfigurationError):
            SizeDistribution(kind="pareto", alpha=1.0)

    def test_unknown_arrival_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalProcess(kind="weibull")

    def test_subresources_need_a_distribution(self):
        with pytest.raises(ConfigurationError):
            RequestResponseSpec(subresources=2)

    def test_session_count_positive(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(sessions=0)

    def test_path_weight_arity_checked_at_compile(self):
        spec = WorkloadSpec(sessions=1, path_weights=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            spec.compile(3)

    def test_scale_factors_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec().scaled(load=0.0)

    def test_unknown_backend_and_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(backend="quantum")
        with pytest.raises(ConfigurationError):
            WorkloadConfig(transport="sctp")


class TestPlanStructure:
    def test_pages_chain_and_subresources_fan_out(self):
        plan = tiny_spec().compile(2)
        session = plan.sessions[0]
        # 3 pages x (1 main + 2 subresources)
        assert len(session.transfers) == 9
        mains = [t for t in session.transfers if t.index % 3 == 0]
        assert [t.after for t in mains] == [-1, 0, 3]
        main_indices = {t.index for t in mains}
        for main in mains:
            # Subresources depend on their page's main transfer; the *next*
            # page's main also chains off it, so exclude mains here.
            subs = [
                t
                for t in session.transfers
                if t.after == main.index and t.index not in main_indices
            ]
            assert len(subs) == 2
            assert all(t.page == main.page and t.delay == 0.0 for t in subs)

    def test_total_bytes_sum_every_transfer(self):
        plan = tiny_spec(sessions=5).compile(2)
        for session in plan.sessions:
            assert session.total_bytes == sum(t.size_bytes for t in session.transfers) > 0
        assert plan.total_bytes == sum(s.total_bytes for s in plan.sessions)
        assert plan.total_transfers == sum(len(s.transfers) for s in plan.sessions)

    def test_arrivals_increase_monotonically(self):
        plan = tiny_spec(sessions=20).compile(2)
        starts = [s.start for s in plan.sessions]
        assert starts == sorted(starts)
        assert all(s > 0 for s in starts)

    def test_no_reuse_forces_fresh_connections(self):
        spec = tiny_spec()
        spec = spec.with_overrides(
            request=RequestResponseSpec(
                requests_per_session=3,
                response_size=SizeDistribution(kind="fixed", mean_bytes=10_000),
                think_time_s=0.1,
                reuse_connection=False,
            )
        )
        plan = spec.compile(1)
        for session in plan.sessions:
            fresh = [t.new_connection for t in session.transfers]
            assert fresh == [False, True, True]

    def test_scaled_load_and_size(self):
        spec = tiny_spec()
        scaled = spec.scaled(load=2.0, size=3.0)
        assert scaled.arrival.rate_per_s == spec.arrival.rate_per_s * 2.0
        assert scaled.request.response_size.mean_bytes == (
            spec.request.response_size.mean_bytes * 3.0
        )
        assert scaled.request.subresource_size.mean_bytes == (
            spec.request.subresource_size.mean_bytes * 3.0
        )
        # Neutral scaling is the identity (same object, same signature).
        assert spec.scaled() is spec

    def test_path_weights_steer_sessions(self):
        spec = tiny_spec(sessions=50, path_weights=(0.0, 1.0))
        plan = spec.compile(2)
        assert all(s.path_index == 1 for s in plan.sessions)


class TestDeterminism:
    """Same seed => identical population, across runs and across backends."""

    def test_recompile_is_bit_identical(self):
        spec = tiny_spec(sessions=30)
        first, second = spec.compile(2), spec.compile(2)
        assert first == second
        assert first.signature() == second.signature()

    def test_seed_changes_the_population(self):
        spec = tiny_spec(sessions=30)
        assert spec.compile(2).signature() != spec.with_overrides(seed=8).compile(2).signature()

    def test_signature_covers_structure(self):
        plan = tiny_spec().compile(2)
        # Same sessions, one size perturbed => different signature.
        import dataclasses

        session = plan.sessions[0]
        bumped = dataclasses.replace(
            session,
            transfers=(
                dataclasses.replace(
                    session.transfers[0],
                    size_bytes=session.transfers[0].size_bytes + 1,
                ),
            )
            + session.transfers[1:],
        )
        other = dataclasses.replace(plan, sessions=(bumped,) + plan.sessions[1:])
        assert other.signature() != plan.signature()

    def test_both_backends_execute_the_same_population(self):
        flow = run_workload(tiny_config(backend="flowlevel"))
        packet = run_workload(tiny_config(backend="packet"))
        assert flow.plan.signature() == packet.plan.signature()
        # Completed transfers carry identical names and sizes per name.
        flow_sizes = {r.name: r.size_bytes for r in flow.records}
        packet_sizes = {r.name: r.size_bytes for r in packet.records}
        common = set(flow_sizes) & set(packet_sizes)
        assert common  # both fidelities completed work
        for name in common:
            assert flow_sizes[name] == packet_sizes[name]

    def test_rerun_is_deterministic_per_backend(self):
        for backend in ("flowlevel", "packet"):
            first = run_workload(tiny_config(backend=backend))
            second = run_workload(tiny_config(backend=backend))
            assert [(r.name, r.size_bytes, r.start, r.finish) for r in first.records] == [
                (r.name, r.size_bytes, r.start, r.finish) for r in second.records
            ]


class TestFctMetrics:
    def make_records(self):
        return [
            FctRecord(f"f{i}", size_bytes=(i + 1) * 1000, start=0.0, finish=float(i + 1))
            for i in range(10)
        ]

    def test_percentile_conventions(self):
        assert percentile([], 0.5) is None
        assert percentile([1.0], 0.99) == 1.0
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.50) == 6.0
        assert percentile(values, 0.90) == 10.0

    def test_fct_percentiles_keys(self):
        report = fct_percentiles(self.make_records())
        assert set(report) == {"p50", "p90", "p99"}
        assert report["p50"] == 6.0

    def test_empty_report_is_nan_free(self):
        report = FctReport.from_records([])
        payload = report.as_dict()
        assert payload["completed"] == 0
        assert payload["mean_fct_s"] is None
        assert all(v is None for v in payload["fct_percentiles_s"].values())
        json.dumps(payload, allow_nan=False)  # must not raise
        assert report.completion_ratio == 0.0

    def test_size_deciles_partition_records(self):
        rows = size_decile_breakdown(self.make_records())
        assert sum(row["flows"] for row in rows) == 10
        bounds = [(row["min_bytes"], row["max_bytes"]) for row in rows]
        assert bounds == sorted(bounds)

    def test_page_load_spans_the_group(self):
        records = [
            FctRecord("a", 1, start=1.0, finish=2.0, session="s", page=0),
            FctRecord("b", 1, start=1.5, finish=3.5, session="s", page=0),
            FctRecord("c", 1, start=4.0, finish=4.5, session="s", page=1),
        ]
        times = page_load_times(records)
        assert times[("s", 0)] == pytest.approx(2.5)
        assert times[("s", 1)] == pytest.approx(0.5)

    def test_offered_tracks_incomplete_transfers(self):
        report = FctReport.from_records(self.make_records(), offered=20)
        assert report.completed == 10
        assert report.completion_ratio == 0.5


class TestRunnerAndComparison:
    def test_flowlevel_run_reports_fct(self):
        result = run_workload(tiny_config(backend="flowlevel"))
        assert result.backend == "flowlevel"
        assert result.fct.completed > 0
        assert result.fct.offered == result.plan.total_transfers
        summary = result.summary()
        assert summary["transport"] is None
        json.dumps(summary, allow_nan=False)

    def test_packet_mptcp_run_reports_fct(self):
        config = tiny_config(
            backend="packet",
            transport="mptcp",
            spec=tiny_spec(
                sessions=2,
                request=RequestResponseSpec(
                    requests_per_session=2,
                    response_size=SizeDistribution(kind="fixed", mean_bytes=30_000),
                    think_time_s=0.05,
                ),
            ),
        )
        result = run_workload(config)
        assert result.backend == "packet"
        assert result.summary()["transport"] == "mptcp"
        assert result.fct.completed > 0

    def test_compare_workload_backends(self):
        flow = run_workload(tiny_config(backend="flowlevel"))
        packet = run_workload(tiny_config(backend="packet"))
        comparison = compare_workload_backends(flow, packet)
        assert comparison.offered == flow.plan.total_transfers
        assert 0.0 < comparison.completion_agreement <= 1.0
        payload = comparison.as_dict()
        assert set(payload["percentiles"]) <= {"p50", "p90", "p99"}
        json.dumps(payload, allow_nan=False)

    def test_compare_rejects_mismatched_populations(self):
        flow = run_workload(tiny_config(backend="flowlevel"))
        other = run_workload(
            tiny_config(backend="packet", spec=tiny_spec(seed=99))
        )
        with pytest.raises(ModelError):
            compare_workload_backends(flow, other)


class TestNamedScenarios:
    def test_registry_names(self):
        assert set(WORKLOAD_SCENARIOS) == {"conferencing_load", "web_page_load"}

    def test_conferencing_load_scales_to_thousands(self):
        config = conferencing_load(sessions=250, duration=60.0)
        result = run_workload(config)
        assert result.plan.total_transfers >= 5000
        assert result.fct.completed > 1000

    def test_web_page_load_structure(self):
        config = web_page_load(sessions=3, duration=10.0)
        plan = run_workload(config).plan
        # 3 pages x (1 main + 8 subresources) per session.
        assert all(len(s.transfers) == 27 for s in plan.sessions)


class TestWorkloadCampaignSpec:
    def test_scale_axes_are_workload_only(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", kind="single", load_scales=(0.5, 1.0))

    def test_workload_kind_rejects_packet_axes(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(
                name="x",
                kind="workload",
                scenarios=("conferencing_load",),
                loss_rates=(0.01,),
            )

    def test_workload_kind_validates_scenarios(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", kind="workload", scenarios=("paper",))

    def test_workload_grid_expands_scale_axes(self):
        spec = workload_fct_campaign(duration=2.0, load_scales=(0.5, 1.0), backend="flowlevel")
        assert spec.kind == "workload"
        assert spec.size == 2 * 2  # scenarios x load scales
        points = spec.expand()
        assert len(points) == spec.size
        labels = {point.params["load_scale"] for point in points}
        assert labels == {0.5, 1.0}
        for point in points:
            assert point.params["kind"] == "workload"
            assert "loss_rate" not in point.params


class TestMultiflowWorkloadKind:
    def test_workload_flow_needs_a_spec(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(kind="workload", name="bg", path_index=0)


class TestWorkloadCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["workload", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == sorted(WORKLOAD_SCENARIOS)

    def test_unknown_scenario_exits_two(self, capsys):
        assert cli_main(["workload", "nope"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_missing_scenario_exits_two(self, capsys):
        assert cli_main(["workload"]) == 2
        assert "required" in capsys.readouterr().err

    def test_json_output_is_nan_safe(self, capsys, monkeypatch):
        # Force a NaN into the report: the sanitiser must null it out.
        original = FctReport.as_dict

        def poisoned(self):
            payload = original(self)
            payload["mean_fct_s"] = math.nan
            return payload

        monkeypatch.setattr(FctReport, "as_dict", poisoned)
        assert (
            cli_main(
                ["workload", "conferencing_load", "--sessions", "5", "--duration", "3", "--json"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["workload"]["fct"]["mean_fct_s"] is None

    def test_table_output_and_compare(self, capsys):
        assert (
            cli_main(
                [
                    "workload",
                    "conferencing_load",
                    "--sessions",
                    "5",
                    "--duration",
                    "3",
                    "--compare",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "transfers completed" in out
        assert "flow-level vs packet-level FCT" in out
