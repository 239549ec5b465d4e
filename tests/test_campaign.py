"""Campaign subsystem: grid expansion, result store, resume and the CLI."""

import json
import pickle

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    CAMPAIGN_GRIDS,
    CampaignSpec,
    ResultStore,
    _execute_point,
    ecn_aqm_fairness_campaign,
    multiflow_fairness_campaign,
    paper_cc_rate_campaign,
    point_key,
    run_campaign,
)
from repro.experiments.multiflow import MultiFlowConfig
from tests import golden_campaign_points


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        kind="single",
        scenarios=("paper",),
        congestion_controls=("cubic",),
        rate_scales=(1.0,),
        duration=0.5,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestCampaignSpec:
    def test_expand_produces_full_product(self):
        spec = small_spec(
            congestion_controls=("cubic", "lia"), rate_scales=(0.5, 1.0, 2.0)
        )
        points = spec.expand()
        assert len(points) == spec.size == 6
        assert len({p.key for p in points}) == 6

    def test_points_are_picklable(self):
        for point in small_spec(path_managers=("default", "failover")).expand():
            pickle.dumps(point)

    def test_point_key_is_stable_and_parameter_sensitive(self):
        params = {"scenario": "paper", "rate_scale": 1.0}
        assert point_key(params) == point_key(dict(params))
        assert point_key(params) != point_key({**params, "rate_scale": 2.0})

    @pytest.mark.parametrize(
        "key, axes",
        [
            ("58473e56aaadab58", dict(kind="single")),
            (
                "975cdad7d35e1ed5",
                dict(
                    kind="multiflow",
                    scenarios=("two_mptcp_competition",),
                    congestion_controls=("lia",),
                ),
            ),
            (
                "bc623386f46bd37d",
                dict(
                    kind="workload",
                    scenarios=("web_page_load",),
                    load_scales=(2.0,),
                    duration=5.0,
                ),
            ),
            (
                "be642128d04ed985",
                dict(
                    kind="multiflow",
                    scenarios=("ecn_mptcp_fairness",),
                    congestion_controls=("sfc",),
                    queue_kinds=("red",),
                    ecn_modes=(True,),
                ),
            ),
            ("276aeaf210fffb0d", dict(kind="single", backend="flowlevel")),
        ],
        ids=["single", "multiflow", "workload", "signal-plane", "flowlevel"],
    )
    def test_point_keys_are_pinned(self, key, axes):
        """Literals computed before the one-driver refactor (PR 12's parent):
        a change to any kind's params dict would orphan every existing store."""
        (point,) = CampaignSpec(name="pin", **{"duration": 0.5, **axes}).expand()
        assert point.key == key

    def test_expansion_matches_the_golden_points(self):
        """Point order, key, label and config of the stock grids on both
        backends and of one all-axes spec per kind, as recorded before the
        per-axis plumbing became the ``_AXES`` table."""
        golden = golden_campaign_points.load_golden()
        fresh = golden_campaign_points.compute_golden()
        assert list(fresh) == list(golden)
        for name, rows in golden.items():
            assert fresh[name] == rows, name

    def test_same_grid_re_expands_to_same_keys(self):
        keys_a = [p.key for p in small_spec(congestion_controls=("cubic", "lia")).expand()]
        keys_b = [p.key for p in small_spec(congestion_controls=("cubic", "lia")).expand()]
        assert keys_a == keys_b

    def test_multiflow_kind_builds_multiflow_configs(self):
        spec = small_spec(
            kind="multiflow", scenarios=("mptcp_vs_tcp_shared_bottleneck",)
        )
        points = spec.expand()
        assert all(isinstance(p.config, MultiFlowConfig) for p in points)

    def test_rate_scale_scales_the_constraint_capacities(self):
        point = small_spec(rate_scales=(2.0,)).expand()[0]
        topology, _ = point.config.build_scenario()
        assert topology.capacity_of("s", "v1") == pytest.approx(80.0)

    def test_unknown_congestion_control_rejected_at_construction(self):
        # A typo'd controller must fail fast, not burn the whole grid's
        # runtime producing error records that defeat the resume property.
        with pytest.raises(ConfigurationError, match="unknown congestion control"):
            small_spec(congestion_controls=("cubicc",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown single campaign scenario"):
            small_spec(scenarios=("nonsense",))

    def test_unknown_queue_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown queue discipline"):
            small_spec(queue_kinds=("pie",))

    def test_default_signal_axes_leave_keys_unchanged(self):
        # queue_kind/ecn only enter the content hash when non-None, so every
        # point key recorded by a pre-AQM campaign store stays addressable.
        base = [p.key for p in small_spec().expand()]
        explicit = [
            p.key
            for p in small_spec(queue_kinds=(None,), ecn_modes=(None,)).expand()
        ]
        assert base == explicit
        for point in small_spec().expand():
            assert "queue_kind" not in point.params
            assert "ecn" not in point.params

    def test_signal_axes_enter_key_and_config(self):
        spec = small_spec(queue_kinds=("red", "codel"), ecn_modes=(True, False))
        points = spec.expand()
        assert len(points) == spec.size == 4
        assert len({p.key for p in points}) == 4
        for point in points:
            assert point.config.queue_kind == point.params["queue_kind"]
            assert point.config.ecn == point.params["ecn"]

    def test_signal_axes_override_scenario_defaults(self):
        # The ecn_mptcp_fairness scenario defaults to RED+ECN; a literal axis
        # value must win so the sweep actually covers the other disciplines.
        spec = small_spec(
            kind="multiflow",
            scenarios=("ecn_mptcp_fairness",),
            queue_kinds=("droptail",),
            ecn_modes=(False,),
        )
        point = spec.expand()[0]
        assert point.config.queue_kind == "droptail"
        assert point.config.ecn is False

    @pytest.mark.parametrize("duration", [float("nan"), 0.0, -1.0, float("inf")])
    def test_a_run_length_that_is_not_positive_is_refused(self, duration):
        # Every point of such a grid would fail alike; it is refused whole.
        with pytest.raises(ConfigurationError, match="duration must be positive and finite"):
            small_spec(duration=duration)

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            small_spec(congestion_controls=())

    def test_failover_manager_rejected_for_multiflow(self):
        with pytest.raises(ConfigurationError, match="single-connection"):
            small_spec(
                kind="multiflow",
                scenarios=("mptcp_vs_tcp_shared_bottleneck",),
                path_managers=("failover",),
            )

    def test_degenerate_grid_fails_with_point_params(self, monkeypatch):
        from repro.experiments import campaign as campaign_module
        from repro.model.bottleneck import ConstraintSystem

        def degenerate_constraints(topology, paths, **kwargs):
            return ConstraintSystem(list(paths), [])

        monkeypatch.setattr(campaign_module, "build_constraints", degenerate_constraints)
        with pytest.raises(ConfigurationError) as excinfo:
            small_spec(rate_scales=(1.5,)).expand()
        message = str(excinfo.value)
        assert "degenerate campaign grid point" in message
        assert '"rate_scale": 1.5' in message
        assert "model_status" not in message


class TestResultStore:
    def test_load_missing_file_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "nope.jsonl").load() == {}

    def test_append_and_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append({"key": "abc", "status": "ok"})
        store.append({"key": "def", "status": "error"})
        records = store.load()
        assert set(records) == {"abc", "def"}
        assert len(store) == 2

    def test_last_record_per_key_wins(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append({"key": "abc", "status": "error"})
        store.append({"key": "abc", "status": "ok"})
        assert store.load()["abc"]["status"] == "ok"

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "abc", "status": "ok"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "def", "status"')  # crash mid-append
        assert set(store.load()) == {"abc"}

    def test_append_sanitizes_non_finite_metrics(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append({"key": "abc", "metric": float("nan")})
        line = (tmp_path / "store.jsonl").read_text().strip()
        assert json.loads(line)["metric"] is None
        assert "NaN" not in line


class TestRunCampaign:
    def test_second_invocation_executes_zero_points(self, tmp_path):
        spec = small_spec(congestion_controls=("cubic", "lia"))
        store = tmp_path / "store.jsonl"
        first = run_campaign(spec, store, max_workers=1)
        assert (first.executed, first.skipped) == (2, 0)
        second = run_campaign(spec, store, max_workers=1)
        assert (second.executed, second.skipped) == (0, 2)
        assert [r["key"] for r in second.records] == [p.key for p in second.points]

    def test_grid_extension_runs_only_new_points(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign(small_spec(), store, max_workers=1)
        extended = run_campaign(
            small_spec(congestion_controls=("cubic", "lia")), store, max_workers=1
        )
        assert (extended.executed, extended.skipped) == (1, 1)

    def test_resume_disabled_re_runs_everything(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_campaign(small_spec(), store, max_workers=1)
        fresh = run_campaign(small_spec(), store, max_workers=1, resume=False)
        assert fresh.executed == 1

    def test_progress_reports_chunk_completion(self, tmp_path):
        calls = []
        spec = small_spec(congestion_controls=("cubic", "lia", "olia"))
        run_campaign(
            spec,
            tmp_path / "store.jsonl",
            chunk_size=2,
            max_workers=1,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(0, 3), (2, 3), (3, 3)]

    def test_error_points_are_recorded_and_retried(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        point = spec.expand()[0]
        broken = ResultStore(store)
        broken.append({"key": point.key, "params": point.params, "status": "error", "error": "boom"})
        result = run_campaign(spec, store, max_workers=1)
        assert result.executed == 1
        assert result.records[0]["status"] == "ok"

    def test_records_contain_validation(self, tmp_path):
        result = run_campaign(small_spec(), tmp_path / "store.jsonl", max_workers=1)
        record = result.records[0]
        assert record["status"] == "ok"
        assert record["validation"]["predictions"]["lp"]["total"] == pytest.approx(90.0)
        report = result.validation_report()
        assert report.points == 1
        assert report.models["lp"].count == 1

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        """Every HiGHS solve from here on appends its arguments to the list."""
        pytest.importorskip("scipy.optimize")
        from repro.model import lp

        solve, calls = lp._solve_highs, []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lp, "_solve_highs", counted)
        return calls

    def test_a_point_solves_its_lp_once(self, monkeypatch):
        """The run's optimum is handed to the validation, not solved again:
        the summary and the ``lp`` prediction are one solve by construction."""
        calls = self._count_solves(monkeypatch)
        record = _execute_point(small_spec(duration=0.3).expand()[0])
        assert record["status"] == "ok"
        assert len(calls) == 1
        lp = record["validation"]["predictions"]["lp"]
        assert record["summary"]["optimum_mbps"] == round(lp["total"], 3) == 90.0

    def test_a_multiflow_point_solves_once_per_mptcp_flow_and_once_to_validate(
        self, monkeypatch
    ):
        calls = self._count_solves(monkeypatch)
        spec = small_spec(
            kind="multiflow", scenarios=("two_mptcp_competition",), duration=0.3
        )
        (point,) = spec.expand()
        assert [flow.kind for flow in point.config.flows] == ["mptcp", "mptcp"]
        record = _execute_point(point)
        assert record["status"] == "ok"
        assert len(calls) == 2 + 1
        assert "lp" in record["validation"]["predictions"]

    def test_execute_point_turns_failures_into_error_records(self):
        point = small_spec().expand()[0]
        point.config = point.config.with_overrides(congestion_control="nonsense")
        record = _execute_point(point)
        assert record["status"] == "error"
        assert "nonsense" in record["error"]

    def test_invalid_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec(), tmp_path / "s.jsonl", chunk_size=0)


class TestNamedGrids:
    def test_registry_names(self):
        assert set(CAMPAIGN_GRIDS) == {
            "paper_cc_rate",
            "multiflow_fairness",
            "workload_fct",
            "ecn_aqm_fairness",
        }

    def test_paper_grid_shape(self):
        spec = paper_cc_rate_campaign(duration=1.0)
        assert spec.kind == "single"
        assert spec.size == 9
        assert spec.duration == 1.0

    def test_fairness_grid_is_multiflow(self):
        spec = multiflow_fairness_campaign()
        assert spec.kind == "multiflow"
        assert spec.size == 8

    def test_ecn_aqm_grid_shape(self):
        spec = ecn_aqm_fairness_campaign()
        assert spec.kind == "multiflow"
        assert spec.scenarios == ("ecn_mptcp_fairness",)
        # queue discipline x controller, signal-driven families included
        assert set(spec.queue_kinds) == {"droptail", "red", "codel"}
        assert {"sfc", "telehaptic"} <= set(spec.congestion_controls)
        assert spec.size == 12
        flowlevel = ecn_aqm_fairness_campaign(backend="flowlevel")
        packet_keys = {p.key for p in spec.expand()}
        assert packet_keys.isdisjoint({p.key for p in flowlevel.expand()})


class TestCampaignCli:
    def test_list_grids(self, capsys):
        assert cli_main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == sorted(CAMPAIGN_GRIDS)

    def test_unknown_grid_errors(self, capsys):
        assert cli_main(["campaign", "nonsense"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_missing_grid_errors(self, capsys):
        assert cli_main(["campaign"]) == 2
        assert "required" in capsys.readouterr().err

    def test_run_and_resume_via_cli(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import campaign as campaign_module

        monkeypatch.setitem(
            campaign_module.CAMPAIGN_GRIDS, "paper_cc_rate", lambda **kw: small_spec(**kw)
        )
        store = str(tmp_path / "store.jsonl")
        assert cli_main(["campaign", "paper_cc_rate", "--store", store, "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 resumed" in out
        assert "model-vs-simulation error summary" in out

        assert (
            cli_main(["campaign", "paper_cc_rate", "--store", store, "--json"]) == 0
        )
        payload = json.loads(
            capsys.readouterr().out,
            parse_constant=lambda token: pytest.fail(f"non-finite JSON token {token}"),
        )
        assert payload["campaign"]["executed"] == 0
        assert payload["campaign"]["skipped"] == 1
        assert payload["points"][0]["status"] == "ok"

    def test_backend_left_out_keeps_the_grids_own(self, tmp_path, capsys):
        # workload_fct declares backend="flowlevel"; a --backend that
        # defaulted to "packet" ran it at packet fidelity with no FCT agreement.
        store = str(tmp_path / "store.jsonl")
        argv = ["campaign", "workload_fct", "--duration", "2", "--max-workers", "1"]
        assert cli_main([*argv, "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"]["backend"] == "flowlevel"
        assert [record["status"] for record in payload["points"]] == ["ok"] * 6
        assert all("cross_fidelity_fct" in record for record in payload["points"])

    def test_error_points_yield_nonzero_exit(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import campaign as campaign_module
        from repro.experiments import fabric as fabric_module

        monkeypatch.setitem(
            campaign_module.CAMPAIGN_GRIDS, "paper_cc_rate", lambda **kw: small_spec(**kw)
        )

        def always_fails(point):
            return {"key": point.key, "params": point.params, "status": "error", "error": "boom"}

        # The driver (repro.experiments.fabric) is what looks the executor up.
        monkeypatch.setattr(fabric_module, "_execute_point", always_fails)
        store = str(tmp_path / "store.jsonl")
        assert cli_main(["campaign", "paper_cc_rate", "--store", store, "--no-plot"]) == 1
        assert "boom" in capsys.readouterr().err
