"""Flow-level backend behind the experiment/multiflow/campaign front doors.

Covers the ``backend`` config field, the result-shape contract (a
flow-level run returns the same dataclasses as a packet run), the
cross-fidelity comparison helpers, and the ISSUE-6 agreement bounds:
per-flow mean rates within tolerance and identical throughput ranking
between the two backends on the paper topology and the
``mptcp_vs_tcp_shared_bottleneck`` competition.

Agreement tolerances are calibrated against measured gaps (paper/lia mean
relative error ~0.11, mptcp-vs-tcp/cubic ~0.16) with headroom for timing
jitter, not invented: the fluid model is an idealisation, and a coupled
controller's packet dynamics legitimately sit a few percent off the
weighted max-min fixed point.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ConfigurationError
from repro.experiments.campaign import multiflow_fairness_campaign, run_campaign
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.multiflow import MultiFlowConfig, run_multiflow
from repro.experiments.scenarios import (
    cross_traffic_perturbation,
    mptcp_vs_tcp_shared_bottleneck,
    two_mptcp_competition,
)
from repro.measure.validation import (
    CROSS_FIDELITY_RANK_TOL,
    compare_backend_rates,
    compare_experiment_backends,
    compare_multiflow_backends,
    rank_agreement,
)

from .conftest import make_two_path_scenario
from .test_kernel_differential import scene_config, scenes


def tail_mean(series) -> float:
    values = list(series.values)
    tail = values[len(values) // 2 :]
    return sum(tail) / len(tail)


class TestBackendField:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(backend="ns3")
        with pytest.raises(ConfigurationError):
            MultiFlowConfig(scenario=make_two_path_scenario, flows=[], backend="ns3")

    def test_backend_override_round_trip(self):
        config = ExperimentConfig(duration=1.0)
        assert config.backend == "packet"
        assert config.with_overrides(backend="flowlevel").backend == "flowlevel"

    def test_path_manager_rejected_on_flowlevel(self):
        config = ExperimentConfig(
            duration=1.0, backend="flowlevel", path_manager="failover"
        )
        with pytest.raises(ConfigurationError):
            run_experiment(config)


class TestExperimentFlowlevel:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            ExperimentConfig(
                congestion_control="lia", duration=3.0, backend="flowlevel"
            )
        )

    def test_result_shape_matches_packet_contract(self, result):
        assert set(result.per_path_series) == {1, 2, 3}
        assert result.drops == 0
        assert result.events_processed > 0
        assert result.stats.retransmissions == 0
        assert len(result.stats.subflows) == 3
        assert result.optimum.total == pytest.approx(90.0)

    def test_coupled_rates_hit_weighted_maxmin(self, result):
        rates = {tag: tail_mean(series) for tag, series in result.per_path_series.items()}
        assert rates[1] == pytest.approx(20.0, rel=1e-6)
        assert rates[2] == pytest.approx(20.0, rel=1e-6)
        assert rates[3] == pytest.approx(40.0, rel=1e-6)
        assert result.achieved_total_mbps == pytest.approx(80.0, rel=1e-6)


class TestMultiflowFlowlevel:
    def test_lia_vs_tcp_splits_bottleneck_evenly(self):
        config = mptcp_vs_tcp_shared_bottleneck(
            congestion_control="lia", duration=2.0
        ).with_overrides(backend="flowlevel")
        result = run_multiflow(config)
        assert result.flow("mptcp").mean_mbps == pytest.approx(25.0, rel=1e-3)
        assert result.flow("tcp").mean_mbps == pytest.approx(25.0, rel=1e-3)
        assert result.jain_index == pytest.approx(1.0, abs=1e-6)

    def test_two_mptcp_split_evenly(self):
        config = two_mptcp_competition(duration=2.0).with_overrides(
            backend="flowlevel"
        )
        result = run_multiflow(config)
        rates = [flow.mean_mbps for flow in result.flows]
        assert rates[0] == pytest.approx(rates[1], rel=1e-3)

    def test_cross_traffic_udp_capped(self):
        config = cross_traffic_perturbation(duration=4.0).with_overrides(
            backend="flowlevel"
        )
        result = run_multiflow(config)
        mptcp = result.flow("mptcp").mean_mbps
        cross = result.flow("cross-traffic").mean_mbps
        # The on-off source only claims its burst rate during ON windows;
        # the responsive connection soaks up everything else.
        assert cross < mptcp
        assert mptcp + cross <= 50.0 * 1.001


class TestCompareBackendRates:
    def test_mismatched_flow_sets_rejected(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            compare_backend_rates({"a": 1.0}, {"b": 1.0})

    def test_exact_agreement(self):
        comparison = compare_backend_rates(
            {"a": 10.0, "b": 20.0}, {"a": 10.0, "b": 20.0}, scenario="unit"
        )
        assert comparison.mean_rel_error == pytest.approx(0.0)
        assert comparison.rank_agreement == pytest.approx(1.0)
        assert comparison.as_dict()["scenario"] == "unit"

    def test_rank_tolerance_treats_noise_as_tie(self):
        assert CROSS_FIDELITY_RANK_TOL == 0.02
        # A 1.5 % packet-level gap is noise: tied, as the flow level has it.
        noise = compare_backend_rates(
            {"a": 20.0, "b": 20.0}, {"a": 20.2, "b": 19.9}
        )
        # A 9.5 % gap is an order the flow level misses.
        order = compare_backend_rates(
            {"a": 20.0, "b": 20.0}, {"a": 21.0, "b": 19.0}
        )
        assert noise.rank_agreement == pytest.approx(1.0)
        assert order.rank_agreement == pytest.approx(0.0)


class TestCrossBackendAgreement:
    """ISSUE-6 satellite: rate error within tolerance, identical ranking."""

    def test_paper_topology_rates_and_ranking(self):
        config = ExperimentConfig(congestion_control="lia", duration=4.0)
        packet = run_experiment(config)
        flowlevel = run_experiment(config.with_overrides(backend="flowlevel"))
        comparison = compare_experiment_backends(flowlevel, packet)
        assert comparison.mean_rel_error < 0.20
        assert comparison.max_rel_error < 0.30
        # Paths 1 and 2 are symmetric in the fluid model; the packet-level
        # difference between them is controller noise, so ranking is judged
        # with a tolerance wide enough to call them tied.
        rates = {
            name: entry for name, entry in comparison.per_flow.items()
        }
        loose = rank_agreement(
            [entry["flowlevel_mbps"] for entry in rates.values()],
            [entry["packet_mbps"] for entry in rates.values()],
            tol=0.25,
        )
        assert loose == pytest.approx(1.0)
        top = max(rates, key=lambda name: rates[name]["packet_mbps"])
        assert top == "path-3"
        assert max(rates, key=lambda name: rates[name]["flowlevel_mbps"]) == top

    def test_experiment_result_compare_is_the_backend_comparison(self):
        config = ExperimentConfig(congestion_control="lia", duration=1.0)
        packet = run_experiment(config)
        flowlevel = run_experiment(config.with_overrides(backend="flowlevel"))
        comparison = flowlevel.compare(packet)
        assert comparison.as_dict() == compare_experiment_backends(flowlevel, packet).as_dict()
        assert comparison.scenario == packet.config.name
        assert set(comparison.per_flow) == {"path-1", "path-2", "path-3"}

    def test_shared_bottleneck_rates_and_ranking(self):
        # cubic (uncoupled) gives a strict mptcp > tcp order in both
        # fidelities: two greedy subflows against one.
        config = mptcp_vs_tcp_shared_bottleneck(
            congestion_control="cubic", duration=4.0
        )
        packet = run_multiflow(config)
        flowlevel = run_multiflow(config.with_overrides(backend="flowlevel"))
        comparison = compare_multiflow_backends(flowlevel, packet)
        assert comparison.mean_rel_error < 0.30
        assert comparison.rank_agreement == pytest.approx(1.0)
        assert flowlevel.flow("mptcp").mean_mbps > flowlevel.flow("tcp").mean_mbps
        assert packet.flow("mptcp").mean_mbps > packet.flow("tcp").mean_mbps

    def test_shared_bottleneck_lia_rate_error_bounded(self):
        config = mptcp_vs_tcp_shared_bottleneck(
            congestion_control="lia", duration=4.0
        )
        packet = run_multiflow(config)
        flowlevel = run_multiflow(config.with_overrides(backend="flowlevel"))
        comparison = compare_multiflow_backends(flowlevel, packet)
        # LIA overshoots the TCP-fair even split by ~20% at packet level.
        assert comparison.mean_rel_error < 0.35
        assert comparison.max_rel_error < 0.45


class TestFlowlevelCampaign:
    def test_campaign_records_cross_fidelity(self, tmp_path):
        spec = multiflow_fairness_campaign(duration=1.0, backend="flowlevel")
        result = run_campaign(spec, tmp_path / "store.jsonl", chunk_size=8)
        assert all(record["status"] == "ok" for record in result.records)
        for record in result.records:
            assert record["params"]["backend"] == "flowlevel"
            fidelity = record["cross_fidelity"]
            for field in ("mean_rel_error", "max_rel_error", "rank_agreement"):
                value = fidelity[field]
                assert value is not None and math.isfinite(value)
            for entry in fidelity["per_flow"].values():
                assert entry["rel_error"] is not None
                assert math.isfinite(entry["rel_error"])
        report = result.cross_fidelity_report()
        assert report is not None
        assert report["points"] == len(result.records)
        assert math.isfinite(report["mean_rel_error"])

    def test_packet_campaign_keys_unchanged(self):
        # ``backend`` must not leak into packet-point params: content-hash
        # keys (and therefore store resume) stay stable across this change.
        spec = multiflow_fairness_campaign(duration=1.0)
        for point in spec.expand():
            assert "backend" not in point.params


class TestOneResolutionOnEveryScene:
    """Both backends resolve a spec in one place, so on any scene the
    differential fuzzer draws they name, number, tag and solve each flow
    alike; what they then measure is theirs."""

    @settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenes)
    def test_flows_resolve_alike_on_both_backends(self, scene):
        config = scene_config(scene)

        def resolved(result):
            return [
                (flow.name, flow.kind, flow.flow_id, flow.tag_map, flow.optimum_mbps)
                for flow in result.flows
            ]

        packet = run_multiflow(config)
        assert resolved(run_multiflow(config.with_overrides(backend="flowlevel"))) == resolved(packet)
