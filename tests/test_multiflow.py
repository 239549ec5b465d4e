"""Multi-flow competition runner: FlowSpec layer, per-flow measurement,
tag namespacing, the named competition scenarios, and the packet front
doors' end of life."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import multiflow as multiflow_module
from repro.experiments.harness import paper_experiment, run_experiment
from repro.experiments.multiflow import (
    TAG_STRIDE,
    FlowSpec,
    MultiFlowConfig,
    run_multiflow,
)
from repro.experiments.scenarios import (
    COMPETITION_SCENARIOS,
    aqm_vs_droptail,
    cross_traffic_perturbation,
    ecn_mptcp_fairness,
    link_flap_failover,
    mptcp_vs_tcp_shared_bottleneck,
    two_mptcp_competition,
    workload_background,
)
from repro.flowsim import backend as flowlevel_module
from repro.model.paths import Path
from repro.netsim.dynamics import DynamicsSpec, LinkRateChange, Schedule
from repro.netsim.network import Network
from repro.topologies.paper import paper_scenario
from repro.units import BACKENDS
from repro.workload.runner import WorkloadConfig, run_workload

from .conftest import left_to_collector, make_two_path_scenario


class TestFlowSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(kind="quic")


class TestRunLength:
    @pytest.mark.parametrize("duration", [float("nan"), 0.0, -1.0, float("inf")])
    @pytest.mark.parametrize("backend", ["packet", "flowlevel"])
    def test_a_run_length_that_is_not_positive_is_refused(self, each_kernel, backend, duration):
        """The engine refuses the run: a NaN or infinite horizon never ends
        the packet loop, and 0 or -1 would return empty results."""
        with pytest.raises(ConfigurationError, match="duration must be positive"):
            run_experiment(paper_experiment("lia", duration=duration, backend=backend))


class TestMultiFlowConfigValidation:
    def test_needs_at_least_one_flow(self):
        with pytest.raises(ConfigurationError):
            run_multiflow(MultiFlowConfig(scenario=make_two_path_scenario, flows=[]))

    def test_duplicate_flow_names_rejected(self):
        config = MultiFlowConfig(
            scenario=make_two_path_scenario,
            flows=[FlowSpec(kind="mptcp", name="x"), FlowSpec(kind="udp", name="x")],
            duration=0.5,
        )
        with pytest.raises(ConfigurationError):
            run_multiflow(config)

    def test_single_path_kind_rejects_multiple_paths(self):
        topology, paths = make_two_path_scenario()
        config = MultiFlowConfig(
            scenario=(topology, paths),
            flows=[FlowSpec(kind="tcp", paths=list(paths))],
            duration=0.5,
        )
        with pytest.raises(ConfigurationError):
            run_multiflow(config)

    def test_path_index_out_of_range(self):
        config = MultiFlowConfig(
            scenario=make_two_path_scenario,
            flows=[FlowSpec(kind="udp", path_index=7)],
            duration=0.5,
        )
        with pytest.raises(ConfigurationError):
            run_multiflow(config)

    def test_path_tag_outside_namespace_rejected(self):
        from repro.model.paths import Path

        topology, paths = make_two_path_scenario()
        oversized = [
            Path(paths[0].nodes, tag=TAG_STRIDE + 1, name="bad"),
            Path(paths[1].nodes, tag=2, name="ok"),
        ]
        config = MultiFlowConfig(
            scenario=(topology, paths),
            flows=[FlowSpec(kind="mptcp", paths=oversized)],
            duration=0.5,
        )
        with pytest.raises(ConfigurationError):
            run_multiflow(config)


def _paper_paths_tagged_from(first: int):
    _, paths = paper_scenario()
    return [Path(path.nodes, tag=first + i, name=path.name) for i, path in enumerate(paths)]


_SINGLE_PATH_CC = "choose from ['cubic', 'newreno', 'reno', 'sfc', 'telehaptic']"

#: Specs the contract refuses, each run as the second flow beside an
#: ``mptcp`` flow on the paper topology unless marked alone:
#: ``(spec, alone, the one error text, refused at declaration)``.  Each is a
#: spec on which a backend that checks it in its own lowering would answer
#: apart from the other: run on one and fail on the other, fail with another
#: error, or run on both at different rates.
REFUSED_SPECS = {
    "mptcp-tags-100-102": (
        lambda: FlowSpec(kind="mptcp", paths=_paper_paths_tagged_from(100)), True,
        "path tag 100 does not fit the flow tag namespace (must be in 1..99)", False,
    ),
    "onoff-on-0": (
        lambda: FlowSpec(kind="onoff", on_duration=0, rate_mbps=5), False,
        "on_duration must be positive and off_duration non-negative", True,
    ),
    "onoff-off-negative": (
        lambda: FlowSpec(kind="onoff", off_duration=-0.5, rate_mbps=5), False,
        "on_duration must be positive and off_duration non-negative", True,
    ),
    "udp-rate-0": (
        lambda: FlowSpec(kind="udp", rate_mbps=0), False, "UDP rate must be positive", True,
    ),
    "udp-rate-negative": (
        lambda: FlowSpec(kind="udp", rate_mbps=-5), False, "UDP rate must be positive", True,
    ),
    "start-negative": (
        lambda: FlowSpec(kind="tcp", start=-1), False, "tcp flow cannot start at t=-1", True,
    ),
    "tcp-total-bytes-0": (
        lambda: FlowSpec(kind="tcp", total_bytes=0), False,
        "total_bytes must be positive, got 0", True,
    ),
    "udp-stop-before-start": (
        lambda: FlowSpec(kind="udp", start=0.2, stop=0.1, rate_mbps=5), False,
        "udp flow stop t=0.1 is not after its start t=0.2", True,
    ),
    "mptcp-default-path-7-of-3": (
        lambda: FlowSpec(kind="mptcp", default_path_index=7), False,
        "default_index 7 out of range for 3 paths", False,
    ),
    "tcp-cc-unknown": (
        lambda: FlowSpec(kind="tcp", congestion_control="nope"), False,
        f"unknown single-path congestion control 'nope'; {_SINGLE_PATH_CC}", False,
    ),
    "tcp-cc-multipath": (
        lambda: FlowSpec(kind="tcp", congestion_control="lia"), False,
        f"unknown single-path congestion control 'lia'; {_SINGLE_PATH_CC}", False,
    ),
    "mptcp-scheduler-unknown": (
        lambda: FlowSpec(kind="mptcp", scheduler="nope"), False,
        "unknown scheduler 'nope'; "
        "choose from ['default', 'lowest-rtt', 'minrtt', 'redundant', 'roundrobin']", False,
    ),
    "mptcp-send-buffer-0": (
        lambda: FlowSpec(kind="mptcp", send_buffer_bytes=0), False,
        "send_buffer_bytes must be positive, got 0", True,
    ),
    "mptcp-two-paths-one-tag": (
        lambda: FlowSpec(kind="mptcp", paths=_paper_paths_tagged_from(1)[:1] * 2), True,
        "mptcp flow 'mptcp-1' has two paths tagged 1", False,
    ),
    "mptcp-src-off-its-paths": (
        lambda: FlowSpec(kind="mptcp", src="nowhere"), False,
        "path Path 1: s -> v1 -> v4 -> d does not connect 'nowhere' to 'd'", False,
    ),
    "tcp-endpoints-swapped": (
        lambda: FlowSpec(kind="tcp", src="d", dst="s"), False,
        "path Path 1: s -> v1 -> v4 -> d does not connect 'd' to 's'", False,
    ),
    "mptcp-mss-0": (
        lambda: FlowSpec(kind="mptcp", mss=0), False, "mss must be positive, got 0", True,
    ),
}


class TestOneFlowSpecContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(REFUSED_SPECS))
    def test_a_bad_spec_is_refused_alike_before_any_engine_exists(self, monkeypatch, case, backend):
        """A check that needs no scenario refuses at ``FlowSpec(...)``; the
        rest refuse from ``run_multiflow`` before a ``Network`` or a
        ``FlowLevelSim`` is built.  Either way the text is one text."""
        build, alone, message, declared = REFUSED_SPECS[case]

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built for a refused spec")

        monkeypatch.setattr(multiflow_module, "Network", no_engine)
        monkeypatch.setattr(flowlevel_module, "FlowLevelSim", no_engine)
        if declared:
            with pytest.raises(ConfigurationError) as refused:
                build()
        else:
            flows = [build()] if alone else [FlowSpec(kind="mptcp", name="m"), build()]
            with pytest.raises(ConfigurationError) as refused:
                run_multiflow(MultiFlowConfig(flows=flows, duration=0.3, backend=backend))
        assert str(refused.value) == message


class TestPerFlowCaptureAttachment:
    def test_flow_filtered_captures_are_distinct(self):
        topology, paths = make_two_path_scenario()
        network = Network(topology)
        shared = network.attach_capture("d", data_only=True)
        flow1 = network.attach_capture("d", data_only=True, flow_id=1)
        flow2 = network.attach_capture("d", data_only=True, flow_id=2)
        assert shared is not flow1 and flow1 is not flow2
        assert network.attach_capture("d", flow_id=1) is flow1
        assert network.attach_capture("d", data_only=True, flow_id=2) is flow2
        assert network.attach_capture("d", data_only=True) is shared

    def test_flow_filter_drops_other_flows(self):
        from repro.netsim.capture import PacketCapture
        from repro.netsim.packet import Packet

        capture = PacketCapture(flow_id=7)
        mine = Packet(src="s", dst="d", size=100, flow_id=7, subflow_id=0)
        other = Packet(src="s", dst="d", size=100, flow_id=8, subflow_id=0)
        capture.on_packet(mine, 0.1)
        capture.on_packet(other, 0.2)
        assert len(capture) == 1
        assert capture.records[0].flow_id == 7


class TestRunMultiflow:
    def test_two_flow_run_reports_per_flow_series(self):
        config = mptcp_vs_tcp_shared_bottleneck(duration=2.0)
        result = run_multiflow(config)
        assert {flow.name for flow in result.flows} == {"mptcp", "tcp"}
        mptcp = result.flow("mptcp")
        tcp = result.flow("tcp")
        # Per-flow time series on the configured sampling grid.
        assert len(mptcp.series) == int(config.duration / config.sampling_interval)
        assert len(tcp.series) == len(mptcp.series)
        assert mptcp.mean_mbps > 0 and tcp.mean_mbps > 0
        # Per-path series for the MPTCP flow, keyed by original path tag.
        assert set(mptcp.per_path_series) == {1, 2}
        # Fairness report is present and coherent.
        assert 0.0 < result.jain_index <= 1.0
        assert result.fairness.mptcp_tcp_ratio is not None
        assert result.fairness.bottleneck_capacity_mbps == pytest.approx(50.0)
        summary = result.summary()
        assert summary["fairness"]["jain_index"] == pytest.approx(
            result.jain_index, abs=1e-3
        )

    def test_aggregate_stays_below_bottleneck(self):
        result = run_multiflow(mptcp_vs_tcp_shared_bottleneck(duration=2.0))
        capacity = result.fairness.bottleneck_capacity_mbps
        # Wire-level overhead means the data-rate aggregate can graze the
        # capacity but never meaningfully exceed it.
        assert result.fairness.aggregate_mbps <= capacity * 1.05

    def test_tag_namespaces_do_not_collide(self):
        config = two_mptcp_competition(duration=1.0, subflows_each=2)
        result = run_multiflow(config)
        a, b = result.flow("mptcp-a"), result.flow("mptcp-b")
        # Both connections measured independently: distinct flow ids, and
        # both actually moved data through their own capture.
        assert a.flow_id != b.flow_id
        assert a.bytes_delivered > 0 and b.bytes_delivered > 0
        # Flow B's paths were installed in its own tag namespace and the
        # namespaces are disjoint.
        assert b.tag_map
        assert all(tag >= TAG_STRIDE for tag in b.tag_map.values())
        assert not set(a.tag_map.values()) & set(b.tag_map.values())

    def test_two_mptcp_split_is_roughly_even(self):
        result = run_multiflow(two_mptcp_competition(duration=3.0))
        assert result.jain_index > 0.9

    def test_cross_traffic_flow_uses_onoff_source(self):
        config = cross_traffic_perturbation(duration=2.0)
        result = run_multiflow(config)
        cross = result.flow("cross-traffic")
        assert cross.kind == "onoff"
        assert cross.bytes_delivered > 0
        # The on-off source is silent half the time: its mean arrival rate
        # stays clearly below the configured ON rate.
        on_rate = config.flows[1].rate_mbps
        assert cross.series.mean() < on_rate
        mptcp = result.flow("mptcp")
        assert mptcp.mean_mbps > 0

    def test_mptcp_flow_with_bounded_transfer(self):
        topology, paths = make_two_path_scenario()
        config = MultiFlowConfig(
            scenario=(topology, paths),
            flows=[FlowSpec(kind="mptcp", name="m", total_bytes=200_000)],
            duration=2.0,
        )
        result = run_multiflow(config)
        assert result.flow("m").bytes_delivered == 200_000

    def test_registry_lists_all_named_scenarios(self):
        assert set(COMPETITION_SCENARIOS) == {
            "mptcp_vs_tcp_shared_bottleneck",
            "two_mptcp_competition",
            "cross_traffic_perturbation",
            "workload_background",
            "aqm_vs_droptail",
            "ecn_mptcp_fairness",
        }
        for builder in COMPETITION_SCENARIOS.values():
            config = builder(duration=1.0)
            assert isinstance(config, MultiFlowConfig)
            assert config.flows


class TestSingleFlowBackwardCompatibility:
    def test_run_experiment_unchanged_by_multiflow_import(self):
        # The single-flow harness result shape is untouched by the
        # multi-flow subsystem (same fields, same series grid).
        from repro.experiments.harness import ExperimentConfig, run_experiment

        topology, paths = make_two_path_scenario()
        config = ExperimentConfig(
            name="compat", scenario=(topology, paths), duration=1.0
        )
        result = run_experiment(config)
        assert set(result.per_path_series) == {1, 2}
        assert len(result.total_series) == 10
        assert result.optimum.total > 0


def _bottleneck_step(duration):
    """The campaign's ``bottleneck_step``: the paper's most shared link (s-v1,
    40 Mbps) halves at 40 % of the run and is restored at 70 %."""
    schedule = Schedule()
    schedule.at(0.4 * duration, LinkRateChange("s", "v1", 20.0))
    schedule.at(0.7 * duration, LinkRateChange("s", "v1", 40.0))
    return DynamicsSpec(schedule=schedule, description="s-v1 halves, then restores")


class TestTheTwoFrontDoorsAgree:
    """``run_experiment`` is one ``mptcp`` flow through the backend's multi-flow
    build step, so a one-flow ``run_multiflow`` of the same scenario measures
    the same connection."""

    @pytest.mark.parametrize("variant", ["plain", "red_ecn", "bottleneck_step"])
    @pytest.mark.parametrize("backend", ["packet", "flowlevel"])
    def test_one_connection_is_one_mptcp_flow(self, backend, variant):
        duration = 1.0
        overrides = {
            "plain": {},
            "red_ecn": {"queue_kind": "red", "ecn": True},
            "bottleneck_step": {"dynamics": _bottleneck_step(duration)},
        }[variant]
        single = run_experiment(
            paper_experiment("lia", duration=duration, backend=backend, **overrides)
        )
        config = single.config
        multi = run_multiflow(
            MultiFlowConfig(
                flows=[
                    FlowSpec(
                        kind="mptcp",
                        congestion_control=config.congestion_control,
                        default_path_index=config.default_path_index,
                    )
                ],
                duration=duration,
                backend=backend,
                **overrides,
            )
        )
        (flow,) = multi.flows

        assert {tag: s.values for tag, s in single.per_path_series.items()} == {
            tag: s.values for tag, s in flow.per_path_series.items()
        }
        assert single.total_series.values == flow.series.values
        assert single.drops == multi.drops
        assert single.events_processed == multi.events_processed
        assert single.stats.retransmissions == flow.retransmissions
        assert (single.dynamics is not None) == (variant == "bottleneck_step")
        if backend == "packet" and variant == "red_ecn":
            assert single.signal_plane.ecn_marks > 0


#: Every packet front door, on the scenes whose graphs differ: an MPTCP
#: connection alone and through a link flap; TCP beside MPTCP, RED + ECN,
#: CoDel and a workload population in competition; a workload run over TCP
#: and over MPTCP sessions.
PACKET_FRONT_DOORS = {
    "experiment_mptcp": lambda: run_experiment(paper_experiment("lia", duration=0.5)),
    "experiment_dynamics": lambda: run_experiment(link_flap_failover(duration=0.5)),
    "multiflow_tcp_mptcp": lambda: run_multiflow(mptcp_vs_tcp_shared_bottleneck(duration=0.5)),
    "multiflow_red_ecn": lambda: run_multiflow(
        aqm_vs_droptail(queue_kind="red", ecn=True, duration=0.5)
    ),
    "multiflow_codel": lambda: run_multiflow(
        ecn_mptcp_fairness(queue_kind="codel", duration=0.5)
    ),
    "multiflow_workload": lambda: run_multiflow(workload_background(duration=0.5)),
    "workload_tcp": lambda: run_workload(WorkloadConfig(backend="packet", duration=0.5)),
    "workload_mptcp": lambda: run_workload(
        WorkloadConfig(backend="packet", transport="mptcp", duration=0.5)
    ),
}


class TestAFinishedRunFreesItsGraph:
    """A packet front door closes its network and releases its connections
    once the result is built, so reference counting frees the whole graph
    when it returns: nothing is left for the cyclic collector."""

    @pytest.mark.parametrize("door", sorted(PACKET_FRONT_DOORS))
    def test_nothing_is_left_to_the_collector(self, each_kernel, door):
        run = PACKET_FRONT_DOORS[door]
        run()  # first use loads what the run imports and caches
        result, left = left_to_collector(run)
        assert result.events_processed > 0
        assert left == 0
