"""Golden scenario definitions for the protocol fast-path equivalence tests.

The protocol-stack fast path (packet pool, sender/receiver common-case paths,
O(1) scheduler dispatch, fused coupled-CC aggregation) must not change a
single produced value.  This module defines the pinned scenarios and computes
their observable output -- every throughput sample of every series, plus the
headline counters -- as plain JSON-compatible floats/ints.

``tests/data/golden_pipeline.json`` was generated from the tree *before* the
fast path landed; the equivalence tests re-run the scenarios and require the
output to round-trip bit-identically (JSON float serialisation via ``repr``
is exact for IEEE-754 doubles).

Regenerate (only when intentionally changing protocol behaviour) with::

    PYTHONPATH=src python tests/golden_pipeline.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

from repro.core.connection import MptcpConnection
from repro.experiments.harness import paper_experiment, run_experiment
from repro.experiments.multiflow import FlowSpec, MultiFlowConfig, run_multiflow
from repro.experiments.scenarios import (
    aqm_vs_droptail,
    cross_traffic_perturbation,
    mptcp_vs_tcp_shared_bottleneck,
    two_mptcp_competition,
)
from repro.measure.sampling import throughput_timeseries
from repro.netsim.dynamics import DynamicsSpec
from repro.netsim.network import Network
from repro.topologies.generators import shared_bottleneck
from repro.topologies.paper import paper_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_pipeline.json"

#: Short but non-trivial horizons: long enough for slow-start exit, loss
#: recovery and coupled-CC rebalancing to all appear in the series.
SINGLE_FLOW_DURATION = 1.5
MULTI_FLOW_DURATION = 1.5
SAMPLING_INTERVAL = 0.1


def single_flow_case(congestion_control: str, **overrides) -> dict:
    """One paper-topology run reduced to its observable output."""
    config = paper_experiment(
        congestion_control,
        duration=SINGLE_FLOW_DURATION,
        sampling_interval=SAMPLING_INTERVAL,
    )
    if overrides:
        config = config.with_overrides(**overrides)
    result = run_experiment(config)
    return {
        "total_times": list(result.total_series.times),
        "total_values": list(result.total_series.values),
        "per_path_values": {
            str(tag): list(series.values)
            for tag, series in sorted(result.per_path_series.items())
        },
        "drops": result.drops,
        "retransmissions": result.stats.retransmissions,
    }


def multi_flow_case(config) -> dict:
    """One multi-flow competition run reduced to its observable output."""
    result = run_multiflow(config)
    return {
        "flow_values": {
            flow.name: list(flow.series.values) for flow in result.flows
        },
        "per_path_values": {
            flow.name: {
                str(tag): list(series.values)
                for tag, series in sorted(flow.per_path_series.items())
            }
            for flow in result.flows
        },
        "jain_index": result.fairness.jain_index,
        "drops": result.drops,
        "bytes_delivered": {
            flow.name: flow.bytes_delivered for flow in result.flows
        },
        "retransmissions": {
            flow.name: flow.retransmissions for flow in result.flows
        },
    }


def iperf_case() -> dict:
    """A greedy bulk MPTCP transfer on the paper topology, reported as iperf does.

    Pins a bare connection's observable output (the interval throughput
    series of a data-only capture plus the connection's headline counters),
    built without the experiment harness.
    """
    topology, paths = paper_scenario()
    network = Network(topology)
    capture = network.attach_capture("d", data_only=True)
    connection = MptcpConnection(network, "s", "d", paths, congestion_control="cubic")
    connection.start(0.0)
    network.run(SINGLE_FLOW_DURATION)
    series = throughput_timeseries(
        capture.filter(data_only=True),
        interval=SAMPLING_INTERVAL,
        start=0.0,
        end=SINGLE_FLOW_DURATION,
        label="iperf",
    )
    return {
        "interval_times": list(series.times),
        "interval_values": list(series.values),
        "bytes_transferred": connection.bytes_delivered,
        "mean_throughput_mbps": connection.total_throughput_mbps(SINGLE_FLOW_DURATION),
        "retransmissions": connection.total_retransmissions(),
    }


def udp_cbr_mix_config() -> MultiFlowConfig:
    """MPTCP plus a constant-bit-rate UDP flow that stops mid-run.

    Exercises the UDP source (pacing, stop_at handling, sink accounting) in
    a multi-flow competition, complementing the on-off coverage of
    ``cross_traffic_perturbation``.
    """
    topology, paths = shared_bottleneck(3, 50.0, 100.0)
    flows = [
        FlowSpec(
            kind="mptcp",
            name="mptcp",
            paths=list(paths)[:2],
            congestion_control="lia",
        ),
        FlowSpec(kind="udp", name="udp", path_index=2, rate_mbps=20.0, stop=1.2),
    ]
    return MultiFlowConfig(
        name="udp-cbr-mix",
        scenario=(topology, paths),
        flows=flows,
        duration=MULTI_FLOW_DURATION,
        sampling_interval=SAMPLING_INTERVAL,
        bottleneck_link=("agg", "core"),
    )


def compute_golden() -> Dict[str, dict]:
    """Run every pinned scenario and collect the observable output."""
    return {
        "single/cubic": single_flow_case("cubic"),
        "single/lia": single_flow_case("lia"),
        "single/olia": single_flow_case("olia"),
        "single/cubic-roundrobin-bounded": single_flow_case(
            "cubic", scheduler="roundrobin", send_buffer_bytes=256 * 1024
        ),
        "single/lia-minrtt-bounded": single_flow_case(
            "lia", scheduler="minrtt", send_buffer_bytes=192 * 1024
        ),
        "multi/mptcp_vs_tcp_shared_bottleneck": multi_flow_case(
            mptcp_vs_tcp_shared_bottleneck(
                duration=MULTI_FLOW_DURATION, sampling_interval=SAMPLING_INTERVAL
            )
        ),
        "multi/two_mptcp_competition": multi_flow_case(
            two_mptcp_competition(
                duration=MULTI_FLOW_DURATION, sampling_interval=SAMPLING_INTERVAL
            )
        ),
        "multi/mptcp_vs_tcp_olia": multi_flow_case(
            mptcp_vs_tcp_shared_bottleneck(
                congestion_control="olia",
                duration=MULTI_FLOW_DURATION,
                sampling_interval=SAMPLING_INTERVAL,
            )
        ),
        # The dynamics machinery merged but *inactive*: an attached empty
        # Schedule must leave every static scenario byte-identical (the
        # values below equal "single/cubic" / "multi/two_mptcp_competition"
        # exactly, which tests/test_dynamics.py also asserts directly).
        "single/cubic-empty-dynamics": single_flow_case(
            "cubic", dynamics=DynamicsSpec()
        ),
        "multi/two_mptcp_empty_dynamics": multi_flow_case(
            two_mptcp_competition(
                duration=MULTI_FLOW_DURATION, sampling_interval=SAMPLING_INTERVAL
            ).with_overrides(dynamics=DynamicsSpec())
        ),
        # Traffic coverage: a bare bulk transfer read as iperf reports it,
        # the on-off burst source and the plain CBR UDP source, pinned before
        # the traffic layer moved under repro.workload (byte-identical since).
        "single/iperf_paper": iperf_case(),
        "multi/cross_traffic_perturbation": multi_flow_case(
            cross_traffic_perturbation(
                duration=MULTI_FLOW_DURATION, sampling_interval=SAMPLING_INTERVAL
            )
        ),
        "multi/udp_cbr_mix": multi_flow_case(udp_cbr_mix_config()),
        # AQM/ECN signal plane: a RED+ECN single flow and a CoDel competition,
        # pinned when the pluggable-discipline refactor landed.  Both decline
        # the native kernel bypass, so these keys prove the Python handlers
        # under the compiled event loop match the pure-Python loop exactly.
        "single/lia-red-ecn": single_flow_case("lia", queue_kind="red", ecn=True),
        "multi/aqm_codel_ecn": multi_flow_case(
            aqm_vs_droptail(
                queue_kind="codel",
                ecn=True,
                duration=MULTI_FLOW_DURATION,
                sampling_interval=SAMPLING_INTERVAL,
            )
        ),
    }


def load_golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    golden = compute_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} scenarios)")


if __name__ == "__main__":
    main()
