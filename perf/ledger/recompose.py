"""The user-facing pipelines rebuilt from public calls, with spans between layers.

``run_experiment``, ``run_multiflow`` and one campaign point are single
public functions, so a span placed around them cannot say where the time
went.  This module performs the same public calls in the same order and
wraps each layer boundary in a span.  It must stay an exact copy of the
behaviour users get: the traced run compares every result digest with the
one the real function produced and fails loudly on any difference (see
``measure.Checker``), so the ledger cannot drift from the code path users run.

Only what the benchmark's scenes need is rebuilt: the packet backend, and
``mptcp`` / ``tcp`` flows in multi-flow runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.connection import MptcpConnection
from repro.experiments import (
    CampaignPoint,
    ExperimentConfig,
    ExperimentResult,
    FlowResult,
    FlowSpec,
    MultiFlowConfig,
    MultiFlowResult,
)
from repro.experiments.multiflow import TAG_STRIDE
from repro.kernel import maybe_run_network
from repro.measure.convergence import analyze_convergence
from repro.measure.dynamics import analyze_dynamics
from repro.measure.fairness import analyze_fairness
from repro.measure.flowstats import connection_stats
from repro.measure.report import sanitize_metrics
from repro.measure.sampling import per_tag_timeseries, throughput_timeseries, total_timeseries
from repro.measure.signalplane import signal_plane_report
from repro.measure.validation import validate_experiment, validate_multiflow
from repro.model.bottleneck import build_constraints
from repro.model.lp import max_total_throughput
from repro.model.paths import Path
from repro.netsim.network import Network
from repro.tcp.connection import TcpConnection

from .tracing import Tracer


class RecompositionError(RuntimeError):
    """The rebuilt pipeline no longer matches the function users call."""


def run_network(network: Network, duration: float, tracer: Tracer) -> None:
    """``Network.run`` in its two steps, so the bypass decision can be counted."""
    until = network.sim.now + duration
    with tracer.span("netsim.run"):
        if maybe_run_network(network, until) is None:
            tracer.count("kernel.bypass_declined")
            network.sim.run(until=until)
        else:
            tracer.count("kernel.bypass_taken")


def count_network(network: Network, tracer: Tracer) -> None:
    """Counts read from the network's public stats objects after a run."""
    tracer.count("netsim.engine.events", network.sim.events_processed)
    for link in network.links.values():
        tracer.count("netsim.link.packets_sent", link.stats.packets_sent)
        tracer.count("netsim.link.packets_dropped", link.drops)
    totals = network.signal_plane_totals()
    for name in ("ecn_marks", "early_drops", "full_drops"):
        tracer.count(f"netsim.queues.{name}", totals[name])
    tracer.count("netsim.queues.dequeued", totals["dequeued"])
    tracer.count("netsim.queues.delay_sum_s", totals["queue_delay_sum"])


def count_senders(senders, mss: int, tracer: Tracer) -> None:
    for sender in senders:
        tracer.count("tcp.retransmissions", sender.stats.retransmissions)
        tracer.count("tcp.timeouts", sender.stats.timeouts)
        tracer.count("tcp.segments_delivered", sender.stats.bytes_acked // mss)


def count_connection(connection: MptcpConnection, mss: int, tracer: Tracer) -> None:
    tracer.count("core.subflows", len(connection.subflows))
    tracer.count("core.duplicate_bytes", connection.reassembler.duplicate_bytes)
    count_senders([sf.sender for sf in connection.subflows if sf.sender], mss, tracer)


def traced_experiment(config: ExperimentConfig, tracer: Tracer) -> ExperimentResult:
    """``run_experiment`` (packet backend), one span per layer boundary."""
    if config.backend != "packet":
        raise RecompositionError("only the packet backend is rebuilt")
    with tracer.span("topologies.build"):
        topology, paths = config.build_scenario()
        if config.queue_kind is not None:
            topology.set_queue_kind(config.queue_kind)
    with tracer.span("netsim.network.setup"):
        network = Network(topology)
        capture = network.attach_capture(paths.dst, data_only=True)
    with tracer.span("core.connect"):
        connection = MptcpConnection(
            network,
            paths.src,
            paths.dst,
            None if config.path_manager is not None else paths,
            congestion_control=config.congestion_control,
            scheduler=config.scheduler,
            path_manager=config.path_manager,
            default_path_index=config.default_path_index,
            mss=config.mss,
            ecn=config.ecn,
            total_bytes=config.total_bytes,
            send_buffer_bytes=config.send_buffer_bytes,
            join_delay=config.join_delay,
        )
        connection.start(at=0.0)
    if config.dynamics is not None:
        with tracer.span("netsim.dynamics.apply"):
            config.dynamics.apply(network)
    run_network(network, config.duration, tracer)

    start, end = config.warmup, config.duration
    with tracer.span("measure.sampling"):
        per_path = per_tag_timeseries(
            capture, config.sampling_interval, start=start, end=end,
            tags=[path.tag for path in paths],
        )
        total = total_timeseries(capture, config.sampling_interval, start=start, end=end)
    with tracer.span("model.optimum"):
        system = build_constraints(topology, paths)
        optimum = max_total_throughput(system)
    with tracer.span("measure.stats"):
        convergence = analyze_convergence(total, optimum.total)
        stats = connection_stats(connection, config.duration)
        dynamics_report = None
        spec = config.dynamics
        if spec is not None and (spec.measurement_epochs() or spec.capacity_profile):
            dynamics_report = analyze_dynamics(total, spec)
        signal_plane = signal_plane_report(network, config.duration)

    count_network(network, tracer)
    tracer.count("netsim.capture.records", len(capture))
    count_connection(connection, config.mss, tracer)
    return ExperimentResult(
        config=config,
        per_path_series=per_path,
        total_series=total,
        optimum=optimum,
        convergence=convergence,
        stats=stats,
        constraint_system=system,
        drops=network.total_drops(),
        events_processed=network.sim.events_processed,
        dynamics=dynamics_report,
        signal_plane=signal_plane,
    )


@dataclass
class _Flow:
    """One instantiated flow of a rebuilt multi-flow run."""

    spec: FlowSpec
    name: str
    flow_id: int
    capture: object
    tag_map: Dict[int, int]  # original path tag -> tag installed for this flow
    optimum_mbps: float
    connection: Optional[MptcpConnection] = None
    tcp: Optional[TcpConnection] = None


def traced_multiflow(config: MultiFlowConfig, tracer: Tracer) -> MultiFlowResult:
    """``run_multiflow`` (packet backend, mptcp and tcp flows), one span per layer."""
    if config.backend != "packet" or not config.flows:
        raise RecompositionError("only non-empty packet-backend runs are rebuilt")
    with tracer.span("topologies.build"):
        topology, base_paths = config.build_scenario()
        if config.queue_kind is not None:
            topology.set_queue_kind(config.queue_kind)
    with tracer.span("netsim.network.setup"):
        network = Network(topology)

    flows: List[_Flow] = []
    for index, spec in enumerate(config.flows):
        name = spec.name or f"{spec.kind}-{index + 1}"
        flow_id, tag_base = index + 1, index * TAG_STRIDE
        src = spec.src or base_paths.src
        dst = spec.dst or base_paths.dst
        with tracer.span("netsim.network.setup"):
            capture = network.attach_capture(dst, data_only=True, flow_id=flow_id)
        if spec.kind == "mptcp":
            raw = list(spec.paths) if spec.paths is not None else list(base_paths)
            if not all(isinstance(path, Path) for path in raw):
                raise RecompositionError("mptcp flow paths must be Path objects")
            original = [p.tag if p.tag is not None else i + 1 for i, p in enumerate(raw)]
            paths = [
                Path(p.nodes, tag=tag_base + tag, name=p.name) for p, tag in zip(raw, original)
            ]
            with tracer.span("core.connect"):
                connection = MptcpConnection(
                    network,
                    src,
                    dst,
                    paths,
                    congestion_control=spec.congestion_control or "lia",
                    scheduler=spec.scheduler,
                    default_path_index=spec.default_path_index,
                    mss=spec.mss,
                    ecn=config.ecn,
                    total_bytes=spec.total_bytes,
                    send_buffer_bytes=spec.send_buffer_bytes,
                    join_delay=spec.join_delay,
                    flow_id=flow_id,
                )
            with tracer.span("model.optimum"):
                optimum = max_total_throughput(build_constraints(topology, paths)).total
            with tracer.span("core.connect"):
                connection.start(at=spec.start)
            tag_map = {tag: installed.tag for tag, installed in zip(original, paths)}
            flows.append(
                _Flow(spec, name, flow_id, capture, tag_map, optimum, connection=connection)
            )
        elif spec.kind == "tcp" and spec.paths is None:
            path = base_paths[spec.path_index]
            original_tag = path.tag if path.tag is not None else 1
            tag = tag_base + original_tag
            with tracer.span("netsim.network.setup"):
                network.install_path(path.nodes, tag)
            with tracer.span("tcp.connect"):
                tcp = TcpConnection(
                    network,
                    src,
                    dst,
                    cc=spec.congestion_control or "cubic",
                    tag=tag,
                    mss=spec.mss,
                    ecn=config.ecn,
                    total_bytes=spec.total_bytes,
                    flow_id=flow_id,
                )
                tcp.start(at=spec.start)
            flows.append(
                _Flow(
                    spec, name, flow_id, capture, {original_tag: tag},
                    path.capacity(topology), tcp=tcp,
                )
            )
        else:
            raise RecompositionError(f"flow kind {spec.kind!r} is not rebuilt")

    if config.dynamics is not None:
        with tracer.span("netsim.dynamics.apply"):
            config.dynamics.apply(network)
    run_network(network, config.duration, tracer)

    start, end, interval = config.warmup, config.duration, config.sampling_interval
    series_of: Dict[str, object] = {}
    per_path_of: Dict[str, Dict[int, object]] = {}
    with tracer.span("measure.sampling"):
        for flow in flows:
            series_of[flow.name] = throughput_timeseries(
                flow.capture, interval, start=start, end=end, label=flow.name
            )
            namespaced = per_tag_timeseries(
                flow.capture, interval, start=start, end=end, tags=list(flow.tag_map.values())
            )
            per_path_of[flow.name] = {
                original: namespaced[installed] for original, installed in flow.tag_map.items()
            }
    with tracer.span("measure.stats"):
        capacity = None
        if config.bottleneck_link is not None:
            capacity = topology.capacity_of(*config.bottleneck_link)
        fairness = analyze_fairness(
            series_of,
            {flow.name: flow.spec.kind for flow in flows},
            bottleneck_capacity_mbps=capacity,
        )
        results = []
        for flow in flows:
            if flow.connection is not None:
                delivered = flow.connection.bytes_delivered
                retransmissions = flow.connection.total_retransmissions()
                stats = connection_stats(flow.connection, config.duration)
            else:
                delivered = flow.tcp.bytes_acked
                retransmissions = flow.tcp.sender.stats.retransmissions
                stats = None
            results.append(
                FlowResult(
                    spec=flow.spec,
                    name=flow.name,
                    kind=flow.spec.kind,
                    flow_id=flow.flow_id,
                    series=series_of[flow.name],
                    per_path_series=per_path_of[flow.name],
                    mean_mbps=fairness.per_flow_mbps[flow.name],
                    bytes_delivered=delivered,
                    retransmissions=retransmissions,
                    tag_map=dict(flow.tag_map),
                    optimum_mbps=flow.optimum_mbps,
                    stats=stats,
                    fct=None,
                )
            )
        signal_plane = signal_plane_report(network, config.duration)

    count_network(network, tracer)
    for flow in flows:
        tracer.count("netsim.capture.records", len(flow.capture))
        if flow.connection is not None:
            count_connection(flow.connection, flow.spec.mss, tracer)
        else:
            count_senders([flow.tcp.sender], flow.spec.mss, tracer)
    return MultiFlowResult(
        config=config,
        flows=results,
        fairness=fairness,
        drops=network.total_drops(),
        events_processed=network.sim.events_processed,
        signal_plane=signal_plane,
    )


def traced_point(point: CampaignPoint, tracer: Tracer) -> Tuple[dict, object]:
    """One campaign point as the campaign drivers execute it: run, validate, record.

    Returns the JSON-safe store record and the point's validation.
    """
    with tracer.span("experiments.point"):
        if isinstance(point.config, MultiFlowConfig):
            result = traced_multiflow(point.config, tracer)
            with tracer.span("measure.validation"):
                validation = validate_multiflow(result)
        else:
            result = traced_experiment(point.config, tracer)
            with tracer.span("measure.validation"):
                validation = validate_experiment(result)
        with tracer.span("experiments.summary"):
            record = sanitize_metrics(
                {
                    "key": point.key,
                    "params": dict(point.params),
                    "status": "ok",
                    "summary": result.summary(),
                    "validation": validation.as_dict(),
                }
            )
    return record, validation
