"""Run unmodified experiment configurations at flow-level fidelity.

These adapters accept the exact :class:`~repro.experiments.harness.ExperimentConfig`
and :class:`~repro.experiments.multiflow.MultiFlowConfig` objects the
packet-level runners take, execute them on :class:`~repro.flowsim.engine.FlowLevelSim`,
and return results of the same shape (:class:`~repro.experiments.harness.ExperimentResult`
/ :class:`~repro.experiments.multiflow.MultiFlowResult`) -- per-path throughput
time series, fairness reports, convergence metrics -- so everything downstream
(validation, campaign records, plots) works on either backend.  Both adapters
build and run through one step, :func:`_simulate`; a single connection is its
one ``mptcp`` flow, as at packet level.

Fidelity mapping:

* an MPTCP connection is one multi-route flow; *coupled* algorithms
  (LIA/OLIA/BALIA/wVegas) weight each subflow ``1/n`` so the connection
  claims a single TCP-fair share of a shared bottleneck, uncoupled
  CUBIC/Reno subflows each claim a full share;
* single-path TCP is a greedy unit-weight flow, UDP a capped
  non-responsive flow, and an on-off source a train of capped
  non-responsive mini-flows (one per ON burst);
* dynamics events translate to capacity changes (`LinkRateChange`,
  `LinkDown`/`LinkUp`, `LossBurst` as a transient capacity scale);
  `LinkDelayChange` is a no-op -- flow-level rates do not see RTT;
* packet-scale parameters (buffers, queue sizes) have no flow-level
  equivalent and are ignored; ``mss``, ``scheduler`` and ``join_delay`` are
  checked on both backends (one :class:`~repro.experiments.multiflow.FlowSpec`
  contract, resolved once before either builds anything) but ignored by the
  fluid arithmetic.

What you lose is microstructure -- slow-start transients, RTT unfairness,
retransmissions -- which is exactly what :mod:`repro.measure.validation`'s
cross-fidelity comparison quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..measure.convergence import analyze_convergence
from ..measure.flowstats import ConnectionStats, SubflowStats
from ..measure.signalplane import modeled_signal_plane
from ..netsim.dynamics import (
    DynamicsSpec,
    LinkDelayChange,
    LinkDown,
    LinkRateChange,
    LinkUp,
    LossBurst,
)
from .engine import (
    FlowDescriptor,
    FlowLevelResult,
    FlowLevelSim,
    FlowOutcome,
    segments_to_timeseries,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..experiments.harness import ExperimentConfig, ExperimentResult
    from ..experiments.multiflow import FlowSpec, MultiFlowConfig, MultiFlowResult, _ResolvedFlow
    from ..model.paths import Path
    from ..netsim.topology import Topology
    from ..workload.flowlevel import FlowLevelWorkloadRun

#: Effective-capacity factor of an AQM discipline at flow level: keeping the
#: standing queue short costs a sliver of throughput relative to a brimming
#: drop-tail buffer (CoDel's 5 ms target trims less than RED's mid-threshold
#: operating point).  Deterministic, so campaign sweeps see the same
#: discipline ordering at both fidelities.
AQM_CAPACITY_FACTOR = {"red": 0.97, "codel": 0.99}


def _apply_queue_kind(sim: FlowLevelSim, topology, queue_kind: Optional[str]) -> None:
    """Map an AQM ``queue_kind`` override onto rate-capped link classes."""
    if queue_kind is None:
        return
    factor = AQM_CAPACITY_FACTOR.get(queue_kind)
    if factor is None:
        return
    for spec in topology.links:
        sim.scale_link(spec.src, spec.dst, factor)


def coupled_algorithm(congestion_control: str) -> bool:
    """Whether a congestion-control name denotes a coupled MPTCP algorithm."""
    from ..core.coupled import _multipath_class
    from ..core.coupled.base import CoupledCongestionControl

    return issubclass(_multipath_class(congestion_control), CoupledCongestionControl)


def apply_dynamics(sim: FlowLevelSim, spec: Optional[DynamicsSpec]) -> None:
    """Translate a packet-level dynamics schedule to capacity events.

    Rate changes, outages and loss bursts all move link capacity; delay
    changes have no flow-level observable (rates here are allocation-driven,
    not RTT-driven) and are skipped.
    """
    if spec is None or not spec.schedule:
        return
    for time, event in spec.schedule:
        if isinstance(event, LinkRateChange):
            sim.schedule(
                time,
                sim.set_link_rate,
                event.src,
                event.dst,
                event.rate_mbps,
                bidirectional=event.bidirectional,
            )
        elif isinstance(event, LinkDown):
            sim.schedule(
                time, sim.set_link_down, event.src, event.dst,
                bidirectional=event.bidirectional,
            )
        elif isinstance(event, LinkUp):
            sim.schedule(
                time, sim.set_link_up, event.src, event.dst,
                bidirectional=event.bidirectional,
            )
        elif isinstance(event, LossBurst):
            sim.schedule(
                time, sim.scale_link, event.src, event.dst,
                1.0 - event.loss_rate, bidirectional=event.bidirectional,
            )
            sim.schedule(
                time + event.duration, sim.scale_link, event.src, event.dst,
                1.0, bidirectional=event.bidirectional,
            )
        elif isinstance(event, LinkDelayChange):
            continue
        else:
            raise ConfigurationError(
                f"flow-level backend cannot translate dynamics event {event!r}"
            )


# ------------------------------------------------------------- run_experiment
def run_experiment_flowlevel(config: "ExperimentConfig") -> "ExperimentResult":
    """Flow-level twin of :func:`repro.experiments.harness.run_experiment`."""
    from ..experiments.harness import ExperimentResult, _connection_spec, _dynamics_report

    if config.path_manager is not None:
        raise ConfigurationError(
            "the flow-level backend has no subflow lifecycle; "
            "path_manager scenarios need backend='packet'"
        )
    _, run, (plan,) = _simulate(config, [_connection_spec(config)])
    flow = plan.flow
    outcome = run.flows[flow.name]

    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    tags = tuple(flow.tag_map)
    per_path = {
        tag: outcome.unit_series(
            index, interval, start=start, end=end, label=f"tag {tag}"
        )
        for index, tag in enumerate(tags)
    }
    total = outcome.series(interval, start=start, end=end, label="total")
    convergence = analyze_convergence(total, flow.optimum.total)

    return ExperimentResult(
        config=config,
        per_path_series=per_path,
        total_series=total,
        optimum=flow.optimum,
        convergence=convergence,
        stats=_synthesize_stats(config, flow.system.paths, tags, outcome, config.duration),
        constraint_system=flow.system,
        drops=0,
        events_processed=run.transitions,
        dynamics=_dynamics_report(total, config.dynamics),
        signal_plane=modeled_signal_plane(
            duration=config.duration,
            queue_kind=config.queue_kind or "droptail",
            ecn=config.ecn,
            utilization=convergence.utilization_of_optimum,
            flows=len(tags),
        ),
    )


def _synthesize_stats(
    config: "ExperimentConfig",
    paths: Sequence[Path],
    tags: Tuple[int, ...],
    outcome: FlowOutcome,
    duration: float,
) -> ConnectionStats:
    """A :class:`ConnectionStats` equivalent for a fluid connection.

    Packet-only counters (retransmissions, cwnd, srtt) are identically zero
    or absent at this fidelity.
    """
    subflows = []
    total_bytes = 0
    for index, path in enumerate(paths):
        delivered = sum(
            int(round((seg_end - seg_start) * rate * 1e6 / 8.0))
            for seg_start, seg_end, rate in outcome.segments[index]
        )
        total_bytes += delivered
        subflows.append(
            SubflowStats(
                subflow_id=index + 1,
                name=path.name or f"subflow-{index + 1}",
                tag=tags[index],
                is_default=index == config.default_path_index,
                bytes_acked=delivered,
                mean_throughput_mbps=delivered * 8.0 / duration / 1e6,
                retransmissions=0,
                timeouts=0,
                fast_retransmits=0,
                final_cwnd_segments=0.0,
                srtt_ms=None,
            )
        )
    return ConnectionStats(
        congestion_control=config.congestion_control,
        scheduler=config.scheduler,
        duration=duration,
        bytes_delivered=outcome.bytes_delivered,
        total_throughput_mbps=outcome.bytes_delivered * 8.0 / duration / 1e6,
        retransmissions=0,
        duplicate_bytes=0,
        subflows=subflows,
    )


# -------------------------------------------------------------- run_multiflow
class _FlowPlan:
    """The engine flows one resolved flow became: their names, or the workload
    run that adds them mid-run."""

    __slots__ = ("flow", "engine_names", "workload_run")

    def __init__(self, flow: "_ResolvedFlow") -> None:
        self.flow = flow
        self.engine_names: List[str] = []
        self.workload_run: Optional[FlowLevelWorkloadRun] = None


def _simulate(
    config, specs: Sequence["FlowSpec"]
) -> Tuple[Topology, FlowLevelResult, List[_FlowPlan]]:
    """Resolve ``specs`` against ``config`` (either configuration class),
    build its fluid network with one plan per flow, then run it: the
    flow-level build step behind both front doors."""
    from ..experiments.multiflow import _resolve

    topology, flows = _resolve(config, specs)
    sim = FlowLevelSim(
        topology, allocator=config.flow_allocator, record_timeseries=True
    )
    _apply_queue_kind(sim, topology, config.queue_kind)
    plans = [_plan_flow(flow, sim) for flow in flows]
    apply_dynamics(sim, config.dynamics)
    return topology, sim.run(config.duration), plans


def run_multiflow_flowlevel(config: "MultiFlowConfig") -> "MultiFlowResult":
    """Flow-level twin of :func:`repro.experiments.multiflow.run_multiflow`."""
    from ..experiments.multiflow import MultiFlowResult, _report

    topology, run, plans = _simulate(config, config.flows)

    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    measured = []
    for plan in plans:
        flow = plan.flow
        records = None
        engine_names = plan.engine_names
        if plan.workload_run is not None:
            # Workload transfers are added mid-run from completion callbacks,
            # so the engine names are only known afterwards.
            prefix = plan.workload_run.prefix
            engine_names = [name for name in run.flows if name.startswith(prefix)]
            records = plan.workload_run.records
        segments_by_tag: Dict[int, list] = {}
        delivered = 0
        for engine_name in engine_names:
            outcome = run.flows[engine_name]
            delivered += outcome.bytes_delivered
            for unit, tag in zip(outcome.segments, outcome.tags):
                segments_by_tag.setdefault(tag, []).extend(unit)
        series = segments_to_timeseries(
            [seg for segs in segments_by_tag.values() for seg in segs],
            interval, start=start, end=end, label=flow.name,
        )
        per_path = {
            original: segments_to_timeseries(
                segments_by_tag.get(original, []),
                interval, start=start, end=end, label=f"tag {installed}",
            )
            for original, installed in flow.tag_map.items()
        }
        measured.append((flow, series, per_path, delivered, 0, None, records))

    fairness, results = _report(config, topology, measured)
    responsive_flows = sum(plan.flow.responsive for plan in plans)
    bottleneck_utilization = fairness.bottleneck_utilization
    if bottleneck_utilization is None:
        # No declared bottleneck: greedy responsive flows saturate whatever
        # the binding constraint is, so treat the run as congested.
        bottleneck_utilization = 1.0 if responsive_flows else 0.0
    return MultiFlowResult(
        config=config,
        flows=results,
        fairness=fairness,
        drops=0,
        events_processed=run.transitions,
        signal_plane=modeled_signal_plane(
            duration=config.duration,
            queue_kind=config.queue_kind or "droptail",
            ecn=config.ecn,
            utilization=bottleneck_utilization,
            flows=responsive_flows,
        ),
    )


def _plan_flow(flow: "_ResolvedFlow", sim: FlowLevelSim) -> _FlowPlan:
    """Lower one resolved flow to engine flows on ``sim``."""
    plan = _FlowPlan(flow)
    spec = flow.spec
    if spec.kind == "workload":
        from ..workload.flowlevel import FlowLevelWorkloadRun

        plan.workload_run = FlowLevelWorkloadRun(
            sim, flow.workload_plan, flow.paths, prefix=f"{flow.name}/"
        )
        plan.workload_run.install()
        return plan

    routes = tuple(tuple(path.nodes) for path in flow.paths)
    tags = tuple(path.tag for path in flow.paths)
    if spec.kind == "onoff":
        # One capped non-responsive mini-flow per ON burst.
        period = spec.on_duration + spec.off_duration
        descriptors, burst_start = [], spec.start
        while burst_start < flow.stop:
            descriptors.append(
                FlowDescriptor(
                    name=f"{flow.name}#on{len(descriptors)}",
                    routes=routes,
                    start=burst_start,
                    stop=min(burst_start + spec.on_duration, flow.stop),
                    cap_mbps=spec.rate_mbps,
                    responsive=False,
                    tags=tags,
                    kind="onoff",
                )
            )
            burst_start = spec.start + len(descriptors) * period
    elif spec.kind == "udp":
        descriptors = []
        # A source that starts at or after its stop (the run's end) sends nothing.
        if spec.start < flow.stop:
            descriptors.append(
                FlowDescriptor(
                    name=flow.name,
                    routes=routes,
                    start=spec.start,
                    stop=flow.stop,
                    cap_mbps=spec.rate_mbps,
                    responsive=False,
                    tags=tags,
                    kind="udp",
                )
            )
    else:  # mptcp / tcp
        descriptors = [
            FlowDescriptor(
                name=flow.name,
                routes=routes,
                start=spec.start,
                size_bytes=spec.total_bytes,
                coupled=spec.kind == "mptcp" and coupled_algorithm(flow.congestion_control),
                tags=tags,
                kind=spec.kind,
            )
        ]
    for descriptor in descriptors:
        sim.add_flow(descriptor)
        plan.engine_names.append(descriptor.name)
    return plan
