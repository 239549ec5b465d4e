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
* packet-scale parameters (``mss``, ``scheduler``, ``join_delay``,
  buffers, queue sizes) have no flow-level equivalent and are ignored.

What you lose is microstructure -- slow-start transients, RTT unfairness,
retransmissions -- which is exactly what :mod:`repro.measure.validation`'s
cross-fidelity comparison quantifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..measure.convergence import analyze_convergence
from ..measure.fairness import analyze_fairness
from ..measure.fct import FctReport
from ..measure.flowstats import ConnectionStats, SubflowStats
from ..measure.sampling import TimeSeries
from ..measure.signalplane import modeled_signal_plane
from ..model.bottleneck import build_constraints
from ..model.lp import max_total_throughput
from ..model.paths import PathSet
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
    from ..experiments.multiflow import FlowSpec, MultiFlowConfig, MultiFlowResult
    from ..model.bottleneck import ConstraintSystem
    from ..model.lp import LpResult
    from ..model.paths import Path
    from ..netsim.topology import Topology

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
    from ..core.coupled import MULTIPATH_ALGORITHMS
    from ..core.coupled.base import CoupledCongestionControl

    try:
        algorithm = MULTIPATH_ALGORITHMS[congestion_control.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown multipath congestion control {congestion_control!r}; "
            f"choose from {sorted(MULTIPATH_ALGORITHMS)}"
        ) from None
    return issubclass(algorithm, CoupledCongestionControl)


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
    outcome = run.flows[plan.name]

    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    tags = tuple(plan.tag_map)
    per_path = {
        tag: outcome.unit_series(
            index, interval, start=start, end=end, label=f"tag {tag}"
        )
        for index, tag in enumerate(tags)
    }
    total = outcome.series(interval, start=start, end=end, label="total")
    convergence = analyze_convergence(total, plan.optimum.total)

    return ExperimentResult(
        config=config,
        per_path_series=per_path,
        total_series=total,
        optimum=plan.optimum,
        convergence=convergence,
        stats=_synthesize_stats(config, plan.system.paths, tags, outcome, config.duration),
        constraint_system=plan.system,
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
    """How one :class:`FlowSpec` maps onto engine flows."""

    __slots__ = (
        "spec", "name", "flow_id", "engine_names", "tag_map", "optimum_mbps",
        "system", "optimum", "workload_run", "workload_plan",
    )

    def __init__(self, spec: "FlowSpec", name: str, flow_id: int) -> None:
        self.spec = spec
        self.name = name
        self.flow_id = flow_id
        self.engine_names: List[str] = []
        self.tag_map: Dict[int, int] = {}
        self.optimum_mbps: Optional[float] = None
        # The LP of an mptcp or workload flow's paths, solved once at build time.
        self.system: Optional[ConstraintSystem] = None
        self.optimum: Optional[LpResult] = None
        self.workload_run = None  # FlowLevelWorkloadRun of a workload flow
        self.workload_plan = None


def _simulate(
    config, specs: Sequence["FlowSpec"]
) -> Tuple[Topology, FlowLevelResult, List[_FlowPlan]]:
    """Build ``config``'s fluid network (either configuration class) with one
    plan per spec, then run it: the flow-level build step behind both front doors."""
    from ..experiments.multiflow import TAG_STRIDE

    if not specs:
        raise ConfigurationError("a multi-flow run needs at least one flow")
    topology, base_paths = config.build_scenario()
    sim = FlowLevelSim(
        topology, allocator=config.flow_allocator, record_timeseries=True
    )
    _apply_queue_kind(sim, topology, config.queue_kind)

    plans: List[_FlowPlan] = []
    for index, spec in enumerate(specs):
        name = spec.name or f"{spec.kind}-{index + 1}"
        if any(plan.name == name for plan in plans):
            raise ConfigurationError(f"duplicate flow name {name!r}")
        plan = _FlowPlan(spec, name, flow_id=index + 1)
        _plan_flow(plan, sim, topology, base_paths, config, index * TAG_STRIDE)
        plans.append(plan)

    apply_dynamics(sim, config.dynamics)
    return topology, sim.run(config.duration), plans


def run_multiflow_flowlevel(config: "MultiFlowConfig") -> "MultiFlowResult":
    """Flow-level twin of :func:`repro.experiments.multiflow.run_multiflow`."""
    from ..experiments.multiflow import FlowResult, MultiFlowResult

    topology, run, plans = _simulate(config, config.flows)

    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    measured: List[Tuple[_FlowPlan, TimeSeries, Dict[int, TimeSeries], int]] = []
    for plan in plans:
        if plan.workload_run is not None:
            # Workload transfers are added mid-run from completion callbacks,
            # so the engine names are only known afterwards.
            prefix = plan.workload_run.prefix
            engine_names = [name for name in run.flows if name.startswith(prefix)]
        else:
            engine_names = plan.engine_names
        outcomes = [run.flows[engine_name] for engine_name in engine_names]
        segments_by_tag: Dict[int, list] = {}
        delivered = 0
        for outcome in outcomes:
            delivered += outcome.bytes_delivered
            for unit, tag in zip(outcome.segments, outcome.tags):
                segments_by_tag.setdefault(tag, []).extend(unit)
        series = segments_to_timeseries(
            [seg for segs in segments_by_tag.values() for seg in segs],
            interval, start=start, end=end, label=plan.name,
        )
        per_path = {
            original: segments_to_timeseries(
                segments_by_tag.get(original, []),
                interval, start=start, end=end, label=f"tag {installed}",
            )
            for original, installed in plan.tag_map.items()
        }
        measured.append((plan, series, per_path, delivered))

    bottleneck_capacity = None
    if config.bottleneck_link is not None:
        bottleneck_capacity = topology.capacity_of(*config.bottleneck_link)
    fairness = analyze_fairness(
        {plan.name: series for plan, series, _, _ in measured},
        {plan.name: plan.spec.kind for plan, _, _, _ in measured},
        bottleneck_capacity_mbps=bottleneck_capacity,
    )
    results = [
        FlowResult(
            spec=plan.spec,
            name=plan.name,
            kind=plan.spec.kind,
            flow_id=plan.flow_id,
            series=series,
            per_path_series=per_path,
            mean_mbps=fairness.per_flow_mbps[plan.name],
            bytes_delivered=delivered,
            retransmissions=0,
            tag_map=dict(plan.tag_map),
            optimum_mbps=plan.optimum_mbps,
            stats=None,
            fct=(
                None
                if plan.workload_run is None
                else FctReport.from_records(
                    plan.workload_run.records,
                    offered=plan.workload_plan.total_transfers,
                )
            ),
        )
        for plan, series, per_path, delivered in measured
    ]
    responsive_flows = sum(
        1 for plan in plans if plan.spec.kind in ("mptcp", "tcp", "workload")
    )
    if bottleneck_capacity:
        total_mbps = sum(fairness.per_flow_mbps.values())
        bottleneck_utilization = total_mbps / bottleneck_capacity
    else:
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


def _plan_flow(
    plan: _FlowPlan,
    sim: FlowLevelSim,
    topology,
    base_paths: PathSet,
    config,
    tag_base: int,
) -> None:
    from ..experiments.multiflow import _coerce_path_objects, _single_path_for

    spec = plan.spec
    if spec.kind in ("mptcp", "workload"):
        raw = (
            _coerce_path_objects(spec.paths)
            if spec.paths is not None
            else list(base_paths)
        )
        tags = tuple(
            path.tag if path.tag is not None else index + 1
            for index, path in enumerate(raw)
        )
        plan.tag_map = {tag: tag_base + tag for tag in tags}
        plan.system = build_constraints(topology, raw)
        plan.optimum = max_total_throughput(plan.system)
        plan.optimum_mbps = plan.optimum.total

    if spec.kind == "mptcp":
        coupled = coupled_algorithm(spec.congestion_control or "lia")
        sim.add_flow(
            FlowDescriptor(
                name=plan.name,
                routes=tuple(tuple(path.nodes) for path in raw),
                start=spec.start,
                size_bytes=spec.total_bytes,
                coupled=coupled,
                tags=tags,
                kind="mptcp",
            )
        )
        plan.engine_names = [plan.name]
        return

    if spec.kind == "workload":
        from ..workload.flowlevel import FlowLevelWorkloadRun

        workload_plan = spec.workload.compile(len(raw))
        workload_run = FlowLevelWorkloadRun(
            sim, workload_plan, raw, prefix=f"{plan.name}/"
        )
        workload_run.install()
        plan.workload_run = workload_run
        plan.workload_plan = workload_plan
        return

    path = _single_path_for(spec, base_paths)
    tag = path.tag if path.tag is not None else 1
    plan.tag_map = {tag: tag_base + tag}
    route = tuple(path.nodes)

    if spec.kind == "tcp":
        sim.add_flow(
            FlowDescriptor(
                name=plan.name,
                routes=(route,),
                start=spec.start,
                size_bytes=spec.total_bytes,
                tags=(tag,),
                kind="tcp",
            )
        )
        plan.engine_names = [plan.name]
        plan.optimum_mbps = path.capacity(topology)
        return

    stop_at = spec.stop if spec.stop is not None else config.duration
    plan.optimum_mbps = min(spec.rate_mbps, path.capacity(topology))
    if spec.kind == "udp":
        sim.add_flow(
            FlowDescriptor(
                name=plan.name,
                routes=(route,),
                start=spec.start,
                stop=stop_at,
                cap_mbps=spec.rate_mbps,
                responsive=False,
                tags=(tag,),
                kind="udp",
            )
        )
        plan.engine_names = [plan.name]
        return

    # On-off: one capped non-responsive mini-flow per ON burst.
    period = spec.on_duration + spec.off_duration
    if period <= 0:
        raise ConfigurationError(
            f"onoff flow {plan.name!r} needs a positive on+off period"
        )
    burst_start = spec.start
    burst = 0
    while burst_start < stop_at:
        engine_name = f"{plan.name}#on{burst}"
        sim.add_flow(
            FlowDescriptor(
                name=engine_name,
                routes=(route,),
                start=burst_start,
                stop=min(burst_start + spec.on_duration, stop_at),
                cap_mbps=spec.rate_mbps,
                responsive=False,
                tags=(tag,),
                kind="onoff",
            )
        )
        plan.engine_names.append(engine_name)
        burst += 1
        burst_start = spec.start + burst * period
