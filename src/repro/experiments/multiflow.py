"""Multi-flow competition runner: several flows sharing one network.

The single-flow harness (:mod:`repro.experiments.harness`) reproduces the
paper's measurement: one MPTCP connection alone on the topology.  The
fairness questions behind coupled congestion control -- does an MPTCP
connection take more of a shared bottleneck than a single TCP flow?  how do
two MPTCP connections split capacity?  how does cross-traffic perturb the
rate search? -- need *competition*: several traffic sources placed on the
same network and measured per flow.

:class:`FlowSpec` declares one traffic source (MPTCP connection, single-path
TCP flow, constant-rate UDP or bursty on-off cross-traffic),
:class:`MultiFlowConfig` a set of them on a topology, and
:func:`run_multiflow` builds the network, gives every flow its own tag
namespace and receiver-side capture, runs the simulation and post-processes
per-flow throughput series plus a :class:`~repro.measure.fairness.FairnessReport`.
Whatever about a flow does not depend on the backend -- its checks, name,
flow id, tag namespace, default controller and LP -- is resolved once, by
:func:`_resolve`, before either backend builds anything; each backend then
only lowers the resolved flows to its engine objects, and :func:`_report`
turns either's measurements into the fairness report and the flow results.
The build-and-run step, :func:`_simulate`, is the packet backend's only one:
the single-flow harness runs its connection through it as one ``mptcp`` flow.
It also owns the run's end of life: the network is closed and the flows
released when its ``with`` block exits, after the result is built, so the
graph is freed by reference counting when the front door returns.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.connection import MptcpConnection
from ..errors import ConfigurationError
from ..measure.flowstats import ConnectionStats, connection_stats
from ..measure.sampling import TimeSeries, per_tag_timeseries, throughput_timeseries
from ..measure.signalplane import SignalPlaneReport, signal_plane_report
from ..model.bottleneck import build_constraints
from ..model.lp import max_total_throughput
from ..model.paths import Path, PathSet
from ..netsim.network import Network
from ..netsim.topology import Topology
from ..tcp.connection import TcpConnection
from ..topologies.paper import paper_scenario
from ..units import BACKENDS, DEFAULT_MSS

if TYPE_CHECKING:  # pragma: no cover - each is loaded where a flow or a result needs it
    from ..core.path_manager import PathManager
    from ..measure.fairness import FairnessReport
    from ..measure.fct import FctReport
    from ..measure.validation import BackendComparison, PointValidation
    from ..model.bottleneck import ConstraintSystem
    from ..model.lp import LpResult
    from ..netsim.dynamics import DynamicsSpec
    from ..workload.spec import WorkloadSpec

ScenarioBuilder = Callable[[], Tuple[Topology, PathSet]]

FLOW_KINDS = ("mptcp", "tcp", "udp", "onoff", "workload")

#: Tag stride between flows: flow ``i`` installs its paths under tags
#: ``i * TAG_STRIDE + original_tag``, so two flows pinning *different* paths
#: between the same hosts can never collide in the shared tag-routing table.
TAG_STRIDE = 100


@dataclass
class FlowSpec:
    """Declarative description of one traffic source in a multi-flow run.

    Parameters
    ----------
    kind:
        ``"mptcp"`` (a multipath connection), ``"tcp"`` (single-path TCP),
        ``"udp"`` (constant-bit-rate cross-traffic), ``"onoff"`` (bursty
        cross-traffic) or ``"workload"`` (a whole session population
        compiled from ``workload``; session arrival times come from the
        workload spec, so ``start`` is ignored).
    name:
        Flow name used in results and fairness reports (auto-generated when
        empty).
    paths:
        For ``mptcp``: the subflow paths (defaults to the scenario's path
        set).  For the single-path kinds: at most one pinned path; when
        omitted the scenario path selected by ``path_index`` is used.
    path_index:
        For single-path kinds without explicit ``paths``: which of the
        scenario's paths carries this flow (default: the first).
    src, dst:
        Endpoints; default to the scenario path set's endpoints.
    start, stop:
        Start time, and stop time for the unreliable sources (``udp`` /
        ``onoff`` only; TCP-based flows are bounded by ``total_bytes``).
    rate_mbps, on_duration, off_duration:
        Source parameters for ``udp`` / ``onoff`` flows.

    Checks
    ------
    One contract, the same on both backends; every check runs before
    either backend builds anything.

    At declaration (``FlowSpec(...)``; no scenario needed):

    * ``kind`` is one of :data:`FLOW_KINDS`; a ``workload`` flow has its
      ``workload``;
    * ``start >= 0``, and ``stop``, when given, is after ``start``;
    * ``join_delay >= 0``; ``mss`` is positive, and ``total_bytes`` and
      ``send_buffer_bytes`` when given;
    * ``udp`` / ``onoff``: ``rate_mbps`` is positive; ``onoff``:
      ``on_duration`` is positive and ``off_duration >= 0``.

    At resolution against the run's scenario (``run_multiflow`` and
    ``run_experiment``, before a ``Network`` or ``FlowLevelSim`` exists):

    * each flow's name (given or generated) is unique;
    * a single-path kind has exactly one path -- its ``paths``, or the
      scenario path ``path_index`` names -- and ``mptcp`` / ``workload``
      at least one;
    * every path runs from the flow's ``src`` to its ``dst``;
    * every path tag is in ``1..TAG_STRIDE - 1`` (the flow's namespace),
      and no two of a flow's paths share one;
    * ``mptcp``: ``default_path_index`` names one of its paths, and
      ``scheduler`` is a registered scheduler;
    * the controller, after the kind's default is filled in, is registered:
      ``mptcp`` in the multipath registry (default ``"lia"``), ``tcp`` and
      ``workload`` in the single-path one (default ``"cubic"``).
    """

    kind: str = "mptcp"
    name: str = ""
    paths: Union[PathSet, Sequence[Path], Sequence[Sequence[str]], None] = None
    path_index: int = 0
    src: Optional[str] = None
    dst: Optional[str] = None
    #: ``None`` picks the kind's default: "lia" for mptcp, "cubic" for tcp
    #: and workload.
    congestion_control: Optional[str] = None
    scheduler: str = "minrtt"
    default_path_index: int = 0
    mss: int = DEFAULT_MSS
    total_bytes: Optional[int] = None
    send_buffer_bytes: Optional[int] = None
    join_delay: float = 0.0
    start: float = 0.0
    stop: Optional[float] = None
    rate_mbps: float = 10.0
    on_duration: float = 0.5
    off_duration: float = 0.5
    #: The offered load of a ``kind="workload"`` flow.
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN fails each check too.
        if self.kind not in FLOW_KINDS:
            raise ConfigurationError(
                f"unknown flow kind {self.kind!r}; choose from {FLOW_KINDS}"
            )
        if self.kind == "workload" and self.workload is None:
            raise ConfigurationError("a workload flow needs a WorkloadSpec")
        if not self.start >= 0:
            raise ConfigurationError(f"{self.kind} flow cannot start at t={self.start}")
        if self.stop is not None and not self.stop > self.start:
            raise ConfigurationError(
                f"{self.kind} flow stop t={self.stop} is not after its start t={self.start}"
            )
        if not self.join_delay >= 0:
            raise ConfigurationError(f"join_delay must be >= 0, got {self.join_delay}")
        if not self.mss > 0:
            raise ConfigurationError(f"mss must be positive, got {self.mss}")
        if self.total_bytes is not None and not self.total_bytes > 0:
            raise ConfigurationError(f"total_bytes must be positive, got {self.total_bytes}")
        if self.send_buffer_bytes is not None and not self.send_buffer_bytes > 0:
            raise ConfigurationError(
                f"send_buffer_bytes must be positive, got {self.send_buffer_bytes}"
            )
        if self.kind in ("udp", "onoff") and not self.rate_mbps > 0:
            raise ConfigurationError("UDP rate must be positive")
        if self.kind == "onoff" and not (self.on_duration > 0 and self.off_duration >= 0):
            raise ConfigurationError("on_duration must be positive and off_duration non-negative")


@dataclass
class MultiFlowConfig:
    """Configuration of one multi-flow competition run."""

    name: str = "multiflow"
    scenario: Union[ScenarioBuilder, Tuple[Topology, PathSet], None] = None
    flows: Sequence[FlowSpec] = field(default_factory=list)
    duration: float = 4.0
    sampling_interval: float = 0.1
    warmup: float = 0.0
    paper_variant: str = "as_stated"
    #: Optional ``(src, dst)`` link whose capacity anchors the fairness
    #: report's utilisation figure (the scenario's shared bottleneck).
    bottleneck_link: Optional[Tuple[str, str]] = None
    #: Optional time-varying network events applied before the run; an
    #: empty/None spec costs nothing (static runs stay byte-identical).
    dynamics: Optional[DynamicsSpec] = None
    #: Simulation fidelity: ``"packet"`` (ground truth) or ``"flowlevel"``
    #: (the fluid backend in :mod:`repro.flowsim`, for many-flow scale).
    backend: str = "packet"
    #: Rate-sharing rule for the flow-level backend; ignored at packet level.
    flow_allocator: str = "maxmin"
    #: Queue discipline forced onto every link (``None`` keeps the scenario's
    #: declared disciplines, drop-tail by default).
    queue_kind: Optional[str] = None
    #: ECN-capable transport for every TCP-based flow of the run.
    ecn: bool = False

    def __post_init__(self) -> None:
        from ..netsim.queues import QUEUE_KINDS

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.queue_kind is not None and self.queue_kind not in QUEUE_KINDS:
            raise ConfigurationError(
                f"unknown queue discipline {self.queue_kind!r}; "
                f"choose from {QUEUE_KINDS}"
            )

    def with_overrides(self, **kwargs) -> "MultiFlowConfig":
        return replace(self, **kwargs)

    def build_scenario(self) -> Tuple[Topology, PathSet]:
        if self.scenario is None:
            return paper_scenario(self.paper_variant)
        if callable(self.scenario):
            return self.scenario()
        return self.scenario

    def run(self) -> "MultiFlowResult":
        return run_multiflow(self)


@dataclass
class FlowResult:
    """Post-processed measurement of one flow."""

    spec: FlowSpec
    name: str
    kind: str
    flow_id: int
    series: TimeSeries
    per_path_series: Dict[int, TimeSeries]
    mean_mbps: float
    bytes_delivered: int
    retransmissions: int
    #: Original path tag -> tag installed in this flow's namespace.
    tag_map: Dict[int, int] = field(default_factory=dict)
    optimum_mbps: Optional[float] = None
    stats: Optional[ConnectionStats] = None
    #: FCT report of a ``kind="workload"`` flow (None for the other kinds).
    fct: Optional[FctReport] = None

    def summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "flow_id": self.flow_id,
            "mean_mbps": round(self.mean_mbps, 3),
            "bytes_delivered": self.bytes_delivered,
            "retransmissions": self.retransmissions,
            "optimum_mbps": None if self.optimum_mbps is None else round(self.optimum_mbps, 3),
            "fct": None if self.fct is None else self.fct.as_dict(),
        }


@dataclass
class MultiFlowResult:
    """Everything produced by one multi-flow run."""

    config: MultiFlowConfig
    flows: List[FlowResult]
    fairness: FairnessReport
    drops: int
    events_processed: int
    #: Congestion-signal counters of the run (ECN marks, early/full drops,
    #: queueing delay); None only for results predating the signal plane.
    signal_plane: Optional[SignalPlaneReport] = None

    def flow(self, name: str) -> FlowResult:
        for flow in self.flows:
            if flow.name == name:
                return flow
        raise KeyError(name)

    @property
    def jain_index(self) -> float:
        return self.fairness.jain_index

    def validate(self) -> PointValidation:
        """Cross-validate the per-base-path rates against the model suite."""
        from ..measure.validation import validate_multiflow

        return validate_multiflow(self)

    def compare(self, packet: "MultiFlowResult") -> BackendComparison:
        """Rate agreement of this (flow-level) run with its packet-level twin."""
        from ..measure.validation import compare_multiflow_backends

        return compare_multiflow_backends(self, packet)

    def summary(self) -> dict:
        summary = {
            "name": self.config.name,
            "duration_s": self.config.duration,
            "flows": [flow.summary() for flow in self.flows],
            "fairness": self.fairness.as_dict(),
            "drops": self.drops,
            "events_processed": self.events_processed,
        }
        if self.config.queue_kind is not None:
            summary["queue_kind"] = self.config.queue_kind
        if self.config.ecn:
            summary["ecn"] = True
        if self.signal_plane is not None:
            summary["signal_plane"] = self.signal_plane.as_dict()
        return summary


# -------------------------------------------------------------------- resolve
#: Path coercion shared with the connection layer (PathSet / Path / node
#: lists -> List[Path] with tags defaulting to 1..n).
_coerce_path_objects = MptcpConnection._coerce_paths


class _ResolvedFlow:
    """One :class:`FlowSpec` checked and resolved against its run's scenario.

    Everything about a flow that does not depend on the backend: each
    backend's ``_simulate`` lowers it to its own engine objects.  ``paths``
    are the flow's paths with their own tags, ``installed`` the same paths
    in the flow's tag namespace (``(flow_id - 1) * TAG_STRIDE + tag``).
    """

    def __init__(self, spec: FlowSpec, name: str, index: int, config, topology, base_paths) -> None:
        self.spec = spec
        self.name = name
        self.flow_id = index + 1
        self.src = spec.src or base_paths.src
        self.dst = spec.dst or base_paths.dst
        if spec.paths is not None:
            declared = _coerce_path_objects(spec.paths)
        elif spec.kind in ("mptcp", "workload"):
            declared = list(base_paths)
        elif 0 <= spec.path_index < len(base_paths):
            declared = [base_paths[spec.path_index]]
        else:
            raise ConfigurationError(
                f"path_index {spec.path_index} out of range for {len(base_paths)} scenario paths"
            )
        if spec.kind in ("mptcp", "workload"):
            if not declared:
                raise ConfigurationError(f"{spec.kind} flow {name!r} needs at least one path")
        elif len(declared) != 1:
            raise ConfigurationError(
                f"{spec.kind} flow {name!r} needs exactly one path, got {len(declared)}"
            )
        self.paths: List[Path] = []
        self.installed: List[Path] = []
        for position, path in enumerate(declared):
            if path.src != self.src or path.dst != self.dst:
                raise ConfigurationError(
                    f"path {path} does not connect {self.src!r} to {self.dst!r}"
                )
            tag = path.tag if path.tag is not None else position + 1
            if not 0 < tag < TAG_STRIDE:
                raise ConfigurationError(
                    f"path tag {tag} does not fit the flow tag namespace "
                    f"(must be in 1..{TAG_STRIDE - 1})"
                )
            if any(other.tag == tag for other in self.paths):
                raise ConfigurationError(f"{spec.kind} flow {name!r} has two paths tagged {tag}")
            self.paths.append(Path(path.nodes, tag=tag, name=path.name))
            self.installed.append(Path(path.nodes, tag=index * TAG_STRIDE + tag, name=path.name))
        #: Original path tag -> tag installed in this flow's namespace.
        self.tag_map = {path.tag: installed.tag for path, installed in zip(self.paths, self.installed)}

        self.congestion_control: Optional[str] = None
        if spec.kind == "mptcp":
            from ..core.coupled import _multipath_class
            from ..core.scheduler import _scheduler_class

            self.congestion_control = spec.congestion_control or "lia"
            _multipath_class(self.congestion_control)
            _scheduler_class(spec.scheduler)
            if not 0 <= spec.default_path_index < len(self.paths):
                raise ConfigurationError(
                    f"default_index {spec.default_path_index} out of range "
                    f"for {len(self.paths)} paths"
                )
        elif spec.kind in ("tcp", "workload"):
            from ..tcp.cc import _single_path_class

            self.congestion_control = spec.congestion_control or "cubic"
            _single_path_class(self.congestion_control)
        #: TCP-based flows back off under congestion; udp / onoff do not.
        self.responsive = spec.kind not in ("udp", "onoff")
        #: When an unreliable source stops: its ``stop``, else the run's end.
        self.stop = spec.stop if spec.stop is not None else config.duration
        self.workload_plan = (
            spec.workload.compile(len(self.paths)) if spec.kind == "workload" else None
        )

        # The LP of an mptcp or workload flow's paths, solved once here.
        self.system: Optional[ConstraintSystem] = None
        self.optimum: Optional[LpResult] = None
        if spec.kind in ("mptcp", "workload"):
            self.system = build_constraints(topology, self.installed)
            self.optimum = max_total_throughput(self.system)
            self.optimum_mbps = self.optimum.total
        elif spec.kind == "tcp":
            self.optimum_mbps = self.paths[0].capacity(topology)
        else:
            self.optimum_mbps = min(spec.rate_mbps, self.paths[0].capacity(topology))


def _resolve(config, specs: Sequence[FlowSpec]) -> Tuple[Topology, List[_ResolvedFlow]]:
    """Build ``config``'s scenario (either configuration class) and resolve
    one flow per spec against it: the step both backends' ``_simulate`` take
    first, so a spec is checked, named and solved the same way on each."""
    if not specs:
        raise ConfigurationError("a multi-flow run needs at least one flow")
    topology, base_paths = config.build_scenario()
    flows: List[_ResolvedFlow] = []
    for index, spec in enumerate(specs):
        name = spec.name or f"{spec.kind}-{index + 1}"
        if any(flow.name == name for flow in flows):
            raise ConfigurationError(f"duplicate flow name {name!r}")
        flows.append(_ResolvedFlow(spec, name, index, config, topology, base_paths))
    return topology, flows


def _report(config, topology: Topology, measured) -> Tuple[FairnessReport, List[FlowResult]]:
    """The fairness report and the :class:`FlowResult` of each flow of a
    finished run, on either backend.

    ``measured`` holds ``(flow, series, per_path, delivered,
    retransmissions, stats, records)`` per resolved flow; ``records`` are a
    workload flow's FCT records, None for the other kinds.
    """
    from ..measure.fairness import analyze_fairness
    from ..measure.fct import FctReport

    bottleneck_capacity = None
    if config.bottleneck_link is not None:
        bottleneck_capacity = topology.capacity_of(*config.bottleneck_link)
    fairness = analyze_fairness(
        {flow.name: series for flow, series, *_ in measured},
        {flow.name: flow.spec.kind for flow, *_ in measured},
        bottleneck_capacity_mbps=bottleneck_capacity,
    )
    # The fairness report is the single source of the per-flow (tail) means;
    # each FlowResult reads its mean back from there so the two never drift.
    results = [
        FlowResult(
            spec=flow.spec,
            name=flow.name,
            kind=flow.spec.kind,
            flow_id=flow.flow_id,
            series=series,
            per_path_series=per_path,
            mean_mbps=fairness.per_flow_mbps[flow.name],
            bytes_delivered=delivered,
            retransmissions=retransmissions,
            tag_map=dict(flow.tag_map),
            optimum_mbps=flow.optimum_mbps,
            stats=stats,
            fct=(
                None
                if records is None
                else FctReport.from_records(records, offered=flow.workload_plan.total_transfers)
            ),
        )
        for flow, series, per_path, delivered, retransmissions, stats, records in measured
    ]
    return fairness, results


# ---------------------------------------------------------------------- build
class _BuiltFlow:
    """One resolved flow's packet-level objects and measurement hooks.

    Built in the order a run has always built them: the receiver-side
    capture, the path install, the connection or source, its start.
    """

    def __init__(self, flow: _ResolvedFlow, network: Network, config, path_manager) -> None:
        self.flow = flow
        self.connection: Optional[MptcpConnection] = None
        self.tcp: Optional[TcpConnection] = None
        self.source = None  # udp / onoff
        self.workload_driver = None  # PacketWorkloadDriver of a workload flow
        spec = flow.spec
        self.capture = network.attach_capture(flow.dst, data_only=True, flow_id=flow.flow_id)

        if spec.kind == "mptcp":
            # A path manager decides which subflows open, and when; the paths
            # still tag the capture and pose the LP.
            self.connection = MptcpConnection(
                network,
                flow.src,
                flow.dst,
                None if path_manager is not None else flow.installed,
                congestion_control=flow.congestion_control,
                scheduler=spec.scheduler,
                path_manager=path_manager,
                default_path_index=spec.default_path_index,
                mss=spec.mss,
                ecn=config.ecn,
                total_bytes=spec.total_bytes,
                send_buffer_bytes=spec.send_buffer_bytes,
                join_delay=spec.join_delay,
                flow_id=flow.flow_id,
            )
            self.connection.start(at=spec.start)
            return

        if spec.kind == "workload":
            from ..workload.packet import PacketWorkloadDriver

            self.workload_driver = PacketWorkloadDriver(
                network,
                flow.workload_plan,
                flow.installed,
                src=flow.src,
                dst=flow.dst,
                transport="tcp",
                congestion_control=flow.congestion_control,
                mss=spec.mss,
                flow_id=flow.flow_id,
            )
            self.workload_driver.install()
            return

        (path,) = flow.installed
        network.install_path(path.nodes, path.tag)
        if spec.kind == "tcp":
            self.tcp = TcpConnection(
                network,
                flow.src,
                flow.dst,
                cc=flow.congestion_control,
                tag=path.tag,
                mss=spec.mss,
                ecn=config.ecn,
                total_bytes=spec.total_bytes,
                flow_id=flow.flow_id,
            )
            self.tcp.start(at=spec.start)
            return

        from ..workload.sources import OnOffSource, UdpConstantBitRate

        if spec.kind == "udp":
            self.source = UdpConstantBitRate(
                network, flow.src, flow.dst, spec.rate_mbps, tag=path.tag, flow_id=flow.flow_id
            )
        else:  # onoff
            self.source = OnOffSource(
                network,
                flow.src,
                flow.dst,
                spec.rate_mbps,
                on_duration=spec.on_duration,
                off_duration=spec.off_duration,
                tag=path.tag,
                flow_id=flow.flow_id,
            )
        self.source.start(at=spec.start, stop_at=flow.stop)

    def counters(self, duration: float) -> Tuple[int, int, Optional[ConnectionStats], Optional[list]]:
        """``(delivered, retransmissions, stats, records)`` of the finished run."""
        if self.connection is not None:
            return (
                self.connection.bytes_delivered,
                self.connection.total_retransmissions(),
                connection_stats(self.connection, duration),
                None,
            )
        if self.tcp is not None:
            return self.tcp.bytes_acked, self.tcp.sender.stats.retransmissions, None, None
        if self.workload_driver is not None:
            records = self.workload_driver.records
            return sum(record.size_bytes for record in records), 0, None, records
        return self.source.sink.bytes_received, 0, None, None

    def release(self) -> None:
        """Cut the cycles the flow's protocol objects keep among themselves."""
        if self.connection is not None:
            self.connection.release()
        if self.workload_driver is not None:
            self.workload_driver.release()


@contextmanager
def _simulate(
    config, specs: Sequence[FlowSpec], path_manager: Optional[PathManager] = None
) -> Iterator[Tuple[Network, List[_BuiltFlow]]]:
    """Resolve ``specs`` against ``config`` (either configuration class),
    build its network with one flow per spec, then run it: the packet build
    step behind both front doors.

    Yields ``(network, built)`` for the caller to measure; when the block
    exits the flows are released and the network closed
    (:meth:`Network.close`), so nothing may read them afterwards.
    """
    topology, flows = _resolve(config, specs)
    if config.queue_kind is not None:
        topology.set_queue_kind(config.queue_kind)
    network = Network(topology)

    built: List[_BuiltFlow] = []
    try:
        for flow in flows:
            built.append(_BuiltFlow(flow, network, config, path_manager))

        if config.dynamics is not None:
            # After the flows: MPTCP connections register dynamics listeners at
            # construction and must see the events.  Empty specs register nothing.
            config.dynamics.apply(network)
        network.run(config.duration)
        yield network, built
    finally:
        for flow in built:
            flow.release()
        network.close()


def run_multiflow(config: MultiFlowConfig) -> MultiFlowResult:
    """Run one multi-flow competition scenario and post-process it per flow.

    Dispatches on ``config.backend``: the packet-level simulator below, or
    the flow-level twin (:func:`repro.flowsim.backend.run_multiflow_flowlevel`)
    returning the same result shape at fluid fidelity.
    """
    if config.backend == "flowlevel":
        from ..flowsim.backend import run_multiflow_flowlevel

        return run_multiflow_flowlevel(config)
    with _simulate(config, config.flows) as (network, built):
        return _measure(config, network, built)


def _measure(config: MultiFlowConfig, network: Network, built: List[_BuiltFlow]) -> MultiFlowResult:
    """Post-process a finished packet run per flow, before it is closed."""
    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    measured = []
    for hooks in built:
        flow = hooks.flow
        series = throughput_timeseries(
            hooks.capture, interval, start=start, end=end, label=flow.name
        )
        namespaced = per_tag_timeseries(
            hooks.capture, interval, start=start, end=end, tags=list(flow.tag_map.values()),
        )
        per_path = {
            original: namespaced[installed] for original, installed in flow.tag_map.items()
        }
        measured.append((flow, series, per_path, *hooks.counters(config.duration)))

    fairness, results = _report(config, network.topology, measured)
    return MultiFlowResult(
        config=config,
        flows=results,
        fairness=fairness,
        drops=network.total_drops(),
        events_processed=network.sim.events_processed,
        signal_plane=signal_plane_report(network, config.duration),
    )
