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
    """

    kind: str = "mptcp"
    name: str = ""
    paths: Union[PathSet, Sequence[Path], Sequence[Sequence[str]], None] = None
    path_index: int = 0
    src: Optional[str] = None
    dst: Optional[str] = None
    #: ``None`` picks the kind's default: "lia" for mptcp, "cubic" for tcp.
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
    packet_size: int = DEFAULT_MSS
    #: The offered load of a ``kind="workload"`` flow.
    workload: Optional[WorkloadSpec] = None

    def __post_init__(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ConfigurationError(
                f"unknown flow kind {self.kind!r}; choose from {FLOW_KINDS}"
            )
        if self.kind == "workload" and self.workload is None:
            raise ConfigurationError("a workload flow needs a WorkloadSpec")


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


# ---------------------------------------------------------------------- build
def _retag_paths(paths: Sequence[Path], base: int) -> List[Path]:
    """Copies of ``paths`` with tags moved into the flow's tag namespace."""
    retagged = []
    for index, path in enumerate(paths):
        tag = path.tag if path.tag is not None else index + 1
        if not 0 < tag < TAG_STRIDE:
            raise ConfigurationError(
                f"path tag {tag} does not fit the flow tag namespace "
                f"(must be in 1..{TAG_STRIDE - 1})"
            )
        retagged.append(Path(path.nodes, tag=base + tag, name=path.name))
    return retagged


#: Path coercion shared with the connection layer (PathSet / Path / node
#: lists -> List[Path] with tags defaulting to 1..n).
_coerce_path_objects = MptcpConnection._coerce_paths


def _single_path_for(spec: FlowSpec, base_paths: PathSet) -> Path:
    """The one pinned path of a tcp/udp/onoff flow."""
    if spec.paths is not None:
        candidates = _coerce_path_objects(spec.paths)
        if len(candidates) != 1:
            raise ConfigurationError(
                f"{spec.kind} flow {spec.name!r} needs exactly one path, got {len(candidates)}"
            )
        return candidates[0]
    if not 0 <= spec.path_index < len(base_paths):
        raise ConfigurationError(
            f"path_index {spec.path_index} out of range for {len(base_paths)} scenario paths"
        )
    return base_paths[spec.path_index]


class _BuiltFlow:
    """One instantiated flow: simulation objects plus measurement hooks."""

    def __init__(self, spec: FlowSpec, name: str, flow_id: int, tag_base: int) -> None:
        self.spec = spec
        self.name = name
        self.flow_id = flow_id
        self.tag_base = tag_base
        self.capture = None
        self.connection: Optional[MptcpConnection] = None
        self.tcp: Optional[TcpConnection] = None
        self.source = None  # udp / onoff
        self.workload_driver = None  # PacketWorkloadDriver of a workload flow
        self.workload_plan = None
        self.tag_map: Dict[int, int] = {}  # original tag -> namespaced tag
        self.optimum_mbps: Optional[float] = None
        # The LP of an mptcp or workload flow's paths, solved once at build time.
        self.system: Optional[ConstraintSystem] = None
        self.optimum: Optional[LpResult] = None

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
    """Build ``config``'s network (either configuration class) with one flow per
    spec, then run it: the packet build step behind both front doors.

    Yields ``(network, built)`` for the caller to measure; when the block
    exits the flows are released and the network closed
    (:meth:`Network.close`), so nothing may read them afterwards.
    """
    if not specs:
        raise ConfigurationError("a multi-flow run needs at least one flow")
    topology, base_paths = config.build_scenario()
    if config.queue_kind is not None:
        topology.set_queue_kind(config.queue_kind)
    network = Network(topology)

    built: List[_BuiltFlow] = []
    try:
        for index, spec in enumerate(specs):
            name = spec.name or f"{spec.kind}-{index + 1}"
            if any(b.name == name for b in built):
                raise ConfigurationError(f"duplicate flow name {name!r}")
            flow = _BuiltFlow(spec, name, flow_id=index + 1, tag_base=index * TAG_STRIDE)
            _instantiate_flow(flow, network, base_paths, config, path_manager)
            built.append(flow)

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
    from ..measure.fairness import analyze_fairness

    start, end = config.warmup, config.duration
    interval = config.sampling_interval
    measured: List[Tuple[_BuiltFlow, TimeSeries, Dict[int, TimeSeries]]] = []
    for flow in built:
        series = throughput_timeseries(
            flow.capture, interval, start=start, end=end, label=flow.name
        )
        per_path: Dict[int, TimeSeries] = {}
        if flow.tag_map:
            namespaced = per_tag_timeseries(
                flow.capture, interval, start=start, end=end,
                tags=list(flow.tag_map.values()),
            )
            per_path = {
                original: namespaced[installed]
                for original, installed in flow.tag_map.items()
            }
        measured.append((flow, series, per_path))

    bottleneck_capacity = None
    if config.bottleneck_link is not None:
        bottleneck_capacity = network.topology.capacity_of(*config.bottleneck_link)
    fairness = analyze_fairness(
        {flow.name: series for flow, series, _ in measured},
        {flow.name: flow.spec.kind for flow, _, _ in measured},
        bottleneck_capacity_mbps=bottleneck_capacity,
    )
    # The fairness report is the single source of the per-flow (tail) means;
    # each FlowResult reads its mean back from there so the two never drift.
    results = [
        _flow_result(flow, series, per_path, config.duration, fairness.per_flow_mbps[flow.name])
        for flow, series, per_path in measured
    ]
    return MultiFlowResult(
        config=config,
        flows=results,
        fairness=fairness,
        drops=network.total_drops(),
        events_processed=network.sim.events_processed,
        signal_plane=signal_plane_report(network, config.duration),
    )


def _instantiate_flow(
    flow: _BuiltFlow,
    network: Network,
    base_paths: PathSet,
    config,
    path_manager: Optional[PathManager] = None,
) -> None:
    spec = flow.spec
    src = spec.src or base_paths.src
    dst = spec.dst or base_paths.dst
    flow.capture = network.attach_capture(dst, data_only=True, flow_id=flow.flow_id)

    if spec.kind in ("mptcp", "workload"):
        raw = _coerce_path_objects(spec.paths) if spec.paths is not None else list(base_paths)
        paths = _retag_paths(raw, flow.tag_base)
        flow.tag_map = {
            (orig.tag if orig.tag is not None else i + 1): installed.tag
            for i, (orig, installed) in enumerate(zip(raw, paths))
        }
        flow.system = build_constraints(network.topology, paths)
        flow.optimum = max_total_throughput(flow.system)
        flow.optimum_mbps = flow.optimum.total

    if spec.kind == "mptcp":
        # A path manager decides which subflows open, and when; the paths
        # still tag the capture and pose the LP.
        flow.connection = MptcpConnection(
            network,
            src,
            dst,
            None if path_manager is not None else paths,
            congestion_control=spec.congestion_control or "lia",
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
        flow.connection.start(at=spec.start)
        return

    if spec.kind == "workload":
        from ..workload.packet import PacketWorkloadDriver

        plan = spec.workload.compile(len(paths))
        driver = PacketWorkloadDriver(
            network,
            plan,
            paths,
            src=src,
            dst=dst,
            transport="tcp",
            congestion_control=spec.congestion_control,
            mss=spec.mss,
            flow_id=flow.flow_id,
        )
        driver.install()
        flow.workload_driver = driver
        flow.workload_plan = plan
        return

    path = _single_path_for(spec, base_paths)
    tag = flow.tag_base + (path.tag if path.tag is not None else 1)
    network.install_path(path.nodes, tag)
    flow.tag_map = {(path.tag if path.tag is not None else 1): tag}

    if spec.kind == "tcp":
        flow.tcp = TcpConnection(
            network,
            src,
            dst,
            cc=spec.congestion_control or "cubic",
            tag=tag,
            mss=spec.mss,
            ecn=config.ecn,
            total_bytes=spec.total_bytes,
            flow_id=flow.flow_id,
        )
        flow.optimum_mbps = path.capacity(network.topology)
        flow.tcp.start(at=spec.start)
        return

    from ..workload.sources import OnOffSource, UdpConstantBitRate

    stop_at = spec.stop if spec.stop is not None else config.duration
    if spec.kind == "udp":
        flow.source = UdpConstantBitRate(
            network,
            src,
            dst,
            spec.rate_mbps,
            tag=tag,
            packet_size=spec.packet_size,
            flow_id=flow.flow_id,
        )
        flow.source.start(at=spec.start, stop_at=stop_at)
    else:  # onoff
        flow.source = OnOffSource(
            network,
            src,
            dst,
            spec.rate_mbps,
            on_duration=spec.on_duration,
            off_duration=spec.off_duration,
            tag=tag,
            packet_size=spec.packet_size,
            flow_id=flow.flow_id,
        )
        flow.source.start(at=spec.start, stop_at=stop_at)
    flow.optimum_mbps = min(spec.rate_mbps, path.capacity(network.topology))


def _flow_result(
    flow: _BuiltFlow,
    series: TimeSeries,
    per_path: Dict[int, TimeSeries],
    duration: float,
    mean: float,
) -> FlowResult:
    spec = flow.spec
    fct = None
    if flow.connection is not None:
        delivered = flow.connection.bytes_delivered
        retransmissions = flow.connection.total_retransmissions()
        stats = connection_stats(flow.connection, duration)
    elif flow.tcp is not None:
        delivered = flow.tcp.bytes_acked
        retransmissions = flow.tcp.sender.stats.retransmissions
        stats = None
    elif flow.workload_driver is not None:
        from ..measure.fct import FctReport

        records = flow.workload_driver.records
        delivered = sum(record.size_bytes for record in records)
        retransmissions = 0
        stats = None
        fct = FctReport.from_records(
            records, offered=flow.workload_plan.total_transfers
        )
    else:
        delivered = flow.source.sink.bytes_received
        retransmissions = 0
        stats = None
    return FlowResult(
        spec=spec,
        name=flow.name,
        kind=spec.kind,
        flow_id=flow.flow_id,
        series=series,
        per_path_series=per_path,
        mean_mbps=mean,
        bytes_delivered=delivered,
        retransmissions=retransmissions,
        tag_map=dict(flow.tag_map),
        optimum_mbps=flow.optimum_mbps,
        stats=stats,
        fct=fct,
    )
