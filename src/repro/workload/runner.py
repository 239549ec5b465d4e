"""Run one :class:`~repro.workload.spec.WorkloadSpec` at either fidelity.

This is the top of the workload stack: a :class:`WorkloadConfig` names a
scenario (topology + paths), a workload spec and a backend; :func:`run_workload`
compiles the spec once (so both backends execute the *identical* flow
population -- same sizes, same arrival times, same dependency edges) and
lowers it to the chosen engine:

* ``backend="packet"`` -- :class:`~repro.workload.packet.PacketWorkloadDriver`
  over real TCP/MPTCP connections (ground truth, minutes at scale);
* ``backend="flowlevel"`` -- :class:`~repro.workload.flowlevel.FlowLevelWorkloadRun`
  on the fluid engine (seconds for tens of thousands of transfers).

Either way the result is the same shape: the compiled plan, one
:class:`~repro.measure.fct.FctRecord` per completed transfer and an
aggregated :class:`~repro.measure.fct.FctReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..flowsim.engine import FlowLevelSim
from ..measure.fct import FctRecord, FctReport
from ..measure.validation import FctComparison, compare_workload_backends
from ..model.paths import PathSet
from ..netsim.network import Network
from ..netsim.topology import Topology
from ..units import BACKENDS
from .spec import WorkloadPlan, WorkloadSpec

ScenarioBuilder = Callable[[], Tuple[Topology, PathSet]]

#: Packet-level transports a workload can ride on.
TRANSPORTS = ("tcp", "mptcp")


@dataclass
class WorkloadConfig:
    """Configuration of one workload run."""

    name: str = "workload"
    scenario: Union[ScenarioBuilder, Tuple[Topology, PathSet], None] = None
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    duration: float = 10.0
    #: Simulation fidelity: ``"packet"`` (ground truth) or ``"flowlevel"``.
    backend: str = "flowlevel"
    #: Packet-level transport per session; ignored at flow level.
    transport: str = "tcp"
    #: Packet-level congestion control (defaults to cubic / lia by transport).
    congestion_control: Optional[str] = None
    #: Rate-sharing rule for the flow-level backend; ignored at packet level.
    flow_allocator: str = "maxmin"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {self.transport!r}; choose from {TRANSPORTS}"
            )

    def with_overrides(self, **kwargs) -> "WorkloadConfig":
        return replace(self, **kwargs)

    def build_scenario(self) -> Tuple[Topology, PathSet]:
        if self.scenario is None:
            from ..experiments.scenarios import paper_scenario

            return paper_scenario()
        if callable(self.scenario):
            return self.scenario()
        return self.scenario

    def run(self) -> "WorkloadResult":
        return run_workload(self)


@dataclass
class WorkloadResult:
    """Outcome of one workload run: the plan, raw records and the FCT report."""

    config: WorkloadConfig
    backend: str
    plan: WorkloadPlan
    records: List[FctRecord]
    fct: FctReport
    events_processed: int

    def summary(self) -> dict:
        return {
            "name": self.config.name,
            "backend": self.backend,
            "transport": self.config.transport if self.backend == "packet" else None,
            "duration": self.config.duration,
            "seed": self.plan.seed,
            "sessions": len(self.plan.sessions),
            "plan_signature": self.plan.signature(),
            "events_processed": self.events_processed,
            "fct": self.fct.as_dict(),
        }

    def validate(self) -> None:
        """No analytical model predicts an FCT distribution: nothing to check."""
        return None

    def compare(self, packet: "WorkloadResult") -> FctComparison:
        """FCT agreement of this (flow-level) run with its packet-level twin."""
        return compare_workload_backends(self, packet)


def run_workload(config: WorkloadConfig) -> WorkloadResult:
    """Compile ``config.spec`` and execute it on the configured backend."""
    topology, paths = config.build_scenario()
    path_list = list(paths)
    plan = config.spec.compile(len(path_list))

    if config.backend == "flowlevel":
        from .flowlevel import FlowLevelWorkloadRun

        sim = FlowLevelSim(topology, allocator=config.flow_allocator)
        run = FlowLevelWorkloadRun(sim, plan, path_list)
        run.install()
        outcome = sim.run(config.duration)
        records = run.records
        events = outcome.transitions
    else:
        from .packet import PacketWorkloadDriver

        network = Network(topology)
        driver = PacketWorkloadDriver(
            network,
            plan,
            path_list,
            src=path_list[0].nodes[0],
            dst=path_list[0].nodes[-1],
            transport=config.transport,
            congestion_control=config.congestion_control,
        )
        try:
            driver.install()
            network.run(config.duration)
            records = driver.records
            events = network.sim.events_processed
        finally:
            # The records are plain values: the graph is freed on return.
            driver.release()
            network.close()

    return WorkloadResult(
        config=config,
        backend=config.backend,
        plan=plan,
        records=records,
        fct=FctReport.from_records(records, offered=plan.total_transfers),
        events_processed=events,
    )
