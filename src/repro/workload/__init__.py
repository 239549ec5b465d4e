"""Backend-agnostic workloads: one spec, two fidelities.

A :class:`~repro.workload.spec.WorkloadSpec` describes *offered load* --
seeded session arrivals, HTTP-like request/response sequences with think
times and idle timeouts, heavy-tailed sized transfers -- independent of how
it is simulated.  :meth:`~repro.workload.spec.WorkloadSpec.compile` turns it
into a deterministic :class:`~repro.workload.spec.WorkloadPlan` (every size,
arrival time and dependency edge fixed by the seed), and
:func:`~repro.workload.runner.run_workload` executes that *same plan* on
either engine:

* packet level -- :class:`~repro.workload.packet.PacketWorkloadDriver` over
  real TCP/MPTCP connections;
* flow level -- :class:`~repro.workload.flowlevel.FlowLevelWorkloadRun` on
  the fluid engine.

Also here: the packet traffic sources (:mod:`~repro.workload.sources`),
flat flow populations (:mod:`~repro.workload.population`) and
named scenarios (:mod:`~repro.workload.scenarios`) behind
``repro.cli workload``.
"""

from .population import distribution_sampler, heavy_tailed_workload, pareto_size_sampler
from .spec import (
    ArrivalProcess,
    RequestResponseSpec,
    SessionPlan,
    SizeDistribution,
    TransferPlan,
    WorkloadPlan,
    WorkloadSpec,
)

__all__ = [
    "ArrivalProcess",
    "FlowLevelWorkloadRun",
    "PacketWorkloadDriver",
    "RequestResponseSpec",
    "SessionPlan",
    "SizeDistribution",
    "TransferPlan",
    "WORKLOAD_SCENARIOS",
    "WorkloadConfig",
    "WorkloadPlan",
    "WorkloadResult",
    "WorkloadSpec",
    "conferencing_load",
    "distribution_sampler",
    "heavy_tailed_workload",
    "pareto_size_sampler",
    "run_workload",
    "web_page_load",
]

#: Lazily imported attribute -> defining submodule.  The runner/driver
#: modules pull in the packet and flow-level engines; importing them eagerly
#: from here would cycle through ``repro.flowsim`` (whose package __init__
#: re-exports :func:`heavy_tailed_workload` from this package).
_LAZY = {
    "FlowLevelWorkloadRun": "flowlevel",
    "PacketWorkloadDriver": "packet",
    "WORKLOAD_SCENARIOS": "scenarios",
    "WorkloadConfig": "runner",
    "WorkloadResult": "runner",
    "conferencing_load": "scenarios",
    "run_workload": "runner",
    "web_page_load": "scenarios",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
