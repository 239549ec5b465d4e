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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".flowlevel": ("FlowLevelWorkloadRun",),
        ".packet": ("PacketWorkloadDriver",),
        ".population": ("heavy_tailed_workload", "pareto_size_sampler"),
        ".runner": ("WorkloadConfig", "WorkloadResult", "run_workload"),
        ".scenarios": ("WORKLOAD_SCENARIOS", "conferencing_load", "web_page_load"),
        ".spec": (
            "ArrivalProcess", "RequestResponseSpec", "SessionPlan", "SizeDistribution",
            "TransferPlan", "WorkloadPlan", "WorkloadSpec",
        ),
    },
)
