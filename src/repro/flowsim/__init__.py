"""Flow-level simulation backend: event-per-rate-change, not event-per-packet.

The packet-level simulator (:mod:`repro.netsim`) models every segment and
acknowledgement; it is the ground truth, and it tops out around ~400k packet
events per second.  This package trades packet microstructure for scale: each
flow is a bandwidth-shared transfer placed on :class:`~repro.netsim.topology.Topology`
paths, instantaneous rates come from a pluggable allocator over the link
capacities (weighted max-min by default), and simulated time advances between
*rate-change events only* -- flow arrivals, flow completions and scheduled
network dynamics.  Thousands of concurrent flows cost thousands of events,
not billions of packets.

* :mod:`repro.flowsim.engine` -- the event loop (:class:`FlowLevelSim`),
  flow descriptors and results;
* :mod:`repro.flowsim.allocator` -- the instantaneous rate-sharing rules
  (``maxmin`` / ``proportional_fair`` / ``fluid``);
* the seeded synthetic populations (:func:`heavy_tailed_workload`,
  :func:`pareto_size_sampler`) come from :mod:`repro.workload.population`;
* :mod:`repro.flowsim.backend` -- adapters running an unmodified
  :class:`~repro.experiments.harness.ExperimentConfig` /
  :class:`~repro.experiments.multiflow.MultiFlowConfig` at flow-level
  fidelity (``backend="flowlevel"``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".allocator": (
            "ALLOCATORS", "FluidAllocator", "MaxMinAllocator", "ProportionalFairAllocator",
        ),
        ".engine": ("FlowCompletion", "FlowDescriptor", "FlowLevelResult", "FlowLevelSim"),
        "..workload.population": ("heavy_tailed_workload", "pareto_size_sampler"),
    },
)
