"""repro -- reproduction of "The Performance of Multi-Path TCP with Overlapping Paths".

The package provides four layers:

* :mod:`repro.netsim` -- a discrete-event, packet-level network simulator
  (the Mininet substitute): topologies, rate-limited links, drop-tail queues,
  tag-based routing, tshark-like captures and time-varying link dynamics
  (rate/delay changes, failures, loss bursts on a :class:`Schedule`).
* :mod:`repro.tcp` -- a packet-level TCP with Reno and CUBIC congestion
  control, NewReno loss recovery and RTO handling.
* :mod:`repro.core` -- MPTCP over pre-selected overlapping paths: tagged
  subflows, path managers, schedulers and the coupled congestion-control
  algorithms (LIA, OLIA, plus BALIA/wVegas extensions).
* :mod:`repro.model` -- the analytical side: the throughput-maximisation LP
  of Fig. 1c, greedy/max-min/proportional-fair baselines, Pareto analysis,
  projected-gradient ascent and fluid models.

Names resolve on first use: ``import repro`` (and each layer package) loads
no submodule until one of its names is asked for (:mod:`repro._lazy`).

Quickstart::

    from repro import paper_experiment, run_experiment

    result = run_experiment(paper_experiment("cubic", duration=4.0))
    print(result.summary())
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "._version": ("__version__",),
        ".core": ("MptcpConnection", "Subflow", "TagPathManager"),
        ".errors": (
            "ConfigurationError", "ModelError", "ProtocolError", "ReproError", "RoutingError",
            "SimulationError", "TopologyError",
        ),
        ".experiments": (
            "ExperimentConfig", "ExperimentResult", "FlowSpec", "MultiFlowConfig",
            "MultiFlowResult", "fig2a_cubic", "fig2b_olia", "fig2c_fine", "paper_experiment",
            "run_experiment", "run_multiflow",
        ),
        ".model": (
            "Path", "PathSet", "build_constraints", "greedy_fill", "max_min_fair_rates",
            "max_total_throughput",
        ),
        ".netsim": (
            "DynamicsSpec", "LinkDelayChange", "LinkDown", "LinkRateChange", "LinkUp", "LossBurst",
            "Network", "PacketCapture", "Schedule", "Simulator", "Topology",
        ),
        ".tcp": ("TcpConnection",),
        ".topologies": (
            "PAPER_DEFAULT_PATH_INDEX", "PAPER_OPTIMAL_RATES", "PAPER_OPTIMAL_TOTAL",
            "build_paper_topology", "paper_paths", "paper_scenario",
        ),
    },
)
