"""Named experiment sweeps behind the Results-section claims and the ablations.

* :func:`cc_comparison` -- RES-CC: run CUBIC, LIA and OLIA (and optionally the
  extension algorithms) on the paper topology and report who reaches the
  optimum, how fast and how stably.
* :func:`olia_default_path_sweep` -- RES-OLIA-DEFAULT: the paper observed
  that OLIA only reached the optimum when Path 2 was the default path.
* :func:`scheduler_comparison` -- ABL-SCHED: the data-scheduler ablation.
* :func:`queue_size_sweep` -- ablation over the bottleneck buffer size.

Multi-flow competition scenarios (the fairness claims behind coupled
congestion control, run through :func:`repro.experiments.multiflow.run_multiflow`):

* :func:`mptcp_vs_tcp_shared_bottleneck` -- one MPTCP connection and one
  single-path TCP flow share a bottleneck; a TCP-fair coupled controller
  should split it evenly.
* :func:`two_mptcp_competition` -- two MPTCP connections compete on a
  common bottleneck.
* :func:`cross_traffic_perturbation` -- bursty on-off UDP cross-traffic
  perturbs an MPTCP connection's rate search on a shared bottleneck.

Network-dynamics scenarios (time-varying links and the mid-run subflow
lifecycle, run through :func:`repro.experiments.harness.run_experiment` with
a :class:`~repro.netsim.dynamics.DynamicsSpec` attached):

* :func:`link_flap_failover` -- the default (Wi-Fi) path fails mid-run and
  later recovers; the surviving cellular subflow must carry the connection
  (failover gap) and the healed path must be re-absorbed (re-convergence).
* :func:`capacity_step_tracking` -- the shared bottleneck's rate steps down
  and back up; the coupled controller must track the moving capacity.
* :func:`handover_subflow_migration` -- the connection starts on Wi-Fi only
  (:class:`~repro.core.path_manager.FailoverPathManager`); when Wi-Fi dies a
  cellular subflow is opened *at runtime* and the transfer migrates.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.coupled import PAPER_ALGORITHMS
from ..core.path_manager import FailoverPathManager
from ..errors import ConfigurationError
from ..netsim.dynamics import DynamicsSpec, LinkDown, LinkRateChange, LinkUp, Schedule
from ..topologies.generators import shared_bottleneck, wifi_cellular
from ..topologies.paper import PAPER_DEFAULT_PATH_INDEX, paper_scenario
from .harness import ExperimentConfig, ExperimentResult, paper_experiment, run_experiment
from .multiflow import FlowSpec, MultiFlowConfig


def cc_comparison(
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    *,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    default_path_index: int = PAPER_DEFAULT_PATH_INDEX,
    variant: str = "as_stated",
) -> Dict[str, ExperimentResult]:
    """Run the paper experiment once per congestion-control algorithm."""
    results: Dict[str, ExperimentResult] = {}
    for algorithm in algorithms:
        config = paper_experiment(
            algorithm,
            duration=duration,
            sampling_interval=sampling_interval,
            default_path_index=default_path_index,
            variant=variant,
        )
        results[algorithm] = run_experiment(config)
    return results


def olia_default_path_sweep(
    *,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    algorithm: str = "olia",
    variant: str = "as_stated",
) -> Dict[int, ExperimentResult]:
    """Sweep which path is the default (shortest) path, keyed by path index."""
    results: Dict[int, ExperimentResult] = {}
    for default_index in range(3):
        config = paper_experiment(
            algorithm,
            duration=duration,
            sampling_interval=sampling_interval,
            default_path_index=default_index,
            variant=variant,
        )
        config = config.with_overrides(name=f"paper-{algorithm}-default{default_index + 1}")
        results[default_index] = run_experiment(config)
    return results


def scheduler_comparison(
    schedulers: Sequence[str] = ("minrtt", "roundrobin", "redundant"),
    *,
    congestion_control: str = "cubic",
    duration: float = 3.0,
    sampling_interval: float = 0.1,
    send_buffer_bytes: Optional[int] = 256 * 1024,
    variant: str = "as_stated",
) -> Dict[str, ExperimentResult]:
    """Ablate the MPTCP data scheduler (with a bounded send buffer so it matters)."""
    results: Dict[str, ExperimentResult] = {}
    for scheduler in schedulers:
        config = paper_experiment(
            congestion_control,
            duration=duration,
            sampling_interval=sampling_interval,
            variant=variant,
        )
        config = config.with_overrides(
            name=f"paper-{congestion_control}-{scheduler}",
            scheduler=scheduler,
            send_buffer_bytes=send_buffer_bytes,
        )
        results[scheduler] = run_experiment(config)
    return results


def queue_size_sweep(
    queue_sizes: Iterable[int] = (25, 50, 100, 200),
    *,
    congestion_control: str = "cubic",
    duration: float = 3.0,
    variant: str = "as_stated",
) -> Dict[int, ExperimentResult]:
    """Ablate the bottleneck buffer size (README, "Reading the paper's numbers")."""
    results: Dict[int, ExperimentResult] = {}
    for queue_packets in queue_sizes:
        config = ExperimentConfig(
            name=f"paper-{congestion_control}-q{queue_packets}",
            scenario=lambda qp=queue_packets: paper_scenario(variant, queue_packets=qp),
            congestion_control=congestion_control,
            duration=duration,
            paper_variant=variant,
        )
        results[queue_packets] = run_experiment(config)
    return results


def summarize_results(results: Dict[str, ExperimentResult]) -> List[dict]:
    """One summary dictionary per run (used by benchmarks and the CLI)."""
    return [result.summary() | {"key": str(key)} for key, result in results.items()]


# ---------------------------------------------------------------- competition
def mptcp_vs_tcp_shared_bottleneck(
    *,
    congestion_control: str = "lia",
    n_paths: int = 2,
    bottleneck_mbps: float = 50.0,
    access_mbps: float = 100.0,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    warmup: float = 0.0,
) -> MultiFlowConfig:
    """MPTCP vs a single TCP flow on one shared bottleneck.

    The central fairness question of coupled congestion control: the MPTCP
    connection opens ``n_paths`` subflows that all cross the bottleneck and
    competes against one single-path TCP flow on its own access path.  With a
    perfectly TCP-fair coupled controller the bottleneck splits evenly
    (``mptcp_tcp_ratio`` ~ 1); with uncoupled per-subflow control MPTCP takes
    roughly ``n_paths`` shares.
    """
    topology, paths = shared_bottleneck(
        n_paths + 1, bottleneck_mbps, access_mbps
    )
    flows = [
        FlowSpec(
            kind="mptcp",
            name="mptcp",
            paths=list(paths)[:n_paths],
            congestion_control=congestion_control,
        ),
        FlowSpec(kind="tcp", name="tcp", path_index=n_paths),
    ]
    return MultiFlowConfig(
        name=f"mptcp-vs-tcp-{congestion_control}",
        scenario=(topology, paths),
        flows=flows,
        duration=duration,
        sampling_interval=sampling_interval,
        warmup=warmup,
        bottleneck_link=("agg", "core"),
    )


def two_mptcp_competition(
    *,
    congestion_control_a: str = "lia",
    congestion_control_b: str = "lia",
    subflows_each: int = 2,
    bottleneck_mbps: float = 50.0,
    access_mbps: float = 100.0,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    warmup: float = 0.0,
) -> MultiFlowConfig:
    """Two MPTCP connections compete for one shared bottleneck.

    Each connection gets its own disjoint set of access paths; only the
    bottleneck is shared.  Symmetric configurations should converge towards
    an even split (Jain's index near 1 over the two connections).
    """
    topology, paths = shared_bottleneck(
        2 * subflows_each, bottleneck_mbps, access_mbps
    )
    path_list = list(paths)
    flows = [
        FlowSpec(
            kind="mptcp",
            name="mptcp-a",
            paths=path_list[:subflows_each],
            congestion_control=congestion_control_a,
        ),
        FlowSpec(
            kind="mptcp",
            name="mptcp-b",
            paths=path_list[subflows_each:],
            congestion_control=congestion_control_b,
        ),
    ]
    return MultiFlowConfig(
        name=f"two-mptcp-{congestion_control_a}-vs-{congestion_control_b}",
        scenario=(topology, paths),
        flows=flows,
        duration=duration,
        sampling_interval=sampling_interval,
        warmup=warmup,
        bottleneck_link=("agg", "core"),
    )


def cross_traffic_perturbation(
    *,
    congestion_control: str = "lia",
    n_paths: int = 2,
    bottleneck_mbps: float = 50.0,
    access_mbps: float = 100.0,
    cross_rate_fraction: float = 0.5,
    on_duration: float = 0.5,
    off_duration: float = 0.5,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    warmup: float = 0.0,
) -> MultiFlowConfig:
    """Bursty on-off cross-traffic perturbs MPTCP on a shared bottleneck.

    A non-responsive on-off UDP source periodically claims
    ``cross_rate_fraction`` of the bottleneck, forcing the coupled controller
    to repeatedly re-search for the remaining capacity (the rate-adaptation
    scenario of telehaptic/SFC-style cross-traffic studies).
    """
    topology, paths = shared_bottleneck(
        n_paths + 1, bottleneck_mbps, access_mbps
    )
    flows = [
        FlowSpec(
            kind="mptcp",
            name="mptcp",
            paths=list(paths)[:n_paths],
            congestion_control=congestion_control,
        ),
        FlowSpec(
            kind="onoff",
            name="cross-traffic",
            path_index=n_paths,
            rate_mbps=cross_rate_fraction * bottleneck_mbps,
            on_duration=on_duration,
            off_duration=off_duration,
        ),
    ]
    return MultiFlowConfig(
        name=f"cross-traffic-{congestion_control}",
        scenario=(topology, paths),
        flows=flows,
        duration=duration,
        sampling_interval=sampling_interval,
        warmup=warmup,
        bottleneck_link=("agg", "core"),
    )


def workload_background(
    *,
    congestion_control: str = "lia",
    n_paths: int = 2,
    bottleneck_mbps: float = 50.0,
    access_mbps: float = 100.0,
    sessions: int = 10,
    mean_request_bytes: int = 200_000,
    requests_per_session: int = 5,
    think_time_s: float = 0.3,
    seed: int = 1,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    warmup: float = 0.0,
) -> MultiFlowConfig:
    """A request/response workload competes with MPTCP on a shared bottleneck.

    Instead of a synthetic CBR source, the cross-traffic here is a compiled
    :class:`~repro.workload.spec.WorkloadSpec` population -- heavy-tailed
    sized responses over warm TCP connections with think times -- so the
    perturbation has the on/off texture of real application traffic and the
    result carries an FCT report for the background sessions themselves.
    """
    from ..workload.spec import ArrivalProcess, RequestResponseSpec, SizeDistribution, WorkloadSpec

    topology, paths = shared_bottleneck(n_paths + 1, bottleneck_mbps, access_mbps)
    workload = WorkloadSpec(
        name="background",
        seed=seed,
        sessions=sessions,
        arrival=ArrivalProcess(
            kind="poisson", rate_per_s=max(sessions / max(duration / 2.0, 1e-9), 1e-9)
        ),
        request=RequestResponseSpec(
            requests_per_session=requests_per_session,
            response_size=SizeDistribution(kind="pareto", mean_bytes=mean_request_bytes),
            think_time_s=think_time_s,
        ),
    )
    flows = [
        FlowSpec(
            kind="mptcp",
            name="mptcp",
            paths=list(paths)[:n_paths],
            congestion_control=congestion_control,
        ),
        FlowSpec(
            kind="workload",
            name="background",
            paths=[paths[n_paths]],
            workload=workload,
        ),
    ]
    return MultiFlowConfig(
        name=f"workload-background-{congestion_control}",
        scenario=(topology, paths),
        flows=flows,
        duration=duration,
        sampling_interval=sampling_interval,
        warmup=warmup,
        bottleneck_link=("agg", "core"),
    )


def aqm_vs_droptail(
    *,
    congestion_control: str = "lia",
    queue_kind: str = "red",
    ecn: bool = True,
    **scenario_kwargs,
) -> MultiFlowConfig:
    """The MPTCP-vs-TCP fairness contest under an AQM discipline.

    Identical to :func:`mptcp_vs_tcp_shared_bottleneck` (which takes every
    other keyword) except every link runs ``queue_kind`` (RED by default)
    and, with ``ecn=True``, the transports negotiate ECN -- so congestion
    shows up as CE marks and rate reductions instead of drops and
    retransmissions.  Comparing this run against the drop-tail baseline
    isolates what the signal plane changes: queueing delay, loss, and
    whether the fairness split survives.
    """
    return mptcp_vs_tcp_shared_bottleneck(
        congestion_control=congestion_control, **scenario_kwargs
    ).with_overrides(
        name=f"aqm-{queue_kind}{'-ecn' if ecn else ''}-{congestion_control}",
        queue_kind=queue_kind,
        ecn=ecn,
    )


def ecn_mptcp_fairness(
    *,
    congestion_control_a: str = "lia",
    congestion_control_b: str = "lia",
    queue_kind: str = "red",
    ecn: bool = True,
    **scenario_kwargs,
) -> MultiFlowConfig:
    """Two MPTCP connections on an ECN-marking bottleneck.

    The two-connection competition of :func:`two_mptcp_competition` (which
    takes every other keyword) with an AQM bottleneck and ECN-capable
    transports: both coupled controllers see the same mark stream, so an
    asymmetric split reveals a controller that under- or over-reacts to
    marks relative to its competitor.
    """
    return two_mptcp_competition(
        congestion_control_a=congestion_control_a,
        congestion_control_b=congestion_control_b,
        **scenario_kwargs,
    ).with_overrides(
        name=f"ecn-fairness-{congestion_control_a}-vs-{congestion_control_b}",
        queue_kind=queue_kind,
        ecn=ecn,
    )


#: Named competition scenarios exposed through the CLI (``fairness`` command).
COMPETITION_SCENARIOS: Dict[str, Callable[..., MultiFlowConfig]] = {
    "mptcp_vs_tcp_shared_bottleneck": mptcp_vs_tcp_shared_bottleneck,
    "two_mptcp_competition": two_mptcp_competition,
    "cross_traffic_perturbation": cross_traffic_perturbation,
    "workload_background": workload_background,
    "aqm_vs_droptail": aqm_vs_droptail,
    "ecn_mptcp_fairness": ecn_mptcp_fairness,
}


def competition_config(scenario: str, congestion_control: str, **kwargs) -> MultiFlowConfig:
    """A named competition scenario with one controller on every MPTCP flow.

    The two-connection scenarios name a controller per connection; this is
    the one place that knows which keyword a scenario's controller goes by.
    """
    if scenario in ("two_mptcp_competition", "ecn_mptcp_fairness"):
        kwargs["congestion_control_a"] = kwargs["congestion_control_b"] = congestion_control
    else:
        kwargs["congestion_control"] = congestion_control
    return COMPETITION_SCENARIOS[scenario](**kwargs)


# ------------------------------------------------------------------ dynamics
def link_flap_failover(
    *,
    congestion_control: str = "lia",
    duration: float = 5.0,
    sampling_interval: float = 0.1,
    down_at: Optional[float] = None,
    up_at: Optional[float] = None,
    wifi_mbps: float = 50.0,
    cellular_mbps: float = 20.0,
) -> ExperimentConfig:
    """The default (Wi-Fi) path flaps down and back up mid-run.

    A two-subflow MPTCP connection on the Wi-Fi/cellular topology loses its
    default path's access link at ``down_at`` and gets it back at ``up_at``
    (defaults: 30% / 60% of the duration).  The failover gap measures how
    quickly the surviving cellular subflow picks up the re-injected data;
    the re-convergence time after ``up_at`` measures how quickly the healed
    path is filled again.
    """
    if down_at is None:
        down_at = 0.3 * duration
    if up_at is None:
        up_at = 0.6 * duration
    if not 0.0 < down_at < up_at < duration:
        raise ConfigurationError("need 0 < down_at < up_at < duration")
    topology, paths = wifi_cellular(wifi_mbps, cellular_mbps)
    schedule = (
        Schedule()
        .at(down_at, LinkDown("client", "wifi_ap"))
        .at(up_at, LinkUp("client", "wifi_ap"))
    )
    spec = DynamicsSpec(
        schedule=schedule,
        epochs=(down_at, up_at),
        capacity_profile=(
            (0.0, wifi_mbps + cellular_mbps),
            (down_at, cellular_mbps),
            (up_at, wifi_mbps + cellular_mbps),
        ),
        description=(
            f"Wi-Fi access link down at t={down_at:g}s, up at t={up_at:g}s; "
            "the cellular subflow carries the connection through the outage"
        ),
    )
    return ExperimentConfig(
        name=f"link-flap-{congestion_control}",
        scenario=(topology, paths),
        congestion_control=congestion_control,
        duration=duration,
        sampling_interval=sampling_interval,
        default_path_index=0,
        dynamics=spec,
    )


def capacity_step_tracking(
    *,
    congestion_control: str = "lia",
    duration: float = 5.0,
    sampling_interval: float = 0.1,
    step_down_at: Optional[float] = None,
    step_up_at: Optional[float] = None,
    bottleneck_mbps: float = 50.0,
    reduced_mbps: float = 20.0,
    access_mbps: float = 100.0,
    n_paths: int = 2,
) -> ExperimentConfig:
    """The shared bottleneck's capacity steps down, then back up.

    Both subflows cross one bottleneck whose rate drops to ``reduced_mbps``
    at ``step_down_at`` and recovers at ``step_up_at`` (defaults: 30% / 60%
    of the duration).  The capacity-tracking error measures how closely the
    coupled controller follows the moving capacity; the per-epoch
    re-convergence times measure how fast it settles on each new level.
    """
    if step_down_at is None:
        step_down_at = 0.3 * duration
    if step_up_at is None:
        step_up_at = 0.6 * duration
    if not 0.0 < step_down_at < step_up_at < duration:
        raise ConfigurationError("need 0 < step_down_at < step_up_at < duration")
    topology, paths = shared_bottleneck(n_paths, bottleneck_mbps, access_mbps)
    schedule = (
        Schedule()
        .at(step_down_at, LinkRateChange("agg", "core", reduced_mbps))
        .at(step_up_at, LinkRateChange("agg", "core", bottleneck_mbps))
    )
    spec = DynamicsSpec(
        schedule=schedule,
        epochs=(step_down_at, step_up_at),
        capacity_profile=(
            (0.0, bottleneck_mbps),
            (step_down_at, reduced_mbps),
            (step_up_at, bottleneck_mbps),
        ),
        description=(
            f"bottleneck {bottleneck_mbps:g} -> {reduced_mbps:g} Mbps at "
            f"t={step_down_at:g}s, back at t={step_up_at:g}s"
        ),
    )
    return ExperimentConfig(
        name=f"capacity-step-{congestion_control}",
        scenario=(topology, paths),
        congestion_control=congestion_control,
        duration=duration,
        sampling_interval=sampling_interval,
        default_path_index=0,
        dynamics=spec,
    )


def handover_subflow_migration(
    *,
    congestion_control: str = "lia",
    duration: float = 5.0,
    sampling_interval: float = 0.1,
    handover_at: Optional[float] = None,
    wifi_mbps: float = 50.0,
    cellular_mbps: float = 20.0,
) -> ExperimentConfig:
    """Mobile handover: Wi-Fi dies, a cellular subflow joins at runtime.

    The connection starts on the Wi-Fi path *alone* (failover path manager).
    When the Wi-Fi access link goes down at ``handover_at`` (default: 40% of
    the duration), the manager opens a cellular subflow mid-connection and
    the transfer migrates -- exercising the runtime add-subflow path and DSN
    re-injection.
    """
    if handover_at is None:
        handover_at = 0.4 * duration
    if not 0.0 < handover_at < duration:
        raise ConfigurationError("need 0 < handover_at < duration")
    topology, paths = wifi_cellular(wifi_mbps, cellular_mbps)
    schedule = Schedule().at(handover_at, LinkDown("client", "wifi_ap"))
    spec = DynamicsSpec(
        schedule=schedule,
        epochs=(handover_at,),
        capacity_profile=(
            (0.0, wifi_mbps),
            (handover_at, cellular_mbps),
        ),
        description=(
            f"Wi-Fi-only connection loses its path at t={handover_at:g}s; "
            "a cellular subflow is opened mid-run and the transfer migrates"
        ),
    )
    return ExperimentConfig(
        name=f"handover-{congestion_control}",
        scenario=(topology, paths),
        congestion_control=congestion_control,
        duration=duration,
        sampling_interval=sampling_interval,
        path_manager=FailoverPathManager(list(paths)),
        dynamics=spec,
    )


#: Named dynamics scenarios exposed through the CLI (``dynamics`` command).
DYNAMICS_SCENARIOS: Dict[str, Callable[..., ExperimentConfig]] = {
    "link_flap_failover": link_flap_failover,
    "capacity_step_tracking": capacity_step_tracking,
    "handover_subflow_migration": handover_subflow_migration,
}
