"""Campaign subsystem: resumable, sharded parameter sweeps with validation.

One-off runs answer one question about one configuration; the paper's claims
(and the ROADMAP's many-scenario ambitions) need *grids*: every congestion
control on every topology across link rates, delays, loss and dynamics.  This
module turns those grids into restartable batch jobs:

* :class:`CampaignSpec` declares a grid (scenario x congestion control x
  link rate/delay scale x loss rate x dynamics schedule x path manager) and
  expands it into picklable :class:`~repro.experiments.harness.ExperimentConfig`
  / :class:`~repro.experiments.multiflow.MultiFlowConfig` points, each keyed
  by a content hash of its parameters;
* :func:`run_campaign` executes the points in chunks through the one
  campaign driver (:func:`repro.experiments.fabric.drive_campaign`, on a
  persistent :class:`~repro.experiments.harness.WorkerPool`), persisting
  every finished point to a JSONL :class:`ResultStore` -- re-invoking the
  campaign skips completed points, so a crashed or extended grid resumes
  for free;
* every point is cross-validated against the analytical models
  (:mod:`repro.measure.validation`) and the campaign aggregates the error
  distributions into a :class:`~repro.measure.validation.ValidationReport`;
* :data:`CAMPAIGN_GRIDS` names the stock grids exposed by
  ``repro.cli campaign``.

Grid expansion eagerly builds each point's constraint system and calls
:meth:`~repro.model.bottleneck.ConstraintSystem.validate`, so a degenerate
grid fails with the offending point's parameters instead of a solver trace
from deep inside a worker process.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - not POSIX: appends stay unserialised
    fcntl = None

from ..errors import ConfigurationError, ModelError
from ..measure.report import sanitize_metrics
from ..measure.validation import ValidationReport
from ..model.bottleneck import ConstraintSystem, build_constraints
from ..model.paths import PathSet
from ..netsim.dynamics import DynamicsSpec, LinkRateChange, LossBurst, Schedule
from ..netsim.topology import Topology
from ..topologies.generators import shared_bottleneck, wifi_cellular
from ..topologies.paper import PAPER_DEFAULT_PATH_INDEX, paper_scenario
from ..workload.runner import WorkloadConfig
from ..workload.scenarios import WORKLOAD_SCENARIOS
from .harness import ExperimentConfig
from .multiflow import MultiFlowConfig
from .scenarios import COMPETITION_SCENARIOS

#: Single-connection scenario axis values (name -> zero-argument builder).
SINGLE_SCENARIOS: Dict[str, Callable[[], Tuple[Topology, PathSet]]] = {
    "paper": paper_scenario,
    "wifi_cellular": wifi_cellular,
    "shared_bottleneck": shared_bottleneck,
}

#: Dynamics-schedule axis values (besides the loss axis, which composes in).
DYNAMICS_CHOICES = ("none", "bottleneck_step")

#: Path-manager axis values ("failover" is single-connection only).
PATH_MANAGER_CHOICES = ("default", "failover")


def _build_single_scenario(
    kind: str, rate_scale: float, delay_scale: float
) -> Tuple[Topology, PathSet]:
    """Module-level scenario factory so expanded configs stay picklable."""
    try:
        builder = SINGLE_SCENARIOS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign scenario {kind!r}; choose from {sorted(SINGLE_SCENARIOS)}"
        ) from None
    topology, paths = builder()
    topology.scale_links(rate=rate_scale, delay=delay_scale)
    return topology, paths


def point_key(params: Dict[str, object]) -> str:
    """Stable content hash of one grid point's parameters.

    The key addresses the point in the JSONL result store; any change to a
    parameter (including duration or sampling) yields a fresh key, so stale
    records can never shadow a different experiment.
    """
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class CampaignPoint:
    """One expanded grid point: parameters, content key and runnable config."""

    key: str
    params: Dict[str, object]
    config: Union[ExperimentConfig, MultiFlowConfig, WorkloadConfig]

    def label(self) -> str:
        """Compact human-readable identification of the point."""
        parts = [
            str(self.params.get("scenario", "?")),
            str(self.params.get("congestion_control", "?")),
            f"x{self.params.get('rate_scale', 1.0):g}",
        ]
        if self.params.get("delay_scale", 1.0) != 1.0:
            parts.append(f"d{self.params['delay_scale']:g}")
        if self.params.get("loss_rate", 0.0):
            parts.append(f"loss{self.params['loss_rate']:g}")
        if self.params.get("dynamics", "none") != "none":
            parts.append(str(self.params["dynamics"]))
        if self.params.get("path_manager", "default") != "default":
            parts.append(str(self.params["path_manager"]))
        if self.params.get("queue_kind") is not None:
            parts.append(str(self.params["queue_kind"]))
        if self.params.get("ecn") is not None:
            parts.append("ecn" if self.params["ecn"] else "noecn")
        if self.params.get("load_scale") is not None:
            parts.append(f"load{self.params['load_scale']:g}")
        if self.params.get("size_scale") is not None:
            parts.append(f"size{self.params['size_scale']:g}")
        return "/".join(parts)


@dataclass
class CampaignSpec:
    """A parameter grid over scenarios, controllers and link conditions.

    Every combination of the axis values becomes one simulation point; axes
    default to a single neutral value, so a spec only grows along the axes a
    study actually sweeps.  ``kind`` selects the runner: ``"single"`` points
    are :class:`ExperimentConfig` (one MPTCP connection, scenario names from
    :data:`SINGLE_SCENARIOS`), ``"multiflow"`` points are
    :class:`MultiFlowConfig` (scenario names from
    :data:`~repro.experiments.scenarios.COMPETITION_SCENARIOS`), and
    ``"workload"`` points are :class:`~repro.workload.runner.WorkloadConfig`
    (scenario names from :data:`~repro.workload.scenarios.WORKLOAD_SCENARIOS`,
    swept along the workload-specific ``load_scales`` / ``size_scales`` axes
    instead of the loss/dynamics/path-manager axes).
    """

    name: str
    kind: str = "single"
    scenarios: Sequence[str] = ("paper",)
    congestion_controls: Sequence[str] = ("cubic",)
    rate_scales: Sequence[float] = (1.0,)
    delay_scales: Sequence[float] = (1.0,)
    loss_rates: Sequence[float] = (0.0,)
    dynamics: Sequence[str] = ("none",)
    path_managers: Sequence[str] = ("default",)
    #: Signal-plane axes: queue discipline and ECN.  ``None`` leaves the
    #: scenario's own default in place (and stays out of the point key, so
    #: every pre-AQM campaign store remains addressable); a concrete value
    #: forces it on every link / every sender of the point.
    queue_kinds: Sequence[Optional[str]] = (None,)
    ecn_modes: Sequence[Optional[bool]] = (None,)
    #: Workload-kind axes: arrival-rate and transfer-size multipliers
    #: applied via :meth:`~repro.workload.spec.WorkloadSpec.scaled`.
    load_scales: Sequence[float] = (1.0,)
    size_scales: Sequence[float] = (1.0,)
    duration: float = 2.0
    sampling_interval: float = 0.1
    #: Simulation fidelity for every point: ``"packet"`` or ``"flowlevel"``.
    #: Flow-level points additionally run their packet-level twin and record
    #: the cross-fidelity agreement (``cross_fidelity`` in the store record).
    backend: str = "packet"
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("single", "multiflow", "workload"):
            raise ConfigurationError(
                f"unknown campaign kind {self.kind!r}; "
                "choose 'single', 'multiflow' or 'workload'"
            )
        from ..flowsim.backend import BACKENDS

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown campaign backend {self.backend!r}; choose from {BACKENDS}"
            )
        for axis in (
            "scenarios",
            "congestion_controls",
            "rate_scales",
            "delay_scales",
            "loss_rates",
            "dynamics",
            "path_managers",
            "queue_kinds",
            "ecn_modes",
            "load_scales",
            "size_scales",
        ):
            if not list(getattr(self, axis)):
                raise ConfigurationError(f"campaign axis {axis!r} must not be empty")
        from ..netsim.queues import QUEUE_KINDS

        for queue_kind in self.queue_kinds:
            if queue_kind is not None and queue_kind not in QUEUE_KINDS:
                raise ConfigurationError(
                    f"unknown queue discipline {queue_kind!r}; "
                    f"choose from {QUEUE_KINDS} (or None for the scenario default)"
                )
        from ..core.coupled import MULTIPATH_ALGORITHMS

        for congestion_control in self.congestion_controls:
            if congestion_control not in MULTIPATH_ALGORITHMS:
                raise ConfigurationError(
                    f"unknown congestion control {congestion_control!r}; "
                    f"choose from {sorted(MULTIPATH_ALGORITHMS)}"
                )
        if self.kind != "workload" and (
            tuple(self.load_scales) != (1.0,) or tuple(self.size_scales) != (1.0,)
        ):
            raise ConfigurationError(
                "load_scales / size_scales are workload-kind axes"
            )
        if self.kind == "workload":
            for axis, neutral in (
                ("loss_rates", (0.0,)),
                ("dynamics", ("none",)),
                ("path_managers", ("default",)),
                ("queue_kinds", (None,)),
                ("ecn_modes", (None,)),
            ):
                if tuple(getattr(self, axis)) != neutral:
                    raise ConfigurationError(
                        f"workload campaigns sweep load/size scales; "
                        f"axis {axis!r} must stay at its default"
                    )
        if self.kind == "single":
            registry = SINGLE_SCENARIOS
        elif self.kind == "multiflow":
            registry = COMPETITION_SCENARIOS
        else:
            registry = WORKLOAD_SCENARIOS
        for scenario in self.scenarios:
            if scenario not in registry:
                raise ConfigurationError(
                    f"unknown {self.kind} campaign scenario {scenario!r}; "
                    f"choose from {sorted(registry)}"
                )
        for name in self.dynamics:
            if name not in DYNAMICS_CHOICES:
                raise ConfigurationError(
                    f"unknown dynamics choice {name!r}; choose from {DYNAMICS_CHOICES}"
                )
        for name in self.path_managers:
            if name not in PATH_MANAGER_CHOICES:
                raise ConfigurationError(
                    f"unknown path manager {name!r}; choose from {PATH_MANAGER_CHOICES}"
                )
            if name == "failover" and self.kind == "multiflow":
                raise ConfigurationError(
                    "the 'failover' path manager applies to single-connection points only"
                )
            if name == "failover" and self.backend == "flowlevel":
                raise ConfigurationError(
                    "the flow-level backend has no subflow lifecycle; "
                    "'failover' grids need backend='packet'"
                )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return (
            len(list(self.scenarios))
            * len(list(self.congestion_controls))
            * len(list(self.rate_scales))
            * len(list(self.delay_scales))
            * len(list(self.loss_rates))
            * len(list(self.dynamics))
            * len(list(self.path_managers))
            * len(list(self.queue_kinds))
            * len(list(self.ecn_modes))
            * len(list(self.load_scales))
            * len(list(self.size_scales))
        )

    def expand(self) -> List[CampaignPoint]:
        """Expand the grid into validated, picklable simulation points.

        Each distinct (scenario, rate, delay) combination's constraint
        system is checked once via
        :meth:`~repro.model.bottleneck.ConstraintSystem.validate`; a
        degenerate combination raises :class:`ConfigurationError` naming the
        offending point's parameters.
        """
        points: List[CampaignPoint] = []
        scenario_cache: Dict[Tuple, Tuple[Topology, PathSet, ConstraintSystem]] = {}
        for scenario in self.scenarios:
            for rate_scale in self.rate_scales:
                for delay_scale in self.delay_scales:
                    cache_key = (scenario, float(rate_scale), float(delay_scale))
                    if cache_key not in scenario_cache:
                        scenario_cache[cache_key] = self._built_scenario(
                            scenario, rate_scale, delay_scale
                        )
                    topology, paths, system = scenario_cache[cache_key]
                    for congestion_control in self.congestion_controls:
                        for loss_rate in self.loss_rates:
                            for dynamics_name in self.dynamics:
                                for path_manager in self.path_managers:
                                    for queue_kind in self.queue_kinds:
                                        for ecn in self.ecn_modes:
                                            for load_scale in self.load_scales:
                                                for size_scale in self.size_scales:
                                                    points.append(
                                                        self._point(
                                                            scenario=scenario,
                                                            congestion_control=congestion_control,
                                                            rate_scale=float(rate_scale),
                                                            delay_scale=float(delay_scale),
                                                            loss_rate=float(loss_rate),
                                                            dynamics_name=dynamics_name,
                                                            path_manager=path_manager,
                                                            queue_kind=queue_kind,
                                                            ecn=ecn,
                                                            load_scale=float(load_scale),
                                                            size_scale=float(size_scale),
                                                            paths=paths,
                                                            system=system,
                                                        )
                                                    )
        return points

    # ------------------------------------------------------------------
    def _built_scenario(
        self, scenario: str, rate_scale: float, delay_scale: float
    ) -> Tuple[Topology, PathSet, ConstraintSystem]:
        if self.kind == "single":
            topology, paths = _build_single_scenario(scenario, rate_scale, delay_scale)
        elif self.kind == "workload":
            config = WORKLOAD_SCENARIOS[scenario](duration=self.duration)
            topology, paths = config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
        else:
            config = _competition_config(
                scenario, "lia", self.duration, self.sampling_interval
            )
            topology, paths = config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
        system = build_constraints(topology, paths)
        try:
            system.validate()
        except ModelError as error:
            params = {
                "campaign": self.name,
                "scenario": scenario,
                "rate_scale": rate_scale,
                "delay_scale": delay_scale,
            }
            raise ConfigurationError(
                f"degenerate campaign grid point {json.dumps(params, sort_keys=True)}: {error}"
            ) from error
        return topology, paths, system

    def _point(
        self,
        *,
        scenario: str,
        congestion_control: str,
        rate_scale: float,
        delay_scale: float,
        loss_rate: float,
        dynamics_name: str,
        path_manager: str,
        queue_kind: Optional[str] = None,
        ecn: Optional[bool] = None,
        load_scale: float = 1.0,
        size_scale: float = 1.0,
        paths: PathSet,
        system: ConstraintSystem,
    ) -> CampaignPoint:
        if self.kind == "workload":
            params = {
                "kind": self.kind,
                "scenario": scenario,
                "congestion_control": congestion_control,
                "rate_scale": rate_scale,
                "delay_scale": delay_scale,
                "duration": float(self.duration),
                "load_scale": load_scale,
                "size_scale": size_scale,
            }
            if self.backend != "packet":
                params["backend"] = self.backend
            workload_config = WORKLOAD_SCENARIOS[scenario](
                duration=self.duration, backend=self.backend
            )
            topology, base_paths = workload_config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
            workload_config = workload_config.with_overrides(
                name=f"{self.name}-{scenario}",
                scenario=(topology, base_paths),
                spec=workload_config.spec.scaled(load=load_scale, size=size_scale),
                congestion_control=congestion_control,
            )
            return CampaignPoint(
                key=point_key(params), params=params, config=workload_config
            )
        params = {
            "kind": self.kind,
            "scenario": scenario,
            "congestion_control": congestion_control,
            "rate_scale": rate_scale,
            "delay_scale": delay_scale,
            "loss_rate": loss_rate,
            "dynamics": dynamics_name,
            "path_manager": path_manager,
            "duration": float(self.duration),
            "sampling_interval": float(self.sampling_interval),
        }
        if self.backend != "packet":
            # Only non-default backends enter the content hash, so every key
            # recorded by pre-flowlevel campaigns stays addressable.
            params["backend"] = self.backend
        # Same key-stability rule for the signal-plane axes: ``None`` (use
        # the scenario's own discipline / ECN setting) stays out of the hash.
        if queue_kind is not None:
            params["queue_kind"] = queue_kind
        if ecn is not None:
            params["ecn"] = bool(ecn)
        signal_overrides: Dict[str, object] = {}
        if queue_kind is not None:
            signal_overrides["queue_kind"] = queue_kind
        if ecn is not None:
            signal_overrides["ecn"] = bool(ecn)
        spec = _point_dynamics(dynamics_name, loss_rate, system, self.duration)
        if self.kind == "single":
            manager = None
            if path_manager == "failover":
                from ..core.path_manager import FailoverPathManager

                manager = FailoverPathManager(list(paths))
            config: Union[ExperimentConfig, MultiFlowConfig] = ExperimentConfig(
                name=f"{self.name}-{scenario}-{congestion_control}",
                scenario=partial(
                    _build_single_scenario, scenario, rate_scale, delay_scale
                ),
                congestion_control=congestion_control,
                duration=self.duration,
                sampling_interval=self.sampling_interval,
                default_path_index=(
                    PAPER_DEFAULT_PATH_INDEX if scenario == "paper" else 0
                ),
                path_manager=manager,
                dynamics=spec,
                backend=self.backend,
                **signal_overrides,
            )
        else:
            config = _competition_config(
                scenario, congestion_control, self.duration, self.sampling_interval
            )
            topology, base_paths = config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
            config = config.with_overrides(
                name=f"{self.name}-{scenario}-{congestion_control}",
                scenario=(topology, base_paths),
                dynamics=spec,
                backend=self.backend,
                **signal_overrides,
            )
        return CampaignPoint(key=point_key(params), params=params, config=config)


def _competition_config(
    scenario: str, congestion_control: str, duration: float, sampling_interval: float
) -> MultiFlowConfig:
    """Instantiate a named competition scenario with one controller everywhere."""
    builder = COMPETITION_SCENARIOS[scenario]
    kwargs: Dict[str, object] = {
        "duration": duration,
        "sampling_interval": sampling_interval,
    }
    if scenario in ("two_mptcp_competition", "ecn_mptcp_fairness"):
        kwargs["congestion_control_a"] = congestion_control
        kwargs["congestion_control_b"] = congestion_control
    else:
        kwargs["congestion_control"] = congestion_control
    return builder(**kwargs)


def _most_shared_link(system: ConstraintSystem) -> Tuple[Tuple[str, str], float]:
    """The constraint link crossed by the most paths (ties: first in order)."""
    constraints = system.shared_constraints() or system.constraints
    best = max(constraints, key=lambda c: len(c.path_indices))
    return best.link, best.capacity


def _point_dynamics(
    dynamics_name: str,
    loss_rate: float,
    system: ConstraintSystem,
    duration: float,
) -> Optional[DynamicsSpec]:
    """Compose the point's dynamics schedule (step events and/or loss)."""
    schedule = Schedule()
    descriptions: List[str] = []
    link, capacity = _most_shared_link(system)
    if dynamics_name == "bottleneck_step":
        down_at, up_at = 0.4 * duration, 0.7 * duration
        schedule.at(down_at, LinkRateChange(link[0], link[1], capacity * 0.5))
        schedule.at(up_at, LinkRateChange(link[0], link[1], capacity))
        descriptions.append(
            f"{link[0]}-{link[1]} halves at t={down_at:g}s, restores at t={up_at:g}s"
        )
    if loss_rate > 0.0:
        schedule.at(
            0.0,
            LossBurst(link[0], link[1], duration=duration, loss_rate=loss_rate, seed=1),
        )
        descriptions.append(f"{loss_rate:g} loss on {link[0]}-{link[1]}")
    if not schedule:
        return None
    return DynamicsSpec(schedule=schedule, description="; ".join(descriptions))


# ------------------------------------------------------------------ execution
def _execute_point(point: CampaignPoint) -> dict:
    """Run one grid point and post-process it into a JSON-safe store record.

    Module-level so the driver's worker pool can ship it to worker
    processes; failures become ``status: "error"`` records (the campaign
    keeps going, and error points re-run on the next invocation).  Every
    config kind speaks one protocol: ``config.run()`` gives a result with
    ``summary()``, ``validate()`` (``None`` where no model applies) and
    ``compare(packet_twin_result)``.
    """
    record: Dict[str, object] = {"key": point.key, "params": dict(point.params)}
    try:
        result = point.config.run()
        validation = result.validate()
        record["status"] = "ok"
        record["summary"] = result.summary()
        if validation is not None:
            record["validation"] = validation.as_dict()
        if point.config.backend == "flowlevel":
            # A flow-level point also runs its packet-level twin so the
            # record carries the fidelity error, not just the model error.
            twin = point.config.with_overrides(backend="packet")
            comparison = result.compare(twin.run())
            record[comparison.record_field] = comparison.as_dict()
    except Exception as error:  # noqa: BLE001 - one bad point must not kill the grid
        record["status"] = "error"
        record["error"] = f"{type(error).__name__}: {error}"
    return sanitize_metrics(record)  # type: ignore[return-value]


#: ``record_type`` marker of lease records (see :mod:`repro.experiments.fabric`).
#: Result records carry no ``record_type`` field, so every record written by a
#: pre-fabric campaign loads exactly as before.
LEASE_RECORD_TYPE = "lease"

#: Statuses that end a point's lifecycle: it will never run again.
TERMINAL_STATUSES = ("ok", "quarantined")

#: Statuses that re-run on a later invocation (until ``max_attempts``).
RETRYABLE_STATUSES = ("error", "timeout")


def _attempts_of(record: dict) -> int:
    """Failed-attempt count recorded on a point's latest store record.

    Pre-fabric error records carry no counter; they represent exactly one
    failed attempt.
    """
    if record.get("status") not in RETRYABLE_STATUSES:
        return int(record.get("attempts", 0))
    return int(record.get("attempts", 1))


def _finalize_record(
    record: dict,
    attempts: Dict[str, int],
    max_attempts: int,
    *,
    worker: Optional[str] = None,
) -> dict:
    """Stamp retry bookkeeping onto a freshly produced point record.

    Successful records pass through untouched (a fault-free store stays
    byte-identical to the pre-fabric format); failures gain an ``attempts``
    counter (and the executing ``worker``, when known) and flip to the
    terminal ``"quarantined"`` status once ``max_attempts`` is exhausted.
    """
    if record.get("status") == "ok":
        return record
    key = record.get("key")
    count = attempts.get(key, 0) + 1
    attempts[key] = count
    record["attempts"] = count
    if worker:
        record["worker"] = worker
    if record.get("status") in RETRYABLE_STATUSES and count >= max_attempts:
        record["status"] = "quarantined"
    return record


def _quarantined_from(record: dict) -> dict:
    """A quarantined copy of an attempts-exhausted retryable record."""
    quarantined = dict(record)
    quarantined["status"] = "quarantined"
    quarantined["attempts"] = _attempts_of(record)
    return quarantined


class ResultStore:
    """Append-only JSONL store of campaign point records, keyed by content hash.

    Each line is one self-describing record (``key``, ``params``, ``status``
    and, for successful points, the run summary plus validation).  Loading
    tolerates a torn final line (crash mid-append) and keeps the *last*
    record per key -- except that a completed (``"ok"``) record is terminal
    and is never shadowed by a later failure report (two workers may race on
    the same point; the one that finished wins).  Lease records appended by
    the fabric layer (``record_type: "lease"``) are bookkeeping, not results,
    and are skipped.

    Appends serialise each record as a **single** ``os.write`` of one
    newline-terminated line on an ``O_APPEND`` descriptor, so concurrent
    writers (threads, processes, fabric workers sharing one store) never
    interleave partial lines.  If a previous writer crashed mid-append and
    left a torn tail without a newline, the next append starts on a fresh
    line instead of fusing with (and thereby corrupting) the fragment.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = pathlib.Path(path)

    def iter_records(self) -> List[dict]:
        """Every parseable record in file (i.e. write) order.

        Unparseable lines -- a torn tail from a crashed writer -- are
        skipped, as are blank lines.
        """
        records: List[dict] = []
        if not self.path.exists():
            return records
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail write from a crashed run
                if isinstance(record, dict):
                    records.append(record)
        return records

    def load(self) -> Dict[str, dict]:
        records: Dict[str, dict] = {}
        for record in self.iter_records():
            if record.get("record_type") == LEASE_RECORD_TYPE:
                continue
            key = record.get("key")
            if not isinstance(key, str):
                continue
            previous = records.get(key)
            if (
                previous is not None
                and previous.get("status") == "ok"
                and record.get("status") != "ok"
            ):
                continue  # completed results are terminal: last *ok* writer wins
            records[key] = record
        return records

    def load_leases(self) -> Dict[str, dict]:
        """The last lease record per key, in no particular liveness state."""
        leases: Dict[str, dict] = {}
        for record in self.iter_records():
            if record.get("record_type") != LEASE_RECORD_TYPE:
                continue
            key = record.get("key")
            if isinstance(key, str):
                leases[key] = record
        return leases

    def append(self, record: dict) -> None:
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            sanitize_metrics(record), sort_keys=True, allow_nan=False
        )
        data = (line + "\n").encode("utf-8")
        fd = os.open(str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                # One appender at a time, check and write together: a tail
                # without its newline is then a *crashed* writer's fragment,
                # never a live appender's half-finished write (which the
                # healing newline below would cut in two).  Released by close.
                fcntl.flock(fd, fcntl.LOCK_EX)
            if self._tail_is_torn():
                # Heal a crashed writer's partial line: without this, the next
                # record would fuse onto the fragment and *both* would be lost.
                data = b"\n" + data
            os.write(fd, data)
        finally:
            os.close(fd)

    def _tail_is_torn(self) -> bool:
        """True when the file is non-empty and does not end with a newline."""
        try:
            size = self.path.stat().st_size
        except OSError:
            return False
        if size == 0:
            return False
        with self.path.open("rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"

    def __len__(self) -> int:
        return len(self.load())


@dataclass
class CampaignResult:
    """Outcome of one campaign invocation (fresh runs plus resumed records)."""

    spec: CampaignSpec
    store_path: pathlib.Path
    points: List[CampaignPoint]
    records: List[dict]
    executed: int
    skipped: int
    #: Points left non-terminal for a later invocation: another live worker
    #: holds their lease, or they failed and the rounds ran out (a plain
    #: ``run_campaign`` makes one round).
    deferred: int = 0

    @property
    def ok_records(self) -> List[dict]:
        return [r for r in self.records if r.get("status") == "ok"]

    @property
    def error_records(self) -> List[dict]:
        """Retryable failures (``error`` and ``timeout``): re-run next time."""
        return [r for r in self.records if r.get("status") in RETRYABLE_STATUSES]

    @property
    def quarantined_records(self) -> List[dict]:
        """Points that exhausted ``max_attempts``: terminal, never re-run."""
        return [r for r in self.records if r.get("status") == "quarantined"]

    def validation_report(self) -> ValidationReport:
        return ValidationReport.from_validations(
            [r.get("validation") for r in self.ok_records if r.get("validation")]
        )

    def cross_fidelity_records(self) -> List[dict]:
        """The per-point flow-level-vs-packet-level comparisons (if any)."""
        return [
            r["cross_fidelity"] for r in self.ok_records if r.get("cross_fidelity")
        ]

    def cross_fidelity_report(self) -> Optional[dict]:
        """Aggregate backend-agreement stats across the grid's points."""
        comparisons = self.cross_fidelity_records()
        if not comparisons:
            return None
        errors = [
            c["mean_rel_error"]
            for c in comparisons
            if c.get("mean_rel_error") is not None
        ]
        ranks = [
            c["rank_agreement"]
            for c in comparisons
            if c.get("rank_agreement") is not None
        ]
        return {
            "points": len(comparisons),
            "mean_rel_error": (
                round(sum(errors) / len(errors), 6) if errors else None
            ),
            "max_rel_error": round(max(errors), 6) if errors else None,
            "mean_rank_agreement": (
                round(sum(ranks) / len(ranks), 4) if ranks else None
            ),
        }

    def summary(self) -> dict:
        summary = {
            "campaign": self.spec.name,
            "kind": self.spec.kind,
            "backend": self.spec.backend,
            "points": len(self.points),
            "executed": self.executed,
            "skipped": self.skipped,
            "errors": len(self.error_records),
            "quarantined": len(self.quarantined_records),
            "store": str(self.store_path),
            "report": self.validation_report().as_dict(),
        }
        if self.deferred:
            summary["deferred"] = self.deferred
        cross = self.cross_fidelity_report()
        if cross is not None:
            summary["cross_fidelity"] = cross
        return summary


def _chunks(items: Sequence, size: int) -> List[List]:
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _classify_existing(
    points: Sequence[CampaignPoint],
    existing: Dict[str, dict],
    store: ResultStore,
    max_attempts: int,
) -> Tuple[Dict[str, dict], Dict[str, int]]:
    """Split a store's prior records into terminal results and retry counters.

    Returns ``(done, attempts)``: ``done`` maps keys that must not run again
    (completed or quarantined) to their record, ``attempts`` carries the
    failed-attempt count of every retryable point.  A retryable record whose
    counter already meets ``max_attempts`` (e.g. written by an invocation
    with a higher ceiling) is quarantined on the spot -- the quarantined
    record is appended so the store, not just this process, reflects the
    terminal state.
    """
    done: Dict[str, dict] = {}
    attempts: Dict[str, int] = {}
    for point in points:
        record = existing.get(point.key)
        if record is None:
            continue
        status = record.get("status")
        if status in TERMINAL_STATUSES:
            done[point.key] = record
        elif status in RETRYABLE_STATUSES:
            count = _attempts_of(record)
            attempts[point.key] = count
            if count >= max_attempts:
                quarantined = _quarantined_from(record)
                store.append(quarantined)
                done[point.key] = quarantined
    return done, attempts


def run_campaign(
    spec: CampaignSpec,
    store: Union[str, pathlib.Path, ResultStore],
    *,
    chunk_size: int = 4,
    max_workers: Optional[int] = None,
    resume: bool = True,
    max_attempts: int = 3,
    progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignResult:
    """Execute a campaign grid once, resuming from the store's completed points.

    This is :func:`repro.experiments.fabric.drive_campaign` without a
    ``FabricConfig`` -- no leases, watchdog, in-invocation retry or worker
    stamp; see there for chunking, persistence and the attempt ceiling.
    """
    from .fabric import drive_campaign  # the driver module imports this one

    return drive_campaign(
        spec, store, chunk_size=chunk_size, max_workers=max_workers,
        resume=resume, max_attempts=max_attempts, progress=progress,
    )


# ------------------------------------------------------------------ stock grids
def paper_cc_rate_campaign(
    *,
    duration: float = 1.5,
    congestion_controls: Sequence[str] = ("cubic", "lia", "olia"),
    rate_scales: Sequence[float] = (0.5, 1.0, 2.0),
    backend: str = "packet",
) -> CampaignSpec:
    """Paper-topology controller x link-rate sweep with model validation.

    Does the LP optimum keep predicting the measured aggregate when every
    link is half / double the paper's speed, for each controller family?
    """
    return CampaignSpec(
        name="paper_cc_rate",
        kind="single",
        scenarios=("paper",),
        congestion_controls=tuple(congestion_controls),
        rate_scales=tuple(rate_scales),
        duration=duration,
        backend=backend,
        description="paper topology: congestion control x uniform link-rate scale",
    )


def multiflow_fairness_campaign(
    *,
    duration: float = 2.0,
    congestion_controls: Sequence[str] = ("lia", "olia"),
    rate_scales: Sequence[float] = (0.6, 1.0),
    backend: str = "packet",
) -> CampaignSpec:
    """Multi-flow fairness grid: competition scenarios x controller x rate."""
    return CampaignSpec(
        name="multiflow_fairness",
        kind="multiflow",
        scenarios=("mptcp_vs_tcp_shared_bottleneck", "two_mptcp_competition"),
        congestion_controls=tuple(congestion_controls),
        rate_scales=tuple(rate_scales),
        duration=duration,
        backend=backend,
        description="shared-bottleneck competition: scenario x controller x rate scale",
    )


def workload_fct_campaign(
    *,
    duration: float = 10.0,
    load_scales: Sequence[float] = (0.5, 1.0, 2.0),
    size_scales: Sequence[float] = (1.0,),
    backend: str = "flowlevel",
) -> CampaignSpec:
    """Workload FCT grid: named workloads x offered-load and size multipliers.

    How do flow-completion-time percentiles move as the arrival rate (and
    optionally the transfer sizes) scale around each scenario's nominal
    operating point?  Flow-level points record cross-fidelity FCT agreement
    against their packet-level twin.
    """
    return CampaignSpec(
        name="workload_fct",
        kind="workload",
        scenarios=("conferencing_load", "web_page_load"),
        congestion_controls=("cubic",),
        load_scales=tuple(load_scales),
        size_scales=tuple(size_scales),
        duration=duration,
        backend=backend,
        description="named workloads: FCT percentiles vs load and size scale",
    )


def ecn_aqm_fairness_campaign(
    *,
    duration: float = 2.0,
    congestion_controls: Sequence[str] = ("lia", "olia", "sfc", "telehaptic"),
    queue_kinds: Sequence[str] = ("droptail", "red", "codel"),
    ecn_modes: Sequence[bool] = (True,),
    backend: str = "packet",
) -> CampaignSpec:
    """Signal-plane grid: queue discipline x controller on the ECN scenario.

    Sweeps every queue discipline against the coupled and signal-driven
    controller families on the two-MPTCP ECN fairness scenario; each point's
    record carries the signal-plane block (marking rate, early/full drop
    split, mean queue delay) from its run summary.  Run with
    ``backend="flowlevel"`` to sweep the identical grid at flow-level
    fidelity -- the keys differ only in the ``backend`` param, and each
    flow-level point records cross-fidelity agreement against its
    packet-level twin.
    """
    return CampaignSpec(
        name="ecn_aqm_fairness",
        kind="multiflow",
        scenarios=("ecn_mptcp_fairness",),
        congestion_controls=tuple(congestion_controls),
        queue_kinds=tuple(queue_kinds),
        ecn_modes=tuple(ecn_modes),
        duration=duration,
        backend=backend,
        description=(
            "ECN fairness scenario: queue discipline x controller "
            "(incl. sfc/telehaptic) with signal-plane metrics per point"
        ),
    )


#: Named campaign grids exposed through the CLI (``campaign`` command).
CAMPAIGN_GRIDS: Dict[str, Callable[..., CampaignSpec]] = {
    "paper_cc_rate": paper_cc_rate_campaign,
    "multiflow_fairness": multiflow_fairness_campaign,
    "workload_fct": workload_fct_campaign,
    "ecn_aqm_fairness": ecn_aqm_fairness_campaign,
}
