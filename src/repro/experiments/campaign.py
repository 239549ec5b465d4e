"""Campaign subsystem: resumable, sharded parameter sweeps with validation.

One-off runs answer one question about one configuration; the paper's claims
(and the ROADMAP's many-scenario ambitions) need *grids*: every congestion
control on every topology across link rates, delays, loss and dynamics.  This
module turns those grids into restartable batch jobs:

* :class:`CampaignSpec` declares a grid (scenario x congestion control x
  link rate/delay scale x loss rate x dynamics schedule x path manager x
  ..., each axis one row of ``_AXES``) and
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
import itertools
import json
import math
import os
import pathlib
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - not POSIX: appends stay unserialised
    fcntl = None

from ..errors import ConfigurationError, ModelError
from ..measure.report import sanitize_metrics
from ..measure.validation import ValidationReport, mean_or_none, round_or_none
from ..model.bottleneck import ConstraintSystem, build_constraints
from ..model.paths import PathSet
from ..netsim.dynamics import DynamicsSpec, LinkRateChange, LossBurst, Schedule
from ..netsim.queues import QUEUE_KINDS
from ..netsim.topology import Topology
from ..topologies.generators import shared_bottleneck, wifi_cellular
from ..topologies.paper import PAPER_DEFAULT_PATH_INDEX, paper_scenario
from ..units import BACKENDS
from .harness import ExperimentConfig

if TYPE_CHECKING:  # pragma: no cover - a kind loads its own runner, see _scenario_registry
    from ..workload.runner import WorkloadConfig
    from .multiflow import MultiFlowConfig

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

_EVERY_KIND = ("single", "multiflow", "workload")
_CONNECTION_KINDS = ("single", "multiflow")


def _scenario_registry(kind: str) -> Dict[str, Callable]:
    """The registry a campaign kind's scenario names come from.

    Imported where the kind is chosen: a ``single`` grid (``paper_cc_rate``)
    never loads the multi-flow or workload runners, nor ``flowsim`` under
    them -- 0.034 s of every cold ``repro campaign`` call.
    """
    if kind == "single":
        return SINGLE_SCENARIOS
    if kind == "multiflow":
        from .scenarios import COMPETITION_SCENARIOS

        return COMPETITION_SCENARIOS
    from ..workload.scenarios import WORKLOAD_SCENARIOS

    return WORKLOAD_SCENARIOS


class _Axis(NamedTuple):
    """One sweepable dimension of a :class:`CampaignSpec`: a row of ``_AXES``."""

    #: The spec attribute holding the swept values.
    field: str
    #: The value's name in ``CampaignPoint.params``, hence in the point key.
    param: str
    #: What an unswept axis holds.  ``None`` means "the scenario's own
    #: setting" and is the neutral value a *new* axis must take: ``None``
    #: stays out of the key, so stores written before the axis stay addressable.
    neutral: object
    #: Applied to every swept value other than ``None``.
    coerce: Callable
    #: Campaign kinds that may sweep the axis and carry it in their keys.
    kinds: Tuple[str, ...]
    #: The value's part of ``CampaignPoint.label()``.
    label: Callable[[object], str]
    #: Kind -> the values the axis admits (``None``: anything ``coerce`` takes).
    choices: Optional[Callable[[str], Collection]] = None
    #: What the "unknown ..." error calls a value (may use ``{kind}``).
    noun: str = ""
    #: Labelled even at the neutral value.
    always_labelled: bool = False
    #: Shapes the built scenario: these (scenario, rate, delay) vary slowest
    #: in ``expand`` and are built and validated once per combination.
    topology: bool = False


#: Every axis, in label order.  Validation, ``size``, ``expand``, the point
#: params (an axis enters the key iff it applies to the kind and its value is
#: not ``None``) and the labels are all read off this table.
_AXES: Tuple[_Axis, ...] = (
    _Axis(
        "scenarios", "scenario", "paper", str, _EVERY_KIND, str,
        choices=_scenario_registry, noun="{kind} campaign scenario",
        always_labelled=True, topology=True,
    ),
    _Axis(
        "congestion_controls", "congestion_control", "cubic", str, _EVERY_KIND, str,
        choices=lambda kind: import_module("..core.coupled", __package__).MULTIPATH_ALGORITHMS,
        noun="congestion control",
        always_labelled=True,
    ),
    _Axis(
        "rate_scales", "rate_scale", 1.0, float, _EVERY_KIND, "x{:g}".format,
        always_labelled=True, topology=True,
    ),
    _Axis("delay_scales", "delay_scale", 1.0, float, _EVERY_KIND, "d{:g}".format, topology=True),
    _Axis("loss_rates", "loss_rate", 0.0, float, _CONNECTION_KINDS, "loss{:g}".format),
    _Axis(
        "dynamics", "dynamics", "none", str, _CONNECTION_KINDS, str,
        choices=lambda kind: DYNAMICS_CHOICES, noun="dynamics choice",
    ),
    _Axis(
        "path_managers", "path_manager", "default", str, _CONNECTION_KINDS, str,
        choices=lambda kind: PATH_MANAGER_CHOICES, noun="path manager",
    ),
    _Axis(
        "queue_kinds", "queue_kind", None, str, _CONNECTION_KINDS, str,
        choices=lambda kind: QUEUE_KINDS, noun="queue discipline",
    ),
    _Axis(
        "ecn_modes", "ecn", None, bool, _CONNECTION_KINDS,
        lambda on: "ecn" if on else "noecn",
    ),
    _Axis(
        "load_scales", "load_scale", 1.0, float, ("workload",), "load{:g}".format,
        always_labelled=True,
    ),
    _Axis(
        "size_scales", "size_scale", 1.0, float, ("workload",), "size{:g}".format,
        always_labelled=True,
    ),
)


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
        return "/".join(
            axis.label(self.params[axis.param])
            for axis in _AXES
            if axis.param in self.params
            and (axis.always_labelled or self.params[axis.param] != axis.neutral)
        )


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
        if self.kind not in _EVERY_KIND:
            raise ConfigurationError(
                f"unknown campaign kind {self.kind!r}; "
                "choose 'single', 'multiflow' or 'workload'"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown campaign backend {self.backend!r}; choose from {BACKENDS}"
            )
        if not 0.0 < self.duration < math.inf:
            # Refused here, not point by point: every point would fail alike.
            raise ConfigurationError(
                f"campaign duration must be positive and finite, got {self.duration!r}"
            )
        for axis in _AXES:
            values = list(getattr(self, axis.field))
            if not values:
                raise ConfigurationError(f"campaign axis {axis.field!r} must not be empty")
            if self.kind not in axis.kinds and values != [axis.neutral]:
                raise ConfigurationError(
                    f"campaign axis {axis.field!r} is swept by {' / '.join(axis.kinds)} "
                    f"campaigns; in a {self.kind} campaign it must stay at its default"
                )
            if axis.choices is None:
                continue
            choices = axis.choices(self.kind)
            for value in values:
                if value is None and axis.neutral is None:
                    continue  # the scenario's own setting
                if value not in choices:
                    raise ConfigurationError(
                        f"unknown {axis.noun.format(kind=self.kind)} {value!r}; "
                        f"choose from {sorted(choices)}"
                    )
        if "failover" in self.path_managers:
            if self.kind == "multiflow":
                raise ConfigurationError(
                    "the 'failover' path manager applies to single-connection points only"
                )
            if self.backend == "flowlevel":
                raise ConfigurationError(
                    "the flow-level backend has no subflow lifecycle; "
                    "'failover' grids need backend='packet'"
                )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return math.prod(len(list(getattr(self, axis.field))) for axis in _AXES)

    def expand(self) -> List[CampaignPoint]:
        """Expand the grid into validated, picklable simulation points.

        Each distinct (scenario, rate, delay) combination's constraint
        system is checked once via
        :meth:`~repro.model.bottleneck.ConstraintSystem.validate`; a
        degenerate combination raises :class:`ConfigurationError` naming the
        offending point's parameters.
        """
        # Stable sort: the topology axes vary slowest, the rest keep table order.
        axes = sorted(_AXES, key=lambda axis: not axis.topology)
        points: List[CampaignPoint] = []
        built: Dict[Tuple, Tuple[PathSet, ConstraintSystem]] = {}
        for combination in itertools.product(*(getattr(self, axis.field) for axis in axes)):
            values = {
                axis.param: None if value is None else axis.coerce(value)
                for axis, value in zip(axes, combination)
            }
            shape = tuple(values[axis.param] for axis in axes if axis.topology)
            if shape not in built:
                built[shape] = self._built_scenario(*shape)
            points.append(self._point(values, *built[shape]))
        return points

    # ------------------------------------------------------------------
    def _built_scenario(
        self, scenario: str, rate_scale: float, delay_scale: float
    ) -> Tuple[PathSet, ConstraintSystem]:
        if self.kind == "single":
            topology, paths = _build_single_scenario(scenario, rate_scale, delay_scale)
        else:
            if self.kind == "workload":
                config = _scenario_registry("workload")[scenario](duration=self.duration)
            else:
                from .scenarios import competition_config

                config = competition_config(
                    scenario,
                    "lia",
                    duration=self.duration,
                    sampling_interval=self.sampling_interval,
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
        return paths, system

    def _point(
        self, values: Dict[str, object], paths: PathSet, system: ConstraintSystem
    ) -> CampaignPoint:
        """The grid point at one combination of axis values (by param name)."""
        # The key rule, once: an axis enters the content hash iff it applies
        # to this kind and holds a concrete value.  ``None`` (the scenario's
        # own discipline / ECN setting) stays out, and so does the default
        # backend: every key recorded before those existed stays addressable.
        params: Dict[str, object] = {"kind": self.kind}
        params.update(
            (axis.param, values[axis.param])
            for axis in _AXES
            if self.kind in axis.kinds and values[axis.param] is not None
        )
        params["duration"] = float(self.duration)
        if self.backend != "packet":
            params["backend"] = self.backend
        scenario = values["scenario"]
        congestion_control = values["congestion_control"]
        rate_scale, delay_scale = values["rate_scale"], values["delay_scale"]
        if self.kind == "workload":
            config = _scenario_registry("workload")[scenario](
                duration=self.duration, backend=self.backend
            )
            topology, base_paths = config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
            config = config.with_overrides(
                name=f"{self.name}-{scenario}",
                scenario=(topology, base_paths),
                spec=config.spec.scaled(
                    load=values["load_scale"], size=values["size_scale"]
                ),
                congestion_control=congestion_control,
            )
            return CampaignPoint(key=point_key(params), params=params, config=config)
        params["sampling_interval"] = float(self.sampling_interval)
        overrides: Dict[str, object] = {
            "name": f"{self.name}-{scenario}-{congestion_control}",
            "dynamics": _point_dynamics(
                values["dynamics"], values["loss_rate"], system, self.duration
            ),
            "backend": self.backend,
        }
        overrides.update(
            (name, values[name]) for name in ("queue_kind", "ecn") if values[name] is not None
        )
        if self.kind == "single":
            path_manager = None
            if values["path_manager"] == "failover":
                from ..core.path_manager import FailoverPathManager

                path_manager = FailoverPathManager(list(paths))
            config = ExperimentConfig(
                scenario=partial(_build_single_scenario, scenario, rate_scale, delay_scale),
                congestion_control=congestion_control,
                duration=self.duration,
                sampling_interval=self.sampling_interval,
                default_path_index=(
                    PAPER_DEFAULT_PATH_INDEX if scenario == "paper" else 0
                ),
                path_manager=path_manager,
                **overrides,
            )
        else:
            from .scenarios import competition_config

            config = competition_config(
                scenario,
                congestion_control,
                duration=self.duration,
                sampling_interval=self.sampling_interval,
            )
            topology, base_paths = config.build_scenario()
            topology.scale_links(rate=rate_scale, delay=delay_scale)
            config = config.with_overrides(scenario=(topology, base_paths), **overrides)
        return CampaignPoint(key=point_key(params), params=params, config=config)


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
            "mean_rel_error": round_or_none(mean_or_none(errors), 6),
            "max_rel_error": round_or_none(max(errors, default=None), 6),
            "mean_rank_agreement": round_or_none(mean_or_none(ranks), 4),
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
