"""Model-vs-simulation cross-validation.

The paper's central claim is that the analytical machinery -- the Fig. 1c
constraint system, the max-throughput LP and the fluid congestion-control
dynamics -- *predicts* what the packet-level simulator measures.  This module
systematically checks that claim for one run and aggregates the check across
a parameter grid:

* :func:`validate_against_models` compares measured steady-state per-path
  rates against four reference allocations on the same constraint system
  (LP optimum, max-min fair, proportionally fair, fluid equilibrium of the
  matching congestion-control family), reporting the relative total-rate
  error and the rank agreement of the per-path rates per model;
* :func:`validate_experiment` / :func:`validate_multiflow` adapt the two run
  result types to that comparison;
* :class:`ValidationReport` aggregates per-point validations into
  grid-level error distributions (mean / median / p90 / max relative error
  and mean rank agreement per model), the summary a campaign prints.

Everything here is NaN-safe by construction: a non-finite measurement or a
zero prediction yields ``None`` metrics, never a NaN that would leak into
JSON output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..model.bottleneck import ConstraintSystem, build_constraints

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.harness import ExperimentResult
    from ..experiments.multiflow import MultiFlowResult
    from ..model.lp import LpResult
    from ..workload.runner import WorkloadResult
    from .fct import FctReport

#: The reference allocations a measurement is held against, in report order.
VALIDATION_MODELS = ("lp", "max_min", "proportional_fair", "fluid")
#: Relative gap under which two backend rates count as tied: packet rates
#: carry sampling noise that a strict comparison would misread as order.
CROSS_FIDELITY_RANK_TOL = 0.02


def round_or_none(value: Optional[float], digits: int) -> Optional[float]:
    """``round(value, digits)``, passing None through."""
    return None if value is None else round(value, digits)


def mean_or_none(values: Sequence[float]) -> Optional[float]:
    """Plain mean of ``values`` (None when there are none)."""
    return sum(values) / len(values) if values else None


def relative_error(measured: float, predicted: float) -> Optional[float]:
    """``|measured - predicted| / predicted``, or None when undefined.

    Undefined means a non-finite operand or a non-positive prediction (a
    zero-rate prediction carries no scale to be relative to).
    """
    if not (math.isfinite(measured) and math.isfinite(predicted)):
        return None
    if predicted <= 0.0:
        return None
    return abs(measured - predicted) / predicted


def rank_agreement(
    measured: Sequence[float], predicted: Sequence[float], *, tol: float = 1e-6
) -> Optional[float]:
    """Fraction of path pairs ordered the same way by measurement and model.

    A Kendall-style concordance in [0, 1]: for every pair of paths, the
    comparison (greater / smaller / tied within ``tol`` relative tolerance)
    of the measured rates is held against the predicted rates.  1.0 means
    the model predicts the complete per-path ordering; ``None`` when there
    are fewer than two paths or a non-finite rate.
    """
    if len(measured) != len(predicted):
        raise ModelError("measured and predicted rate vectors differ in length")
    n = len(measured)
    if n < 2:
        return None
    if not all(math.isfinite(v) for v in measured):
        return None
    if not all(math.isfinite(v) for v in predicted):
        return None

    def _cmp(a: float, b: float) -> int:
        scale = max(abs(a), abs(b), 1.0)
        if abs(a - b) <= tol * scale:
            return 0
        return 1 if a > b else -1

    agree = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            if _cmp(measured[i], measured[j]) == _cmp(predicted[i], predicted[j]):
                agree += 1
    return agree / pairs


@dataclass
class ModelPrediction:
    """One reference allocation held against a measurement."""

    model: str
    rates: List[float]
    total: float
    measured_total: float
    rel_error: Optional[float]
    rank_agreement: Optional[float]

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "rates": [round(r, 4) for r in self.rates],
            "total": round(self.total, 4),
            "measured_total": round(self.measured_total, 4),
            "rel_error": round_or_none(self.rel_error, 6),
            "rank_agreement": round_or_none(self.rank_agreement, 4),
        }


@dataclass
class PointValidation:
    """Model-vs-simulation comparison of one run (one grid point)."""

    measured_rates: List[float]
    measured_total: float
    algorithm: str
    predictions: Dict[str, ModelPrediction] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "measured_rates": [round(r, 4) for r in self.measured_rates],
            "measured_total": round(self.measured_total, 4),
            "algorithm": self.algorithm,
            "predictions": {
                name: prediction.as_dict()
                for name, prediction in self.predictions.items()
            },
        }


def _finite(values: Iterable[float]) -> List[float]:
    return [float(v) for v in values if v is not None and math.isfinite(float(v))]


def validate_against_models(
    system: ConstraintSystem,
    measured_rates: Sequence[float],
    *,
    algorithm: str = "cubic",
    rtts: Optional[Sequence[float]] = None,
    fluid_duration: float = 8.0,
    lp: Optional[LpResult] = None,
) -> PointValidation:
    """Compare measured per-path rates against every reference allocation.

    Parameters
    ----------
    system:
        The constraint system of the run's paths on its topology.
    measured_rates:
        Measured steady-state rate per path (Mbps), in path order.
    algorithm:
        The packet-level congestion control, used to pick the fluid-model
        family (unknown algorithms fall back to uncoupled AIMD).
    rtts:
        Optional per-path RTTs for the fluid model.
    lp:
        The max-throughput optimum of ``system``, if the caller has solved it.
    """
    # Loaded where a point is validated: ``ValidationReport`` solves nothing.
    from ..model.fluid import FLUID_FAMILIES, FluidModel
    from ..model.lp import max_total_throughput, proportional_fair_rates
    from ..model.maxmin import max_min_fair_rates

    if len(measured_rates) != system.path_count:
        raise ModelError(
            f"expected {system.path_count} measured rates, got {len(measured_rates)}"
        )
    system.validate()
    measured = [float(r) if math.isfinite(float(r)) else 0.0 for r in measured_rates]
    measured_total = float(sum(measured))

    def _prediction(model: str, rates: Sequence[float]) -> ModelPrediction:
        rates = [float(r) for r in rates]
        total = float(sum(rates))
        return ModelPrediction(
            model=model,
            rates=rates,
            total=total,
            measured_total=measured_total,
            rel_error=relative_error(measured_total, total),
            rank_agreement=rank_agreement(measured, rates),
        )

    predictions: Dict[str, ModelPrediction] = {}
    predictions["lp"] = _prediction("lp", (lp or max_total_throughput(system)).rates)
    predictions["max_min"] = _prediction("max_min", max_min_fair_rates(system).rates)
    predictions["proportional_fair"] = _prediction(
        "proportional_fair", proportional_fair_rates(system).rates
    )
    fluid = FluidModel(system, rtts).run(
        FLUID_FAMILIES.get(algorithm.lower(), "uncoupled"),
        duration=fluid_duration,
    )
    predictions["fluid"] = _prediction("fluid", fluid.mean_rates(0.25))

    return PointValidation(
        measured_rates=measured,
        measured_total=measured_total,
        algorithm=algorithm,
        predictions=predictions,
    )


def validate_experiment(result: "ExperimentResult") -> PointValidation:
    """Cross-validate one single-connection run against the model suite."""
    # The constraint system carries the exact paths the run was measured on
    # (same order, same tags) -- no need to rebuild the scenario.
    measured = [
        result.per_path_series[path.tag].steady_state_mean()
        if path.tag in result.per_path_series
        else 0.0
        for path in result.constraint_system.paths
    ]
    return validate_against_models(
        result.constraint_system,
        measured,
        algorithm=result.config.congestion_control,
        lp=result.optimum,
    )


def validate_multiflow(result: "MultiFlowResult") -> PointValidation:
    """Cross-validate one multi-flow run against the model suite.

    The scenario's base paths form the allocation units: each base path's
    measured rate is the steady-state throughput the owning flow(s) achieved
    on it, compared against the reference allocations on the base-path
    constraint system.
    """
    topology, base_paths = result.config.build_scenario()
    system = build_constraints(topology, base_paths)
    measured = []
    for path in base_paths:
        tag = path.tag
        rate = 0.0
        for flow in result.flows:
            series = flow.per_path_series.get(tag)
            if series is not None and flow.tag_map.get(tag) is not None:
                rate += series.steady_state_mean()
        measured.append(rate)
    algorithm = next(
        (
            flow.spec.congestion_control or "lia"
            for flow in result.flows
            if flow.kind == "mptcp"
        ),
        "uncoupled",
    )
    return validate_against_models(system, measured, algorithm=algorithm)


# -------------------------------------------------------------- cross-fidelity
@dataclass
class BackendComparison:
    """Flow-level-vs-packet-level agreement on one scenario.

    The packet-level simulator is the ground truth; every relative error is
    taken against its rates.  ``rank_agreement`` is the same Kendall-style
    concordance used for the model predictions, answering "does the fluid
    backend order the flows the way the packet backend does?".
    """

    #: Field of a campaign point record this comparison is stored under.
    record_field: ClassVar[str] = "cross_fidelity"

    scenario: str
    per_flow: Dict[str, dict] = field(default_factory=dict)
    mean_rel_error: Optional[float] = None
    max_rel_error: Optional[float] = None
    rank_agreement: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "per_flow": self.per_flow,
            "mean_rel_error": round_or_none(self.mean_rel_error, 6),
            "max_rel_error": round_or_none(self.max_rel_error, 6),
            "rank_agreement": round_or_none(self.rank_agreement, 6),
        }


def compare_backend_rates(
    flowlevel_mbps: Dict[str, float],
    packet_mbps: Dict[str, float],
    *,
    scenario: str = "",
) -> BackendComparison:
    """Compare per-flow steady-state rates from the two backends.

    Both dicts must cover the same flows; rates within
    :data:`CROSS_FIDELITY_RANK_TOL` of each other rank as tied.
    """
    if set(flowlevel_mbps) != set(packet_mbps):
        raise ModelError(
            "backend comparison needs identical flow sets; "
            f"got {sorted(flowlevel_mbps)} vs {sorted(packet_mbps)}"
        )
    names = sorted(flowlevel_mbps)
    per_flow: Dict[str, dict] = {}
    errors: List[float] = []
    for name in names:
        fluid = float(flowlevel_mbps[name])
        packet = float(packet_mbps[name])
        error = relative_error(fluid, packet)
        per_flow[name] = {
            "flowlevel_mbps": round(fluid, 4),
            "packet_mbps": round(packet, 4),
            "rel_error": round_or_none(error, 6),
        }
        if error is not None:
            errors.append(error)
    return BackendComparison(
        scenario=scenario,
        per_flow=per_flow,
        mean_rel_error=mean_or_none(errors),
        max_rel_error=max(errors, default=None),
        rank_agreement=rank_agreement(
            [flowlevel_mbps[name] for name in names],
            [packet_mbps[name] for name in names],
            tol=CROSS_FIDELITY_RANK_TOL,
        ),
    )


def compare_experiment_backends(
    flowlevel: "ExperimentResult", packet: "ExperimentResult"
) -> BackendComparison:
    """Per-path rate agreement of one experiment run at both fidelities."""

    def _rates(result: "ExperimentResult") -> Dict[str, float]:
        return {
            f"path-{tag}": series.steady_state_mean()
            for tag, series in result.per_path_series.items()
        }

    return compare_backend_rates(
        _rates(flowlevel), _rates(packet), scenario=packet.config.name
    )


def compare_multiflow_backends(
    flowlevel: "MultiFlowResult", packet: "MultiFlowResult"
) -> BackendComparison:
    """Per-flow rate agreement of one multi-flow run at both fidelities."""
    return compare_backend_rates(
        {flow.name: flow.mean_mbps for flow in flowlevel.flows},
        {flow.name: flow.mean_mbps for flow in packet.flows},
        scenario=packet.config.name,
    )


@dataclass
class FctComparison:
    """Flow-level-vs-packet-level agreement on a workload's FCT distribution.

    Both backends executed the *identical* compiled plan (same sizes, same
    arrivals, same dependency edges -- the signatures are checked), so any
    disagreement is pure fidelity: slow-start transients, queueing and
    retransmissions the fluid model abstracts away.  Packet level is the
    ground truth; relative errors are taken against it.
    """

    #: Field of a campaign point record this comparison is stored under.
    record_field: ClassVar[str] = "cross_fidelity_fct"

    scenario: str
    offered: int
    flowlevel_completed: int
    packet_completed: int
    #: min/max ratio of the two completed counts (1.0 = full agreement).
    completion_agreement: Optional[float]
    #: Per percentile: flow-level FCT, packet FCT and relative error.
    percentiles: Dict[str, dict] = field(default_factory=dict)
    mean_rel_error: Optional[float] = None
    max_rel_error: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "offered": self.offered,
            "flowlevel_completed": self.flowlevel_completed,
            "packet_completed": self.packet_completed,
            "completion_agreement": round_or_none(self.completion_agreement, 6),
            "percentiles": self.percentiles,
            "mean_rel_error": round_or_none(self.mean_rel_error, 6),
            "max_rel_error": round_or_none(self.max_rel_error, 6),
        }


def compare_fct_reports(
    flowlevel: "FctReport",
    packet: "FctReport",
    *,
    scenario: str = "",
    offered: Optional[int] = None,
) -> FctComparison:
    """Compare the FCT percentile sets of two workload runs."""
    keys = sorted(set(flowlevel.percentiles) & set(packet.percentiles))
    percentiles: Dict[str, dict] = {}
    errors: List[float] = []
    for key in keys:
        fluid = flowlevel.percentiles[key]
        truth = packet.percentiles[key]
        error = (
            None
            if fluid is None or truth is None
            else relative_error(float(fluid), float(truth))
        )
        percentiles[key] = {
            "flowlevel_s": None if fluid is None else round(float(fluid), 6),
            "packet_s": None if truth is None else round(float(truth), 6),
            "rel_error": round_or_none(error, 6),
        }
        if error is not None:
            errors.append(error)
    agreement = None
    if flowlevel.completed > 0 and packet.completed > 0:
        pair = sorted((flowlevel.completed, packet.completed))
        agreement = pair[0] / pair[1]
    return FctComparison(
        scenario=scenario,
        offered=packet.offered if offered is None else offered,
        flowlevel_completed=flowlevel.completed,
        packet_completed=packet.completed,
        completion_agreement=agreement,
        percentiles=percentiles,
        mean_rel_error=mean_or_none(errors),
        max_rel_error=max(errors, default=None),
    )


def compare_workload_backends(
    flowlevel: "WorkloadResult", packet: "WorkloadResult"
) -> FctComparison:
    """FCT agreement of one workload run executed at both fidelities."""
    if flowlevel.plan.signature() != packet.plan.signature():
        raise ModelError(
            "workload backend comparison needs the same compiled plan on "
            "both backends (same spec, same seed)"
        )
    return compare_fct_reports(
        flowlevel.fct,
        packet.fct,
        scenario=packet.config.name,
        offered=packet.plan.total_transfers,
    )


# ------------------------------------------------------------------ aggregate
@dataclass
class ModelErrorStats:
    """Error distribution of one reference model across a grid."""

    model: str
    count: int
    mean_rel_error: Optional[float]
    median_rel_error: Optional[float]
    p90_rel_error: Optional[float]
    max_rel_error: Optional[float]
    mean_rank_agreement: Optional[float]

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "count": self.count,
            "mean_rel_error": round_or_none(self.mean_rel_error, 6),
            "median_rel_error": round_or_none(self.median_rel_error, 6),
            "p90_rel_error": round_or_none(self.p90_rel_error, 6),
            "max_rel_error": round_or_none(self.max_rel_error, 6),
            "mean_rank_agreement": round_or_none(self.mean_rank_agreement, 6),
        }


@dataclass
class ValidationReport:
    """Grid-level aggregation of per-point validations."""

    points: int
    models: Dict[str, ModelErrorStats] = field(default_factory=dict)

    @classmethod
    def from_validations(cls, validations: Iterable[object]) -> "ValidationReport":
        """Aggregate :class:`PointValidation` objects or their ``as_dict`` forms."""
        records: List[dict] = []
        for validation in validations:
            if isinstance(validation, PointValidation):
                records.append(validation.as_dict())
            elif isinstance(validation, dict):
                records.append(validation)
        seen: set = set()
        per_model_errors: Dict[str, List[float]] = {}
        per_model_ranks: Dict[str, List[float]] = {}
        for record in records:
            for name, prediction in (record.get("predictions") or {}).items():
                seen.add(name)
                error = prediction.get("rel_error")
                if error is not None and math.isfinite(error):
                    per_model_errors.setdefault(name, []).append(float(error))
                rank = prediction.get("rank_agreement")
                if rank is not None and math.isfinite(rank):
                    per_model_ranks.setdefault(name, []).append(float(rank))

        models: Dict[str, ModelErrorStats] = {}
        for name in sorted(seen):
            errors = _finite(per_model_errors.get(name, []))
            ranks = _finite(per_model_ranks.get(name, []))
            if errors:
                array = np.asarray(errors, dtype=np.float64)
                stats = ModelErrorStats(
                    model=name,
                    count=len(errors),
                    mean_rel_error=float(array.mean()),
                    median_rel_error=float(np.median(array)),
                    p90_rel_error=float(np.percentile(array, 90)),
                    max_rel_error=float(array.max()),
                    mean_rank_agreement=(
                        float(np.mean(ranks)) if ranks else None
                    ),
                )
            else:
                stats = ModelErrorStats(
                    model=name,
                    count=0,
                    mean_rel_error=None,
                    median_rel_error=None,
                    p90_rel_error=None,
                    max_rel_error=None,
                    mean_rank_agreement=(
                        float(np.mean(ranks)) if ranks else None
                    ),
                )
            models[name] = stats
        return cls(points=len(records), models=models)

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "models": {name: stats.as_dict() for name, stats in self.models.items()},
        }
