"""Model-vs-simulation cross-validation metrics and their aggregation."""

import json
import math

import pytest

from repro.errors import ModelError
from repro.experiments.harness import paper_experiment, run_experiment
from repro.experiments.multiflow import run_multiflow
from repro.experiments.scenarios import mptcp_vs_tcp_shared_bottleneck
from repro.measure.validation import (
    PointValidation,
    ValidationReport,
    rank_agreement,
    relative_error,
    validate_against_models,
    validate_experiment,
    validate_multiflow,
)
from repro.model.bottleneck import build_constraints
from repro.topologies.paper import build_paper_topology, paper_paths
from tests import golden_validation


@pytest.fixture(scope="module")
def paper_system():
    return build_constraints(build_paper_topology(), paper_paths(), include_private_links=False)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(90.0, 90.0) == 0.0

    def test_scaled_by_prediction(self):
        assert relative_error(45.0, 90.0) == pytest.approx(0.5)

    def test_nan_and_inf_yield_none(self):
        assert relative_error(float("nan"), 90.0) is None
        assert relative_error(90.0, float("inf")) is None

    def test_zero_prediction_yields_none(self):
        assert relative_error(10.0, 0.0) is None


class TestRankAgreement:
    def test_identical_ordering_is_one(self):
        assert rank_agreement([30.0, 10.0, 50.0], [3.0, 1.0, 5.0]) == 1.0

    def test_reversed_ordering_is_zero(self):
        assert rank_agreement([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0

    def test_partial_agreement(self):
        # Pairs: (0,1) agree, (0,2) agree, (1,2) disagree.
        assert rank_agreement([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(2 / 3)

    def test_ties_agree_with_ties(self):
        assert rank_agreement([5.0, 5.0], [7.0, 7.0]) == 1.0

    def test_single_path_is_none(self):
        assert rank_agreement([5.0], [7.0]) is None

    def test_non_finite_rates_are_none(self):
        assert rank_agreement([float("nan"), 1.0], [1.0, 2.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ModelError):
            rank_agreement([1.0], [1.0, 2.0])


class TestValidateAgainstModels:
    def test_perfect_measurement_has_zero_lp_error(self, paper_system):
        validation = validate_against_models(
            paper_system, [30.0, 10.0, 50.0], algorithm="cubic"
        )
        lp = validation.predictions["lp"]
        assert lp.rel_error == pytest.approx(0.0, abs=1e-9)
        assert lp.rank_agreement == 1.0
        assert validation.measured_total == pytest.approx(90.0)

    def test_all_reference_models_present(self, paper_system):
        validation = validate_against_models(paper_system, [30.0, 10.0, 50.0])
        assert {"lp", "max_min", "fluid"} <= set(validation.predictions)

    def test_nan_measurements_are_sanitized(self, paper_system):
        validation = validate_against_models(
            paper_system, [float("nan"), 10.0, 50.0], algorithm="lia"
        )
        assert validation.measured_rates[0] == 0.0
        payload = json.dumps(validation.as_dict(), allow_nan=False)
        assert "NaN" not in payload

    def test_rate_count_mismatch_raises(self, paper_system):
        with pytest.raises(ModelError):
            validate_against_models(paper_system, [1.0, 2.0])

    def test_unknown_algorithm_falls_back_to_uncoupled(self, paper_system):
        validation = validate_against_models(
            paper_system, [30.0, 10.0, 50.0], algorithm="balia"
        )
        assert validation.predictions["fluid"].total > 0.0

    def test_fluid_run_shorter_than_one_step_names_the_duration(self, paper_system):
        # Used to surface as "measured and predicted rate vectors differ in
        # length": the empty trajectory's mean_rates() is [].
        with pytest.raises(ModelError, match="duration"):
            validate_against_models(paper_system, [30.0, 10.0, 50.0], fluid_duration=0.001)

    def test_without_scipy_every_reference_is_kept(self, paper_system, monkeypatch):
        """The vertex LP replaces HiGHS; the proportional-fair solve needs only numpy."""
        monkeypatch.setattr("repro.model.lp._HAVE_SCIPY", False)
        validation = validate_against_models(paper_system, [30.0, 10.0, 50.0])
        assert set(validation.predictions) == {"lp", "max_min", "proportional_fair", "fluid"}
        assert validation.predictions["lp"].total == pytest.approx(90.0)
        assert validation.predictions["proportional_fair"].total == pytest.approx(
            (200 + 20 * 7**0.5) / 3, rel=1e-9
        )


class TestValidateRuns:
    def test_validate_experiment_paper_run(self):
        result = run_experiment(paper_experiment("cubic", duration=0.8))
        validation = validate_experiment(result)
        assert len(validation.measured_rates) == 3
        assert validation.algorithm == "cubic"
        lp = validation.predictions["lp"]
        assert lp.total == pytest.approx(90.0)
        assert lp.rel_error is not None and lp.rel_error < 0.5

    def test_validate_multiflow_uses_base_paths(self):
        config = mptcp_vs_tcp_shared_bottleneck(duration=0.8)
        result = run_multiflow(config)
        validation = validate_multiflow(result)
        # 2 MPTCP subflow paths + 1 TCP path on the shared bottleneck.
        assert len(validation.measured_rates) == 3
        assert validation.measured_total > 0.0
        assert validation.algorithm == "lia"


class TestValidationReport:
    @staticmethod
    def _point(lp_error, rank=1.0):
        return {
            "predictions": {
                "lp": {"rel_error": lp_error, "rank_agreement": rank},
                "max_min": {"rel_error": None, "rank_agreement": None},
            }
        }

    def test_aggregates_error_distribution(self):
        report = ValidationReport.from_validations(
            [self._point(0.1), self._point(0.2), self._point(0.3, rank=0.5)]
        )
        lp = report.models["lp"]
        assert report.points == 3
        assert lp.count == 3
        assert lp.mean_rel_error == pytest.approx(0.2)
        assert lp.median_rel_error == pytest.approx(0.2)
        assert lp.max_rel_error == pytest.approx(0.3)
        assert lp.mean_rank_agreement == pytest.approx((1.0 + 1.0 + 0.5) / 3)

    def test_model_with_no_errors_reports_none(self):
        report = ValidationReport.from_validations([self._point(0.1)])
        assert report.models["max_min"].count == 0
        assert report.models["max_min"].mean_rel_error is None

    def test_accepts_point_validation_objects(self):
        validation = PointValidation(
            measured_rates=[1.0], measured_total=1.0, algorithm="cubic"
        )
        report = ValidationReport.from_validations([validation, {"predictions": {}}])
        assert report.points == 2

    def test_as_dict_is_json_safe(self):
        report = ValidationReport.from_validations(
            [self._point(0.25), self._point(float("nan"))]
        )
        payload = json.dumps(report.as_dict(), allow_nan=False)
        assert math.isfinite(json.loads(payload)["models"]["lp"]["mean_rel_error"])


class TestGoldenValidationEquivalence:
    """Predictions equal the pre-rewrite model layer's, to the last bit.

    ``tests/data/golden_validation.json`` was recorded with the numpy fluid
    integrator; see ``tests/golden_validation.py`` for what it covers and the
    two proportional-fair values re-recorded since.
    """

    def test_validation_golden_exact(self, each_kernel):
        # Recorded with HiGHS's picks: a scipy without the HiGHS bindings
        # falls back to the vertex solver and fails here.
        pytest.importorskip("scipy.optimize")
        computed = golden_validation.compute_golden()
        assert computed == golden_validation.load_golden()
        # Byte for byte too: a regeneration rewrites only the values it moves.
        written = golden_validation.dump(computed).encode("utf-8")
        assert written == golden_validation.GOLDEN_PATH.read_bytes()
