"""Constraint extraction (Fig. 1c) and the max-throughput LP."""

import math
import sys

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.bottleneck import build_constraints
from repro.model.lp import GAP_BOUND, max_total_throughput, proportional_fair_rates
from repro.topologies.paper import (
    PAPER_OPTIMAL_RATES,
    PAPER_OPTIMAL_TOTAL,
    build_paper_topology,
    paper_paths,
)
from repro.topologies.generators import disjoint_paths, shared_bottleneck


#: The paper system's proportionally fair rates in closed form: x1 + x2 <= 40
#: and x2 + x3 <= 60 bind with x3 = x1 + 20, and the optimality conditions
#: 1/x1 = a, 1/x2 = a + b, 1/x3 = b leave 3 x2^2 - 200 x2 + 2400 = 0.
PAPER_PF_RATES = [
    (20 + 20 * math.sqrt(7.0)) / 3, (100 - 20 * math.sqrt(7.0)) / 3, (80 + 20 * math.sqrt(7.0)) / 3
]


@pytest.fixture
def paper_system():
    return build_constraints(build_paper_topology(), paper_paths(), include_private_links=False)


@pytest.fixture
def paper_system_full():
    return build_constraints(build_paper_topology(), paper_paths())


class TestConstraintExtraction:
    def test_paper_shared_constraints_match_fig1c(self, paper_system):
        shared = {c.path_indices: c.capacity for c in paper_system.shared_constraints()}
        assert shared == {(0, 1): 40.0, (1, 2): 60.0, (0, 2): 80.0}

    def test_private_links_included_by_default(self, paper_system_full):
        assert len(paper_system_full.constraints) > len(paper_system_full.shared_constraints())

    def test_matrix_shape(self, paper_system):
        assert paper_system.matrix().shape == (3, 3)
        assert paper_system.rhs().tolist() == [40.0, 60.0, 80.0]

    def test_matrix_rows_are_indicator_vectors(self, paper_system_full):
        a = paper_system_full.matrix()
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_feasibility_check(self, paper_system):
        assert paper_system.is_feasible([10, 20, 30])
        assert not paper_system.is_feasible([30, 30, 30])  # x1+x2 = 60 > 40
        assert not paper_system.is_feasible([-1, 0, 0])

    def test_feasibility_requires_matching_length(self, paper_system):
        with pytest.raises(ModelError):
            paper_system.is_feasible([1, 2])

    def test_tight_constraints(self, paper_system):
        tight = paper_system.tight_constraints([30, 10, 50])
        assert len(tight) == 3

    def test_max_rate_for_path(self, paper_system):
        # With x2 = 40 the shared 40-link blocks path 1 entirely.
        assert paper_system.max_rate_for_path(0, [0, 40, 0]) == pytest.approx(0.0)
        # With everything idle path 3 is limited by the 60-link.
        assert paper_system.max_rate_for_path(2, [0, 0, 0]) == pytest.approx(60.0)

    def test_pretty_lists_all_constraints(self, paper_system):
        text = paper_system.pretty()
        assert "x1 + x2 <= 40" in text
        assert "x_i >= 0" in text

    def test_shared_constraints(self, paper_system):
        shared = paper_system.shared_constraints()
        assert len(shared) == 3
        capacities = sorted(constraint.capacity for constraint in shared)
        assert capacities == [40.0, 60.0, 80.0]

    def test_empty_paths_rejected(self):
        with pytest.raises(ModelError):
            build_constraints(build_paper_topology(), [])


class TestMaxThroughputLp:
    def test_paper_optimum_is_90(self, paper_system):
        result = max_total_throughput(paper_system)
        assert result.total == pytest.approx(PAPER_OPTIMAL_TOTAL)

    def test_paper_optimal_rates(self, paper_system):
        result = max_total_throughput(paper_system)
        assert result.rates == pytest.approx(list(PAPER_OPTIMAL_RATES["as_stated"]), abs=1e-4)

    def test_all_three_shared_links_tight_at_optimum(self, paper_system):
        result = max_total_throughput(paper_system)
        assert len([c for c in result.tight_links if len(c.path_indices) >= 2]) == 3

    def test_full_system_gives_same_optimum(self, paper_system_full):
        assert max_total_throughput(paper_system_full).total == pytest.approx(90.0)

    def test_installed_scipy_solves_with_highs(self, paper_system):
        """Skips only without scipy: a scipy whose HiGHS bindings moved or were
        renamed fails here instead of falling back to the vertex solver."""
        pytest.importorskip("scipy.optimize")
        assert max_total_throughput(paper_system).solver == "highs"

    def test_installed_scipy_ships_the_highs_module(self):
        """Skips only without scipy: a scipy that moved or renamed the HiGHS
        module fails here instead of falling back to the vertex LP unnoticed."""
        pytest.importorskip("scipy")
        from repro.model._scipy_solvers import HIGHS, load

        assert load(HIGHS).__name__ == HIGHS

    def test_vertex_solver_agrees_with_highs(self, paper_system):
        pytest.importorskip("scipy.optimize")
        highs = max_total_throughput(paper_system, solver="highs")
        vertex = max_total_throughput(paper_system, solver="vertex")
        assert vertex.total == pytest.approx(highs.total)

    def test_weighted_objective(self, paper_system):
        # Heavily weighting path 2 shifts the optimum towards filling it.
        result = max_total_throughput(paper_system, weights=[1.0, 10.0, 1.0])
        assert result.rates[1] == pytest.approx(40.0)

    def test_weights_length_validated(self, paper_system):
        with pytest.raises(ModelError):
            max_total_throughput(paper_system, weights=[1.0])

    def test_disjoint_paths_optimum_is_sum_of_capacities(self):
        topology, paths = disjoint_paths((30.0, 50.0))
        system = build_constraints(topology, paths)
        assert max_total_throughput(system).total == pytest.approx(80.0)

    def test_shared_bottleneck_optimum_is_bottleneck(self):
        topology, paths = shared_bottleneck(n_paths=3, bottleneck_mbps=45.0)
        system = build_constraints(topology, paths)
        assert max_total_throughput(system).total == pytest.approx(45.0)

    def test_result_as_dict(self, paper_system):
        data = max_total_throughput(paper_system).as_dict()
        assert data["total"] == pytest.approx(90.0)
        assert len(data["rates"]) == 3


class TestProportionalFairness:
    def test_rates_are_feasible(self, paper_system):
        result = proportional_fair_rates(paper_system)
        assert paper_system.is_feasible(result.rates, tol=1e-3)

    def test_total_at_most_optimum(self, paper_system):
        fair = proportional_fair_rates(paper_system)
        assert fair.total <= 90.0 + 1e-3

    def test_no_path_starved(self, paper_system):
        fair = proportional_fair_rates(paper_system)
        assert all(rate > 1.0 for rate in fair.rates)

    def test_disjoint_paths_fill_completely(self):
        topology, paths = disjoint_paths((30.0, 50.0))
        system = build_constraints(topology, paths)
        fair = proportional_fair_rates(system)
        assert fair.total == pytest.approx(80.0, rel=1e-2)

    def test_rates_equal_the_closed_form(self, paper_system):
        fair = proportional_fair_rates(paper_system)
        assert fair.rates == pytest.approx(PAPER_PF_RATES, rel=1e-9)
        assert fair.solver == "interior-point"
        assert fair.gap <= GAP_BOUND * 3


class TestWithoutScipy:
    """The scipy-missing path, taken by patching the availability check."""

    @pytest.fixture(autouse=True)
    def no_scipy(self, monkeypatch):
        monkeypatch.setattr("repro.model.lp._HAVE_SCIPY", False)

    def test_max_total_falls_back_to_the_vertex_solver(self, paper_system):
        result = max_total_throughput(paper_system)
        assert result.solver == "vertex"
        assert result.total == pytest.approx(90.0)

    def test_asking_for_highs_is_an_error(self, paper_system):
        with pytest.raises(ModelError, match="scipy"):
            max_total_throughput(paper_system, solver="highs")

    def test_proportional_fairness_needs_only_numpy(self, paper_system):
        assert proportional_fair_rates(paper_system).rates == pytest.approx(
            PAPER_PF_RATES, rel=1e-9
        )


class TestWithoutHighsBindings:
    """scipy without ``scipy.optimize._highspy`` (older than 1.15) is no scipy
    to the LP: the vertex solver runs and ``solver="highs"`` names the bindings."""

    @pytest.fixture(autouse=True)
    def no_bindings(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)

    def test_max_total_falls_back_to_the_vertex_solver(self, paper_system):
        result = max_total_throughput(paper_system)
        assert result.solver == "vertex"
        assert result.total == pytest.approx(90.0)

    def test_asking_for_highs_names_the_bindings(self, paper_system):
        with pytest.raises(ModelError, match=r"scipy\.optimize\._highspy"):
            max_total_throughput(paper_system, solver="highs")


class TestConstraintSystemValidate:
    """A path crossing no capacity constraint must fail with a named error."""

    @staticmethod
    def _degenerate_system():
        from repro.model.bottleneck import Constraint, ConstraintSystem
        from repro.model.paths import Path

        paths = [
            Path(["s", "a", "d"], tag=1, name="Bounded"),
            Path(["s", "b", "d"], tag=2, name="Unbounded"),
        ]
        constraints = [Constraint(link=("s", "a"), capacity=10.0, path_indices=(0,))]
        return ConstraintSystem(paths, constraints)

    def test_validate_passes_on_well_formed_systems(self, paper_system, paper_system_full):
        paper_system.validate()
        paper_system_full.validate()

    def test_validate_names_the_unconstrained_path(self):
        system = self._degenerate_system()
        with pytest.raises(ModelError, match=r"Unbounded \(index 1\)"):
            system.validate()

    def test_validate_rejects_empty_path_list(self):
        from repro.model.bottleneck import ConstraintSystem

        with pytest.raises(ModelError, match="no paths"):
            ConstraintSystem([], []).validate()

    def test_lp_reports_unconstrained_path_not_solver_trace(self):
        system = self._degenerate_system()
        with pytest.raises(ModelError) as excinfo:
            max_total_throughput(system)
        message = str(excinfo.value)
        assert "Unbounded (index 1)" in message
        assert "model_status" not in message

    def test_max_min_reports_unconstrained_path(self):
        from repro.model.maxmin import max_min_fair_rates

        with pytest.raises(ModelError, match="capacity constraint"):
            max_min_fair_rates(self._degenerate_system())

    def test_proportional_fair_reports_unconstrained_path(self):
        with pytest.raises(ModelError, match="capacity constraint"):
            proportional_fair_rates(self._degenerate_system())
