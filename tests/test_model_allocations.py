"""Greedy filling, max-min fairness, Pareto analysis, gradient ascent, polytope."""

import pytest

from repro.errors import ModelError
from repro.model.bottleneck import build_constraints
from repro.model.gradient import project_onto_feasible, projected_gradient_ascent
from repro.model.greedy import greedy_fill
from repro.model.lp import max_total_throughput
from repro.model.maxmin import max_min_fair_rates
from repro.model.pareto import improving_exchange, is_pareto_optimal
from repro.model.polytope import enumerate_vertices, maximize_over_vertices
from repro.topologies.generators import disjoint_paths
from repro.topologies.paper import build_paper_topology, paper_paths


@pytest.fixture
def system():
    return build_constraints(build_paper_topology(), paper_paths(), include_private_links=False)


class TestGreedy:
    def test_greedy_from_default_path_is_suboptimal(self, system):
        # Fill Path 2 (the default) first, as MPTCP does at start-up.
        result = greedy_fill(system, order=[1, 0, 2])
        assert result.rates[1] == pytest.approx(40.0)
        assert result.total < 90.0 - 1e-6

    def test_greedy_result_is_feasible_and_pareto(self, system):
        result = greedy_fill(system, order=[1, 0, 2])
        assert system.is_feasible(result.rates)
        assert is_pareto_optimal(system, result.rates)

    def test_every_order_is_feasible(self, system):
        import itertools

        for order in itertools.permutations(range(3)):
            result = greedy_fill(system, list(order))
            assert system.is_feasible(result.rates)

    def test_invalid_order_rejected(self, system):
        with pytest.raises(ModelError):
            greedy_fill(system, order=[0, 0, 1])

    def test_infeasible_start_rejected(self, system):
        with pytest.raises(ModelError):
            greedy_fill(system, start_rates=[100.0, 0.0, 0.0])

    def test_greedy_on_disjoint_paths_is_optimal(self):
        topology, paths = disjoint_paths((30.0, 50.0))
        system = build_constraints(topology, paths)
        assert greedy_fill(system).total == pytest.approx(80.0)


class TestMaxMin:
    def test_maxmin_is_feasible(self, system):
        result = max_min_fair_rates(system)
        assert system.is_feasible(result.rates)

    def test_maxmin_below_lp_optimum_on_paper_topology(self, system):
        result = max_min_fair_rates(system)
        assert result.total < 90.0

    def test_smallest_rate_is_maximal(self, system):
        # The defining property: no allocation can raise the minimum rate.
        result = max_min_fair_rates(system)
        min_rate = min(result.rates)
        assert min_rate == pytest.approx(20.0)  # equal split of the 40-link

    def test_every_path_has_a_bottleneck(self, system):
        # Max-min fair: each path crosses a tight link on which its rate is the largest.
        rates = max_min_fair_rates(system).rates
        tight = system.tight_constraints(rates, tol=1e-9)
        for path, rate in enumerate(rates):
            assert any(
                path in c.path_indices and rate >= max(rates[i] for i in c.path_indices) - 1e-9
                for c in tight
            )

    def test_disjoint_paths_each_fill_their_capacity(self):
        topology, paths = disjoint_paths((30.0, 50.0))
        system = build_constraints(topology, paths)
        result = max_min_fair_rates(system)
        assert result.rates == pytest.approx([30.0, 50.0])


class TestPareto:
    def test_greedy_point_is_pareto_but_improvable_jointly(self, system):
        greedy = greedy_fill(system, order=[1, 0, 2])
        assert is_pareto_optimal(system, greedy.rates)
        exchange = improving_exchange(system, greedy.rates)
        assert exchange is not None
        assert exchange.total_gain > 0
        # The exchange lowers the default path and raises the others, exactly
        # the rebalancing described in Section 3 of the paper.
        assert 1 in exchange.decreased_paths
        assert exchange.increased_paths

    def test_optimum_has_no_improving_exchange(self, system):
        optimum = max_total_throughput(system)
        assert improving_exchange(system, optimum.rates) is None

    def test_zero_allocation_is_not_pareto(self, system):
        assert not is_pareto_optimal(system, [0.0, 0.0, 0.0])

    def test_infeasible_point_rejected(self, system):
        with pytest.raises(ModelError):
            is_pareto_optimal(system, [100.0, 0.0, 0.0])


class TestGradient:
    def test_projection_of_feasible_point_is_identity(self, system):
        point = [10.0, 10.0, 10.0]
        assert project_onto_feasible(system, point) == pytest.approx(point, abs=1e-6)

    def test_projection_result_is_feasible(self, system):
        projected = project_onto_feasible(system, [100.0, 100.0, 100.0])
        assert system.is_feasible(projected, tol=1e-5)

    def test_projection_dimension_validated(self, system):
        with pytest.raises(ModelError):
            project_onto_feasible(system, [1.0, 2.0])

    def test_gradient_ascent_reaches_lp_optimum(self, system):
        trace = projected_gradient_ascent(system)
        assert trace.final_total == pytest.approx(90.0, abs=0.5)

    def test_gradient_ascent_escapes_greedy_corner(self, system):
        greedy = greedy_fill(system, order=[1, 0, 2])
        trace = projected_gradient_ascent(system, start=greedy.rates)
        assert trace.final_total > greedy.total + 5.0

    def test_totals_never_leave_feasible_region(self, system):
        trace = projected_gradient_ascent(system, iterations=50)
        for iterate in trace.iterates:
            assert system.is_feasible(iterate, tol=1e-4)

    def test_trace_counts_the_start_and_every_step(self, system):
        capped = projected_gradient_ascent(system, iterations=3, tol=0.0)
        assert capped.iterations == len(capped.totals) == 4  # the start, then 3 steps
        # At the optimum a step projects back onto itself: the walk stops early.
        settled = projected_gradient_ascent(system, iterations=500)
        assert settled.iterations < 501
        assert settled.iterates[-1] == pytest.approx(settled.iterates[-2], abs=1e-6)


class TestPolytope:
    def test_vertices_are_feasible(self, system):
        for vertex in enumerate_vertices(system):
            assert system.is_feasible(vertex, tol=1e-6)

    def test_origin_is_a_vertex(self, system):
        assert [0.0, 0.0, 0.0] in enumerate_vertices(system)

    def test_lp_optimum_is_a_vertex(self, system):
        vertices = enumerate_vertices(system)
        best = maximize_over_vertices(system)
        assert best in vertices
        assert sum(best) == pytest.approx(90.0)

    def test_unbounded_region_detected(self):
        from repro.model.bottleneck import Constraint, ConstraintSystem
        from repro.model.paths import Path

        paths = [Path(["s", "a", "d"]), Path(["s", "b", "d"])]
        constraints = [Constraint(link=("s", "a"), capacity=10.0, path_indices=(0,))]
        system = ConstraintSystem(paths, constraints)
        with pytest.raises(ModelError):
            enumerate_vertices(system)
