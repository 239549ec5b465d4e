"""Property-based tests (hypothesis) for the analytical model.

These check structural invariants of the optimisation machinery on randomly
generated overlapping-path instances: feasibility of every allocation,
ordering between the allocation strategies, and consistency between the LP
solvers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.bottleneck import build_constraints
from repro.model.greedy import greedy_fill
from repro.model.lp import max_total_throughput
from repro.model.maxmin import max_min_fair_rates
from repro.model.pareto import is_pareto_optimal
from repro.model.polytope import enumerate_vertices, maximize_over_vertices
from repro.topologies.generators import pairwise_overlap
from repro.topologies.paper import build_paper_topology, paper_paths

# Three capacities (one per pair of paths), like the paper's 40/60/80.
capacity_triples = st.tuples(
    st.floats(min_value=10.0, max_value=200.0),
    st.floats(min_value=10.0, max_value=200.0),
    st.floats(min_value=10.0, max_value=200.0),
)


def system_for(capacities):
    # A huge default capacity keeps the private access links non-binding so
    # only the pairwise shared links shape the feasible region.
    topology, paths = pairwise_overlap(3, capacities=capacities, default_capacity=10_000.0)
    return build_constraints(topology, paths, include_private_links=False)


class TestLpProperties:
    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_lp_solution_is_feasible(self, capacities):
        system = system_for(capacities)
        result = max_total_throughput(system)
        assert system.is_feasible(result.rates, tol=1e-5)

    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_lp_total_equals_half_of_capacity_sum_or_less(self, capacities):
        # For three pairwise constraints, summing all of them gives
        # 2(x1+x2+x3) <= c12+c13+c23, so the optimum is at most half that sum.
        system = system_for(capacities)
        result = max_total_throughput(system)
        assert result.total <= sum(capacities) / 2.0 + 1e-6

    @given(capacity_triples)
    @settings(max_examples=25, deadline=None)
    def test_highs_and_vertex_solvers_agree(self, capacities):
        pytest.importorskip("scipy.optimize")
        system = system_for(capacities)
        highs = max_total_throughput(system, solver="highs")
        vertex = max_total_throughput(system, solver="vertex")
        assert abs(highs.total - vertex.total) < 1e-5

    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_lp_optimum_is_pareto_optimal(self, capacities):
        system = system_for(capacities)
        result = max_total_throughput(system)
        assert is_pareto_optimal(system, result.rates, tol=1e-4)


class TestAllocationOrdering:
    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_lp(self, capacities):
        system = system_for(capacities)
        lp_total = max_total_throughput(system).total
        for order in ([0, 1, 2], [1, 0, 2], [2, 1, 0]):
            assert greedy_fill(system, order).total <= lp_total + 1e-6

    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_maxmin_never_beats_lp_and_is_feasible(self, capacities):
        system = system_for(capacities)
        lp_total = max_total_throughput(system).total
        maxmin = max_min_fair_rates(system)
        assert system.is_feasible(maxmin.rates, tol=1e-6)
        assert maxmin.total <= lp_total + 1e-6

    @given(capacity_triples)
    @settings(max_examples=40, deadline=None)
    def test_greedy_results_are_pareto_optimal(self, capacities):
        system = system_for(capacities)
        result = greedy_fill(system, [1, 0, 2])
        assert is_pareto_optimal(system, result.rates, tol=1e-6)


class TestPolytopeProperties:
    @given(capacity_triples)
    @settings(max_examples=25, deadline=None)
    def test_vertices_feasible_and_contain_optimum(self, capacities):
        system = system_for(capacities)
        vertices = enumerate_vertices(system)
        assert vertices, "the feasible region always has at least the origin"
        for vertex in vertices:
            assert system.is_feasible(vertex, tol=1e-6)
        best = maximize_over_vertices(system)
        assert abs(sum(best) - max_total_throughput(system).total) < 1e-5


class TestScalingProperties:
    @given(capacity_triples, st.floats(min_value=0.5, max_value=4.0))
    @settings(max_examples=25, deadline=None)
    def test_lp_scales_linearly_with_capacities(self, capacities, factor):
        base = max_total_throughput(system_for(capacities)).total
        scaled = max_total_throughput(
            system_for(tuple(c * factor for c in capacities))
        ).total
        assert abs(scaled - base * factor) < 1e-4 * max(1.0, base * factor)

    @given(st.floats(min_value=10.0, max_value=100.0))
    @settings(max_examples=20, deadline=None)
    def test_paper_structure_with_uniform_capacities(self, capacity):
        # With equal shared capacities c the optimum is 3c/2 (all pairs tight).
        topology, paths = pairwise_overlap(3, capacities=(capacity,) * 3)
        system = build_constraints(topology, paths, include_private_links=False)
        assert abs(max_total_throughput(system).total - 1.5 * capacity) < 1e-5


class TestPaperInstanceProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=40.0),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_feasibility_is_monotone_in_rates(self, rates):
        system = build_constraints(
            build_paper_topology(), paper_paths(), include_private_links=False
        )
        if system.is_feasible(rates):
            smaller = [r / 2 for r in rates]
            assert system.is_feasible(smaller)
