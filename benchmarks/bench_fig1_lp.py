"""FIG1-LP / FIG1-GREEDY: the analytical problem of Fig. 1 and Section 2.1.

Regenerates the constraint system of Fig. 1(c), its LP optimum (90 Mbps with
rates 30/10/50 under the constraints as stated) and the greedy fill-the-
default-path-first allocation that the paper argues is Pareto-optimal but
suboptimal.  The benchmark times the full analytical pipeline.
"""

import pytest

from conftest import report

from repro.measure.report import comparison_row
from repro.model.bottleneck import build_constraints
from repro.model.greedy import greedy_fill
from repro.model.lp import max_total_throughput, proportional_fair_rates
from repro.model.maxmin import max_min_fair_rates
from repro.model.pareto import improving_exchange, is_pareto_optimal
from repro.model.polytope import enumerate_vertices
from repro.topologies.paper import PAPER_OPTIMAL_TOTAL, paper_scenario


def solve_everything():
    topology, paths = paper_scenario()
    system = build_constraints(topology, paths, include_private_links=False)
    optimum = max_total_throughput(system)
    greedy = greedy_fill(system, order=[1, 0, 2])
    maxmin = max_min_fair_rates(system)
    fair = proportional_fair_rates(system)
    vertices = enumerate_vertices(system)
    return system, optimum, greedy, maxmin, fair, vertices


def test_fig1_lp_optimum(benchmark):
    system, optimum, greedy, maxmin, fair, vertices = benchmark.pedantic(
        solve_everything, rounds=5, iterations=1
    )

    assert optimum.total == pytest.approx(PAPER_OPTIMAL_TOTAL)
    assert len([c for c in optimum.tight_links if len(c.path_indices) >= 2]) == 3
    assert greedy.total < optimum.total
    assert is_pareto_optimal(system, greedy.rates)
    exchange = improving_exchange(system, greedy.rates)
    assert exchange is not None and exchange.total_gain > 0

    report(
        "FIG1-LP / FIG1-GREEDY (Fig. 1c, Section 2.1)",
        [
            comparison_row("FIG1-LP", "constraints", "x1+x2<=40, x2+x3<=60, x1+x3<=80",
                           "; ".join(str(c) for c in system.shared_constraints())),
            comparison_row("FIG1-LP", "optimal total [Mbps]", 90, round(optimum.total, 2)),
            comparison_row("FIG1-LP", "optimal rates [Mbps]", "(30, 10, 50) as stated*",
                           tuple(round(r, 1) for r in optimum.rates),
                           note="*paper prints (10,30,50): README, \"Reading the paper's numbers\""),
            comparison_row("FIG1-GREEDY", "greedy (Path 2 first) total [Mbps]",
                           "suboptimal, Pareto-optimal", round(greedy.total, 2)),
            comparison_row("FIG1-GREEDY", "joint exchange recovers [Mbps]", ">0",
                           round(exchange.total_gain, 2)),
            comparison_row("FIG1-LP", "max-min fair total [Mbps]", "(not reported)",
                           round(maxmin.total, 2)),
            comparison_row("FIG1-LP", "proportionally fair total [Mbps]", "(not reported)",
                           round(fair.total, 2)),
            comparison_row("FIG1-LP", "feasible-region vertices", "(not reported)", len(vertices)),
        ],
    )
