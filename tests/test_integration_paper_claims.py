"""Integration tests for the paper's headline claims (shortened runs).

These keep the full pipeline honest: packet simulation -> capture -> sampling
-> comparison with the analytical optimum.  The benchmarks reproduce the
figures at full length; here the durations are shortened so the test suite
stays fast while the qualitative claims remain checkable.
"""

import pytest

from repro.core.connection import MptcpConnection
from repro.experiments.harness import paper_experiment, run_experiment
from repro.netsim.network import Network
from repro.topologies.generators import shared_bottleneck, wifi_cellular
from repro.topologies.paper import PAPER_OPTIMAL_TOTAL
from repro.units import throughput_mbps


@pytest.fixture(scope="module")
def cubic_result():
    return run_experiment(paper_experiment("cubic", duration=2.5))


@pytest.fixture(scope="module")
def lia_result():
    return run_experiment(paper_experiment("lia", duration=2.5))


class TestFig1Claims:
    def test_lp_optimum_is_90_mbps(self, cubic_result):
        assert cubic_result.optimum.total == pytest.approx(PAPER_OPTIMAL_TOTAL)

    def test_greedy_from_default_path_is_suboptimal(self, cubic_result):
        from repro.model.greedy import greedy_fill

        greedy = greedy_fill(cubic_result.constraint_system, order=[1, 0, 2])
        assert greedy.total < cubic_result.optimum.total - 10.0


class TestFig2Claims:
    def test_cubic_approaches_the_optimum(self, cubic_result):
        # Paper: "the default (CUBIC) congestion control algorithm always
        # reached the optimum".
        assert cubic_result.achieved_total_mbps > 0.9 * PAPER_OPTIMAL_TOTAL

    def test_cubic_default_path_limited_by_40_link(self, cubic_result):
        # Path 2 shares the 40 Mbps link; near the optimum it carries the
        # smallest share (10 Mbps in the LP solution).
        tail = {
            tag: series.mean_over(1.5, 2.5)
            for tag, series in cubic_result.per_path_series.items()
        }
        assert tail[2] < tail[1] < tail[3]

    def test_lia_stays_below_cubic(self, cubic_result, lia_result):
        # Paper: "the more stable LIA never could reach the optimum".
        assert lia_result.achieved_total_mbps < cubic_result.achieved_total_mbps

    def test_lia_does_not_reach_the_optimum(self, lia_result):
        assert lia_result.achieved_total_mbps < 0.95 * PAPER_OPTIMAL_TOTAL
        assert not lia_result.convergence.reached_optimum

    def test_all_three_paths_carry_traffic(self, cubic_result):
        for series in cubic_result.per_path_series.values():
            assert series.mean_over(1.0, 2.5) > 1.0

    def test_total_never_exceeds_the_optimum_meaningfully(self, cubic_result):
        # Wire-level throughput can exceed goodput slightly (headers,
        # retransmissions) but must stay close to the capacity bound.
        assert cubic_result.total_series.max() <= PAPER_OPTIMAL_TOTAL * 1.1


class TestOtherScenarios:
    def test_disjoint_wifi_cellular_uses_both_paths(self):
        from repro.measure.sampling import total_timeseries

        topology, paths = wifi_cellular(wifi_mbps=40.0, cellular_mbps=15.0)
        network = Network(topology)
        capture = network.attach_capture("server", data_only=True)
        connection = MptcpConnection(
            network, "client", "server", paths, congestion_control="lia"
        )
        connection.start(0.0)
        network.run(2.0)
        per_path = {
            sf.subflow_id: throughput_mbps(sf.acked_bytes, 2.0) for sf in connection.subflows
        }
        assert per_path[0] > 10.0   # Wi-Fi path carries the bulk
        assert per_path[1] > 2.0    # cellular path contributes
        # Receiver-side wire throughput (what tshark would measure) uses a
        # large share of the 55 Mbps aggregate over the second half of the run.
        wire = total_timeseries(capture, interval=0.1, end=2.0)
        assert wire.mean_over(1.0, 2.0) > 30.0
        assert len(capture) > 0

    def test_coupled_cc_on_shared_bottleneck_is_not_worse_than_half(self):
        # Two subflows over one 30 Mbps bottleneck: coupling must not collapse
        # the aggregate below what a single flow would get.
        topology, paths = shared_bottleneck(n_paths=2, bottleneck_mbps=30.0)
        network = Network(topology)
        connection = MptcpConnection(network, "s", "d", paths, congestion_control="lia")
        connection.start(0.0)
        network.run(2.0)
        assert connection.total_throughput_mbps(2.0) > 15.0

    def test_analytical_and_simulated_agree_on_who_wins(self):
        # The fluid/LP hierarchy (uncoupled >= LIA on aggregate) shows up in
        # the packet simulation as well.
        cubic = run_experiment(paper_experiment("cubic", duration=1.5))
        lia = run_experiment(paper_experiment("lia", duration=1.5))
        assert cubic.achieved_total_mbps >= lia.achieved_total_mbps - 2.0
