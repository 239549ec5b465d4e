"""Every topology generator run end-to-end through the experiment harness.

For each generated scenario the analytical LP optimum must be finite and
positive, and the throughput an MPTCP connection actually achieves must not
exceed it (wire-overhead tolerance aside) -- the basic sanity contract
between the packet-level simulator and the analytical model on every
topology family, not just the paper's network.
"""

import pytest

from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.topologies.generators import (
    disjoint_paths,
    pairwise_overlap,
    shared_bottleneck,
    wifi_cellular,
)

GENERATORS = {
    "shared_bottleneck": lambda: shared_bottleneck(2, bottleneck_mbps=40.0),
    "disjoint_paths": lambda: disjoint_paths((40.0, 20.0)),
    "wifi_cellular": lambda: wifi_cellular(wifi_mbps=40.0, cellular_mbps=20.0),
    "pairwise_overlap": lambda: pairwise_overlap(3, capacities=(40.0, 60.0, 80.0)),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_end_to_end(name):
    scenario = GENERATORS[name]()
    config = ExperimentConfig(
        name=f"e2e-{name}",
        scenario=scenario,
        congestion_control="lia",
        duration=1.5,
    )
    result = run_experiment(config)

    optimum = result.optimum.total
    assert optimum > 0.0
    assert optimum != float("inf")
    # The connection moves data and does not beat the analytical optimum
    # (5% slack: the series counts wire bytes, the LP counts capacity).
    assert result.achieved_total_mbps > 0.0
    assert result.achieved_total_mbps <= optimum * 1.05
    # One series per path, on the configured sampling grid.
    assert set(result.per_path_series) == {path.tag for path in scenario[1]}
    assert len(result.total_series) == int(config.duration / config.sampling_interval)
