"""Golden-equivalence tests for the traffic-source move under ``repro.workload``.

The UDP / on-off sources migrated from ``repro.traffic`` (since removed)
to ``repro.workload.sources``, and the TCP/MPTCP transports grew
transfer-queue hooks for the workload driver.
``tests/data/golden_pipeline.json`` pinned the observable output of three
traffic-heavy scenarios *before* that refactor; these tests require the
refactored tree to reproduce it bit-identically.
"""

import pytest

from tests import golden_pipeline


@pytest.mark.usefixtures("each_kernel")
class TestTrafficGoldenEquivalence:
    """Every pinned traffic scenario must reproduce its pre-refactor output.

    Parametrized over both kernels (``each_kernel``) so the compiled event
    loop is pinned to the same golden bytes as the pure-Python reference.
    """

    @classmethod
    def setup_class(cls):
        cls.golden = golden_pipeline.load_golden()

    def test_iperf_paper_byte_identical(self):
        fresh = golden_pipeline.iperf_case()
        assert fresh == self.golden["single/iperf_paper"]

    def test_cross_traffic_perturbation_byte_identical(self):
        from repro.experiments.scenarios import cross_traffic_perturbation

        fresh = golden_pipeline.multi_flow_case(
            cross_traffic_perturbation(
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            )
        )
        assert fresh == self.golden["multi/cross_traffic_perturbation"]

    def test_udp_cbr_mix_byte_identical(self):
        fresh = golden_pipeline.multi_flow_case(golden_pipeline.udp_cbr_mix_config())
        assert fresh == self.golden["multi/udp_cbr_mix"]
