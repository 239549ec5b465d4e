"""Fluid models of uncoupled / LIA / OLIA congestion control."""

import random

import numpy as np
import pytest

from repro.errors import ModelError
from repro.model.bottleneck import Constraint, ConstraintSystem, build_constraints
from repro.model.fluid import FLUID_FAMILIES, FluidModel, compare_equilibria
from repro.model.paths import Path
from repro.topologies.generators import disjoint_paths
from repro.topologies.paper import build_paper_topology, paper_paths


@pytest.fixture
def paper_system():
    return build_constraints(build_paper_topology(), paper_paths(), include_private_links=False)


class TestMeanRatesWindow:
    def test_zero_last_fraction_degrades_to_final_row(self, paper_system):
        import warnings

        result = FluidModel(paper_system).run("uncoupled", duration=2.0)
        with warnings.catch_warnings():
            # Regression: the window used to be empty ("Mean of empty slice"
            # under -W error, NaN otherwise); it must clamp to the last row.
            warnings.simplefilter("error")
            rates = result.mean_rates(0.0)
            total = result.mean_total(0.0)
        assert rates == pytest.approx(result.final_rates)
        assert total == pytest.approx(result.final_total)

    def test_tiny_last_fraction_never_yields_nan(self, paper_system):
        import math
        import warnings

        result = FluidModel(paper_system).run("lia", duration=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fraction in (0.0, 1e-9, 0.001, 0.25, 1.0):
                for rate in result.mean_rates(fraction):
                    assert math.isfinite(rate)

    def test_full_fraction_is_whole_trajectory_mean(self, paper_system):
        result = FluidModel(paper_system).run("uncoupled", duration=2.0)
        expected = np.asarray(result.rates_mbps).mean(axis=0)
        assert result.mean_rates(1.0) == pytest.approx(list(expected))


class TestFluidModel:
    def test_rates_stay_feasible_up_to_transients(self, paper_system):
        model = FluidModel(paper_system)
        result = model.run("uncoupled", duration=10.0)
        # The loss signal only kicks in above capacity, so allow a small excursion.
        for rates in result.rates_mbps[-20:]:
            assert sum(rates) <= 95.0

    def test_uncoupled_approaches_high_utilization(self, paper_system):
        result = FluidModel(paper_system).run("uncoupled", duration=20.0)
        assert result.mean_total() > 70.0

    def test_olia_equilibrium_closest_to_optimum(self, paper_system):
        # OLIA was designed to be Pareto-optimal in the fluid limit; its
        # equilibrium should dominate plain per-path AIMD on this topology.
        results = compare_equilibria(paper_system, ("uncoupled", "olia"), duration=20.0)
        assert results["olia"].mean_total() >= results["uncoupled"].mean_total() - 1.0
        assert results["olia"].mean_total() <= 91.0

    def test_olia_runs_and_produces_positive_rates(self, paper_system):
        result = FluidModel(paper_system).run("olia", duration=10.0)
        assert all(rate >= 0 for rate in result.final_rates)
        assert result.final_total > 10.0

    def test_disjoint_paths_fill_their_capacity(self):
        topology, paths = disjoint_paths((30.0, 50.0))
        system = build_constraints(topology, paths)
        result = FluidModel(system).run("uncoupled", duration=20.0)
        assert result.mean_total() > 0.75 * 80.0

    def test_unknown_algorithm_rejected(self, paper_system):
        with pytest.raises(ModelError):
            FluidModel(paper_system).run("bbr")

    def test_rtt_length_validated(self, paper_system):
        with pytest.raises(ModelError):
            FluidModel(paper_system, rtts=[0.01])

    @pytest.mark.parametrize("bad", [0.0, -0.01, float("inf"), float("nan")])
    def test_rtts_must_be_positive_and_finite(self, paper_system, bad):
        with pytest.raises(ModelError, match="rtts"):
            FluidModel(paper_system, rtts=[0.01, bad, 0.01])

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("dt", 0.0),
            ("dt", -0.005),
            ("dt", float("nan")),
            ("duration", 0.004),  # shorter than one step: an empty trajectory
            ("duration", float("inf")),
            ("initial_window", 0.0),
        ],
    )
    def test_run_arguments_fail_loudly(self, paper_system, argument, value):
        with pytest.raises(ModelError, match=argument):
            FluidModel(paper_system).run("lia", **{argument: value})

    def test_one_step_run_has_one_row(self, paper_system):
        result = FluidModel(paper_system).run("lia", duration=0.005)
        assert result.rates_mbps.shape == (1, 3)
        assert list(result.times) == [0.0]

    def test_trajectory_is_recorded(self, paper_system):
        result = FluidModel(paper_system).run("lia", duration=5.0)
        assert len(result.times) == len(result.rates_mbps)
        assert len(result.times) > 10

    def test_mean_rates_shape(self, paper_system):
        result = FluidModel(paper_system).run("lia", duration=5.0)
        assert len(result.mean_rates()) == 3

    def test_compare_equilibria_keys(self, paper_system):
        results = compare_equilibria(paper_system, ("uncoupled", "lia", "olia"), duration=5.0)
        assert set(results) == {"uncoupled", "lia", "olia"}


class TestFluidFamilies:
    def test_every_name_runs_as_its_family(self, paper_system):
        model = FluidModel(paper_system)
        by_family = {
            family: model.run(family, duration=1.0) for family in set(FLUID_FAMILIES.values())
        }
        for name, family in FLUID_FAMILIES.items():
            result = model.run(name.upper(), duration=1.0)
            assert result.algorithm == name
            assert np.array_equal(result.rates_mbps, by_family[family].rates_mbps)


def numpy_reference_run(system, rtts, algorithm, *, mss, loss_sharpness, duration, dt, initial_window):
    """The array integrator the scalar one replaced, kept as the reference.

    Same arithmetic, except that the two matrix-vector products are written
    as ``(a * x).sum(axis=1)``: numpy sums fewer than 8 terms left to right
    on every platform, whereas ``a @ x`` goes to the BLAS, whose kernels
    already pair the terms at 4 (OpenBLAS/Haswell: ``(x0 + x2) + (x1 + x3)``).
    """
    a, capacity, rtts = system.matrix(), system.rhs(), np.asarray(rtts)

    def to_mbps(windows):
        return windows / rtts * (mss * 8.0) / 1e6

    windows = np.full(system.path_count, float(initial_window))
    rows = []
    for step in range(int(duration / dt)):
        load = (a * to_mbps(windows)).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.where(
                load > 0, np.maximum(load - capacity, 0.0) / np.maximum(load, 1e-9), 0.0
            )
        link_loss = np.minimum(excess * max(loss_sharpness / 20.0, 1.0), 1.0)
        loss = np.minimum((a.T * link_loss).sum(axis=1), 1.0)
        total_rate = float(np.sum(windows / rtts))
        if algorithm == "uncoupled":
            per_ack = 1.0 / windows
        elif algorithm == "lia":
            alpha = float(np.sum(windows)) * float(np.max(windows / rtts ** 2)) / total_rate ** 2
            per_ack = np.minimum(alpha / float(np.sum(windows)), 1.0 / windows)
        else:
            per_ack = (windows / rtts ** 2) / total_rate ** 2
        increase = per_ack * (windows * (1.0 - loss) / rtts)
        decrease = windows * loss / rtts * windows / 2.0
        windows = np.maximum(windows + dt * (increase - decrease), 1.0)
        if step % 10 == 0:
            rows.append(to_mbps(windows))
    return np.array(rows)


def random_system(rng, paths):
    constraints = [
        Constraint(
            link=("shared", str(index)),
            capacity=rng.uniform(5.0, 120.0),
            path_indices=tuple(sorted(rng.sample(range(paths), rng.randint(1, paths)))),
        )
        for index in range(rng.randint(1, 3))  # with the access links: at most 7
    ]
    constraints += [  # every path crosses at least its own access link
        Constraint(link=("access", str(p)), capacity=rng.uniform(5.0, 120.0), path_indices=(p,))
        for p in range(paths)
    ]
    return ConstraintSystem([Path((f"s{p}", f"d{p}")) for p in range(paths)], constraints)


class TestScalarIntegratorMatchesNumpyReference:
    @pytest.mark.parametrize("algorithm", ["uncoupled", "lia", "olia"])
    @pytest.mark.parametrize("paths", [1, 2, 3, 4])
    def test_random_systems_bit_identical(self, algorithm, paths):
        rng = random.Random(1000 * paths + len(algorithm))
        for _ in range(3):
            system = random_system(rng, paths)
            rtts = [rng.uniform(0.002, 0.2) for _ in range(paths)]
            options = dict(
                mss=rng.choice([536, 1400, 9000]),
                loss_sharpness=rng.choice([5.0, 20.0, 60.0]),
            )
            run = dict(
                duration=2.0, dt=rng.choice([0.001, 0.005]), initial_window=rng.uniform(1.0, 40.0)
            )
            result = FluidModel(system, rtts, **options).run(algorithm, **run)
            reference = numpy_reference_run(system, rtts, algorithm, **options, **run)
            assert np.array_equal(result.rates_mbps, reference)
