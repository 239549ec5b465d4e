"""Fluid models of uncoupled / LIA / OLIA congestion control."""

import random
import sys
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernel
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


# ------------------------------------------------------------------ the C twin
# FluidModel.run hands its loop to the compiled kernel when there is one
# (kernel/_fluid.h).  The Python loop above is the specification; these tests
# hold the C body to it bit for bit, errors included.

_DEEP = settings.get_profile("deep")
_TWIN_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=100,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)


@pytest.fixture(scope="module")
def compiled_ext():
    """The extension module, whatever ``REPRO_KERNEL`` says; skips without one."""
    available, reason = kernel.compiled_available()
    if not available:
        pytest.skip(f"compiled kernel unavailable: {reason}")
    with kernel.override("compiled"):
        return kernel.compiled_module()


@st.composite
def fluid_cases(draw):
    """A constraint system, a model over it and one ``run`` call."""
    paths = draw(st.integers(1, 6))
    links = draw(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, paths - 1), min_size=1),
                st.floats(0.1, 1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    system = ConstraintSystem(
        [Path((f"s{p}", f"d{p}")) for p in range(paths)],
        [
            Constraint(link=("l", str(i)), capacity=capacity, path_indices=tuple(members))
            for i, (members, capacity) in enumerate(links)
        ],
    )
    rtts = draw(st.lists(st.floats(1e-4, 1.0), min_size=paths, max_size=paths))
    model = FluidModel(system, rtts, loss_sharpness=draw(st.floats(1.0, 200.0)))
    dt = draw(st.floats(1e-4, 0.05))
    # One step, a handful (never a multiple of ten), or a long run.
    steps = draw(st.one_of(st.just(1), st.integers(2, 9), st.integers(1, 3000)))
    run = dict(
        duration=(steps + 0.5) * dt, dt=dt, initial_window=draw(st.floats(1.0, 100.0))
    )
    return model, draw(st.sampled_from(sorted(set(FLUID_FAMILIES.values())))), run


def outcome(mode, model, family, **run):
    """Everything ``run`` produces under one kernel mode, as comparable bytes."""
    with kernel.override(mode):
        try:
            result = model.run(family, **run)
        except ArithmeticError as error:
            return type(error), str(error)
    return result.times.tobytes(), result.rates_mbps.tobytes(), result.rates_mbps.shape


def line_system(paths=1):
    return ConstraintSystem(
        [Path((f"s{p}", f"d{p}")) for p in range(paths)],
        [Constraint(link=("s", "d"), capacity=10.0, path_indices=tuple(range(paths)))],
    )


class TestCompiledIntegratorIsTheSameFunction:
    @_TWIN_SETTINGS
    @given(fluid_cases())
    def test_trajectories_are_byte_identical(self, compiled_ext, case):
        model, family, run = case
        python = outcome("python", model, family, **run)
        assert python == outcome("compiled", model, family, **run)
        assert python[2] == (len(range(0, int(run["duration"] / run["dt"]), 10)), model.n)

    def test_result_arrays_are_writable_on_both_tiers(self, compiled_ext, paper_system):
        for mode in ("python", "compiled"):
            with kernel.override(mode):
                result = FluidModel(paper_system).run("olia", duration=0.5)
            result.rates_mbps[0, 0] = 1.0
            assert result.rates_mbps.shape == (10, 3) and result.rates_mbps.dtype == np.float64

    @pytest.mark.parametrize("algorithm", ["uncoupled", "lia", "olia"])
    def test_fluid_allocator_solves_equal(self, compiled_ext, algorithm):
        from repro.flowsim.allocator import ClassDemand, FluidAllocator

        demands = [
            ClassDemand(links=(0,), count=2),
            ClassDemand(links=(0, 1), count=3),
            ClassDemand(links=(1,), count=1),
        ]
        rates = []
        for mode in ("python", "compiled"):
            with kernel.override(mode):
                rates.append(FluidAllocator(algorithm).solve(demands, [40.0, 25.0]))
        assert rates[0] == rates[1] and all(rate > 0.0 for rate in rates[0])

    @pytest.mark.parametrize(
        "rtt, family, error",
        [
            # (2 / 1e-160) ** 2 leaves the doubles: float.__pow__ raises, so must C.
            (1e-160, "lia", OverflowError),
            (1e-160, "olia", OverflowError),
            # 1e-200 squared underflows to 0.0: the division before the power raises.
            (1e-200, "lia", ZeroDivisionError),
            # (2 / 1e300) ** 2 underflows to 0.0 -- not an error -- and then divides.
            (1e300, "olia", ZeroDivisionError),
        ],
    )
    def test_arithmetic_errors_are_the_python_loops(self, compiled_ext, rtt, family, error):
        model = FluidModel(line_system(), rtts=[rtt])
        python = outcome("python", model, family, duration=0.1)
        assert python == outcome("compiled", model, family, duration=0.1)
        assert python[0] is error
        # No power and no squared RTT in the uncoupled family: it runs.
        assert len(outcome("compiled", model, "uncoupled", duration=0.1)) == 3

    def test_nan_takes_pythons_side_of_min_and_max(self, compiled_ext):
        # 1e10 / 1e-300 is inf, inf / inf a NaN share; min(nan, 1.0) and
        # max(nan, 1.0) are nan in Python (the first operand unless the second
        # compares past it), so the windows go NaN instead of clamping to 1.0.
        model = FluidModel(line_system(), rtts=[1e-300])
        python = outcome("python", model, "uncoupled", duration=0.1, initial_window=1e10)
        assert python == outcome("compiled", model, "uncoupled", duration=0.1, initial_window=1e10)
        assert np.isnan(np.frombuffer(python[1])).all()

    @pytest.mark.parametrize("bad", [(0, 3), (-1,), (0, 1.5)])
    def test_constraint_indices_are_checked_at_construction(self, bad):
        system = line_system(2)
        system.constraints[0] = Constraint(link=("s", "d"), capacity=10.0, path_indices=bad)
        with pytest.raises((ModelError, TypeError), match="range|integer"):
            FluidModel(system)


class TestFluidRunBoundaries:
    """``fluid_run`` is reachable with any arguments: it validates, never reads out of range."""

    #: Two links over two paths: link 0 carries both, link 1 only path 1.
    GOOD = dict(
        members=array("q", [0, 1, 1]),
        link_offsets=array("q", [0, 2, 3]),
        capacities=array("d", [10.0, 5.0]),
        path_links=array("q", [0, 0, 1]),
        path_offsets=array("q", [0, 1, 3]),
        rtts=array("d", [0.01, 0.02]),
    )

    @staticmethod
    def call(ext, family="lia", steps=25, **changed):
        arrays = {**TestFluidRunBoundaries.GOOD, **changed}
        return ext.fluid_run(*arrays.values(), family, steps, 0.005, 2.0, 11200.0, 1.0)

    def test_good_call_returns_one_row_per_tenth_step(self, compiled_ext):
        log = self.call(compiled_ext)
        assert type(log) is bytearray and len(log) == 3 * 2 * 8
        assert len(self.call(compiled_ext, steps=1)) == 1 * 2 * 8

    @pytest.mark.parametrize(
        "changed, error",
        [
            (dict(members=array("q", [0, 2, 1])), IndexError),  # a path that does not exist
            (dict(members=array("q", [0, -1, 1])), IndexError),
            (dict(path_links=array("q", [0, 0, 2])), IndexError),  # a link that does not exist
            (dict(link_offsets=array("q", [0, 5, 3])), ValueError),  # not monotone
            (dict(path_offsets=array("q", [0, -2, 3])), ValueError),
            (dict(link_offsets=array("q", [0, 2, 4])), ValueError),  # runs past the members
            (dict(link_offsets=array("q", [1, 2, 3])), ValueError),  # does not start at 0
            (dict(link_offsets=array("q", [0, 3])), ValueError),  # one link, two capacities
            (dict(capacities=array("d", [10.0, 5.0, 1.0])), ValueError),
            (dict(rtts=array("d", [0.01, 0.02, 0.03])), ValueError),  # three paths, two rows
            (dict(rtts=array("d", [0.01])), IndexError),  # one path: member 1 is past it
            (dict(link_offsets=array("q")), ValueError),
            (dict(steps=0), ValueError),
            (dict(steps=-5), ValueError),
            (dict(family="bbr"), ValueError),
            (dict(members=array("i", [0, 1, 1])), TypeError),  # 4-byte items
            (dict(rtts=array("q", [1, 2])), TypeError),  # ints where doubles go
            (dict(capacities=[10.0, 5.0]), TypeError),  # not a buffer
        ],
    )
    def test_malformed_arguments_raise(self, compiled_ext, changed, error):
        with pytest.raises(error):
            self.call(compiled_ext, **changed)

    def test_a_log_too_large_to_address_is_a_memory_error(self, compiled_ext):
        # rows * paths * 8 overflows Py_ssize_t: refused before any allocation.
        with pytest.raises(MemoryError):
            self.call(compiled_ext, steps=sys.maxsize)
