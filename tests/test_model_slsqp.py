"""Proportional fairness drives scipy's SLSQP module and answers what ``minimize`` answers.

``repro.model._scipy_solvers.minimize_slsqp`` runs the loop
``minimize(method="SLSQP")`` runs, without importing ``scipy.optimize``.  The
twins below keep ``minimize`` as the oracle, called with the arguments
``proportional_fair_rates`` and ``ProportionalFairAllocator.solve`` passed it
before they went direct: rates equal as Python floats, on drawn systems with
empty rows, repeated columns, weights and caps.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.flowsim.allocator import ClassDemand, MaxMinAllocator, ProportionalFairAllocator
from repro.model._scipy_solvers import minimize_slsqp
from repro.model.bottleneck import Constraint, ConstraintSystem
from repro.model.lp import proportional_fair_rates
from repro.model.paths import Path

optimize = pytest.importorskip("scipy.optimize")

MIN_RATE = 1e-3
OPTIONS = {"maxiter": 500, "ftol": 1e-10}

_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_TWIN_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=200,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)

capacities = st.sampled_from([0.5, 10.0, 20.0, 50.0, 100.0]) | st.floats(0.1, 100.0)


@st.composite
def usages(draw):
    """1-6 paths under 1-8 links of 0/1 usage (empty rows included), every
    path crossing at least one link."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    usage = draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    for path in range(n):
        if not any(row[path] for row in usage):
            usage[draw(st.integers(0, m - 1))][path] = True
    return usage


@st.composite
def systems(draw):
    usage = draw(usages())
    n = len(usage[0])
    paths = [Path(["s", f"r{i}", "d"], tag=i + 1, name=f"Path {i + 1}") for i in range(n)]
    constraints = [
        Constraint(
            link=(f"l{row}", "x"),
            capacity=draw(capacities),
            path_indices=tuple(i for i, used in enumerate(uses) if used),
        )
        for row, uses in enumerate(usage)
    ]
    return ConstraintSystem(paths, constraints)


@st.composite
def class_systems(draw):
    """Rate classes over 1-8 links: 1-6 responsive classes with counts,
    weights and caps (or none), plus up to two constant-bit-rate ones."""
    usage = draw(usages())
    m = len(usage)
    demands = [
        ClassDemand(
            links=tuple(row for row in range(m) if usage[row][column]),
            count=draw(st.integers(1, 5)),
            weight=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.1, 5.0)),
            cap=draw(st.none() | st.floats(MIN_RATE, 60.0)),
        )
        for column in range(len(usage[0]))
    ]
    for _ in range(draw(st.integers(0, 2))):
        links = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        demands.insert(
            draw(st.integers(0, len(demands))),
            ClassDemand(
                links=tuple(sorted(links)),
                count=draw(st.integers(0, 3)),
                cap=draw(st.floats(0.1, 20.0)),
                responsive=False,
            ),
        )
    return demands, [draw(capacities) for _ in range(m)]


def oracle_pf_rates(system):
    """The call ``proportional_fair_rates`` made before it went direct
    (``None`` where it failed)."""
    n, a, c = system.path_count, system.matrix(), system.rhs()
    jacobian = -a
    result = optimize.minimize(
        lambda x: -float(np.sum(np.log(np.maximum(x, 1e-12)))),
        np.full(n, max(MIN_RATE, float(np.min(c)) / (2.0 * n))),
        jac=lambda x: -1.0 / np.maximum(x, 1e-12),
        bounds=[(MIN_RATE, None)] * n,
        constraints={"type": "ineq", "fun": lambda x: c - a @ x, "jac": lambda x: jacobian},
        method="SLSQP",
        options=OPTIONS,
    )
    return [float(x) for x in result.x] if result.success else None


def serve_constant_bit_rate(demands, capacity):
    """The constant-bit-rate classes' rates, and each link's capacity after them."""
    fixed, remaining = {}, [float(c) for c in capacity]
    for index, demand in enumerate(demands):
        if demand.responsive or demand.count <= 0:
            continue
        share = min(remaining[link] for link in demand.links) / demand.count
        rate = max(0.0, share if demand.cap is None else min(demand.cap, share))
        fixed[index] = rate
        for link in demand.links:
            remaining[link] -= rate * demand.count
    return fixed, remaining


def oracle_allocation(demands, capacity):
    """``ProportionalFairAllocator.solve`` as it was before it went direct
    (``None`` where that solve failed)."""
    fixed, remaining = serve_constant_bit_rate(demands, capacity)
    populated = [i for i, d in enumerate(demands) if d.count > 0 and i not in fixed]
    rates = [0.0] * len(demands)
    if populated:
        counts = np.asarray([demands[i].count for i in populated], dtype=float)
        weights = counts * np.asarray([demands[i].weight for i in populated], dtype=float)
        links = sorted({link for i in populated for link in demands[i].links})
        matrix = np.zeros((len(links), len(populated)))
        for column, index in enumerate(populated):
            for link in demands[index].links:
                matrix[links.index(link), column] += demands[index].count
        budget = np.asarray([max(remaining[link], 0.0) for link in links])
        jacobian = -matrix
        result = optimize.minimize(
            lambda x: -float(weights @ np.log(np.maximum(x, 1e-12))),
            np.full(
                len(populated),
                max(MIN_RATE, min(max(r, 0.0) for r in remaining) / (2.0 * counts.sum())),
            ),
            jac=lambda x: -weights / np.maximum(x, 1e-12),
            bounds=[(MIN_RATE, demands[i].cap) for i in populated],
            constraints={
                "type": "ineq",
                "fun": lambda x: budget - matrix @ x,
                "jac": lambda x: jacobian,
            },
            method="SLSQP",
            options=OPTIONS,
        )
        if not result.success:
            return None
        for column, index in enumerate(populated):
            rates[index] = float(result.x[column])
    for index, rate in fixed.items():
        rates[index] = rate
    return rates


class TestDriverMatchesMinimize:
    @given(systems(), st.lists(st.none() | st.floats(MIN_RATE, 60.0), min_size=6, max_size=6))
    @_TWIN_SETTINGS
    def test_same_x_exit_mode_and_iterations(self, system, caps):
        n, a, c = system.path_count, system.matrix(), system.rhs()
        caps = caps[:n]
        start = np.full(n, max(MIN_RATE, float(np.min(c)) / (2.0 * n)))

        def fun(x):
            return -float(np.sum(np.log(np.maximum(x, 1e-12))))

        def grad(x):
            return -1.0 / np.maximum(x, 1e-12)

        expected = optimize.minimize(
            fun, start, jac=grad, bounds=[(MIN_RATE, cap) for cap in caps],
            constraints={"type": "ineq", "fun": lambda x: c - a @ x, "jac": lambda x: -a},
            method="SLSQP", options=OPTIONS,
        )
        upper = np.asarray([np.inf if cap is None else cap for cap in caps])
        x, mode, iterations = minimize_slsqp(fun, grad, start, a, c, np.full(n, MIN_RATE), upper)
        assert x.tolist() == expected.x.tolist()
        if "status" in expected:
            assert (mode, iterations) == (expected.status, expected.nit)
        else:  # every variable fixed by its bounds: minimize answers without SLSQP
            assert (mode == 0) == expected.success

    def test_inverted_bounds_raise_what_minimize_raises(self):
        a, c = np.ones((1, 1)), np.ones(1)

        def fun(x):
            return float(x[0])

        def grad(x):
            return np.ones(1)

        with pytest.raises(ValueError):
            optimize.minimize(
                fun, [0.5], jac=grad, bounds=[(1.0, 0.5)], method="SLSQP",
                constraints={"type": "ineq", "fun": lambda x: c - a @ x, "jac": lambda x: -a},
            )
        with pytest.raises(ValueError):
            minimize_slsqp(fun, grad, [0.5], a, c, np.ones(1), np.full(1, 0.5))


def test_a_scipy_older_than_the_exercised_release_is_no_reference(monkeypatch):
    """1.16 ships the SLSQP module too, but its calling convention is untested:
    a ModelError (no proportional-fair reference), not a crash inside it."""
    monkeypatch.setattr(pytest.importorskip("scipy"), "__version__", "1.16.2")
    a, c = np.ones((1, 1)), np.ones(1)
    with pytest.raises(ModelError, match=r"scipy >= 1\.17"):
        minimize_slsqp(sum, np.ones_like, [0.5], a, c, np.zeros(1), np.ones(1))


class TestProportionalFairRatesMatchMinimize:
    @given(systems())
    @_TWIN_SETTINGS
    def test_same_rates(self, system):
        expected = oracle_pf_rates(system)
        if expected is None:  # SLSQP gave up, before as now
            with pytest.raises(ModelError, match="proportional fairness solver failed"):
                proportional_fair_rates(system, min_rate=MIN_RATE)
        else:
            assert proportional_fair_rates(system, min_rate=MIN_RATE).rates == expected


class TestAllocatorMatchesMinimize:
    @given(class_systems())
    @_TWIN_SETTINGS
    def test_same_rates(self, problem):
        demands, capacity = problem
        _, remaining = serve_constant_bit_rate(demands, capacity)
        # A responsive class crossing a link left with less than MIN_RATE per
        # responsive flow gets 0 and leaves the solve (the old solve was
        # infeasible there): the old solve of the others is the oracle.
        flows = [0] * len(capacity)
        for demand in demands:
            if demand.responsive:
                for link in demand.links:
                    flows[link] += demand.count
        exhausted = {link for link, n in enumerate(flows) if n and remaining[link] < MIN_RATE * n}
        kept = [
            demand._replace(count=0)
            if demand.responsive and exhausted.intersection(demand.links)
            else demand
            for demand in demands
        ]
        expected = oracle_allocation(kept, capacity)
        solve = ProportionalFairAllocator(min_rate=MIN_RATE).solve
        if expected is None:  # SLSQP gave up, before as now
            with pytest.raises(ModelError, match="proportional-fair allocator failed"):
                solve(demands, capacity)
        else:
            assert solve(demands, capacity) == expected


class TestAllocatorOnExhaustedLinks:
    """A responsive class on a link with less than ``min_rate`` per flow left
    gets 0, as under max-min, instead of failing SLSQP's bounds; one capped
    below ``min_rate`` gets its cap once constant-bit-rate traffic is served."""

    def test_a_link_taken_by_constant_bit_rate_traffic(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=10.0, responsive=False),
            ClassDemand(links=(0,), count=1),
        ]
        assert ProportionalFairAllocator().solve(demands, [10.0]) == [10.0, 0.0]
        assert MaxMinAllocator().solve(demands, [10.0]) == [10.0, 0.0]

    def test_float_dust_left_by_constant_bit_rate_traffic(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=0.7, responsive=False),
            ClassDemand(links=(0,), count=1, cap=0.3, responsive=False),
            ClassDemand(links=(0,), count=1),
        ]
        assert 0.0 < 1.0 - 0.7 - 0.3 < 1e-3  # the link keeps a float remainder
        assert ProportionalFairAllocator().solve(demands, [1.0]) == [0.7, 0.3, 0.0]

    def test_a_link_of_capacity_zero(self):
        demands = [ClassDemand(links=(0, 1), count=1), ClassDemand(links=(1,), count=2)]
        rates = ProportionalFairAllocator().solve(demands, [0.0, 30.0])
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(15.0, rel=1e-6)

    def test_a_cap_below_the_minimum_rate(self):
        demands = [ClassDemand(links=(0,), count=1, cap=1e-4), ClassDemand(links=(0,), count=1)]
        rates = ProportionalFairAllocator(min_rate=1e-3).solve(demands, [10.0])
        assert rates[0] == 1e-4
        assert rates[1] == pytest.approx(10.0 - 1e-4, rel=1e-6)

    def test_constant_bit_rate_is_served_before_a_cap_below_the_minimum_rate(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=1e-4),
            ClassDemand(links=(0,), count=1, cap=1.0, responsive=False),
        ]
        assert ProportionalFairAllocator(min_rate=1e-3).solve(demands, [1.0]) == [0.0, 1.0]
