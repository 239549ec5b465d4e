"""The two fairness references: one body each, and the proportional-fair solve cannot give up.

``max_min_fair_rates`` and ``MaxMinAllocator`` share progressive filling;
``proportional_fair_rates`` and ``ProportionalFairAllocator`` share the
interior-point solve, which returns a duality gap.  On drawn systems (empty
rows, repeated columns, counts, weights, caps, constant-bit-rate classes)
every solve ends inside the capacity region with a gap of at most
``GAP_BOUND * sum(n_c * w_c)``, and where scipy's SLSQP (``minimize``, the
oracle) succeeds its utility is never higher by more than that.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.flowsim.allocator import ClassDemand, MaxMinAllocator, ProportionalFairAllocator
from repro.model.bottleneck import Constraint, ConstraintSystem
from repro.model.classes import unit_classes
from repro.model.lp import (
    GAP_BOUND, max_total_throughput, proportional_fair, proportional_fair_rates,
)
from repro.model.maxmin import max_min_fair_rates
from repro.model.paths import Path

try:
    from scipy import optimize
except ImportError:  # the suite without scipy: no oracle, the solves still run
    optimize = None

MIN_RATE = 1e-3
OPTIONS = {"maxiter": 500, "ftol": 1e-10}

_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_DRAW_SETTINGS = (
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


def system_of(usage, capacity):
    n = len(usage[0])
    paths = [Path(["s", f"r{i}", "d"], tag=i + 1, name=f"Path {i + 1}") for i in range(n)]
    constraints = [
        Constraint(
            link=(f"l{row}", "x"),
            capacity=capacity[row],
            path_indices=tuple(i for i, used in enumerate(uses) if used),
        )
        for row, uses in enumerate(usage)
    ]
    return ConstraintSystem(paths, constraints)


@st.composite
def systems(draw):
    usage = draw(usages())
    return system_of(usage, [draw(capacities) for _ in usage])


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
            weight=draw(st.sampled_from([1.0, 0.5, 3.75, 0.125]) | st.floats(0.1, 5.0)),
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


def solved_classes(demands, rates):
    """The classes the interior-point solve answered: responsive, populated,
    not served at a cap at or below ``MIN_RATE`` and not starved to 0."""
    return [
        i
        for i, d in enumerate(demands)
        if d.responsive and d.count > 0 and rates[i] > 0.0 and (d.cap is None or d.cap > MIN_RATE)
    ]


def assert_within_capacity(demands, capacity, rates):
    used = [0.0] * len(capacity)
    for demand, rate in zip(demands, rates):
        assert rate >= 0.0
        if demand.cap is not None:
            assert rate <= demand.cap
        for link in demand.links:
            used[link] += demand.count * rate
    for load, limit in zip(used, capacity):
        assert load <= limit * (1.0 + 1e-12)


def oracle_utility(demands, capacity, rates, solved):
    """``minimize(method="SLSQP")`` on the problem the solve answered (the
    other classes' rates fixed), or ``None`` where it gives up.  SLSQP may end
    outside the capacity region by up to ~1e-9 of a link, so its point is
    scaled into the region before its utility is read."""
    if optimize is None or not solved:
        return None
    fixed = [0.0] * len(capacity)
    for index, demand in enumerate(demands):
        if index not in solved:
            for link in demand.links:
                fixed[link] += demand.count * rates[index]
    links = sorted({link for i in solved for link in demands[i].links})
    a = np.array([[demands[i].count * demands[i].links.count(j) for i in solved] for j in links])
    b = np.array([capacity[link] - fixed[link] for link in links])
    v = np.array([demands[i].count * demands[i].weight for i in solved])
    result = optimize.minimize(
        lambda x: -float(v @ np.log(np.maximum(x, 1e-12))),
        np.full(len(solved), MIN_RATE),
        jac=lambda x: -v / np.maximum(x, 1e-12),
        bounds=[(MIN_RATE, demands[i].cap) for i in solved],
        constraints={"type": "ineq", "fun": lambda x: b - a @ x, "jac": lambda x: -a},
        method="SLSQP",
        options=OPTIONS,
    )
    if not result.success:
        return None
    x = result.x * min(1.0, float(np.min(b / (a @ result.x))))
    return float(v @ np.log(x))


def assert_certified(demands, capacity, rates, gap):
    assert_within_capacity(demands, capacity, rates)
    solved = solved_classes(demands, rates)
    weight = sum(demands[i].count * demands[i].weight for i in solved)
    assert gap <= GAP_BOUND * weight
    ours = sum(demands[i].count * demands[i].weight * math.log(rates[i]) for i in solved)
    theirs = oracle_utility(demands, capacity, rates, solved)
    if theirs is not None:
        assert theirs <= ours + GAP_BOUND * weight


class TestItCannotGiveUp:
    @given(systems())
    @_DRAW_SETTINGS
    def test_every_constraint_system_solves(self, system):
        fair = proportional_fair_rates(system, min_rate=MIN_RATE)
        assert_certified(*unit_classes(system), fair.rates, fair.gap)

    @given(class_systems())
    @_DRAW_SETTINGS
    def test_every_class_system_solves(self, problem):
        demands, capacity = problem
        rates, gap = proportional_fair(demands, capacity, min_rate=MIN_RATE)
        assert_certified(demands, capacity, rates, gap)
        assert ProportionalFairAllocator(min_rate=MIN_RATE).solve(demands, capacity) == rates


class TestTheReferencesRelate:
    @given(systems())
    @_DRAW_SETTINGS
    def test_the_relations_that_hold(self, system):
        """The LP's total bounds proportional fairness's; max-min's smallest
        rate bounds proportional fairness's; proportional fairness's utility
        bounds max-min's (within the certified gap)."""
        lp = max_total_throughput(system)
        maxmin = max_min_fair_rates(system).rates
        fair = proportional_fair_rates(system, min_rate=MIN_RATE)
        n = system.path_count
        assert fair.gap <= GAP_BOUND * n
        assert lp.total >= fair.total * (1.0 - 1e-9)
        assert min(maxmin) >= min(fair.rates) * (1.0 - 1e-9)
        assert sum(map(math.log, fair.rates)) >= sum(map(math.log, maxmin)) - GAP_BOUND * n

    def test_max_min_can_carry_more_than_proportional_fairness(self):
        """Not a relation: here max-min's total exceeds proportional fairness's."""
        links = [
            ((1, 3, 4, 5), 100.0), ((1, 2, 4), 0.5), ((1, 5), 100.0),
            ((3, 4, 5), 10.0), ((3, 4), 10.0), ((1, 5), 0.5),
        ]
        usage = [[path in paths for path in range(1, 6)] for paths, _ in links]
        system = system_of(usage, [capacity for _, capacity in links])
        maxmin = max_min_fair_rates(system)
        fair = proportional_fair_rates(system)
        assert maxmin.total == pytest.approx(10.333, abs=5e-4)
        assert fair.total == pytest.approx(10.315, abs=5e-4)
        assert maxmin.total > fair.total


class TestClosedForms:
    @pytest.mark.parametrize(
        "capacity, exact",
        [([0.5, 0.5], [0.5, 0.12, 0.004]), ([10.0, 0.5], [10.0, 0.12, 0.004])],
    )
    def test_weights_thirty_times_apart(self, capacity, exact):
        """One class alone on link 0; on link 1, 4 flows of weight 3.75 and 5
        of weight 0.125 split 0.5 by their total weights, 15 : 0.625."""
        demands = [
            ClassDemand(links=(0,), count=1),
            ClassDemand(links=(1,), count=4, weight=3.75),
            ClassDemand(links=(1,), count=5, weight=0.125),
        ]
        rates, gap = proportional_fair(demands, capacity)
        assert rates == pytest.approx(exact, rel=1e-9, abs=0.0)
        assert gap <= GAP_BOUND * (1 + 15 + 0.625)


def _allocators():
    return pytest.mark.parametrize("allocator", [MaxMinAllocator(), ProportionalFairAllocator()])


class TestInputFailsLoudly:
    """Checked once, where both bodies start: a :class:`ModelError` naming the
    class or link, never a ``ValueError``, a ``ZeroDivisionError`` or a NaN."""

    @_allocators()
    def test_a_class_with_no_links(self, allocator):
        with pytest.raises(ModelError, match="class 1 crosses no link"):
            allocator.solve([ClassDemand((0,), 1), ClassDemand((), 1)], [10.0])

    @_allocators()
    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_a_weight_that_is_not_finite_and_positive(self, allocator, weight):
        with pytest.raises(ModelError, match="class 0 has weight"):
            allocator.solve([ClassDemand((0,), 1, weight=weight)], [10.0])

    @_allocators()
    @pytest.mark.parametrize("capacity", [-1.0, math.nan])
    def test_a_negative_or_nan_capacity(self, allocator, capacity):
        with pytest.raises(ModelError, match="link 1 has capacity"):
            allocator.solve([ClassDemand((0, 1), 1)], [10.0, capacity])

    @_allocators()
    def test_a_class_with_no_finite_limit_is_unbounded(self, allocator):
        with pytest.raises(ModelError, match="class 0 is unbounded"):
            allocator.solve([ClassDemand((0,), 1), ClassDemand((0, 1), 1)], [math.inf, 10.0])

    @_allocators()
    def test_an_infinite_link_under_a_cap_is_a_limit(self, allocator):
        demands = [ClassDemand((0,), 2, cap=3.0), ClassDemand((0, 1), 1)]
        assert allocator.solve(demands, [math.inf, 10.0]) == pytest.approx([3.0, 10.0], rel=1e-9)


class TestAllocatorOnExhaustedLinks:
    """A responsive class on a link with at most ``min_rate`` per flow left
    gets 0, as under max-min, instead of entering a solve with no interior;
    one capped at or below ``min_rate`` gets its cap once constant-bit-rate
    traffic is served."""

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
        assert rates[1] == pytest.approx(15.0, rel=1e-9)

    def test_a_cap_below_the_minimum_rate(self):
        demands = [ClassDemand(links=(0,), count=1, cap=1e-4), ClassDemand(links=(0,), count=1)]
        rates = ProportionalFairAllocator(min_rate=1e-3).solve(demands, [10.0])
        assert rates[0] == 1e-4
        assert rates[1] == pytest.approx(10.0 - 1e-4, rel=1e-9)

    def test_constant_bit_rate_is_served_before_a_cap_below_the_minimum_rate(self):
        demands = [
            ClassDemand(links=(0,), count=1, cap=1e-4),
            ClassDemand(links=(0,), count=1, cap=1.0, responsive=False),
        ]
        assert ProportionalFairAllocator(min_rate=1e-3).solve(demands, [1.0]) == [0.0, 1.0]
