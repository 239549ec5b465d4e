"""The max-throughput LP calls HiGHS directly and answers what ``linprog`` answers.

``max_total_throughput`` builds the model ``linprog(method="highs")`` builds,
with its options and post-check, and hands it to the same bindings.  The twin
test below keeps ``linprog`` as the oracle: rates equal as Python floats (not
approximately), on systems drawn to land on degenerate optimal faces, where
HiGHS's pick among equally good vertices is what the golden points pin.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model.bottleneck import Constraint, ConstraintSystem, build_constraints
from repro.model.lp import max_total_throughput
from repro.model.paths import Path
from repro.topologies.generators import shared_bottleneck

optimize = pytest.importorskip("scipy.optimize")


def system_of(usage, capacities):
    """One path per column of the 0/1 ``usage`` rows, one constraint per row."""
    n = len(usage[0])
    paths = [Path(["s", f"r{i}", "d"], tag=i + 1, name=f"Path {i + 1}") for i in range(n)]
    constraints = [
        Constraint(
            link=(f"l{row}", "x"),
            capacity=capacity,
            path_indices=tuple(i for i, used in enumerate(uses) if used),
        )
        for row, (uses, capacity) in enumerate(zip(usage, capacities))
    ]
    return ConstraintSystem(paths, constraints)


@st.composite
def lp_problems(draw):
    """1-8 paths under 1-12 constraints of 0/1 usage (empty rows included),
    every path bounded; capacities half the time from a few round values, so
    ties and degenerate faces are common; weights uniform or drawn."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    usage = draw(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    for path in range(n):
        if not any(row[path] for row in usage):
            usage[draw(st.integers(0, m - 1))][path] = True
    capacity = (
        st.sampled_from([10.0, 20.0, 30.0, 50.0, 100.0])
        if draw(st.booleans())
        else st.floats(1.0, 100.0)
    )
    capacities = draw(st.lists(capacity, min_size=m, max_size=m))
    weights = draw(st.none() | st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    return system_of(usage, capacities), weights


def linprog_rates(system, weights=None):
    """The oracle: the call ``max_total_throughput`` made before it went direct."""
    n = system.path_count
    result = optimize.linprog(
        c=[-w for w in (weights or [1.0] * n)],
        A_ub=system.matrix(),
        b_ub=system.rhs(),
        bounds=[(0, None)] * n,
        method="highs",
    )
    assert result.success, result.message
    return [float(x) for x in result.x]


_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_TWIN_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
)


class TestDirectSolveMatchesLinprog:
    @given(lp_problems())
    @_TWIN_SETTINGS
    def test_same_rates_total_and_tight_links(self, problem):
        system, weights = problem
        expected = linprog_rates(system, weights)
        result = max_total_throughput(system, weights)
        assert result.solver == "highs"
        assert result.rates == expected
        assert result.total == float(sum(expected))
        assert result.tight_links == system.tight_constraints(expected, tol=1e-5)

    def test_holds_highs_pick_on_a_degenerate_face(self):
        """Three paths through one 45 Mbps bottleneck: every split of 45 is
        optimal.  HiGHS fills the first path; vertex enumeration returns the
        lexicographically smallest optimal vertex, the last path."""
        system = build_constraints(*shared_bottleneck(n_paths=3, bottleneck_mbps=45.0))
        assert linprog_rates(system) == [45.0, 0.0, 0.0]
        assert max_total_throughput(system).rates == [45.0, 0.0, 0.0]
        assert max_total_throughput(system, solver="vertex").rates == [0.0, 0.0, 45.0]

    def test_an_infeasible_system_names_the_model_status(self):
        system = system_of([[True, True]], [-5.0])
        with pytest.raises(ModelError, match="LP solver failed: .*Infeasible"):
            max_total_throughput(system)
