"""Throughput-constraint extraction (the inequalities of Fig. 1c).

Given a topology and a set of paths, every link used by at least one path
contributes one inequality ``sum of the rates of the paths crossing it <=
capacity``.  The resulting :class:`ConstraintSystem` (``A x <= c``, ``x >= 0``)
is the feasible throughput region the MPTCP load balancer implicitly explores
and the input to every solver in :mod:`repro.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import ModelError
from ..netsim.topology import Topology
from .paths import Edge, Path, PathSet


@dataclass(frozen=True)
class Constraint:
    """One capacity constraint: ``sum(rates[i] for i in path_indices) <= capacity``."""

    link: Edge
    capacity: float
    path_indices: Tuple[int, ...]

    def usage(self, rates: Sequence[float]) -> float:
        return sum(rates[i] for i in self.path_indices)

    def slack(self, rates: Sequence[float]) -> float:
        return self.capacity - self.usage(rates)

    def is_tight(self, rates: Sequence[float], tol: float = 1e-6) -> bool:
        return self.slack(rates) <= tol

    def __str__(self) -> str:
        terms = " + ".join(f"x{i + 1}" for i in self.path_indices)
        return f"{terms} <= {self.capacity:g}   [{self.link[0]}-{self.link[1]}]"


class ConstraintSystem:
    """The linear throughput constraints of a path set on a topology."""

    def __init__(self, paths: Sequence[Path], constraints: Sequence[Constraint]) -> None:
        self.paths = list(paths)
        self.constraints = list(constraints)

    # ------------------------------------------------------------------
    @property
    def path_count(self) -> int:
        return len(self.paths)

    @property
    def capacities(self) -> List[float]:
        return [c.capacity for c in self.constraints]

    def matrix(self) -> np.ndarray:
        """Constraint matrix ``A`` with one row per constraint, one column per path."""
        a = np.zeros((len(self.constraints), len(self.paths)))
        for row, constraint in enumerate(self.constraints):
            for index in constraint.path_indices:
                a[row, index] = 1.0
        return a

    def rhs(self) -> np.ndarray:
        """Right-hand-side capacity vector ``c``."""
        return np.asarray(self.capacities, dtype=float)

    # ------------------------------------------------------------------
    def is_feasible(self, rates: Sequence[float], tol: float = 1e-6) -> bool:
        """True if ``rates`` satisfies every constraint and non-negativity."""
        if len(rates) != len(self.paths):
            raise ModelError(
                f"expected {len(self.paths)} rates, got {len(rates)}"
            )
        if any(rate < -tol for rate in rates):
            return False
        return all(constraint.slack(rates) >= -tol for constraint in self.constraints)

    def tight_constraints(self, rates: Sequence[float], tol: float = 1e-6) -> List[Constraint]:
        return [c for c in self.constraints if c.is_tight(rates, tol)]

    def max_rate_for_path(self, index: int, rates: Sequence[float]) -> float:
        """Largest value path ``index`` could take with the other rates fixed."""
        limit = float("inf")
        for constraint in self.constraints:
            if index not in constraint.path_indices:
                continue
            others = sum(rates[i] for i in constraint.path_indices if i != index)
            limit = min(limit, constraint.capacity - others)
        return max(limit, 0.0)

    def validate(self) -> None:
        """Check that every path is bounded by at least one capacity constraint.

        A path that crosses no constraint makes every throughput objective
        unbounded; the LP then fails with an opaque solver message ("HiGHS
        model_status is Unbounded") and progressive filling with a vague
        error.  This raises a :class:`~repro.errors.ModelError` naming the
        offending path(s) instead, so solvers and grid expansions can fail
        with the actual misconfiguration.
        """
        if not self.paths:
            raise ModelError("constraint system has no paths")
        covered = set()
        for constraint in self.constraints:
            covered.update(constraint.path_indices)
        unconstrained = [i for i in range(len(self.paths)) if i not in covered]
        if unconstrained:
            labels = ", ".join(self._path_label(i) for i in unconstrained)
            raise ModelError(
                f"unbounded allocation: {labels} cross(es) no capacity constraint; "
                "every path needs at least one link-capacity bound"
            )

    def _path_label(self, index: int) -> str:
        path = self.paths[index]
        name = getattr(path, "name", "") or f"path {index + 1}"
        return f"{name} (index {index})"

    def shared_constraints(self) -> List[Constraint]:
        """Constraints on links shared by at least two paths (the interesting ones)."""
        return [c for c in self.constraints if len(c.path_indices) >= 2]

    def pretty(self) -> str:
        """Human-readable rendering of the inequality system (as in Fig. 1c)."""
        lines = [str(c) for c in self.constraints]
        lines.append("x_i >= 0 for every path i")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConstraintSystem(paths={len(self.paths)}, constraints={len(self.constraints)})"


def build_constraints(
    topology: Topology,
    paths: PathSet | Sequence[Path],
    *,
    include_private_links: bool = True,
) -> ConstraintSystem:
    """Derive the constraint system of ``paths`` on ``topology``.

    Parameters
    ----------
    include_private_links:
        When False, links used by a single path are skipped unless they are
        that path's bottleneck, producing the compact system shown in the
        paper (only the three shared links matter on the paper topology).
    """
    path_list = list(paths)
    if not path_list:
        raise ModelError("need at least one path")

    usage: Dict[Edge, List[int]] = {}
    for index, path in enumerate(path_list):
        for edge in path.links:
            usage.setdefault(edge, []).append(index)

    constraints: List[Constraint] = []
    for edge, indices in usage.items():
        capacity = topology.capacity_of(*edge)
        if not include_private_links and len(indices) < 2:
            path = path_list[indices[0]]
            if capacity > path.capacity(topology) + 1e-12:
                continue
        constraints.append(Constraint(link=edge, capacity=capacity, path_indices=tuple(indices)))

    # Deterministic ordering: shared links first (by capacity), then private.
    constraints.sort(key=lambda c: (-len(c.path_indices), c.capacity, c.link))
    return ConstraintSystem(path_list, constraints)
