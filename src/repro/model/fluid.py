"""Fluid (differential-equation) models of MPTCP congestion control.

The packet-level simulator reproduces the measured dynamics; the fluid model
complements it with a cheap, deterministic approximation of the *equilibrium*
rates each congestion-control family settles at on a set of overlapping
paths.  Links generate a loss signal once the offered load approaches their
capacity, and every path's window follows the increase/decrease rules of the
chosen algorithm in expectation:

* ``uncoupled`` -- per-path AIMD (Reno-like; a proxy for independent CUBIC)
* ``lia``       -- RFC 6356 coupled increase, per-path halving
* ``olia``      -- Khalili et al.'s increase term (without the alpha
  rebalancing, which needs loss history), per-path halving

The model is deliberately simple -- its role is to show who *under-utilises*
the network at equilibrium, which matches the ordering observed in the paper
(uncoupled > OLIA > LIA on aggregate throughput).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..kernel import compiled_module
from ..units import DEFAULT_MSS, bytes_to_bits
from .bottleneck import ConstraintSystem


@dataclass
class FluidResult:
    """Trajectory and equilibrium of a fluid-model run.

    ``times`` is a 1-D array of log timestamps and ``rates_mbps`` a 2-D array
    with one row per logged step and one column per path.
    """

    times: np.ndarray
    rates_mbps: np.ndarray  # one row per time step, one column per path
    algorithm: str = "uncoupled"

    @property
    def final_rates(self) -> List[float]:
        return [float(v) for v in self.rates_mbps[-1]]

    @property
    def final_total(self) -> float:
        return float(sum(self.rates_mbps[-1]))

    def mean_rates(self, last_fraction: float = 0.25) -> List[float]:
        """Average per-path rate over the last ``last_fraction`` of the run.

        The averaging window always covers at least the final logged row, so
        a ``last_fraction`` smaller than one logging step (including 0.0)
        degrades to :attr:`final_rates` instead of averaging an empty slice.
        """
        rows = len(self.rates_mbps)
        if rows == 0:
            return []
        start = min(int(rows * (1.0 - last_fraction)), rows - 1)
        window = np.asarray(self.rates_mbps[max(start, 0):])
        return [float(v) for v in window.mean(axis=0)]

    def mean_total(self, last_fraction: float = 0.25) -> float:
        return float(sum(self.mean_rates(last_fraction)))


#: Congestion-control name -> fluid family.  The one table: :meth:`FluidModel.run`
#: rejects names outside it, model validation defaults them to ``uncoupled``.
FLUID_FAMILIES = {
    "uncoupled": "uncoupled",
    "reno": "uncoupled",
    "cubic": "uncoupled",
    "lia": "lia",
    "olia": "olia",
}


def _compressed_rows(rows) -> tuple:
    """``rows`` of indices end to end, and where each row starts and ends."""
    values, offsets = array("q"), array("q", [0])
    for row in rows:
        values.extend(row)
        offsets.append(len(values))
    return values, offsets


class FluidModel:
    """Discrete-time fluid simulation of coupled/uncoupled MPTCP.

    Parameters
    ----------
    system:
        The link-capacity constraint system (capacities in Mbps).
    rtts:
        Per-path round-trip times in seconds (default 10 ms each).
    mss:
        Segment size in bytes used to convert windows to rates.
    loss_sharpness:
        How quickly the loss signal grows once a link exceeds capacity.
    """

    def __init__(
        self,
        system: ConstraintSystem,
        rtts: Optional[Sequence[float]] = None,
        *,
        mss: int = DEFAULT_MSS,
        loss_sharpness: float = 20.0,
    ) -> None:
        self.system = system
        self.n = system.path_count
        if rtts is None:
            rtts = [0.01] * self.n
        if len(rtts) != self.n:
            raise ModelError("rtts length must match the number of paths")
        self.rtts = [float(r) for r in rtts]
        if not all(0.0 < r < math.inf for r in self.rtts):
            raise ModelError(f"rtts must be positive and finite, got {list(rtts)}")
        self.mss = mss
        self.loss_sharpness = loss_sharpness
        # The constraint matrix by its non-zeros: the paths crossing each
        # link and the links each path crosses.
        self._links = [
            (sorted(set(c.path_indices)), c.capacity) for c in system.constraints
        ]
        for members, _ in self._links:
            if not all(0 <= p < self.n for p in members):
                raise ModelError(
                    f"constraint path indices must be in range({self.n}), got {members}"
                )
        self._path_links = [
            [link for link, (members, _) in enumerate(self._links) if path in members]
            for path in range(self.n)
        ]
        # The same non-zeros in compressed rows, as the compiled loop takes them.
        self._nonzeros = (
            *_compressed_rows(members for members, _ in self._links),
            array("d", [capacity for _, capacity in self._links]),
            *_compressed_rows(self._path_links),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: str = "uncoupled",
        *,
        duration: float = 20.0,
        dt: float = 0.005,
        initial_window: float = 2.0,
    ) -> FluidResult:
        """Integrate the window dynamics and return the rate trajectory.

        One scalar step over the constraint matrix's non-zeros.  The paths
        are too few for array operations to pay for their dispatch, and
        plain left-to-right float sums make the trajectory the same on every
        platform (a BLAS picks its own order -- OpenBLAS pairs the terms from
        4 up -- and the model's limit cycle amplifies the last bit).

        A link that receives more traffic than it can carry drops the excess
        fraction ``(load - capacity) / load``; ``loss_sharpness`` steepens the
        onset so that the equilibrium sits close to full utilisation.  A
        path's loss probability is approximately the sum over its links.
        """
        algorithm = algorithm.lower()
        family = FLUID_FAMILIES.get(algorithm)
        if family is None:
            raise ModelError(f"unknown fluid algorithm {algorithm!r}")
        if not 0.0 < dt < math.inf:
            raise ModelError(f"dt must be positive and finite, got {dt}")
        if not dt <= duration < math.inf:
            raise ModelError(f"duration must cover at least one step of dt={dt}, got {duration}")
        if not 0.0 < initial_window < math.inf:
            raise ModelError(f"initial_window must be positive and finite, got {initial_window}")
        steps = int(duration / dt)
        paths = range(self.n)
        rtts = self.rtts
        rtts_squared = [r * r for r in rtts]
        segment_bits = bytes_to_bits(self.mss)
        links = self._links
        path_links = self._path_links
        sharpness = max(self.loss_sharpness / 20.0, 1.0)
        times = np.array([step * dt for step in range(0, steps, 10)])
        ext = compiled_module()
        if ext is not None:
            # The loop below, mirrored statement by statement in C
            # (kernel/_fluid.h: keep the two in sync).
            log = ext.fluid_run(
                *self._nonzeros, array("d", rtts), family, steps, dt,
                float(initial_window), segment_bits, sharpness,
            )
            rates = np.frombuffer(log, dtype=np.float64).reshape(len(times), self.n)
            return FluidResult(times=times, rates_mbps=rates, algorithm=algorithm)
        windows = [float(initial_window)] * self.n
        rates_log = []  # one row per logged step (every 10th)

        for step in range(steps):
            rates_mbps = [windows[p] / rtts[p] * segment_bits / 1e6 for p in paths]
            link_loss = []
            for members, capacity in links:
                load = 0.0
                for p in members:
                    load += rates_mbps[p]
                excess = load - capacity
                if excess > 0.0 and load > 0.0:
                    link_loss.append(min(excess / max(load, 1e-9) * sharpness, 1.0))
                else:
                    link_loss.append(0.0)
            if family != "uncoupled":
                total_rate = total_window = best = 0.0
                for p in paths:
                    total_rate += windows[p] / rtts[p]
                    total_window += windows[p]
                    best = max(best, windows[p] / rtts_squared[p])
                total_rate_squared = total_rate ** 2
                if family == "lia":
                    # RFC 6356: alpha / total window, alpha = total * best / rate^2.
                    coupled = total_window * best / total_rate_squared / total_window
            updated = []
            for p in paths:
                window = windows[p]
                loss = 0.0
                for link in path_links[p]:
                    loss += link_loss[link]
                loss = min(loss, 1.0)
                if family == "uncoupled":
                    increase_per_ack = 1.0 / window
                elif family == "lia":
                    increase_per_ack = min(coupled, 1.0 / window)
                else:
                    increase_per_ack = window / rtts_squared[p] / total_rate_squared
                increase = increase_per_ack * (window * (1.0 - loss) / rtts[p])
                decrease = window * loss / rtts[p] * window / 2.0
                updated.append(max(window + dt * (increase - decrease), 1.0))
            windows = updated

            if step % 10 == 0:
                rates_log.append(
                    [windows[p] / rtts[p] * segment_bits / 1e6 for p in paths]
                )

        return FluidResult(times=times, rates_mbps=np.array(rates_log), algorithm=algorithm)


def compare_equilibria(
    system: ConstraintSystem,
    algorithms: Sequence[str] = ("uncoupled", "lia", "olia"),
    *,
    rtts: Optional[Sequence[float]] = None,
    duration: float = 30.0,
) -> Dict[str, FluidResult]:
    """Run the fluid model for several algorithms on the same constraint system."""
    model = FluidModel(system, rtts)
    return {name: model.run(name, duration=duration) for name in algorithms}
