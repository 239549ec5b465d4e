"""Deterministic fault injection for the campaign fabric.

Large sweeps die in ways unit tests of the happy path never exercise: a
worker process segfaults before flushing its result, a point wedges past any
reasonable wall-clock budget, a crashed writer leaves half a JSONL line at
the store's tail, or the simulation itself raises.  The fabric
(:mod:`repro.experiments.fabric`) recovers from all four -- and
:class:`ChaosSpec` exists so every one of those recovery paths is *driven* by
tests and CI rather than trusted.

A spec names grid-expansion indices per fault kind and fires deterministically:
the same spec against the same grid injects the same faults in the same
places, run after run.  Faults are attempt-aware -- by default a fault fires
only while a point has fewer than ``fire_attempts`` recorded failures, so a
retried point succeeds and the campaign converges; raising ``fire_attempts``
to the fabric's ``max_attempts`` exercises the quarantine path instead.

Fault kinds
-----------

``crash``
    The worker process exits hard (``os._exit``) *before* flushing its
    result: no record, no release -- exactly a killed container.
``hang``
    The worker sleeps past any per-point timeout; the fabric's watchdog must
    kill it and record ``status: "timeout"``.
``torn``
    The worker writes half a JSONL record (no newline) to the store's tail
    and then crashes, reproducing a mid-append death.
``error``
    The point fails with an injected exception -> ``status: "error"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..errors import FabricError

#: Every fault kind a :class:`ChaosSpec` can inject, in severity order.
FAULT_KINDS = ("crash", "hang", "torn", "error")


def _normalized(indices: Sequence[int], kind: str) -> Tuple[int, ...]:
    cleaned = []
    for index in indices:
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise FabricError(
                f"chaos {kind} point index {index!r} must be a non-negative "
                "grid-expansion index"
            )
        cleaned.append(index)
    return tuple(sorted(set(cleaned)))


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded, deterministic fault-injection plan over a campaign grid.

    Point indices refer to the grid's expansion order
    (:meth:`~repro.experiments.campaign.CampaignSpec.expand`), which is
    stable for a given spec -- so a chaos plan addresses the same points on
    every invocation.  ``seed`` only matters for plans built with
    :meth:`sample`, which draws the faulted indices deterministically.
    """

    seed: int = 0
    crash_points: Tuple[int, ...] = ()
    hang_points: Tuple[int, ...] = ()
    torn_points: Tuple[int, ...] = ()
    error_points: Tuple[int, ...] = ()
    #: A fault fires while the point has fewer than this many recorded failed
    #: attempts; the default (1) faults only the first attempt, so retries
    #: succeed and the campaign converges to 100% completed.
    fire_attempts: int = 1
    #: How long an injected hang sleeps; must comfortably exceed the fabric's
    #: per-point timeout for the watchdog kill path to be the one exercised.
    hang_duration: float = 30.0
    _actions: Dict[int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.fire_attempts < 1:
            raise FabricError("chaos fire_attempts must be at least 1")
        if self.hang_duration <= 0:
            raise FabricError("chaos hang_duration must be positive")
        actions: Dict[int, str] = {}
        for kind in FAULT_KINDS:
            indices = _normalized(getattr(self, f"{kind}_points"), kind)
            object.__setattr__(self, f"{kind}_points", indices)
            for index in indices:
                if index in actions:
                    raise FabricError(
                        f"chaos point {index} is assigned both "
                        f"{actions[index]!r} and {kind!r}"
                    )
                actions[index] = kind
        object.__setattr__(self, "_actions", actions)

    # ------------------------------------------------------------------
    def action_for(self, index: int, attempt: int = 0) -> Optional[str]:
        """The fault (if any) to inject into this point's next execution.

        ``attempt`` is the point's number of already-recorded failed
        attempts; once it reaches ``fire_attempts`` the fault stops firing
        and the point runs clean.
        """
        if attempt >= self.fire_attempts:
            return None
        return self._actions.get(index)

    # ------------------------------------------------------------------
    @classmethod
    def parse(
        cls,
        entries: Sequence[str],
        *,
        seed: int = 0,
        fire_attempts: int = 1,
        hang_duration: float = 30.0,
    ) -> "ChaosSpec":
        """Build a spec from CLI-style ``kind=index`` entries.

        Example: ``["crash=0", "hang=2"]`` faults point 0 with a
        crash-before-flush and point 2 with a hang.
        """
        groups: Dict[str, list] = {kind: [] for kind in FAULT_KINDS}
        for entry in entries:
            kind, separator, raw_index = entry.partition("=")
            if not separator or kind not in FAULT_KINDS:
                raise FabricError(
                    f"bad chaos entry {entry!r}; expected KIND=INDEX with "
                    f"KIND one of {FAULT_KINDS}"
                )
            try:
                index = int(raw_index)
            except ValueError:
                raise FabricError(
                    f"bad chaos entry {entry!r}: index {raw_index!r} is not an integer"
                ) from None
            groups[kind].append(index)
        return cls(
            seed=seed,
            fire_attempts=fire_attempts,
            hang_duration=hang_duration,
            **{f"{kind}_points": tuple(indices) for kind, indices in groups.items()},
        )
