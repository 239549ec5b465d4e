"""Golden model-validation output for the model-layer rewrite.

The scalar fluid integrator and the lazy scipy import must not change a
single predicted value.  This module runs one point per distinct (constraint
system, controller) of the three stock packet grids, keeps each point's
``validate_against_models(...).as_dict()``, and adds the cases no grid
reaches: non-default ``rtts`` and the raw (unrounded) fluid trajectories of
the paper system for every fluid family.

``tests/data/golden_validation.json`` was generated from the tree *before*
the model layer was touched (numpy integrator); ``tests/test_measure_validation.py``
re-computes it under both kernels and requires exact equality.  Two values
were re-recorded since, when the proportional-fair reference moved from SLSQP
(which stopped 2.6e-5 short of the optimum) to the certified interior-point
solve: ``proportional_fair.rel_error`` of ``paper_cc_rate/paper/1.0/1.0/cubic``
(0.031234 -> 0.031233) and of ``rtts`` (0.040864 -> 0.040863).

Regenerate (only when intentionally changing a model) with::

    PYTHONPATH=src python tests/golden_validation.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

from repro.experiments.campaign import CAMPAIGN_GRIDS
from repro.measure.validation import validate_against_models
from repro.model.bottleneck import build_constraints
from repro.model.fluid import FLUID_FAMILIES, FluidModel
from repro.topologies.paper import paper_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_validation.json"

PACKET_GRIDS = ("paper_cc_rate", "multiflow_fairness", "ecn_aqm_fairness")
GRID_DURATION = 0.5

#: What a point's constraint system and fluid family depend on; the other
#: axes (queue kind, ECN) only move the measurement.
_SYSTEM_AXES = ("scenario", "rate_scale", "delay_scale", "congestion_control")


def grid_validations(grid: str) -> Dict[str, dict]:
    """Validation of the first point per distinct (system, controller)."""
    validations: Dict[str, dict] = {}
    for point in CAMPAIGN_GRIDS[grid](duration=GRID_DURATION).expand():
        label = "/".join(str(point.params.get(axis)) for axis in _SYSTEM_AXES)
        if label not in validations:
            validations[label] = point.config.run().validate().as_dict()
    return validations


def compute_golden() -> Dict[str, dict]:
    topology, paths = paper_scenario()
    system = build_constraints(topology, paths)
    golden: Dict[str, dict] = {grid: grid_validations(grid) for grid in PACKET_GRIDS}
    golden["rtts"] = validate_against_models(
        system, [38.5, 9.25, 40.0], algorithm="lia", rtts=[0.01, 0.02, 0.04]
    ).as_dict()
    # In the committed file's order: each family where FLUID_FAMILIES first
    # names it (uncoupled, lia, olia).
    golden["fluid_rates_mbps"] = {
        family: FluidModel(system).run(family, duration=8.0).rates_mbps.tolist()
        for family in dict.fromkeys(FLUID_FAMILIES.values())
    }
    return golden


def dump(golden: Dict[str, dict]) -> str:
    """The file's text for ``golden``: what :func:`main` writes."""
    return json.dumps(golden, indent=1) + "\n"


def load_golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> None:
    golden = compute_golden()
    GOLDEN_PATH.write_text(dump(golden), encoding="utf-8")
    points = sum(len(golden[grid]) for grid in PACKET_GRIDS)
    print(f"wrote {GOLDEN_PATH} ({points} grid points)")


if __name__ == "__main__":
    main()
