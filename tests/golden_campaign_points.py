"""Golden campaign expansion for the axis-table refactor.

``CampaignSpec.expand`` decides three things a store depends on: which points
a grid has and in which order, each point's content key, and the config the
key stands for.  The five pinned keys in ``tests/test_campaign.py`` only hold
neutral-valued axes still; this module expands the four stock grids on both
backends plus one all-axes spec per kind and keeps, per point in expansion
order, ``key`` and ``label()`` in clear and a digest of ``params`` plus what
the config would run (type, name, backend, controllers, queue discipline,
ECN, dynamics, path manager, workload spec, the scaled links).

``tests/data/golden_campaign_points.json`` was recorded from the tree
*before* the per-axis plumbing of ``campaign.py`` was replaced by the
``_AXES`` table; ``tests/test_campaign.py`` re-expands and requires equality.

Regenerate (only when intentionally changing a grid, an axis or a key) with::

    PYTHONPATH=src python tests/golden_campaign_points.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Dict, List

from repro.experiments.campaign import CAMPAIGN_GRIDS, CampaignPoint, CampaignSpec

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_campaign_points.json"


def specs() -> Dict[str, CampaignSpec]:
    """The stock grids on both backends, then every axis each kind admits."""
    named = {
        f"{grid}/{backend}": factory(duration=0.5, backend=backend)
        for grid, factory in CAMPAIGN_GRIDS.items()
        for backend in ("packet", "flowlevel")
    }
    named["all_axes/single"] = CampaignSpec(
        name="all_single",
        kind="single",
        scenarios=("paper", "wifi_cellular", "shared_bottleneck"),
        congestion_controls=("cubic", "olia"),
        rate_scales=(0.5, 2),
        delay_scales=(1.0, 3),
        loss_rates=(0.0, 0.01),
        dynamics=("none", "bottleneck_step"),
        path_managers=("default", "failover"),
        queue_kinds=(None, "red"),
        ecn_modes=(None, True, False),
        duration=0.5,
    )
    named["all_axes/multiflow"] = CampaignSpec(
        name="all_multiflow",
        kind="multiflow",
        scenarios=(
            "two_mptcp_competition",
            "ecn_mptcp_fairness",
            "cross_traffic_perturbation",
        ),
        congestion_controls=("lia", "sfc"),
        rate_scales=(0.6, 1.0),
        delay_scales=(1.0, 2.0),
        loss_rates=(0.0, 0.02),
        dynamics=("bottleneck_step", "none"),
        queue_kinds=(None, "codel"),
        ecn_modes=(None, False),
        duration=0.5,
        sampling_interval=0.05,
        backend="flowlevel",
    )
    named["all_axes/workload"] = CampaignSpec(
        name="all_workload",
        kind="workload",
        scenarios=("conferencing_load", "web_page_load"),
        congestion_controls=("cubic", "reno"),
        rate_scales=(1.0, 0.5),
        delay_scales=(1.0, 2.0),
        load_scales=(0.5, 1, 2.0),
        size_scales=(1.0, 0.25),
        duration=1.0,
    )
    return named


def _observable(point: CampaignPoint) -> dict:
    """What the point's config would run, as far as the axes decide it."""
    config = point.config
    topology, _paths = config.build_scenario()
    dynamics = getattr(config, "dynamics", None)
    manager = getattr(config, "path_manager", None)
    return {
        "type": type(config).__name__,
        "name": config.name,
        "backend": config.backend,
        "duration": config.duration,
        "sampling_interval": getattr(config, "sampling_interval", None),
        "congestion_control": getattr(config, "congestion_control", None),
        "flow_controllers": [
            flow.congestion_control for flow in getattr(config, "flows", ())
        ],
        "queue_kind": getattr(config, "queue_kind", None),
        "ecn": getattr(config, "ecn", None),
        "dynamics": None if dynamics is None else dynamics.description,
        "events": None if dynamics is None else repr(list(dynamics.schedule)),
        "path_manager": None if manager is None else type(manager).__name__,
        "default_path_index": getattr(config, "default_path_index", None),
        "workload": repr(getattr(config, "spec", None)),
        "links": [list(dataclasses.astuple(link)) for link in topology.links],
    }


def _digest(point: CampaignPoint) -> str:
    canonical = json.dumps(
        [point.params, _observable(point)], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def compute_golden() -> Dict[str, List[List[str]]]:
    """Per spec, ``[key, label, digest]`` of every point in expansion order."""
    golden: Dict[str, List[List[str]]] = {}
    for name, spec in specs().items():
        points = spec.expand()
        assert len(points) == spec.size, name
        golden[name] = [[p.key, p.label(), _digest(p)] for p in points]
    return golden


def load_golden() -> Dict[str, List[List[str]]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> None:
    golden = compute_golden()
    lines = ",\n".join(
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(row)}" for row in rows)
        + "\n ]"
        for name, rows in golden.items()
    )
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    points = sum(len(rows) for rows in golden.values())
    print(f"wrote {GOLDEN_PATH} ({points} points over {len(golden)} specs)")


if __name__ == "__main__":
    main()
