"""Chaos specs and resume-under-chaos: every fault kind must converge."""

import json

import pytest

from repro.errors import FabricError
from repro.experiments.campaign import CampaignSpec, ResultStore
from repro.experiments.chaos import FAULT_KINDS, ChaosSpec
from repro.experiments.fabric import (
    FabricConfig,
    merge_stores,
    run_campaign_fabric,
)


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        kind="single",
        scenarios=("paper",),
        congestion_controls=("cubic", "lia"),
        rate_scales=(1.0,),
        duration=0.3,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestChaosSpec:
    def test_action_fires_only_below_fire_attempts(self):
        spec = ChaosSpec(crash_points=(1,), fire_attempts=2)
        assert spec.action_for(1, attempt=0) == "crash"
        assert spec.action_for(1, attempt=1) == "crash"
        assert spec.action_for(1, attempt=2) is None
        assert spec.action_for(0, attempt=0) is None

    def test_one_point_cannot_carry_two_faults(self):
        with pytest.raises(FabricError, match="assigned both"):
            ChaosSpec(crash_points=(0,), hang_points=(0,))

    def test_negative_index_rejected(self):
        with pytest.raises(FabricError, match="non-negative"):
            ChaosSpec(crash_points=(-1,))

    def test_invalid_fire_attempts_and_hang_duration_rejected(self):
        with pytest.raises(FabricError):
            ChaosSpec(fire_attempts=0)
        with pytest.raises(FabricError):
            ChaosSpec(hang_duration=0.0)

    def test_parse_cli_entries(self):
        spec = ChaosSpec.parse(["crash=0", "hang=2"], hang_duration=5.0)
        assert spec.action_for(0) == "crash"
        assert spec.action_for(2) == "hang"
        assert spec.hang_duration == 5.0

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(FabricError, match="bad chaos entry"):
            ChaosSpec.parse(["explode=0"])
        with pytest.raises(FabricError, match="not an integer"):
            ChaosSpec.parse(["crash=zero"])


class TestResumeUnderChaos:
    """Satellite: every fault kind must recover across worker invocations."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_reinvoked_campaign_converges_after_any_single_fault(
        self, tmp_path, kind
    ):
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        chaos = ChaosSpec(
            hang_duration=10.0, **{f"{kind}_points": (0,)}
        )
        crashed_worker = FabricConfig(
            worker_id="w1", lease_ttl=60.0, point_timeout=1.5,
            backoff_base=0.0, max_rounds=1,
        )
        first = run_campaign_fabric(
            spec, store, fabric=crashed_worker, chaos=chaos, max_workers=1
        )
        # The fault hit point 0: it is not completed yet, but the healthy
        # point finished and the store survived (torn tails, missing records).
        assert len(first.ok_records) == 1

        recovery_worker = FabricConfig(
            worker_id="w2", lease_ttl=60.0, point_timeout=15.0,
            backoff_base=0.0,
        )
        second = run_campaign_fabric(
            spec, store, fabric=recovery_worker, chaos=chaos, max_workers=1
        )
        # 100% terminal: every point completed, nothing deferred or pending.
        assert second.deferred == 0
        assert [r["status"] for r in second.records] == ["ok", "ok"]

        # Merging the (single) shard compacts to one record per key.
        merged = tmp_path / "merged.jsonl"
        report = merge_stores([store], merged)
        keys = [
            json.loads(line)["key"]
            for line in merged.read_text().splitlines()
        ]
        assert len(keys) == len(set(keys)) == 2
        assert report.completed == 2 and report.quarantined == 0

    def test_persistent_fault_converges_to_quarantine(self, tmp_path):
        """A fault outliving max_attempts must quarantine, not loop forever."""
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        chaos = ChaosSpec(error_points=(0,), fire_attempts=99)
        result = run_campaign_fabric(
            spec,
            store,
            fabric=FabricConfig(
                worker_id="w1", lease_ttl=60.0, max_attempts=3,
                backoff_base=0.0,
            ),
            chaos=chaos,
            max_workers=1,
        )
        statuses = sorted(r["status"] for r in result.records)
        assert statuses == ["ok", "quarantined"]
        assert result.deferred == 0
        assert result.quarantined_records[0]["attempts"] == 3
        assert result.summary()["quarantined"] == 1
        # Re-invocation leaves the quarantined point alone.
        again = run_campaign_fabric(
            spec, store,
            fabric=FabricConfig(worker_id="w1", lease_ttl=60.0,
                                max_attempts=3, backoff_base=0.0),
            chaos=chaos, max_workers=1,
        )
        assert again.executed == 0
        assert again.skipped == 2

    def test_torn_fault_leaves_a_loadable_store(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "store.jsonl")
        chaos = ChaosSpec(torn_points=(0,))
        run_campaign_fabric(
            spec, store,
            fabric=FabricConfig(worker_id="w1", lease_ttl=60.0,
                                point_timeout=5.0, backoff_base=0.0,
                                max_rounds=1),
            chaos=chaos, max_workers=1,
        )
        # The injected torn tail is either isolated or healed; every record
        # that made it to disk still loads.
        loaded = store.load()
        assert all(isinstance(record, dict) for record in loaded.values())
        run_campaign_fabric(
            spec, store,
            fabric=FabricConfig(worker_id="w2", lease_ttl=60.0,
                                point_timeout=15.0, backoff_base=0.0),
            chaos=chaos, max_workers=1,
        )
        statuses = {record["status"] for record in store.load().values()}
        assert statuses == {"ok"}
