"""Fault-tolerant fabric: atomic appends, leases, retry/quarantine, merge."""

import json
import multiprocessing
import threading

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError, FabricError, LeaseError
from repro.experiments.campaign import (
    CampaignSpec,
    ResultStore,
    run_campaign,
)
from repro.experiments.chaos import ChaosSpec
from repro.experiments.fabric import (
    FabricConfig,
    LeaseManager,
    backoff_delay,
    merge_stores,
    run_campaign_fabric,
)


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        kind="single",
        scenarios=("paper",),
        congestion_controls=("cubic",),
        rate_scales=(1.0,),
        duration=0.3,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class FakeClock:
    """Injectable monotonic clock for deterministic lease tests."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------- atomic append
def _append_burst(path, worker, count):
    # 3000-byte records straddle page boundaries, where a reader can see the
    # first pages of another appender's write before the rest: the window in
    # which an unlocked torn-tail check "healed" a live write in two.
    store = ResultStore(path)
    for i in range(count):
        store.append(
            {"key": f"{worker}-{i}", "status": "ok", "payload": "x" * 3000}
        )


class TestAtomicAppend:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        """Regression: pre-fabric appends buffered through a text handle, so
        two processes appending at once could interleave partial lines."""
        path = tmp_path / "store.jsonl"
        workers, per_worker = 4, 25
        procs = []
        try:
            for w in range(workers):
                proc = multiprocessing.get_context().Process(
                    target=_append_burst, args=(str(path), f"w{w}", per_worker)
                )
                proc.start()
                procs.append(proc)
        except (PermissionError, OSError):
            # Restricted sandbox: threads still race on the same descriptor
            # pattern (one os.write per record on O_APPEND).
            procs = [
                threading.Thread(
                    target=_append_burst, args=(str(path), f"w{w}", per_worker)
                )
                for w in range(workers)
            ]
            for thread in procs:
                thread.start()
        for proc in procs:
            proc.join()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == workers * per_worker
        records = [json.loads(line) for line in lines]  # every line parses
        assert len({r["key"] for r in records}) == workers * per_worker
        assert path.read_bytes().endswith(b"\n")

    def test_append_heals_a_torn_tail(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "abc", "status": "ok"})
        with path.open("ab") as handle:
            handle.write(b'{"key": "def", "status"')  # crash mid-append
        store.append({"key": "ghi", "status": "ok"})
        assert set(store.load()) == {"abc", "ghi"}
        # The fragment was isolated on its own line, not fused with the
        # healthy record that followed it.
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_ok_record_is_never_shadowed_by_a_later_failure(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append({"key": "abc", "status": "ok", "summary": {}})
        store.append({"key": "abc", "status": "error", "error": "late racer"})
        assert store.load()["abc"]["status"] == "ok"

    def test_load_skips_lease_records(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append({"record_type": "lease", "key": "abc", "worker": "w1",
                      "op": "claim", "deadline": 123.0})
        store.append({"key": "abc", "status": "ok"})
        assert store.load()["abc"]["status"] == "ok"
        assert store.load_leases()["abc"]["worker"] == "w1"

    def test_load_leases_keeps_the_last_record_per_key(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        for op, worker in (("claim", "w1"), ("claim", "w2")):
            store.append({"record_type": "lease", "key": "abc",
                          "worker": worker, "op": op, "deadline": 1.0})
        assert store.load_leases()["abc"]["worker"] == "w2"


class TestStoreFormatCompatibility:
    def test_fault_free_run_keeps_the_prefabric_record_format(self, tmp_path):
        """Acceptance: fault-free stores stay byte-identical to the old
        format -- no attempts counters, worker ids or record types leak in."""
        path = tmp_path / "store.jsonl"
        run_campaign(small_spec(), path, max_workers=1)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["status"] == "ok"
        for fabric_field in ("attempts", "worker", "record_type"):
            assert fabric_field not in record
        assert lines[0] == json.dumps(record, sort_keys=True)

    def test_fault_free_fabric_result_records_use_the_same_format(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_campaign_fabric(
            small_spec(),
            path,
            fabric=FabricConfig(worker_id="w1", lease_ttl=60.0),
            max_workers=1,
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        results = [
            json.loads(line)
            for line in lines
            if json.loads(line).get("record_type") != "lease"
        ]
        assert len(results) == 1
        assert results[0]["status"] == "ok"
        for fabric_field in ("attempts", "worker", "record_type"):
            assert fabric_field not in results[0]


    @pytest.mark.parametrize(
        "axes",
        [
            dict(congestion_controls=("cubic", "lia"), rate_scales=(0.5, 1.0, 2.0)),
            dict(
                kind="multiflow",
                scenarios=("ecn_mptcp_fairness",),
                congestion_controls=("sfc",),
                queue_kinds=("droptail", "red"),
                ecn_modes=(True,),
            ),
        ],
        ids=["single", "multiflow-signal-plane"],
    )
    def test_both_entry_points_write_the_same_result_lines(self, tmp_path, axes):
        """One driver behind two front doors: a fault-free grid yields
        byte-identical result lines, the fabric adding only lease lines."""
        spec = small_spec(**axes)
        plain, leased = tmp_path / "plain.jsonl", tmp_path / "leased.jsonl"
        run_campaign(spec, plain, max_workers=1)
        run_campaign_fabric(
            spec, leased, fabric=FabricConfig(worker_id="w1", lease_ttl=60.0),
            max_workers=1,
        )
        plain_lines = plain.read_bytes().splitlines()
        leased_lines = leased.read_bytes().splitlines()
        assert len(plain_lines) == spec.size
        assert b"record_type" not in plain.read_bytes()
        assert [
            line for line in leased_lines if b'"record_type": "lease"' not in line
        ] == plain_lines
        assert len(leased_lines) == 3 * spec.size  # claim, result, release per point


# ---------------------------------------------------------------------- leases
class TestLeaseManager:
    def manager(self, tmp_path, worker="w1", ttl=30.0, clock=None):
        store = ResultStore(tmp_path / "store.jsonl")
        return LeaseManager(store, worker, ttl, clock=clock or FakeClock())

    def test_claim_wins_unleased_keys(self, tmp_path):
        leases = self.manager(tmp_path)
        assert leases.claim(["a", "b"]) == ["a", "b"]
        assert leases.held == {"a", "b"}
        assert set(leases.live_leases()) == {"a", "b"}

    def test_live_foreign_lease_blocks_claim(self, tmp_path):
        clock = FakeClock()
        first = self.manager(tmp_path, worker="w1", clock=clock)
        second = LeaseManager(first.store, "w2", 30.0, clock=clock)
        first.claim(["a"])
        assert second.claim(["a"]) == []
        assert second.held == set()

    def test_stale_lease_is_reclaimable(self, tmp_path):
        clock = FakeClock()
        first = self.manager(tmp_path, worker="w1", ttl=10.0, clock=clock)
        second = LeaseManager(first.store, "w2", 10.0, clock=clock)
        first.claim(["a"])
        clock.advance(11.0)  # w1 missed its renewals; the lease expired
        assert second.claim(["a"]) == ["a"]
        assert second.live_leases()["a"]["worker"] == "w2"

    def test_release_frees_the_key_immediately(self, tmp_path):
        clock = FakeClock()
        first = self.manager(tmp_path, worker="w1", clock=clock)
        second = LeaseManager(first.store, "w2", 30.0, clock=clock)
        first.claim(["a"])
        first.release(["a"])
        assert first.held == set()
        assert second.claim(["a"]) == ["a"]

    def test_renew_extends_the_deadline(self, tmp_path):
        clock = FakeClock()
        leases = self.manager(tmp_path, ttl=10.0, clock=clock)
        leases.claim(["a"])
        clock.advance(8.0)
        assert leases.renew(["a"]) == ["a"]
        clock.advance(8.0)  # 16s since claim, 8s since renewal: still live
        assert set(leases.live_leases()) == {"a"}

    def test_renewing_a_lost_lease_raises_when_strict(self, tmp_path):
        clock = FakeClock()
        first = self.manager(tmp_path, worker="w1", ttl=10.0, clock=clock)
        second = LeaseManager(first.store, "w2", 10.0, clock=clock)
        first.claim(["a"])
        clock.advance(11.0)
        second.claim(["a"])  # reclaims the stale lease
        with pytest.raises(LeaseError, match="lost the lease"):
            first.renew(["a"])
        assert first.renew(["a"], strict=False) == []
        assert "a" not in first.held

    def test_invalid_construction_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        with pytest.raises(LeaseError):
            LeaseManager(store, "w1", 0.0)
        with pytest.raises(LeaseError):
            LeaseManager(store, "", 30.0)


# --------------------------------------------------------------------- backoff
class TestBackoffDelay:
    def test_no_delay_without_base_or_attempts(self):
        assert backoff_delay(0, base=0.5, cap=30.0, jitter=0.5) == 0.0
        assert backoff_delay(3, base=0.0, cap=30.0, jitter=0.5) == 0.0

    def test_doubles_per_attempt_up_to_the_cap(self):
        delays = [
            backoff_delay(n, base=0.5, cap=4.0, jitter=0.0) for n in (1, 2, 3, 4, 5)
        ]
        assert delays == [0.5, 1.0, 2.0, 4.0, 4.0]

    def test_jitter_is_bounded_and_deterministic(self):
        kwargs = dict(base=1.0, cap=30.0, jitter=0.5, seed=7, key="abc")
        first = backoff_delay(2, **kwargs)
        assert first == backoff_delay(2, **kwargs)
        assert 2.0 <= first <= 3.0  # un-jittered 2.0 stretched by at most 50%
        assert first != backoff_delay(2, base=1.0, cap=30.0, jitter=0.5,
                                      seed=7, key="other")


# -------------------------------------------------------------- retry/quarantine
def _always_fails(point):
    return {
        "key": point.key,
        "params": point.params,
        "status": "error",
        "error": "boom",
    }


class TestRetryAndQuarantine:
    def patch_executor(self, monkeypatch):
        # The one driver lives in repro.experiments.fabric and looks the
        # point executor up there, for plain runs too.
        from repro.experiments import fabric as fabric_module

        monkeypatch.setattr(fabric_module, "_execute_point", _always_fails)

    def test_failures_quarantine_after_max_attempts(self, tmp_path, monkeypatch):
        """Regression: error records used to re-run on every invocation,
        forever; they now carry an attempts counter and quarantine."""
        self.patch_executor(monkeypatch)
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        for expected_attempts, expected_status in (
            (1, "error"),
            (2, "error"),
            (3, "quarantined"),
        ):
            result = run_campaign(spec, store, max_workers=1, max_attempts=3)
            assert result.executed == 1
            record = result.records[0]
            assert record["status"] == expected_status
            assert record["attempts"] == expected_attempts
        # Terminal: the fourth invocation runs nothing at all.
        final = run_campaign(spec, store, max_workers=1, max_attempts=3)
        assert (final.executed, final.skipped) == (0, 1)
        assert final.summary()["quarantined"] == 1
        assert final.quarantined_records and not final.error_records

    def test_quarantine_on_first_failure_when_max_attempts_is_one(
        self, tmp_path, monkeypatch
    ):
        self.patch_executor(monkeypatch)
        result = run_campaign(
            small_spec(), tmp_path / "s.jsonl", max_workers=1, max_attempts=1
        )
        assert result.records[0]["status"] == "quarantined"

    def test_attempts_exhausted_at_load_time_quarantines_in_the_store(
        self, tmp_path
    ):
        spec = small_spec()
        point = spec.expand()[0]
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(
            {"key": point.key, "params": point.params, "status": "error",
             "error": "boom", "attempts": 5}
        )
        result = run_campaign(spec, store.path, max_workers=1, max_attempts=3)
        assert result.executed == 0
        assert result.records[0]["status"] == "quarantined"
        assert store.load()[point.key]["status"] == "quarantined"

    def test_prefabric_error_records_count_as_one_attempt(self, tmp_path):
        spec = small_spec()
        point = spec.expand()[0]
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(  # no attempts field: written before the fabric existed
            {"key": point.key, "params": point.params, "status": "error",
             "error": "boom"}
        )
        result = run_campaign(spec, store.path, max_workers=1)
        assert result.executed == 1
        assert result.records[0]["status"] == "ok"

    def test_invalid_max_attempts_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec(), tmp_path / "s.jsonl", max_attempts=0)


# ---------------------------------------------------------------------- fabric
class TestRunCampaignFabric:
    def test_fault_free_run_completes_and_resumes(self, tmp_path):
        spec = small_spec(congestion_controls=("cubic", "lia"))
        store = tmp_path / "store.jsonl"
        fabric = FabricConfig(worker_id="w1", lease_ttl=60.0)
        first = run_campaign_fabric(spec, store, fabric=fabric, max_workers=1)
        assert (first.executed, first.skipped, first.deferred) == (2, 0, 0)
        assert [r["status"] for r in first.records] == ["ok", "ok"]
        second = run_campaign_fabric(spec, store, fabric=fabric, max_workers=1)
        assert (second.executed, second.skipped) == (0, 2)

    def test_all_leases_released_after_a_clean_run(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        run_campaign_fabric(
            small_spec(),
            store,
            fabric=FabricConfig(worker_id="w1", lease_ttl=60.0),
            max_workers=1,
        )
        leases = LeaseManager(store, "probe", 60.0)
        assert leases.live_leases() == {}

    def test_single_pass_surfaces_the_failure_and_defers_the_retry(self, tmp_path):
        spec = small_spec(congestion_controls=("cubic", "lia"))
        store = tmp_path / "store.jsonl"
        chaos = ChaosSpec(error_points=(0,))
        fabric = FabricConfig(
            worker_id="w1", lease_ttl=60.0, max_rounds=1, backoff_base=0.0
        )
        first = run_campaign_fabric(
            spec, store, fabric=fabric, chaos=chaos, max_workers=1
        )
        assert first.deferred == 1
        assert len(first.error_records) == 1
        assert first.error_records[0]["attempts"] == 1
        assert first.summary()["deferred"] == 1
        # The next invocation picks the failed point back up (the fault fired
        # its one allotted attempt) and converges.
        second = run_campaign_fabric(
            spec, store, fabric=fabric, chaos=chaos, max_workers=1
        )
        assert second.deferred == 0
        assert [r["status"] for r in second.records] == ["ok", "ok"]

    def test_foreign_live_lease_defers_the_point(self, tmp_path):
        spec = small_spec(congestion_controls=("cubic", "lia"))
        store = ResultStore(tmp_path / "store.jsonl")
        points = spec.expand()
        foreign = LeaseManager(store, "other-worker", 300.0)
        assert foreign.claim([points[0].key]) == [points[0].key]
        result = run_campaign_fabric(
            spec,
            store,
            fabric=FabricConfig(worker_id="w1", lease_ttl=60.0, max_rounds=1),
            max_workers=1,
        )
        assert result.executed == 1
        assert result.deferred == 1
        done_keys = {r["key"] for r in result.records}
        assert points[0].key not in done_keys
        assert points[1].key in done_keys

    def test_workers_outlive_chunks_and_a_crash_costs_one_respawn(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import harness

        started = []
        start_worker = harness._start_worker
        monkeypatch.setattr(
            harness, "_start_worker",
            lambda runner: started.append(runner) or start_worker(runner),
        )
        spec = small_spec(congestion_controls=("cubic", "lia", "olia"))
        fabric = FabricConfig(worker_id="w1", lease_ttl=60.0, backoff_base=0.0)
        clean = run_campaign_fabric(
            spec, tmp_path / "clean.jsonl", fabric=fabric, chunk_size=1, max_workers=1
        )
        assert clean.executed == 3 and len(started) == 1  # three chunks, one worker
        del started[:]
        crashed = run_campaign_fabric(
            spec, tmp_path / "crashed.jsonl", fabric=fabric,
            chaos=ChaosSpec(crash_points=(1,)), chunk_size=1, max_workers=1,
        )
        assert crashed.executed == 4 and not crashed.error_records
        assert len(started) == 2  # the dead worker's replacement, nothing more

    def test_invalid_chunk_size_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign_fabric(small_spec(), tmp_path / "s.jsonl", chunk_size=0)

    def test_fabric_config_validation(self):
        with pytest.raises(LeaseError):
            FabricConfig(lease_ttl=0.0)
        with pytest.raises(FabricError):
            FabricConfig(max_attempts=0)
        with pytest.raises(FabricError):
            FabricConfig(point_timeout=-1.0)
        with pytest.raises(FabricError):
            FabricConfig(backoff_base=2.0, backoff_cap=1.0)
        with pytest.raises(FabricError):
            FabricConfig(max_rounds=0)


# ----------------------------------------------------------------------- merge
class TestMergeStores:
    def fill(self, path, records):
        store = ResultStore(path)
        for record in records:
            store.append(record)
        return path

    def test_completed_beats_quarantined_beats_retryable(self, tmp_path):
        one = self.fill(tmp_path / "one.jsonl", [
            {"key": "a", "status": "error", "error": "boom"},
            {"key": "b", "status": "quarantined", "attempts": 3},
            {"key": "c", "status": "timeout", "error": "slow"},
        ])
        two = self.fill(tmp_path / "two.jsonl", [
            {"key": "a", "status": "ok", "summary": {}},
            {"key": "b", "status": "error", "error": "boom"},
        ])
        dest = tmp_path / "merged.jsonl"
        report = merge_stores([one, two], dest)
        merged = ResultStore(dest).load()
        assert merged["a"]["status"] == "ok"
        assert merged["b"]["status"] == "quarantined"
        assert merged["c"]["status"] == "timeout"
        assert (report.keys, report.completed, report.quarantined,
                report.retryable) == (3, 1, 1, 1)

    def test_no_duplicate_keys_and_leases_dropped(self, tmp_path):
        one = self.fill(tmp_path / "one.jsonl", [
            {"record_type": "lease", "key": "a", "worker": "w1",
             "op": "claim", "deadline": 9.0},
            {"key": "a", "status": "ok", "summary": {"n": 1}},
        ])
        two = self.fill(tmp_path / "two.jsonl", [
            {"key": "a", "status": "ok", "summary": {"n": 2}},
        ])
        dest = tmp_path / "merged.jsonl"
        report = merge_stores([one, two], dest)
        lines = [json.loads(line) for line in dest.read_text().splitlines()]
        assert len(lines) == 1  # exactly one record per key survives
        assert lines[0]["summary"] == {"n": 2}  # equal rank: last writer wins
        assert report.dropped_leases == 1

    def test_merge_is_idempotent_and_compacts_in_place(self, tmp_path):
        source = self.fill(tmp_path / "one.jsonl", [
            {"key": "a", "status": "error", "error": "boom"},
            {"key": "a", "status": "ok", "summary": {}},
            {"record_type": "lease", "key": "a", "worker": "w1",
             "op": "release", "deadline": 0.0},
        ])
        merge_stores([source], source)  # dest may be one of the sources
        first_pass = source.read_bytes()
        merge_stores([source], source)
        assert source.read_bytes() == first_pass
        assert len(first_pass.decode().splitlines()) == 1

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(FabricError, match="missing store"):
            merge_stores([tmp_path / "nope.jsonl"], tmp_path / "out.jsonl")
        with pytest.raises(FabricError, match="at least one source"):
            merge_stores([], tmp_path / "out.jsonl")


# ------------------------------------------------------------------------- CLI
class TestFabricCli:
    def test_campaign_merge_subcommand(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "shard1.jsonl")
        store.append({"key": "a", "status": "ok", "summary": {}})
        dest = tmp_path / "merged.jsonl"
        code = cli_main(
            ["campaign", "merge", str(store.path), "--into", str(dest)]
        )
        assert code == 0
        assert "1 keys (1 completed" in capsys.readouterr().out
        assert dest.exists()

    def test_campaign_merge_json_output(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "shard1.jsonl")
        store.append({"key": "a", "status": "ok", "summary": {}})
        code = cli_main(
            ["campaign", "merge", str(store.path), "--into",
             str(tmp_path / "m.jsonl"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["keys"] == 1 and payload["completed"] == 1

    def test_campaign_merge_without_sources_errors(self, tmp_path, capsys):
        assert cli_main(
            ["campaign", "merge", "--into", str(tmp_path / "m.jsonl")]
        ) == 2
        assert "at least one source" in capsys.readouterr().err

    def test_campaign_merge_missing_store_errors(self, tmp_path, capsys):
        assert cli_main(
            ["campaign", "merge", str(tmp_path / "nope.jsonl"),
             "--into", str(tmp_path / "m.jsonl")]
        ) == 2
        assert "missing store" in capsys.readouterr().err

    def test_worker_id_flag_routes_through_the_fabric(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import campaign as campaign_module

        monkeypatch.setitem(
            campaign_module.CAMPAIGN_GRIDS, "paper_cc_rate",
            lambda **kw: small_spec(**kw),
        )
        store = tmp_path / "store.jsonl"
        code = cli_main(
            ["campaign", "paper_cc_rate", "--store", str(store),
             "--worker-id", "w1", "--no-plot"]
        )
        assert code == 0
        leases = ResultStore(store).load_leases()
        assert leases and all(
            lease["worker"] == "w1" for lease in leases.values()
        )

    def test_bad_chaos_entry_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import campaign as campaign_module

        monkeypatch.setitem(
            campaign_module.CAMPAIGN_GRIDS, "paper_cc_rate",
            lambda **kw: small_spec(**kw),
        )
        code = cli_main(
            ["campaign", "paper_cc_rate", "--store",
             str(tmp_path / "s.jsonl"), "--chaos", "explode=0", "--no-plot"]
        )
        assert code == 2
        assert "bad chaos entry" in capsys.readouterr().err
