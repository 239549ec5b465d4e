"""The campaign driver and its fault-tolerant fabric: leases, watchdog, retries, merge.

:func:`drive_campaign` is the one loop every campaign runs through.  On its
own it assumes one well-behaved process: a crashed worker ends the
invocation, a hung point stalls the sweep, and two concurrent invocations
race each other on the same store.  A :class:`FabricConfig` upgrades the
same loop over the same content-hashed JSONL store to a cooperative
*fabric* that many workers can share:

* **Leases** (:class:`LeaseManager`): before executing a point, a worker
  appends a claim record (worker id + monotonic deadline) to the store.
  Live leases keep other workers off the point; a worker that dies stops
  renewing, its leases go stale, and the points become re-claimable.  Claim
  races resolve by append order -- ``O_APPEND`` gives every reader the same
  total order, so racing workers independently agree on the winner.
* **Watchdog timeouts**: each point runs in a supervised
  :class:`~repro.experiments.harness.WorkerPool` process with an optional
  per-point wall-clock budget; hung points are killed and recorded as
  ``status: "timeout"``, crashed workers as a retryable ``error``.
* **Bounded retry**: failures back off exponentially with deterministic
  jitter (:func:`backoff_delay`) and re-run until ``max_attempts``, after
  which the point is quarantined -- terminal, surfaced in the summary, and
  never run again.
* **Merge/compaction** (:func:`merge_stores`): shard stores from many
  workers combine into one compacted store with one record per key --
  completed results beat quarantines beat retryable failures, ties resolve
  last-writer-wins, lease records are dropped.

Every recovery path is exercised deterministically through
:mod:`repro.experiments.chaos` rather than trusted.
"""

from __future__ import annotations

import os
import pathlib
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError, FabricError, LeaseError
from .campaign import (
    LEASE_RECORD_TYPE,
    RETRYABLE_STATUSES,
    TERMINAL_STATUSES,
    CampaignPoint,
    CampaignResult,
    CampaignSpec,
    ResultStore,
    _chunks,
    _classify_existing,
    _execute_point,
    _finalize_record,
)
from .chaos import ChaosSpec
from .harness import WorkerPool

#: Exit code of a chaos-injected crash-before-flush (diagnosable in CI logs).
CHAOS_CRASH_EXIT = 23
#: Exit code of a chaos-injected torn-tail write followed by a crash.
CHAOS_TORN_EXIT = 24


# ------------------------------------------------------------------ config
@dataclass(frozen=True)
class FabricConfig:
    """Operational envelope of one fabric worker invocation."""

    #: Stable identity of this worker in lease records; empty means one is
    #: derived from the process id at run time.
    worker_id: str = ""
    #: Seconds a claim stays live without renewal; the watchdog heartbeat
    #: renews at ``lease_ttl / 3``, so a worker must miss two renewals
    #: before its points become re-claimable.
    lease_ttl: float = 30.0
    #: Total failed attempts (across invocations) before a point quarantines.
    max_attempts: int = 3
    #: Per-point wall-clock budget; ``None`` disables the kill path.
    point_timeout: Optional[float] = None
    #: First-retry backoff in seconds; doubles per failed attempt.
    backoff_base: float = 0.5
    #: Ceiling of the exponential backoff (before jitter).
    backoff_cap: float = 30.0
    #: Jitter fraction: the delay stretches by up to this fraction, drawn
    #: deterministically from ``(seed, point key, attempt)``.
    backoff_jitter: float = 0.5
    #: Seed of the deterministic backoff jitter.
    seed: int = 0
    #: Stop after this many claim/execute rounds even if retryable points
    #: remain (``None`` = run until every point is terminal).  One-round
    #: invocations suit cron-style drivers: each tick claims, executes, and
    #: leaves the rest for the next tick or another worker.
    max_rounds: Optional[int] = None
    #: Watchdog poll (and idle wait) granularity in seconds.
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise LeaseError("lease_ttl must be positive")
        if self.max_attempts < 1:
            raise FabricError("max_attempts must be at least 1")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise FabricError("point_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_jitter < 0:
            raise FabricError("backoff parameters must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise FabricError("backoff_cap must be at least backoff_base")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise FabricError("max_rounds must be at least 1")

    def resolved_worker_id(self) -> str:
        return self.worker_id or f"worker-{os.getpid()}"


def backoff_delay(
    attempts: int,
    *,
    base: float,
    cap: float,
    jitter: float,
    seed: int = 0,
    key: str = "",
) -> float:
    """Exponential backoff with deterministic jitter.

    The un-jittered delay is ``base * 2**(attempts - 1)`` capped at ``cap``;
    jitter stretches it by up to ``jitter`` fraction, drawn from a RNG
    seeded with ``(seed, key, attempts)`` -- deterministic for tests, yet
    de-synchronised across points and attempts so retries do not stampede.
    """
    if base <= 0.0 or attempts < 1:
        return 0.0
    delay = min(cap, base * (2.0 ** (attempts - 1)))
    if jitter > 0.0:
        rng = random.Random(f"{seed}:{key}:{attempts}")
        delay *= 1.0 + jitter * rng.random()
    return delay


# ------------------------------------------------------------------ leases
class LeaseManager:
    """Cooperative lease records over one append-only JSONL store.

    A lease is the last ``record_type: "lease"`` line for a key: it names
    the owning ``worker`` and a clock ``deadline`` after which it is stale.
    All mutations are plain appends (``claim`` / ``renew`` / ``release``),
    so the protocol inherits the store's crash-safety: no in-place state, a
    dead worker simply stops renewing.  Deadlines come from an injectable
    monotonic clock shared by every worker on the host.
    """

    def __init__(
        self,
        store: ResultStore,
        worker_id: str,
        ttl: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl <= 0:
            raise LeaseError("lease ttl must be positive")
        if not worker_id:
            raise LeaseError("a lease needs a non-empty worker id")
        self.store = store
        self.worker_id = worker_id
        self.ttl = float(ttl)
        self.clock = clock
        self.held: set = set()

    # ------------------------------------------------------------------
    @staticmethod
    def is_live(lease: Optional[dict], now: float) -> bool:
        if lease is None or lease.get("op") == "release":
            return False
        return float(lease.get("deadline", 0.0)) > now

    def _claimable(self, lease: Optional[dict], now: float) -> bool:
        if lease is None or lease.get("worker") == self.worker_id:
            return True
        return not self.is_live(lease, now)  # stale leases are re-claimable

    def _append(self, key: str, op: str, deadline: float) -> None:
        self.store.append(
            {
                "record_type": LEASE_RECORD_TYPE,
                "key": key,
                "worker": self.worker_id,
                "op": op,
                "deadline": round(float(deadline), 6),
            }
        )

    # ------------------------------------------------------------------
    def live_leases(self) -> Dict[str, dict]:
        """Current live leases per key (stale and released ones excluded)."""
        now = self.clock()
        return {
            key: lease
            for key, lease in self.store.load_leases().items()
            if self.is_live(lease, now)
        }

    def claim(self, keys: Sequence[str]) -> List[str]:
        """Claim every key not live-leased by another worker.

        Appends claim records, then re-reads the store and keeps only the
        keys whose *winning* (last-appended) lease is ours: two workers
        racing on the same key both observe the same append order and agree
        on a single winner, so at most one proceeds.
        """
        now = self.clock()
        leases = self.store.load_leases()
        candidates = [key for key in keys if self._claimable(leases.get(key), now)]
        if not candidates:
            return []
        deadline = now + self.ttl
        for key in candidates:
            self._append(key, "claim", deadline)
        final = self.store.load_leases()
        won = [
            key
            for key in candidates
            if final.get(key, {}).get("worker") == self.worker_id
            and self.is_live(final[key], now)
        ]
        self.held.update(won)
        return won

    def renew(self, keys: Sequence[str], *, strict: bool = True) -> List[str]:
        """Heartbeat: extend the deadline of leases this worker still owns.

        Returns the renewed keys.  A key whose current lease belongs to
        another worker (ours expired and was reclaimed) raises
        :class:`LeaseError` when ``strict``; otherwise it is silently
        dropped from ``held`` -- the reclaiming worker owns it now.
        """
        now = self.clock()
        leases = self.store.load_leases()
        renewed = []
        for key in keys:
            current = leases.get(key)
            if current is None or current.get("worker") != self.worker_id:
                self.held.discard(key)
                if strict:
                    owner = current.get("worker") if current else "nobody"
                    raise LeaseError(
                        f"worker {self.worker_id!r} lost the lease on {key} "
                        f"to {owner!r}"
                    )
                continue
            self._append(key, "renew", now + self.ttl)
            renewed.append(key)
        return renewed

    def release(self, keys: Sequence[str]) -> None:
        for key in keys:
            self._append(key, "release", 0.0)
            self.held.discard(key)


class _Heartbeat:
    """Watchdog tick hook: renews the in-flight chunk's leases periodically."""

    def __init__(self, leases: LeaseManager, keys: Sequence[str]) -> None:
        self.leases = leases
        self.keys = set(keys)
        self.interval = leases.ttl / 3.0
        self.last = leases.clock()

    def __call__(self) -> None:
        now = self.leases.clock()
        if now - self.last < self.interval or not self.keys:
            return
        self.last = now
        renewed = self.leases.renew(sorted(self.keys), strict=False)
        self.keys &= set(renewed)


# ------------------------------------------------------------------ execution
@dataclass
class _FabricTask:
    """One point plus its chaos action, picklable for the worker pool."""

    point: CampaignPoint
    chaos_action: Optional[str] = None
    hang_duration: float = 30.0
    store_path: str = ""
    timeout: Optional[float] = None


def _write_torn_tail(store_path: str, key: str) -> None:
    """Append half a JSONL record with no newline -- a mid-append crash."""
    fragment = '{"key": "%s", "status": "ok", "summary"' % key
    fd = os.open(store_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, fragment.encode("utf-8"))
    finally:
        os.close(fd)


def _error_record(point: CampaignPoint, status: str, message: str) -> dict:
    return {
        "key": point.key,
        "params": dict(point.params),
        "status": status,
        "error": message,
    }


def _execute_task(task: _FabricTask, *, isolated: bool) -> dict:
    """Inject the task's chaos action, then run the point.

    ``isolated`` says whether this is a worker process the watchdog can kill
    and replace.  There the fatal actions really happen; in the driver's own
    process they are simulated as the records the watchdog would have
    written, so a chaos plan converges the same way without subprocesses.
    """
    action = task.chaos_action
    if action in ("crash", "torn"):
        if action == "torn":
            _write_torn_tail(task.store_path, task.point.key)
        if isolated:
            # crash-before-flush: no record, no release
            os._exit(CHAOS_CRASH_EXIT if action == "crash" else CHAOS_TORN_EXIT)
        return _crash_record(task, f"chaos {action} (simulated in-process)")
    if action == "hang":
        if not isolated and task.timeout is not None:
            return _timeout_record(task)
        time.sleep(task.hang_duration)  # isolated: the watchdog kills us first
    if action == "error":
        return _error_record(
            task.point, "error", "ChaosInjectedError: injected point failure"
        )
    return _execute_point(task.point)


def _timeout_record(task: _FabricTask) -> dict:
    return _error_record(
        task.point,
        "timeout",
        f"PointTimeout: exceeded the {task.timeout:g}s wall-clock budget",
    )


def _crash_record(task: _FabricTask, reason: str) -> dict:
    return _error_record(task.point, "error", f"WorkerCrash: {reason}")


# ------------------------------------------------------------------ the driver
def drive_campaign(
    spec: CampaignSpec,
    store: Union[str, pathlib.Path, ResultStore],
    *,
    fabric: Optional[FabricConfig] = None,
    chaos: Optional[ChaosSpec] = None,
    max_attempts: int = 3,
    chunk_size: int = 4,
    max_workers: Optional[int] = None,
    resume: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> CampaignResult:
    """The one campaign driver: claim, execute, finalize, append, release.

    The points the store holds no terminal record for run in chunks of
    ``chunk_size`` on one :class:`~repro.experiments.harness.WorkerPool`,
    whose workers persist across chunks and rounds.  Every finished chunk is
    flushed to the JSONL store before the next starts, so a crash loses at
    most one chunk of work.  Failed points carry an ``attempts`` counter
    across invocations and turn ``"quarantined"`` (terminal) at the attempt
    ceiling.  ``progress`` is called with ``(points_settled,
    points_pending_total)`` once up front and after each chunk.

    Without a :class:`FabricConfig` that is all: one pass over the grid,
    ``max_attempts`` being the ceiling.  A ``fabric`` switches on, field by
    field, what a shared or unattended store needs:

    * ``worker_id`` / ``lease_ttl`` -- each chunk is claimed through lease
      records before it runs (points live-leased elsewhere are deferred),
      renewed by a heartbeat meanwhile and released once its records are
      appended; failure records name the worker;
    * ``point_timeout`` -- a point past its budget is killed and recorded as
      ``"timeout"``; set or not, points run in supervised worker processes,
      so a crashed worker is a retryable ``"error"``, not the end of the run;
    * ``max_rounds``, ``backoff_*``, ``seed`` -- failed points re-enter the
      queue after a jittered exponential delay until every point is
      terminal, only foreign-leased ones remain, or the rounds run out;
    * ``max_attempts`` -- takes the place of the argument of that name.

    ``chaos`` injects crashes, hangs, torn tail writes and errors at chosen
    grid indices, driving every recovery path above deterministically;
    ``clock`` / ``sleep`` default to :func:`time.monotonic` /
    :func:`time.sleep` and are injectable for the same reason.
    """
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be at least 1")
    if max_attempts < 1:
        raise ConfigurationError("max_attempts must be at least 1")
    clock = clock or time.monotonic
    sleep = sleep or time.sleep
    store = store if isinstance(store, ResultStore) else ResultStore(store)
    # A plain run is the fabric's policy reduced to a single pass, minus the
    # three things only a FabricConfig switches on: leases, the worker stamp
    # and the watchdog.
    policy = fabric or FabricConfig(max_attempts=max_attempts, max_rounds=1)
    worker = leases = None
    if fabric is not None:
        worker = fabric.resolved_worker_id()
        leases = LeaseManager(store, worker, fabric.lease_ttl, clock=clock)

    points = spec.expand()
    index_by_key = {point.key: index for index, point in enumerate(points)}
    existing = store.load() if resume else {}
    done, attempts = _classify_existing(points, existing, store, policy.max_attempts)
    # Latest known record per point, terminal or not -- failures that are
    # still pending when the invocation returns (max_rounds, deferral) must
    # surface in the result, not just in the store.
    latest: Dict[str, dict] = {
        key: existing[key] for key in attempts if key in existing
    }
    latest.update(done)
    pending: Dict[str, CampaignPoint] = {
        point.key: point for point in points if point.key not in done
    }
    total_pending = len(pending)
    ready_at: Dict[str, float] = {key: 0.0 for key in pending}
    executed = 0
    rounds = 0
    ever_deferred = False
    if progress is not None:
        progress(0, total_pending)

    def adopt_foreign_results() -> None:
        """Fold in points another worker finished while we were deferred."""
        refreshed = store.load()
        for key in list(pending):
            record = refreshed.get(key)
            if record is not None and record.get("status") in TERMINAL_STATUSES:
                latest[key] = record
                pending.pop(key)
                ready_at.pop(key)

    pool = WorkerPool(
        runner=partial(_execute_task, isolated=True),
        serial_runner=partial(_execute_task, isolated=False),
        max_workers=max_workers,
        timeout=policy.point_timeout,
        on_timeout=_timeout_record,
        on_crash=_crash_record if fabric is not None else None,
        poll_interval=policy.poll_interval,
    )
    with pool:
        while pending:
            if policy.max_rounds is not None and rounds >= policy.max_rounds:
                break
            rounds += 1
            if ever_deferred:
                adopt_foreign_results()
                if not pending:
                    break
            now = clock()
            due = [key for key in pending if ready_at[key] <= now]
            if not due:
                wake = min(ready_at[key] for key in pending)
                sleep(max(wake - now, policy.poll_interval))
                continue
            progressed = False
            for chunk in _chunks(due, chunk_size):
                claimed = chunk if leases is None else leases.claim(chunk)
                lost = set(chunk) - set(claimed)
                if lost:
                    # Foreign live leases: come back when they can have expired.
                    ever_deferred = True
                    foreign = leases.live_leases()
                    for key in lost:
                        lease = foreign.get(key)
                        ready_at[key] = (
                            float(lease["deadline"]) if lease else clock()
                        ) + policy.poll_interval
                if not claimed:
                    continue
                progressed = True
                tasks = [
                    _FabricTask(
                        point=pending[key],
                        chaos_action=(
                            None
                            if chaos is None
                            else chaos.action_for(
                                index_by_key[key], attempts.get(key, 0)
                            )
                        ),
                        hang_duration=(
                            chaos.hang_duration if chaos is not None else 30.0
                        ),
                        store_path=str(store.path),
                        timeout=policy.point_timeout,
                    )
                    for key in claimed
                ]
                records = pool.map(
                    tasks,
                    tick=None if leases is None else _Heartbeat(leases, claimed),
                )
                for key, record in zip(claimed, records):
                    record = _finalize_record(
                        record, attempts, policy.max_attempts, worker=worker
                    )
                    store.append(record)
                    if leases is not None:
                        leases.release([key])
                    executed += 1
                    latest[key] = record
                    if record.get("status") in TERMINAL_STATUSES:
                        pending.pop(key)
                        ready_at.pop(key)
                    else:
                        ready_at[key] = clock() + backoff_delay(
                            attempts[key],
                            base=policy.backoff_base,
                            cap=policy.backoff_cap,
                            jitter=policy.backoff_jitter,
                            seed=policy.seed,
                            key=key,
                        )
                if progress is not None:
                    progress(total_pending - len(pending), total_pending)
            if not progressed:
                if not ever_deferred:  # pragma: no cover - defensive
                    raise FabricError("fabric made no progress on unleased points")
                # Everything due is foreign-leased; if nothing can free up
                # before our own backoffs, yield this invocation.
                adopt_foreign_results()
                if pending and all(
                    key in leases.live_leases() for key in pending
                ):
                    break
                if pending:
                    sleep(policy.poll_interval)

    return CampaignResult(
        spec=spec,
        store_path=store.path,
        points=points,
        records=[latest[point.key] for point in points if point.key in latest],
        executed=executed,
        skipped=len(points) - total_pending,
        deferred=len(pending),
    )


def run_campaign_fabric(
    spec: CampaignSpec,
    store: Union[str, pathlib.Path, ResultStore],
    *,
    fabric: Optional[FabricConfig] = None,
    chaos: Optional[ChaosSpec] = None,
    chunk_size: int = 4,
    max_workers: Optional[int] = None,
    resume: bool = True,
    progress: Optional[Callable[[int, int], None]] = None,
    clock: Optional[Callable[[], float]] = None,
    sleep: Optional[Callable[[float], None]] = None,
) -> CampaignResult:
    """:func:`drive_campaign` under a :class:`FabricConfig` (its defaults if none is given)."""
    return drive_campaign(
        spec, store, fabric=fabric or FabricConfig(), chaos=chaos,
        chunk_size=chunk_size, max_workers=max_workers, resume=resume,
        progress=progress, clock=clock, sleep=sleep,
    )


# ------------------------------------------------------------------ merge
_STATUS_RANK = {"ok": 3, "quarantined": 2, "timeout": 1, "error": 1}


@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_stores` wrote: one compacted record per key."""

    path: pathlib.Path
    sources: Tuple[str, ...]
    keys: int
    completed: int
    quarantined: int
    retryable: int
    dropped_leases: int

    def as_dict(self) -> dict:
        return {
            "path": str(self.path),
            "sources": list(self.sources),
            "keys": self.keys,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "retryable": self.retryable,
            "dropped_leases": self.dropped_leases,
        }


def merge_stores(
    sources: Sequence[Union[str, pathlib.Path]],
    dest: Union[str, pathlib.Path],
) -> MergeReport:
    """Merge shard stores into one compacted store with no duplicate keys.

    For each key the best record wins: a completed (``ok``) result beats a
    quarantine beats a retryable failure; among equals the *last-written*
    record wins (sources in argument order, lines in file order), so two
    workers' shards merge to the same result regardless of which also holds
    stale earlier attempts.  Lease records and torn lines are dropped; the
    output is written atomically (temp file + rename) and sorted by key, so
    merging is idempotent and ``dest`` may be one of the sources
    (in-place compaction).
    """
    source_paths = [pathlib.Path(source) for source in sources]
    if not source_paths:
        raise FabricError("merge_stores needs at least one source store")
    for source in source_paths:
        if not source.exists():
            raise FabricError(f"cannot merge missing store {source}")
    best: Dict[str, Tuple[int, int, dict]] = {}
    dropped_leases = 0
    sequence = 0
    for source in source_paths:
        for record in ResultStore(source).iter_records():
            if record.get("record_type") == LEASE_RECORD_TYPE:
                dropped_leases += 1
                continue
            key = record.get("key")
            if not isinstance(key, str):
                continue
            sequence += 1
            rank = _STATUS_RANK.get(record.get("status"), 0)
            current = best.get(key)
            if current is None or rank >= current[0]:
                best[key] = (rank, sequence, record)
    dest = pathlib.Path(dest)
    temp = dest.with_name(dest.name + ".merge-tmp")
    if temp.exists():
        temp.unlink()
    temp_store = ResultStore(temp)
    statuses = {"ok": 0, "quarantined": 0}
    retryable = 0
    for key in sorted(best):
        record = best[key][2]
        status = record.get("status")
        if status in statuses:
            statuses[status] += 1
        elif status in RETRYABLE_STATUSES:
            retryable += 1
        temp_store.append(record)
    if not best:
        temp.touch()
    os.replace(temp, dest)
    return MergeReport(
        path=dest,
        sources=tuple(str(source) for source in source_paths),
        keys=len(best),
        completed=statuses["ok"],
        quarantined=statuses["quarantined"],
        retryable=retryable,
        dropped_leases=dropped_leases,
    )


__all__ = [
    "CHAOS_CRASH_EXIT",
    "CHAOS_TORN_EXIT",
    "ChaosSpec",
    "FabricConfig",
    "LeaseManager",
    "MergeReport",
    "backoff_delay",
    "drive_campaign",
    "merge_stores",
    "run_campaign_fabric",
]
