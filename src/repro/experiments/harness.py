"""Experiment harness: configure, run and post-process one MPTCP measurement.

This is the programmatic equivalent of the paper's measurement procedure
(Section 2.2): build the Mininet-like network, pin the subflows to the
pre-selected tagged paths, generate bulk traffic, capture packets with the
tshark substitute at the receiver, filter by tag and bin into throughput time
series, and compare the result against the analytical optimum.  The network
is built and run by the multi-flow build step (``multiflow._simulate``) with
the connection as its one ``mptcp`` flow; what is single-connection here is
the measurement.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..model.paths import PathSet
from ..netsim.topology import Topology
from ..topologies.paper import PAPER_DEFAULT_PATH_INDEX, paper_scenario
from ..units import BACKENDS, DEFAULT_MSS

if TYPE_CHECKING:  # pragma: no cover - a configuration declares, run_experiment loads
    from ..core.path_manager import PathManager
    from ..measure.convergence import ConvergenceReport
    from ..measure.dynamics import DynamicsReport
    from ..measure.flowstats import ConnectionStats
    from ..measure.sampling import TimeSeries
    from ..measure.signalplane import SignalPlaneReport
    from ..measure.validation import BackendComparison, PointValidation
    from ..model.bottleneck import ConstraintSystem
    from ..model.lp import LpResult
    from ..netsim.dynamics import DynamicsSpec
    from .multiflow import FlowSpec

ScenarioBuilder = Callable[[], Tuple[Topology, PathSet]]


@dataclass
class ExperimentConfig:
    """Configuration of one measurement run.

    The defaults reproduce the paper's setup: the Fig. 1a topology, three
    tagged subflows with Path 2 as the default path, a greedy bulk source and
    100 ms receiver-side sampling.
    """

    name: str = "paper"
    scenario: Union[ScenarioBuilder, Tuple[Topology, PathSet], None] = None
    congestion_control: str = "cubic"
    scheduler: str = "minrtt"
    default_path_index: int = PAPER_DEFAULT_PATH_INDEX
    duration: float = 4.0
    sampling_interval: float = 0.1
    mss: int = DEFAULT_MSS
    join_delay: float = 0.0
    send_buffer_bytes: Optional[int] = None
    total_bytes: Optional[int] = None
    warmup: float = 0.0
    paper_variant: str = "as_stated"
    #: Optional custom subflow lifecycle (e.g. FailoverPathManager for
    #: handover scenarios); when set, the scenario's paths are still used
    #: for capture tagging and the LP optimum but the manager decides which
    #: subflows open, and when.
    path_manager: Optional[PathManager] = None
    #: Optional time-varying network events; an empty/None spec costs
    #: nothing and leaves static runs byte-identical.
    dynamics: Optional[DynamicsSpec] = None
    #: Which simulation fidelity runs this configuration: ``"packet"`` (the
    #: per-segment simulator, the ground truth) or ``"flowlevel"`` (the
    #: fluid backend in :mod:`repro.flowsim`, for many-flow scale).
    backend: str = "packet"
    #: Rate-sharing rule for the flow-level backend
    #: (:data:`repro.flowsim.allocator.ALLOCATORS`); ignored at packet level.
    flow_allocator: str = "maxmin"
    #: Queue discipline forced onto every link of the scenario topology
    #: (:data:`repro.netsim.queues.QUEUE_KINDS`); ``None`` keeps whatever
    #: the scenario builder declared (drop-tail everywhere by default).
    queue_kind: Optional[str] = None
    #: ECN-capable transport: senders mark segments ECT, AQM queues CE-mark
    #: instead of dropping, and the ECE echo drives ``cc.on_ecn``.
    ecn: bool = False

    def __post_init__(self) -> None:
        from ..netsim.queues import QUEUE_KINDS

        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.queue_kind is not None and self.queue_kind not in QUEUE_KINDS:
            raise ConfigurationError(
                f"unknown queue discipline {self.queue_kind!r}; "
                f"choose from {QUEUE_KINDS}"
            )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy of this configuration with some fields replaced."""
        return replace(self, **kwargs)

    def build_scenario(self) -> Tuple[Topology, PathSet]:
        if self.scenario is None:
            return paper_scenario(self.paper_variant)
        if callable(self.scenario):
            return self.scenario()
        return self.scenario

    def run(self) -> "ExperimentResult":
        return run_experiment(self)


@dataclass
class ExperimentResult:
    """Everything produced by one run."""

    config: ExperimentConfig
    per_path_series: Dict[int, TimeSeries]
    total_series: TimeSeries
    optimum: LpResult
    convergence: ConvergenceReport
    stats: ConnectionStats
    constraint_system: ConstraintSystem
    drops: int
    events_processed: int
    #: Present when the run's dynamics spec declares measurement epochs
    #: (scheduled events or explicit ones) or a capacity profile.
    dynamics: Optional[DynamicsReport] = None
    #: Congestion-signal counters of the run (ECN marks, early/full drops,
    #: queueing delay); None only for results predating the signal plane.
    signal_plane: Optional[SignalPlaneReport] = None

    # ------------------------------------------------------------------
    @property
    def achieved_total_mbps(self) -> float:
        """Mean total throughput over the second half of the run."""
        return self.convergence.achieved_mean

    @property
    def optimal_total_mbps(self) -> float:
        return self.optimum.total

    @property
    def utilization_of_optimum(self) -> float:
        return self.convergence.utilization_of_optimum

    def validate(self) -> PointValidation:
        """Cross-validate the measured per-path rates against the model suite."""
        from ..measure.validation import validate_experiment

        return validate_experiment(self)

    def compare(self, packet: "ExperimentResult") -> BackendComparison:
        """Rate agreement of this (flow-level) run with its packet-level twin."""
        from ..measure.validation import compare_experiment_backends

        return compare_experiment_backends(self, packet)

    def summary(self) -> dict:
        summary = {
            "name": self.config.name,
            "congestion_control": self.config.congestion_control,
            "scheduler": self.config.scheduler,
            "default_path_index": self.config.default_path_index,
            "duration_s": self.config.duration,
            "optimum_mbps": round(self.optimum.total, 3),
            "achieved_mean_mbps": round(self.achieved_total_mbps, 3),
            "utilization_of_optimum": round(self.utilization_of_optimum, 4),
            "reached_optimum": self.convergence.reached_optimum,
            "time_to_optimum_s": self.convergence.time_to_optimum,
            "stability_cv": round(self.convergence.stability_cv, 4),
            "drops": self.drops,
            "retransmissions": self.stats.retransmissions,
        }
        if self.config.queue_kind is not None:
            summary["queue_kind"] = self.config.queue_kind
        if self.config.ecn:
            summary["ecn"] = True
        if self.signal_plane is not None:
            summary["signal_plane"] = self.signal_plane.as_dict()
        if self.dynamics is not None:
            summary["dynamics"] = self.dynamics.as_dict()
        return summary


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one measurement and return its post-processed result.

    Dispatches on ``config.backend``: the packet-level simulator below, or
    the flow-level twin (:func:`repro.flowsim.backend.run_experiment_flowlevel`)
    returning the same result shape at fluid fidelity.
    """
    if config.backend == "flowlevel":
        from ..flowsim.backend import run_experiment_flowlevel

        return run_experiment_flowlevel(config)
    # Loaded where a point executes: a call that only declares configurations
    # (a resumed, listed or merged campaign) imports no simulator or analyser.
    from ..measure.convergence import analyze_convergence
    from ..measure.flowstats import connection_stats
    from ..measure.sampling import per_tag_timeseries, total_timeseries
    from ..measure.signalplane import signal_plane_report
    from .multiflow import _simulate

    spec = _connection_spec(config)
    with _simulate(config, [spec], config.path_manager) as (network, (built,)):
        flow, capture = built.flow, built.capture
        start, end = config.warmup, config.duration
        per_path = per_tag_timeseries(
            capture, config.sampling_interval, start=start, end=end, tags=list(flow.tag_map)
        )
        total = total_timeseries(capture, config.sampling_interval, start=start, end=end)

        return ExperimentResult(
            config=config,
            per_path_series=per_path,
            total_series=total,
            optimum=flow.optimum,
            convergence=analyze_convergence(total, flow.optimum.total),
            stats=connection_stats(built.connection, config.duration),
            constraint_system=flow.system,
            drops=network.total_drops(),
            events_processed=network.sim.events_processed,
            dynamics=_dynamics_report(total, config.dynamics),
            signal_plane=signal_plane_report(network, config.duration),
        )


def _connection_spec(config: ExperimentConfig) -> FlowSpec:
    """The configuration's MPTCP connection as the one flow of a multi-flow build."""
    from .multiflow import FlowSpec

    return FlowSpec(
        kind="mptcp",
        congestion_control=config.congestion_control,
        scheduler=config.scheduler,
        default_path_index=config.default_path_index,
        mss=config.mss,
        total_bytes=config.total_bytes,
        send_buffer_bytes=config.send_buffer_bytes,
        join_delay=config.join_delay,
    )


def _dynamics_report(total: TimeSeries, spec: Optional[DynamicsSpec]) -> Optional[DynamicsReport]:
    """A report when ``spec`` declares epochs or a capacity profile (they may also
    describe events driven outside the Schedule); an empty spec yields none."""
    from ..measure.dynamics import analyze_dynamics

    if spec is None or not (spec.measurement_epochs() or spec.capacity_profile):
        return None
    return analyze_dynamics(total, spec)


class WorkerPool:
    """Persistent worker processes behind an in-order ``map``, optionally watched.

    Each worker takes one configuration at a time over a pipe and replies
    ``runner(config)`` (a module-level callable, to cross the process
    boundary).  Workers outlive :meth:`map` calls, so a chunked campaign pays
    process start -- and, off ``fork``, the interpreter import -- once per
    worker rather than once per point.

    ``timeout`` and ``on_crash`` ask for isolation, which costs one worker,
    never the pool: a task past ``timeout`` seconds has its worker killed and
    becomes ``on_timeout(config)``; a task whose worker died without replying
    (crash, OOM-kill, ``os._exit``) or whose runner raised becomes
    ``on_crash(config, reason)``.  Without ``on_crash`` the rest of the batch
    still runs and the first failure is then raised as :class:`RuntimeError`.

    Configurations run in this process, through ``serial_runner`` (default:
    ``runner``), when one worker suffices and no isolation was asked for,
    when they cannot be pickled (a ``scenario`` lambda) or when no process can
    be started (restricted sandboxes).  A hang cannot be killed there, but a
    task that overran ``timeout`` still becomes ``on_timeout(config)``.  Only
    a failed process start counts as missing subprocess support, never an
    exception out of the runner.
    """

    def __init__(
        self,
        *,
        runner: Callable = run_experiment,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable] = None,
        on_crash: Optional[Callable] = None,
        serial_runner: Optional[Callable] = None,
        poll_interval: float = 0.05,
    ) -> None:
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("watchdog timeout must be positive")
        if timeout is not None and on_timeout is None:
            raise ConfigurationError("a timeout needs an on_timeout record factory")
        self._runner = runner
        self._serial_runner = serial_runner or runner
        self._max_workers = max_workers or os.cpu_count() or 1
        self._timeout = timeout
        self._on_timeout = on_timeout
        self._on_crash = on_crash
        self._poll_interval = poll_interval
        self._idle: List[Tuple] = []  # (process, pipe) of workers awaiting a task
        self._can_spawn = True

    def map(self, configs: Sequence, *, tick: Optional[Callable[[], None]] = None) -> List:
        """Run ``configs`` through the runner, in order, reusing live workers.

        ``tick`` is called at least every ``poll_interval`` seconds while
        workers run (and after each in-process task): the campaign driver
        renews its leases there.
        """
        configs = list(configs)
        workers = min(self._max_workers, len(configs))
        in_process = workers <= 1 and self._timeout is None and self._on_crash is None
        if not in_process:
            try:
                # Probed up front so the choice does not depend on the start
                # method (``fork`` never pickles the runner); the next batch
                # may well be picklable, so the pool stays parallel-capable.
                pickle.dumps((self._runner, configs))
            except Exception:
                in_process = True
        if in_process:
            return [self._run_here(config, tick) for config in configs]

        from multiprocessing.connection import wait

        results: List = [None] * len(configs)
        queue = deque(enumerate(configs))
        busy: Dict = {}  # pipe -> (process, index, config, time started)
        failure = None
        try:
            while queue or busy:
                while queue and len(busy) < workers:
                    worker = self._worker()
                    if worker is None:
                        break
                    process, conn = worker
                    try:
                        conn.send((queue[0][1],))
                    except OSError:  # it died while idle: take the next one
                        _stop_worker(process, conn)
                        continue
                    index, config = queue.popleft()
                    busy[conn] = (process, index, config, time.monotonic())
                if not busy:
                    # No process can be started and nothing is in flight, so
                    # nothing runs twice: work the queue off here.
                    index, config = queue.popleft()
                    results[index] = self._run_here(config, tick)
                    continue
                for conn in wait(list(busy), timeout=self._poll_interval):
                    process, index, config, _ = busy.pop(conn)
                    try:
                        ok, payload = conn.recv()
                        self._idle.append((process, conn))
                    except (EOFError, OSError):
                        # The pipe closed without a reply: the worker died
                        # (os._exit, signal) before flushing anything.
                        _stop_worker(process, conn)
                        ok = False
                        payload = (
                            "worker process died before reporting "
                            f"(exit code {process.exitcode})"
                        )
                    if ok:
                        results[index] = payload
                    elif self._on_crash is not None:
                        results[index] = self._on_crash(config, payload)
                    else:
                        failure = failure or f"worker failed for {config!r}: {payload}"
                now = time.monotonic()
                for conn, (process, index, config, started) in list(busy.items()):
                    if self._timeout is not None and now - started > self._timeout:
                        del busy[conn]
                        _stop_worker(process, conn)
                        results[index] = self._on_timeout(config)
                if tick is not None:
                    tick()
        finally:
            # Only an exception leaves tasks in flight; a worker holding
            # stale work cannot be reused.
            for conn, (process, *_) in busy.items():
                _stop_worker(process, conn)
        if failure is not None:
            raise RuntimeError(failure)
        return results

    def _run_here(self, config, tick: Optional[Callable[[], None]]):
        started = time.monotonic()
        result = self._serial_runner(config)
        if self._timeout is not None and time.monotonic() - started > self._timeout:
            result = self._on_timeout(config)
        if tick is not None:
            tick()
        return result

    def _worker(self) -> Optional[Tuple]:
        """An idle worker, else a fresh one, else ``None``: none can be started."""
        if self._idle:
            return self._idle.pop()
        if self._can_spawn:
            try:
                return _start_worker(self._runner)
            except OSError:  # PermissionError included: no subprocess support
                self._can_spawn = False
        return None

    def close(self) -> None:
        """Let the workers exit; outside :meth:`map` every one of them is idle."""
        while self._idle:
            process, conn = self._idle.pop()
            try:
                conn.send(None)
                process.join(timeout=1.0)
            except OSError:
                pass  # it died while idle
            _stop_worker(process, conn)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _worker_main(conn, parent_conn, runner: Callable) -> None:
    """Worker body: answer ``(config,)`` with ``(ok, result-or-reason)`` until ``None``."""
    # Drop the inherited copy of the parent's end: a killed parent then reads
    # as EOF here instead of leaving this process blocked in recv() for good.
    parent_conn.close()
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        try:
            reply = (True, runner(request[0]))
        except Exception as error:  # noqa: BLE001 - reported to the parent
            reply = (False, f"{type(error).__name__}: {error}")
        try:
            conn.send(reply)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
            conn.send((False, f"{type(error).__name__}: {error}"))


def _start_worker(runner: Callable) -> Tuple:
    """Start one worker: the only place this package creates a process."""
    import multiprocessing

    ctx = multiprocessing.get_context()
    if ctx.get_start_method() == "fork":
        # Every point's validation solves its LP with scipy's HiGHS module:
        # load it once here and each forked worker inherits it.
        from ..model._scipy_solvers import HIGHS, load

        try:
            load(HIGHS)
        except ImportError:
            pass  # the model layer then uses the vertex LP
    conn, child_conn = ctx.Pipe()
    process = ctx.Process(
        target=_worker_main, args=(child_conn, conn, runner), daemon=True
    )
    try:
        process.start()
    except OSError:
        conn.close()
        raise
    finally:
        child_conn.close()
    return process, conn


def _stop_worker(process, conn) -> None:
    conn.close()
    if process.is_alive():
        process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():  # pragma: no cover - ignores SIGTERM
        process.kill()


def run_scenarios_parallel(
    configs: Sequence,
    *,
    max_workers: Optional[int] = None,
    runner: Callable = run_experiment,
) -> List:
    """Run a scenario sweep, fanning the runs across worker processes.

    Each configuration is an independent simulation, so figure-style
    multi-scenario sweeps scale with cores.  Results come back in the order
    of ``configs``.  This is the one-shot convenience over
    :class:`WorkerPool`, which see for ``runner`` and for when the sweep runs
    in this process instead; callers issuing many batches should hold a pool
    themselves, so that the workers outlive each batch.
    """
    with WorkerPool(runner=runner, max_workers=max_workers) as pool:
        return pool.map(configs)


def paper_experiment(
    congestion_control: str = "cubic",
    *,
    duration: float = 4.0,
    sampling_interval: float = 0.1,
    default_path_index: int = PAPER_DEFAULT_PATH_INDEX,
    variant: str = "as_stated",
    **overrides,
) -> ExperimentConfig:
    """Convenience constructor for paper-topology experiment configurations."""
    return ExperimentConfig(
        name=f"paper-{congestion_control}",
        congestion_control=congestion_control,
        duration=duration,
        sampling_interval=sampling_interval,
        default_path_index=default_path_index,
        paper_variant=variant,
        **overrides,
    )
