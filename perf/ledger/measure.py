"""Rounds, resource usage, set-up cost, output bookkeeping and the run header.

Closed loop, one client (this harness), no threads: a round starts when the
previous one has returned.  An end-to-end timing is reported as the lower
quartile over rounds (:func:`quiet`) with its sample count ``n``; with this
few rounds no higher percentile has ten samples beyond it, so none is
reported.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy
import scipy

from repro.kernel import kernel_info

from . import probes, tracing
from .compare import iqr_share
from .profiling import profile_round
from .recompose import RecompositionError
from .workloads import ROOT, Op, Workload, child_env

#: A workload is measured for at least this many rounds even when one round
#: outlasts a third of ``--seconds``.
MIN_ROUNDS = 3
#: Fresh-interpreter cold starts (and input generations) behind ``setup_s``,
#: taken this many times before the rounds and again after them: a burst on
#: the host that covers one group rarely covers the other.
SETUP_SAMPLES = 3
#: Span-pass rounds of the traced run, each paired with an untraced reference.
SPAN_ROUNDS = 3

#: What every ``repro`` CLI call pays before it simulates anything.
COLD_START = """
import json, time
t0 = time.perf_counter()
import repro.cli
t1 = time.perf_counter()
import repro.kernel
repro.kernel.compiled_module()
t2 = time.perf_counter()
from repro.netsim.engine import make_simulator
make_simulator()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "kernel_load_s": t2 - t1, "simulator_s": t3 - t2}))
"""

PROFILED_LAYERS = (
    "kernel", "netsim.engine", "netsim.link", "netsim.queues", "netsim.capture",
    "netsim.packet", "netsim.dynamics", "tcp", "core", "measure", "model",
    "experiments", "flowsim", "workload",
)


def cpu_seconds() -> float:
    """User plus system CPU of this process and every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of the harness or any waited-for child, in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def quiet(samples: List[float]) -> float:
    """The lower quartile: what a round costs while the host leaves it alone.

    Every round of a run does identical, deterministic work, and neighbours on
    the shared host only ever add time -- to CPU seconds too, not just wall --
    in phases of ten to thirty seconds.  The median over rounds follows those
    phases (it moved by a third between runs of the same code); the quarter
    of the rounds least disturbed does not.
    """
    return statistics.quantiles(samples, n=4)[0] if len(samples) > 1 else samples[0]


def timed(fn: Callable[[], object]) -> Tuple[object, float, float]:
    cpu = cpu_seconds()
    start = time.perf_counter()
    raw = fn()
    wall = time.perf_counter() - start
    return raw, wall, cpu_seconds() - cpu


class Checker:
    """Counts operations attempted and failed; pins each one's digest across rounds."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}

    def record(self, ops: List[Op]) -> Dict[str, str]:
        """Book the operations; returns each one's digest by name."""
        seen = {}
        for op in ops:
            self.attempted += 1
            digest = hashlib.sha256(
                json.dumps(op.summary, sort_keys=True, default=str).encode()
            ).hexdigest()
            seen[op.name] = digest
            problems = list(op.problems)
            if self.digests.setdefault(op.name, digest) != digest:
                problems.append("result digest differs between rounds of the same run")
            if problems:
                self.failed += 1
                self.failures.append(f"{op.name}: {'; '.join(problems)}")
        return seen

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def sim_digest(self) -> str:
        """One digest of every operation's simulated statistics, to compare commits."""
        joined = json.dumps(self.digests, sort_keys=True).encode()
        return hashlib.sha256(joined).hexdigest()[:16]


def cold_start() -> Dict[str, float]:
    """One fresh interpreter through import, kernel load and simulator creation."""
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, "-c", COLD_START],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    phases = json.loads(process.stdout)
    phases["wall_s"] = time.perf_counter() - start
    return phases


def measure_setup(workload: Workload, seed: int, samples: int) -> Dict[str, List[float]]:
    """``samples`` cold starts, each followed by one generation of the inputs."""
    out: Dict[str, List[float]] = {"setup_s": [], "cold_start_s": [], "kernel_load_s": []}
    for _ in range(samples):
        cold = cold_start()
        _, prepare, _ = timed(lambda: workload.prepare(seed))
        out["setup_s"].append(cold["wall_s"] + prepare)
        out["cold_start_s"].append(cold["wall_s"])
        out["kernel_load_s"].append(cold["kernel_load_s"])
    return out


def header(args) -> dict:
    """What a later reader needs to decide whether two runs are comparable."""
    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    return {
        "schema": 1,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "kernel": kernel_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "percentiles": "lower quartile of wall_s, cpu_s and setup_s, medians of spans: "
        "no higher percentile has ten samples beyond it",
    }


def warm_up(workload: Workload, checker: Checker) -> Tuple[Optional[float], Dict[str, float]]:
    """The discarded first round (its wall, if any) and the once-per-run checks' metrics."""
    first = None
    if workload.warm_up:
        raw, first, _ = timed(workload.run_round)
        checker.record(workload.inspect(raw))
    ops, values = workload.once()
    checker.record(ops)
    return first, values


# ------------------------------------------------------------------ untraced
def run_untraced(workload: Workload, seconds: float, min_rounds: int, checker: Checker) -> dict:
    """Warm-up, the once-per-run checks, then rounds for ``seconds``, to the nearest round."""
    first, _ = warm_up(workload, checker)
    walls: List[float] = []
    cpus: List[float] = []
    started = time.perf_counter()
    while len(walls) < min_rounds or time.perf_counter() - started + walls[-1] / 2 < seconds:
        raw, wall, cpu = timed(workload.run_round)
        walls.append(wall)
        cpus.append(cpu)
        checker.record(workload.inspect(raw))
        if len(walls) == min_rounds:
            # Read at a fixed round, so that how many rounds a faster or
            # slower box fits into ``seconds`` cannot move it.
            rss = peak_rss_mb()
    return {
        "samples": {"wall_s": walls, "cpu_s": cpus},
        "n": {"peak_rss_mb": 1, "bench.first_round_s": 1, "bench.round_iqr_share": 1,
              "bench.loadavg_1m": 1},
        "values": {
            "wall_s": quiet(walls),
            "cpu_s": quiet(cpus),
            "peak_rss_mb": rss,
            "bench.first_round_s": walls[0] if first is None else first,
            "bench.round_iqr_share": iqr_share(walls),
            "bench.loadavg_1m": os.getloadavg()[0],
        },
    }


# ------------------------------------------------------------------ traced
def run_traced(
    workload: Workload, seconds: float, span_rounds: int, checker: Checker
) -> dict:
    """Span pass (paired with untraced references), profile pass, isolated probes."""
    tracer = tracing.Tracer()
    first, values = warm_up(workload, checker)
    n: Dict[str, int] = dict.fromkeys(values, 1)  # sample counts other than the rounds

    reference: List[float] = []
    started = time.perf_counter()
    raw = None
    while len(reference) < span_rounds and (
        not reference or time.perf_counter() - started < seconds / 2
    ):
        raw_reference, wall, _ = timed(workload.run_reference)
        reference.append(wall)
        expected = checker.record(workload.inspect(raw_reference))
        tracer.begin_round()
        raw = workload.run_traced(tracer)
        rebuilt = checker.record(workload.inspect(raw))
        drifted = [name for name in rebuilt if expected.get(name, rebuilt[name]) != rebuilt[name]]
        if drifted:
            raise RecompositionError(
                f"{workload.name}: the traced pipeline no longer reproduces the results of "
                f"the functions users call, for {drifted}"
            )
    spans = tracer.spans
    values.update(workload.extras(raw))

    counts = tracer.counts[0]
    for index, later in enumerate(tracer.counts[1:], start=2):
        if later != counts:
            checker.fail(f"counts of traced round {index} differ from round 1")

    shares, profiled_wall = profile_round(workload.run_profiled)
    for probe in workload.layer_probes:
        probed = probe()
        values.update(probed)
        n.update(dict.fromkeys(probed, probes.REPEATS))

    traced_walls = tracing.round_seconds(spans, "round")
    reference_wall = statistics.median(reference)
    span_s = span_seconds(spans)
    values.update(span_s)
    values.update(derived(counts, span_s, spans, reference_wall))
    for layer in PROFILED_LAYERS:
        if shares.get(layer):
            values[f"{layer}.profile_share"] = shares[layer]
    bench = {
        "bench.first_round_s": reference[0] if first is None else first,
        "bench.round_iqr_share": iqr_share(reference),
        # Each traced round against the reference that ran just before it:
        # neighbours in time share the box's mood, medians of the columns do not.
        "bench.trace_overhead_share": statistics.median(
            traced / untraced for traced, untraced in zip(traced_walls, reference)
        ) - 1.0,
        "bench.profile_overhead_ratio": profiled_wall / reference_wall,
        "bench.span_coverage_share": tracing.coverage_share(spans, "round"),
        "bench.loadavg_1m": os.getloadavg()[0],
    }
    values.update(bench)
    n.update(dict.fromkeys([*bench, *(k for k in values if k.endswith(".profile_share"))], 1))
    return {
        "samples": {"reference_wall_s": reference, "traced_wall_s": traced_walls},
        "n": n,
        "values": values,
        "counts": counts,
        "profile_shares": shares,
        "spans": tracing.exported(spans),
    }


def span_seconds(spans: List[tracing.Span]) -> Dict[str, float]:
    """``<span name>_s``: median over rounds of the span's summed duration."""
    names = {str(span["name"]) for span in spans}
    out = {f"{name}_s": tracing.median_seconds(spans, name) for name in names}
    points = [tracing.duration(s) for s in spans if s["name"] == "experiments.point"]
    if points:
        # One grid point, not a round's worth of them.
        out["experiments.point_s"] = statistics.median(points)
    return out


def derived(
    counts: Dict[str, float], seconds: Dict[str, float], spans, reference_wall: float
) -> Dict[str, float]:
    """Counts as metrics, and the ratios taken where the work happens."""
    out = dict(counts)

    def ratio(name: str, top: Optional[float], bottom: Optional[float], scale: float = 1.0):
        if top is not None and bottom:
            out[name] = top / bottom * scale

    taken = counts.get("kernel.bypass_taken", 0)
    declined = counts.get("kernel.bypass_declined", 0)
    if taken + declined:
        # The decision was observed, so the side that never happened is a real zero.
        out["kernel.bypass_taken"], out["kernel.bypass_declined"] = taken, declined
        out["kernel.bypass_share"] = taken / (taken + declined)
    ratio(
        "netsim.engine.ns_per_event",
        seconds.get("netsim.run_s"), counts.get("netsim.engine.events"), 1e9,
    )
    sent = counts.get("netsim.link.packets_sent")
    if sent is not None:
        dropped = counts["netsim.link.packets_dropped"]
        ratio("netsim.link.drop_share", dropped, sent + dropped)
    ratio(
        "netsim.queues.mean_delay_ms",
        counts.get("netsim.queues.delay_sum_s"), counts.get("netsim.queues.dequeued"), 1e3,
    )
    ratio(
        "tcp.retransmit_share",
        counts.get("tcp.retransmissions"), counts.get("tcp.segments_delivered"),
    )
    ratio("experiments.points_per_s", counts.get("experiments.points_ok"), seconds.get("round_s"))
    fluid_seconds = seconds.get("flowsim.run_s", 0.0) + seconds.get("workload.run_s", 0.0)
    ratio("flowsim.us_per_transition", fluid_seconds, counts.get("flowsim.transitions"), 1e6)
    ratio(
        "workload.completed_share",
        counts.get("workload.completed"), counts.get("workload.transfers"),
    )
    if "cli.cold_s" in seconds:
        out["cli.campaign_overhead_s"] = seconds["cli.cold_s"] - reference_wall
    if "experiments.fabric_s" in seconds:
        # Point walls come from the in-process rebuild of the same grid.
        out["experiments.fabric_overhead_s"] = seconds["experiments.fabric_s"] - (
            tracing.median_seconds(spans, "experiments.point")
        )
    return out


# ------------------------------------------------------------------ one run
def measure(workload: Workload, args, declared: Dict[str, dict]) -> dict:
    """One contract run of one workload: set-up, rounds, checks, named metrics."""
    tiny = args.scale == "tiny"  # one round of everything, whatever ``--seconds`` says
    seconds = 0.0 if tiny else args.seconds
    checker = Checker()
    setup = measure_setup(workload, args.seed, 1 if tiny else SETUP_SAMPLES)
    if args.trace:
        body = run_traced(workload, seconds, 1 if tiny else SPAN_ROUNDS, checker)
        body["values"]["cli.startup_s"] = statistics.median(setup["cold_start_s"])
        body["values"]["kernel.load_s"] = statistics.median(setup["kernel_load_s"])
        rounds = len(body["samples"]["traced_wall_s"])
    else:
        body = run_untraced(workload, seconds, 1 if tiny else MIN_ROUNDS, checker)
        for name, late in measure_setup(
            workload, args.seed, 0 if tiny else SETUP_SAMPLES
        ).items():
            setup[name] += late
        body["values"]["setup_s"] = quiet(setup["setup_s"])
        rounds = len(body["samples"]["wall_s"])
    body["samples"].update(setup)
    n = body.pop("n")
    n.update(dict.fromkeys(("setup_s", "cli.startup_s", "kernel.load_s"), len(setup["setup_s"])))

    metrics = {
        name: {"value": value, "unit": declared[name]["unit"], "n": n.get(name, rounds)}
        for name, value in sorted(body.pop("values").items())
        if name in declared and value is not None
    }
    return {
        "sizes": workload.sizes(),
        "rounds": rounds,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_share": checker.failed / checker.attempted,
        "failures": checker.failures[:20],
        "sim_digest": checker.sim_digest(),
        "metrics": metrics,
        **body,
    }
