"""The six workloads: inputs, the user-facing round, its traced twin, output checks.

Every workload offers the same three calls:

``run_round()``
    what a user runs, through the public entry points, nothing in between;
``run_traced(tracer)``
    the same work with spans at the layer boundaries, under a root span
    ``round`` -- rebuilt from public calls where the entry point is one
    opaque function (see :mod:`ledger.recompose`);
``inspect(raw)``
    turns either round's raw results into operations: a digestable summary
    plus the invariants it breaks (none, on a healthy tree).

Sizes are the issue's, halved, so that five or more rounds fit the
``run_seconds`` the driver's time cap leaves (see ``perf/README.md``); the
``tiny`` scale divides them by five again for the smoke test.  Checks are
invariants, not pinned goldens, so a later behaviour fix is not mis-scored
as a failure.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import time
import uuid
from functools import partial
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import kernel
from repro.experiments import (
    ChaosSpec,
    FabricConfig,
    ResultStore,
    aqm_vs_droptail,
    ecn_mptcp_fairness,
    link_flap_failover,
    merge_stores,
    mptcp_vs_tcp_shared_bottleneck,
    multiflow_fairness_campaign,
    paper_cc_rate_campaign,
    paper_experiment,
    run_campaign,
    run_campaign_fabric,
    run_experiment,
    run_multiflow,
    two_mptcp_competition,
)
from repro.flowsim import FlowDescriptor, FlowLevelSim, heavy_tailed_workload
from repro.measure.fct import FctReport
from repro.model.bottleneck import build_constraints
from repro.netsim.network import Network
from repro.netsim.topology import Topology
from repro.tcp.connection import TcpConnection
from repro.topologies.paper import paper_scenario
from repro.workload import run_workload
from repro.workload.flowlevel import FlowLevelWorkloadRun
from repro.workload.scenarios import conferencing_load, web_page_load

from . import probes
from .recompose import (
    RecompositionError,
    count_network,
    count_senders,
    run_network,
    traced_experiment,
    traced_multiflow,
    traced_point,
)
from .tracing import OFF, Tracer

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Measured goodput may exceed the LP optimum / link rate by at most this
#: factor (sampling-bin edge effects), else the scene's output is wrong.
GOODPUT_MARGIN = 1.02


@dataclass
class Op:
    """One attempted operation: a scene, campaign point, CLI call or sub-run."""

    name: str
    summary: object
    problems: List[str] = field(default_factory=list)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


class Workload:
    name = ""
    #: Isolated probes (:mod:`ledger.probes`) of the layers that do work here.
    layer_probes: Tuple = ()
    #: Whether ``run_round`` needs a discarded warm-up (false when every
    #: round is a fresh process by design).
    warm_up = True

    def __init__(self, factor: float, scratch: pathlib.Path) -> None:
        self.factor = factor
        self.scratch = scratch

    def prepare(self, seed: int) -> None:
        """Generate the inputs from the seed (timed into ``setup_s``)."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def run_traced(self, tracer: Tracer):
        raise NotImplementedError

    def run_reference(self):
        """The untraced work ``run_traced``'s root span is compared against."""
        return self.run_round()

    def run_profiled(self):
        """What the profile pass runs under ``cProfile``, in this process."""
        return self.run_round()

    def inspect(self, raw) -> List[Op]:
        raise NotImplementedError

    def once(self) -> Tuple[List[Op], Dict[str, float]]:
        """Checks made once per run, outside the rounds; plus metrics they yield."""
        return [], {}

    def extras(self, raw) -> Dict[str, float]:
        """Per-layer figures read off a traced round's results."""
        return {}


# ------------------------------------------------------------------ helpers
def experiment_op(result) -> Op:
    problems = []
    if result.stats.bytes_delivered <= 0:
        problems.append("delivered no bytes")
    if result.achieved_total_mbps > result.optimal_total_mbps * GOODPUT_MARGIN:
        problems.append(
            f"goodput {result.achieved_total_mbps:.3f} above the LP optimum "
            f"{result.optimal_total_mbps:.3f}"
        )
    return Op(result.config.name, result.summary(), problems)


def multiflow_op(result) -> Op:
    problems = [f"flow {f.name} delivered no bytes" for f in result.flows if f.bytes_delivered <= 0]
    capacity = result.fairness.bottleneck_capacity_mbps
    if capacity is not None and result.fairness.aggregate_mbps > capacity * GOODPUT_MARGIN:
        problems.append(
            f"aggregate {result.fairness.aggregate_mbps:.3f} above bottleneck {capacity:.3f}"
        )
    return Op(result.config.name, result.summary(), problems)


def optimum_gap(results) -> float:
    """Median shortfall of measured total against the LP optimum, as a share."""
    return statistics.median(1.0 - r.utilization_of_optimum for r in results)


# ------------------------------------------------------------------ paper_mptcp
class PaperMptcp(Workload):
    """The paper's own Fig. 2 scenes: one MPTCP connection per controller."""

    name = "paper_mptcp"
    layer_probes = (
        probes.engine_probes, probes.link_probes, partial(probes.queue_probes, ("droptail",))
    )
    ALGORITHMS = ("cubic", "lia", "olia", "balia")

    def prepare(self, seed: int) -> None:
        self.configs = [
            paper_experiment(cc, duration=2.0 * self.factor) for cc in self.ALGORITHMS
        ]

    def sizes(self) -> dict:
        return {"algorithms": list(self.ALGORITHMS), "duration_s": 2.0 * self.factor}

    def run_round(self):
        return [run_experiment(config) for config in self.configs]

    def run_traced(self, tracer: Tracer):
        with tracer.span("round"):
            return [traced_experiment(config, tracer) for config in self.configs]

    def inspect(self, raw) -> List[Op]:
        return [experiment_op(result) for result in raw]

    def extras(self, raw) -> Dict[str, float]:
        return {"model.optimum_gap": optimum_gap(raw)}


# ------------------------------------------------------------------ tcp_bypass
def build_tcp_line(link_mbps: float, flows: int, tracer=OFF):
    """Single-path CUBIC flows over the 2-hop drop-tail line."""
    with tracer.span("topologies.build"):
        topology = probes.line_topology(link_mbps)
    with tracer.span("netsim.network.setup"):
        network = Network(topology)
        for flow in range(flows):
            network.install_path(["s", "r", "d"], tag=flow + 1, as_default=flow == 0)
    with tracer.span("tcp.connect"):
        connections = [
            TcpConnection(network, "s", "d", cc="cubic", tag=flow + 1, flow_id=flow + 1)
            for flow in range(flows)
        ]
        for connection in connections:
            connection.start(0.0)
    return network, connections


def tcp_line_scene(
    link_mbps: float, flows: int, duration: float, tracer: Optional[Tracer] = None
) -> dict:
    network, connections = build_tcp_line(link_mbps, flows, tracer or OFF)
    if tracer is None:
        network.run(duration)
    else:
        run_network(network, duration, tracer)
        count_network(network, tracer)
        count_senders([c.sender for c in connections], connections[0].mss, tracer)
    acked = [connection.bytes_acked for connection in connections]
    return {
        "link_mbps": link_mbps,
        "flows": flows,
        "duration_s": duration,
        "events": network.sim.events_processed,
        "bytes_acked": acked,
        "goodput_mbps": round(sum(acked) * 8 / duration / 1e6, 3),
        "retransmissions": [c.sender.stats.retransmissions for c in connections],
        "timeouts": [c.sender.stats.timeouts for c in connections],
        "drops": network.total_drops(),
    }


class TcpBypass(Workload):
    """The only scenes eligible for the compiled kernel's whole-window native run."""

    name = "tcp_bypass"
    layer_probes = (probes.engine_probes,)
    SCENES = ((1000.0, 1), (100.0, 1), (1000.0, 4))

    def sizes(self) -> dict:
        return {"scenes": [list(s) for s in self.SCENES], "duration_s": 15.0 * self.factor}

    def run_round(self):
        return [tcp_line_scene(mbps, flows, 15.0 * self.factor) for mbps, flows in self.SCENES]

    def run_traced(self, tracer: Tracer):
        with tracer.span("round"):
            return [
                tcp_line_scene(mbps, flows, 15.0 * self.factor, tracer)
                for mbps, flows in self.SCENES
            ]

    def inspect(self, raw) -> List[Op]:
        ops = []
        for scene in raw:
            problems = []
            if min(scene["bytes_acked"]) <= 0:
                problems.append("a flow delivered no bytes")
            if scene["goodput_mbps"] > scene["link_mbps"] * GOODPUT_MARGIN:
                problems.append(f"goodput {scene['goodput_mbps']} above the link rate")
            ops.append(Op(f"line-{scene['link_mbps']:g}mbps-x{scene['flows']}", scene, problems))
        return ops

    def once(self) -> Tuple[List[Op], Dict[str, float]]:
        """Both kernels must agree on a 2-simulated-second scene; time them too."""
        start = time.perf_counter()
        compiled = tcp_line_scene(100.0, 1, 2.0)
        middle = time.perf_counter()
        with kernel.override("python"):
            python = tcp_line_scene(100.0, 1, 2.0)
        end = time.perf_counter()
        problems = [] if python == compiled else ["python and compiled kernels disagree"]
        return (
            [Op("kernel-equivalence", compiled, problems)],
            {"kernel.python_slowdown": (end - middle) / (middle - start)},
        )


# ------------------------------------------------------------------ contended_mix
class ContendedMix(Workload):
    """Multi-flow contention, AQM verdicts, ECE echo and dynamic-mode links."""

    name = "contended_mix"
    layer_probes = (probes.link_probes, partial(probes.queue_probes, ("droptail", "red", "codel")))

    def prepare(self, seed: int) -> None:
        duration = 3.0 * self.factor
        self.multiflow = [
            mptcp_vs_tcp_shared_bottleneck(duration=duration),
            two_mptcp_competition(duration=duration),
            aqm_vs_droptail(queue_kind="red", ecn=True, duration=duration),
            ecn_mptcp_fairness(
                queue_kind="codel",
                congestion_control_a="sfc",
                congestion_control_b="telehaptic",
                duration=duration,
            ),
        ]
        self.flap = link_flap_failover(duration=duration)

    def sizes(self) -> dict:
        return {
            "scenes": [c.name for c in self.multiflow] + [self.flap.name],
            "duration_s": 3.0 * self.factor,
        }

    def run_round(self):
        return [run_multiflow(c) for c in self.multiflow] + [run_experiment(self.flap)]

    def run_traced(self, tracer: Tracer):
        with tracer.span("round"):
            return [traced_multiflow(c, tracer) for c in self.multiflow] + [
                traced_experiment(self.flap, tracer)
            ]

    def inspect(self, raw) -> List[Op]:
        *multiflow, flap = raw
        ops = [multiflow_op(result) for result in multiflow]
        red = ops[2]
        if multiflow[2].signal_plane.ecn_marks <= 0:
            red.problems.append("RED+ECN scene marked nothing")
        flap_op = experiment_op(flap)
        if flap.dynamics is None or not flap.dynamics.epochs:
            flap_op.problems.append("link-flap scene reported no dynamics epochs")
        return ops + [flap_op]

    def extras(self, raw) -> Dict[str, float]:
        *multiflow, flap = raw
        gaps = [1.0 - r.fairness.bottleneck_utilization for r in multiflow]
        return {"model.optimum_gap": statistics.median(gaps + [1.0 - flap.utilization_of_optimum])}


# ------------------------------------------------------------------ campaigns
def fluid_algorithm(congestion_control: str) -> str:
    """The fluid-model family ``validate_against_models`` pairs with a controller."""
    return congestion_control if congestion_control in ("lia", "olia") else "uncoupled"


class _Campaign(Workload):
    """What the two campaign workloads share: the grid and its in-process twin."""

    def spec(self, **axes):
        """The workload's grid; ``axes`` narrow it for the profile pass."""
        raise NotImplementedError

    def inspect_user(self, raw) -> List[Op]:
        raise NotImplementedError

    def fresh_store(self, label: str) -> pathlib.Path:
        return self.scratch / f"{self.name}-{label}-{uuid.uuid4().hex[:12]}.jsonl"

    def run_reference(self):
        """The grid through ``run_campaign`` in this process: no CLI, no fabric."""
        result = run_campaign(self.spec(), self.fresh_store("reference"), max_workers=1)
        return {"reference": result}

    def run_profiled(self):
        """A third of the grid in-process: child processes are opaque to ``cProfile``."""
        return run_campaign(
            self.spec(rate_scales=(1.0,)), self.fresh_store("profiled"), max_workers=1
        )

    def inspect(self, raw) -> List[Op]:
        if "reference" in raw:
            return self.point_ops(self.spec().size, raw["reference"].records)
        return self.inspect_user(raw)

    def traced_grid(self, tracer: Tracer) -> dict:
        """Every grid point rebuilt in-process, appended to a store and read back."""
        with tracer.span("round"):
            with tracer.span("experiments.expand"):
                points = self.spec().expand()
            store = ResultStore(self.fresh_store("ledger"))
            validations = []
            for point in points:
                record, validation = traced_point(point, tracer)
                validations.append(validation)
                with tracer.span("experiments.store_append"):
                    store.append(record)
            with tracer.span("experiments.store_load"):
                loaded = store.load()
        tracer.count("experiments.points_ok", len(loaded))
        return {
            "points": points,
            "records": [loaded[point.key] for point in points],
            "validations": validations,
        }

    def point_ops(self, points_expected: int, records: Sequence[dict]) -> List[Op]:
        """One operation per grid point: exactly one ``ok`` record, sane goodput."""
        ok: Dict[str, List[dict]] = {}
        for record in records:
            if record.get("record_type") is None and record.get("status") == "ok":
                ok.setdefault(record["key"], []).append(record)
        ops = []
        for key in sorted(ok):
            problems = []
            if len(ok[key]) != 1:
                problems.append(f"{len(ok[key])} ok records for one point")
            lp = ok[key][0]["validation"]["predictions"]["lp"]
            if lp["measured_total"] > lp["total"] * GOODPUT_MARGIN:
                problems.append("goodput above the LP optimum")
            ops.append(Op(f"point-{key}", ok[key][0], problems))
        if len(ok) != points_expected:
            ops.append(Op("grid", None, [f"{len(ok)} of {points_expected} points have a result"]))
        return ops

    def check_recomposed(self, rebuilt: List[dict], stored: Dict[str, dict]) -> None:
        """The rebuilt points must equal what the user-facing driver stored."""
        for record in json.loads(json.dumps(rebuilt, sort_keys=True)):
            if stored.get(record["key"]) != record:
                raise RecompositionError(
                    f"{self.name}: rebuilt point {record['key']} differs from the record "
                    "the campaign driver stored"
                )

    def extras(self, raw) -> Dict[str, float]:
        grid = raw["ledger"]
        predictions = [v.as_dict()["predictions"] for v in grid["validations"]]
        out = {
            "model.optimum_gap": statistics.median(p["lp"]["rel_error"] for p in predictions),
            "model.fluid_rel_error": statistics.median(
                p["fluid"]["rel_error"] for p in predictions
            ),
            # Lease records carry clock readings, so the size is no exact count.
            "experiments.store_bytes": raw["store"].stat().st_size,
        }
        # The model solves, timed directly on each point's constraint system.
        for point in grid["points"]:
            topology, paths = point.config.build_scenario()
            system = build_constraints(topology, paths)
            family = fluid_algorithm(point.params["congestion_control"])
            for name, seconds in probes.model_seconds(system, family).items():
                out[name] = out.get(name, 0.0) + seconds
        return out


class CampaignCold(_Campaign):
    """``repro campaign`` from a shell: a cold run, then a resume of the finished store."""

    name = "campaign_cold"
    warm_up = False

    def spec(self, **axes):
        return paper_cc_rate_campaign(duration=1.5 * self.factor, **axes)

    def sizes(self) -> dict:
        return {
            "grid": "paper_cc_rate", "points": self.spec().size, "duration_s": 1.5 * self.factor,
        }

    def cli(self, store: pathlib.Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "campaign", "paper_cc_rate",
                "--store", str(store), "--duration", repr(1.5 * self.factor),
                "--max-workers", "1", "--no-plot", "--json",
            ],
            env=child_env(),
            capture_output=True,
            text=True,
        )

    def run_round(self):
        store = self.fresh_store("cli")
        return {"store": store, "cold": self.cli(store), "resume": self.cli(store)}

    def run_traced(self, tracer: Tracer):
        store = self.fresh_store("cli")
        with tracer.span("user"):
            with tracer.span("cli.cold"):
                cold = self.cli(store)
            with tracer.span("cli.resume"):
                resume = self.cli(store)
        grid = self.traced_grid(tracer)
        self.check_recomposed(grid["records"], ResultStore(store).load())
        return {"store": store, "cold": cold, "resume": resume, "ledger": grid}

    def inspect_user(self, raw) -> List[Op]:
        points = self.spec().size
        ops = []
        for label, executed in (("cold", points), ("resume", 0)):
            process = raw[label]
            problems = []
            summary = None
            if process.returncode != 0:
                problems.append(f"exit code {process.returncode}: {process.stderr[-300:]}")
            else:
                summary = json.loads(process.stdout)["campaign"]
                summary.pop("store")
                if summary["executed"] != executed or summary["errors"]:
                    problems.append(f"executed {summary['executed']}, expected {executed}")
            ops.append(Op(f"cli-{label}", summary, problems))
        return ops + self.point_ops(points, ResultStore(raw["store"]).iter_records())


class CampaignFabric(_Campaign):
    """The second campaign driver: leases, retries, a resume pass and a merge."""

    name = "campaign_fabric"

    def spec(self, **axes):
        return multiflow_fairness_campaign(duration=0.5 * self.factor, **axes)

    def sizes(self) -> dict:
        return {
            "grid": "multiflow_fairness", "points": self.spec().size,
            "duration_s": 0.5 * self.factor, "chaos_error_points": [0, 2],
            "poll_interval_s": 0.005,
        }

    def fabric(self, store: pathlib.Path, worker: str, chaos: Optional[ChaosSpec]):
        return run_campaign_fabric(
            self.spec(),
            store,
            # The watchdog's default 50 ms poll makes each point wait up to one
            # tick for its result to be seen; whether ten points hit or miss
            # their ticks moved the round by a third.  Poll finely instead.
            fabric=FabricConfig(
                worker_id=worker, lease_ttl=60.0, backoff_base=0.0, poll_interval=0.005
            ),
            chaos=chaos,
            max_workers=1,
        )

    def run_round(self, tracer=OFF):
        store = self.fresh_store("fabric")
        merged = self.fresh_store("merged")
        with tracer.span("experiments.fabric"):
            first = self.fabric(store, "ledger-1", ChaosSpec(error_points=(0, 2)))
        with tracer.span("experiments.fabric_resume"):
            second = self.fabric(store, "ledger-2", None)
        with tracer.span("experiments.merge"):
            report = merge_stores([store], merged)
        return {"store": store, "merged": merged, "first": first, "second": second, "merge": report}

    def run_traced(self, tracer: Tracer):
        with tracer.span("user"):
            raw = self.run_round(tracer)
        raw["ledger"] = self.traced_grid(tracer)
        self.check_recomposed(raw["ledger"]["records"], ResultStore(raw["merged"]).load())
        records = ResultStore(raw["store"]).iter_records()
        tracer.count(
            "experiments.lease_records", sum(r.get("record_type") == "lease" for r in records)
        )
        tracer.count("experiments.points_retried", sum("attempts" in r for r in records))
        return raw

    def inspect_user(self, raw) -> List[Op]:
        points = self.spec().size
        first, second, merge = raw["first"], raw["second"], raw["merge"]
        # Every point once, plus one retry for each of the two chaos-faulted points.
        clean = first.executed == points + 2 and not first.deferred and not first.error_records
        ops = [
            Op(
                "fabric-run",
                {"executed": first.executed, "deferred": first.deferred},
                [] if clean
                else [f"executed {first.executed} with {len(first.error_records)} errors"],
            ),
            Op(
                "fabric-resume",
                {"executed": second.executed, "skipped": second.skipped},
                [] if second.executed == 0 and second.skipped == points
                else [f"resume executed {second.executed}"],
            ),
            Op(
                "fabric-merge",
                {"keys": merge.keys, "completed": merge.completed},
                [] if merge.keys == merge.completed == points
                else [f"merge kept {merge.keys} keys, {merge.completed} completed"],
            ),
        ]
        return ops + self.point_ops(points, ResultStore(raw["store"]).iter_records())


# ------------------------------------------------------------------ flowlevel_scale
def single_link_topology() -> Topology:
    topology = Topology(name="flowlevel-link")
    topology.add_host("a")
    topology.add_host("b")
    topology.add_link("a", "b", capacity_mbps=1000.0, delay=0.001)
    return topology


def birth_death_flows(seed: int, flows: int) -> List[FlowDescriptor]:
    """Pareto-sized flows, Poisson arrivals, ~0.8 utilisation of one 1 Gbps link."""
    rng = random.Random(seed)
    clock = 0.0
    descriptors = []
    for index in range(flows):
        clock += rng.expovariate(100.0)
        descriptors.append(
            FlowDescriptor(
                name=f"f{index}",
                routes=(("a", "b"),),
                start=clock,
                size_bytes=max(1, int(1_000_000 * rng.paretovariate(1.5) / 3.0)),
            )
        )
    return descriptors


class FlowlevelScale(Workload):
    """No packet, kernel or validation code runs: flowsim, workload and FCT only."""

    name = "flowlevel_scale"
    layer_probes = (probes.allocator_probes,)

    def prepare(self, seed: int) -> None:
        scale = self.factor
        self.birth_death = birth_death_flows(seed, int(25_000 * scale))
        _, paths = paper_scenario()
        self.heavy_tailed = heavy_tailed_workload(paths, flows=int(5_000 * scale), seed=seed)
        self.page_load = web_page_load(
            sessions=max(int(200 * scale), 1), duration=60.0, seed=seed, backend="flowlevel"
        )
        _, page_paths = self.page_load.build_scenario()
        self.page_plan = self.page_load.spec.compile(len(list(page_paths)))
        self.conferencing = conferencing_load(
            sessions=max(int(250 * scale), 1), duration=60.0, seed=seed, backend="flowlevel"
        ).with_overrides(duration=180.0)

    def sizes(self) -> dict:
        return {
            "birth_death_flows": len(self.birth_death),
            "heavy_tailed_flows": len(self.heavy_tailed),
            "page_load_transfers": self.page_plan.total_transfers,
            "conferencing_sessions": self.conferencing.spec.sessions,
        }

    def run_round(self):
        raw = self.population_runs(OFF)
        raw["conferencing"] = run_workload(self.conferencing).summary()
        return raw

    def run_traced(self, tracer: Tracer):
        with tracer.span("round"):
            raw = self.population_runs(tracer)
            # ``run_workload`` rebuilt: compile the spec, lower the plan, report FCTs.
            config = self.conferencing
            with tracer.span("workload.compile"):
                plan = config.spec.compile(2)
            raw["conferencing"] = {
                "name": config.name, "backend": "flowlevel", "transport": None,
                "duration": config.duration, "seed": plan.seed,
                "sessions": len(plan.sessions), "plan_signature": plan.signature(),
                **self.plan_run(tracer, config, plan, config.duration),
            }
        return raw

    def population_runs(self, tracer) -> dict:
        """The three sub-runs whose inputs were generated up front."""
        return {
            "birth-death": self.flow_run(
                tracer, single_link_topology(), self.birth_death, 10_000.0
            ),
            "heavy-tailed": self.flow_run(tracer, paper_scenario()[0], self.heavy_tailed, 3_600.0),
            "page-load": self.plan_run(tracer, self.page_load, self.page_plan, 300.0),
        }

    def flow_run(self, tracer, topology, descriptors, horizon: float) -> dict:
        sim = FlowLevelSim(topology)
        with tracer.span("flowsim.add_flows"):
            sim.add_flows(descriptors)
        with tracer.span("flowsim.run"):
            result = sim.run(horizon)
        tracer.count("flowsim.transitions", result.transitions)
        tracer.count("flowsim.completions", len(result.completions))
        tracer.count("flowsim.max_concurrent", result.max_concurrent)
        return {"offered": len(descriptors), **result.summary()}

    def plan_run(self, tracer, config, plan, horizon: float) -> dict:
        """A compiled plan lowered onto the fluid engine, as ``run_workload`` does."""
        with tracer.span("topologies.build"):
            topology, paths = config.build_scenario()
        sim = FlowLevelSim(topology, allocator=config.flow_allocator)
        run = FlowLevelWorkloadRun(sim, plan, list(paths))
        with tracer.span("workload.install"):
            run.install()
        with tracer.span("workload.run"):
            outcome = sim.run(horizon)
        with tracer.span("measure.fct"):
            fct = FctReport.from_records(run.records, offered=plan.total_transfers)
        tracer.count("flowsim.transitions", outcome.transitions)
        tracer.count("workload.transfers", plan.total_transfers)
        tracer.count("workload.completed", fct.completed)
        return {"events_processed": outcome.transitions, "fct": fct.as_dict()}

    def inspect(self, raw) -> List[Op]:
        ops = []
        for name in ("birth-death", "heavy-tailed"):
            run = raw[name]
            problems = []
            if run["transitions"] != 2 * run["offered"] or run["completed"] != run["offered"]:
                problems.append(
                    f"{run['transitions']} transitions, {run['completed']} completions "
                    f"for {run['offered']} flows"
                )
            ops.append(Op(name, run, problems))
        for name in ("page-load", "conferencing"):
            fct = raw[name]["fct"]
            problems = []
            if fct["completed"] < 0.95 * fct["offered"]:
                problems.append(f"only {fct['completed']} of {fct['offered']} transfers completed")
            ops.append(Op(name, raw[name], problems))
        return ops


WORKLOADS = {
    cls.name: cls
    for cls in (PaperMptcp, TcpBypass, ContendedMix, CampaignCold, CampaignFabric, FlowlevelScale)
}
