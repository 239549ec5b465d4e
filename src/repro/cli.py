"""Command-line interface: ``mptcp-overlap``.

Sub-commands:

* ``lp``       -- print the Fig. 1c constraint system, its LP optimum and the
                  greedy / max-min / proportionally-fair reference allocations.
* ``figure``   -- regenerate one panel of Fig. 2 and plot it in the terminal.
* ``compare``  -- run the congestion-control comparison (RES-CC) and print a
                  summary table.
* ``sweep``    -- run the OLIA default-path sweep (RES-OLIA-DEFAULT).
* ``fairness`` -- run a named multi-flow competition scenario and print the
                  per-flow throughput plus fairness report.
* ``dynamics`` -- run a named network-dynamics scenario (link flap, capacity
                  step, handover) and report failover gap, re-convergence
                  time and capacity-tracking error.
* ``campaign`` -- run a named parameter-sweep grid with model-vs-simulation
                  validation, resuming completed points from a JSONL store.
                  Fabric flags (``--worker-id``, ``--lease-ttl``,
                  ``--point-timeout``, ``--single-pass``, ``--chaos``) run the
                  grid under the fault-tolerant fabric: lease-based claiming,
                  watchdog timeouts, bounded backoff retry and quarantine.
                  ``campaign merge STORE... --into OUT`` merges/compacts
                  worker shard stores into one store with no duplicate keys.
* ``workload`` -- run a named workload scenario (conferencing load, web page
                  load) on either backend and print the flow-completion-time
                  report; ``--compare`` also runs the other fidelity and
                  reports the cross-backend FCT error.
* ``info``     -- print the active simulation kernel (compiled vs python,
                  and why, handler by handler), the package version and the
                  interpreter/platform.

All ``--json`` output is NaN-safe: non-finite metrics are emitted as
``null`` and serialisation runs with ``allow_nan=False`` so a regression
fails loudly instead of printing invalid JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ._version import __version__
from .errors import ReproError

# Nothing else is imported here: a sub-command's argument set-up and handler
# import what that command runs, so ``--version``, ``--help``, ``info`` and
# ``lp`` never load the simulator and every cold call loads only its own layers.


def _dumps(payload: object) -> str:
    """NaN-safe JSON for every machine-readable output of the CLI.

    Non-finite floats become ``null`` first; ``allow_nan=False`` then
    guarantees that any non-finite value slipping past the sanitiser raises
    instead of emitting a bare ``NaN`` token (invalid JSON).
    """
    from .measure.report import sanitize_metrics

    return json.dumps(sanitize_metrics(payload), indent=2, allow_nan=False)


def _cell(value: Optional[float], spec: str = ".4f") -> str:
    """A table cell: ``-`` where the run has no such metric."""
    return "-" if value is None else format(value, spec)


def _scenario_arguments(
    command: argparse.ArgumentParser, registry: dict, *, metavar: str = "scenario", also: str = ""
) -> None:
    """What :func:`_resolve_scenario` reads -- the optional positional name of
    one ``registry`` entry and ``--list`` -- plus ``--json``."""
    command.add_argument(
        "scenario",
        nargs="?",
        metavar=metavar,
        help=f"one of: {', '.join(sorted(registry))}{also}",
    )
    command.add_argument(
        "--list", action="store_true", help=f"list the available {metavar}s and exit"
    )
    command.add_argument("--json", action="store_true")


def _add_cc(command: argparse.ArgumentParser, default: str, help: Optional[str] = None) -> None:
    from .core.coupled import MULTIPATH_ALGORITHMS

    command.add_argument("--cc", default=default, choices=sorted(MULTIPATH_ALGORITHMS), help=help)


def _add_backend(command: argparse.ArgumentParser, default: Optional[str], help: str) -> None:
    from .units import BACKENDS

    command.add_argument("--backend", default=default, choices=BACKENDS, help=help)


def _arguments_lp(lp: argparse.ArgumentParser) -> None:
    lp.add_argument("--variant", default="as_stated", choices=("as_stated", "as_solution"))
    lp.add_argument("--json", action="store_true", help="emit JSON instead of a table")


def _arguments_figure(figure: argparse.ArgumentParser) -> None:
    figure.add_argument("panel", choices=("2a", "2b", "2c", "custom"))
    _add_cc(figure, "cubic")
    figure.add_argument("--duration", type=float, default=4.0)
    figure.add_argument("--variant", default="as_stated", choices=("as_stated", "as_solution"))


def _arguments_compare(compare: argparse.ArgumentParser) -> None:
    from .core.coupled import PAPER_ALGORITHMS

    compare.add_argument("--algorithms", nargs="+", default=list(PAPER_ALGORITHMS))
    compare.add_argument("--duration", type=float, default=4.0)
    compare.add_argument("--json", action="store_true")


def _arguments_sweep(sweep: argparse.ArgumentParser) -> None:
    _add_cc(sweep, "olia")
    sweep.add_argument("--duration", type=float, default=4.0)
    sweep.add_argument("--json", action="store_true")


def _arguments_fairness(fairness: argparse.ArgumentParser) -> None:
    from .experiments.scenarios import COMPETITION_SCENARIOS

    _scenario_arguments(fairness, COMPETITION_SCENARIOS)
    _add_cc(fairness, "lia", "coupled congestion control of the MPTCP connection(s)")
    fairness.add_argument("--duration", type=float, default=4.0)
    fairness.add_argument("--bottleneck-mbps", type=float, default=50.0)
    _add_backend(
        fairness,
        "packet",
        "simulation fidelity: per-packet ground truth or the flow-level fluid backend",
    )


def _arguments_dynamics(dynamics: argparse.ArgumentParser) -> None:
    from .experiments.scenarios import DYNAMICS_SCENARIOS

    _scenario_arguments(dynamics, DYNAMICS_SCENARIOS)
    _add_cc(dynamics, "lia", "congestion control of the MPTCP connection")
    dynamics.add_argument("--duration", type=float, default=5.0)
    dynamics.add_argument("--no-plot", action="store_true", help="skip the terminal plot")


def _arguments_campaign(campaign: argparse.ArgumentParser) -> None:
    from .experiments.campaign import CAMPAIGN_GRIDS

    _scenario_arguments(
        campaign,
        CAMPAIGN_GRIDS,
        metavar="grid",
        also="; or 'merge' to merge/compact shard stores",
    )
    campaign.add_argument(
        "sources",
        nargs="*",
        metavar="store",
        help="shard stores to combine (campaign merge only)",
    )
    campaign.add_argument(
        "--into",
        default="campaign_merged.jsonl",
        help="output path of 'campaign merge' (default: campaign_merged.jsonl)",
    )
    campaign.add_argument(
        "--store",
        default=None,
        help="JSONL result store path (default: campaign_<grid>.jsonl)",
    )
    campaign.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="skip points already completed in the store (default: on)",
    )
    campaign.add_argument("--duration", type=float, default=None, help="per-point duration")
    _add_backend(
        campaign,
        None,
        "run every grid point at this fidelity (default: the grid's own); flowlevel "
        "points also run their packet twin and record the cross-fidelity error",
    )
    campaign.add_argument("--chunk-size", type=int, default=4)
    campaign.add_argument("--max-workers", type=int, default=None)
    campaign.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="failed attempts before a point quarantines (default: 3)",
    )
    campaign.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity for lease records (enables the fabric)",
    )
    campaign.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a point lease stays live without renewal (default: 30)",
    )
    campaign.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="per-point wall-clock budget; hung points are killed and "
        "recorded as status 'timeout' (enables the fabric)",
    )
    campaign.add_argument(
        "--single-pass",
        action="store_true",
        help="one claim/execute round, leaving retries to the next "
        "invocation or worker (enables the fabric)",
    )
    campaign.add_argument(
        "--chaos",
        action="append",
        default=[],
        metavar="KIND=INDEX",
        help="inject a deterministic fault (crash/hang/torn/error) at a grid "
        "point index; repeatable (enables the fabric)",
    )
    campaign.add_argument(
        "--chaos-attempts",
        type=int,
        default=1,
        help="how many failed attempts each chaos fault keeps firing for",
    )
    campaign.add_argument(
        "--chaos-hang-duration",
        type=float,
        default=30.0,
        help="sleep length of injected hangs (must exceed --point-timeout)",
    )
    campaign.add_argument("--no-plot", action="store_true", help="skip the error plot")


def _arguments_workload(workload: argparse.ArgumentParser) -> None:
    from .workload.scenarios import WORKLOAD_SCENARIOS

    _scenario_arguments(workload, WORKLOAD_SCENARIOS)
    _add_backend(
        workload, "flowlevel", "simulation fidelity (default: the fast flow-level backend)"
    )
    workload.add_argument(
        "--duration", type=float, default=None, help="run length (scenario default if omitted)"
    )
    workload.add_argument(
        "--sessions", type=int, default=None, help="session count (scenario default if omitted)"
    )
    workload.add_argument(
        "--seed", type=int, default=None, help="workload seed (scenario default if omitted)"
    )
    workload.add_argument(
        "--compare",
        action="store_true",
        help="also run the other fidelity and report the cross-backend FCT error",
    )


def _arguments_info(info: argparse.ArgumentParser) -> None:
    info.add_argument("--json", action="store_true")


def _resolve_scenario(args: argparse.Namespace, registry: dict, kind: str) -> Optional[str]:
    """Scenario-name handling of every :func:`_scenario_command`.

    Returns the scenario name, or None when the command should exit instead
    (after ``--list`` or an error message); ``args.exit_code`` carries the
    exit status for that case.
    """
    names = sorted(registry)
    if args.list:
        print("\n".join(names))
        args.exit_code = 0
        return None
    if args.scenario is None:
        print(
            f"error: a scenario name is required; choose from: {', '.join(names)}",
            file=sys.stderr,
        )
        args.exit_code = 2
        return None
    if args.scenario not in registry:
        print(
            f"error: unknown {kind} scenario {args.scenario!r}; "
            f"choose from: {', '.join(names)}",
            file=sys.stderr,
        )
        args.exit_code = 2
        return None
    return args.scenario


def _command_lp(args: argparse.Namespace) -> int:
    from .measure.report import format_table
    from .model.bottleneck import build_constraints
    from .model.greedy import greedy_fill
    from .model.lp import max_total_throughput, proportional_fair_rates
    from .model.maxmin import max_min_fair_rates
    from .topologies.paper import PAPER_DEFAULT_PATH_INDEX, paper_scenario

    topology, paths = paper_scenario(args.variant)
    system = build_constraints(topology, paths, include_private_links=False)
    optimum = max_total_throughput(system)
    greedy = greedy_fill(system, order=[PAPER_DEFAULT_PATH_INDEX, 0, 2])
    maxmin = max_min_fair_rates(system)
    fair = proportional_fair_rates(system)

    if args.json:
        print(
            _dumps(
                {
                    "constraints": [str(c) for c in system.constraints],
                    "optimum": optimum.as_dict(),
                    "greedy_from_default": {"rates": greedy.rates, "total": greedy.total},
                    "max_min": {"rates": maxmin.rates, "total": maxmin.total},
                    "proportional_fair": fair.as_dict(),
                }
            )
        )
        return 0

    print("Throughput constraints (Fig. 1c):")
    print(system.pretty())
    print()
    rows = [
        ["LP optimum (max total)", *[f"{r:.1f}" for r in optimum.rates], f"{optimum.total:.1f}"],
        ["Greedy from default path", *[f"{r:.1f}" for r in greedy.rates], f"{greedy.total:.1f}"],
        ["Max-min fair", *[f"{r:.1f}" for r in maxmin.rates], f"{maxmin.total:.1f}"],
        ["Proportional fair", *[f"{r:.1f}" for r in fair.rates], f"{fair.total:.1f}"],
    ]
    print(format_table(["allocation", "x1", "x2", "x3", "total"], rows))
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from .experiments.ascii_plot import plot_figure
    from .experiments.figures import fig2a_cubic, fig2b_olia, fig2c_fine, figure_with_algorithm

    if args.panel == "2a":
        data = fig2a_cubic(duration=args.duration, variant=args.variant)
    elif args.panel == "2b":
        data = fig2b_olia(duration=args.duration, variant=args.variant)
    elif args.panel == "2c":
        data = fig2c_fine(variant=args.variant)
    else:
        data = figure_with_algorithm(args.cc, duration=args.duration, variant=args.variant)
    print(plot_figure(data.per_path_series, data.total_series, title=data.description))
    print()
    print(_dumps(data.summary()))
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from .experiments.scenarios import cc_comparison, summarize_results
    from .measure.report import format_table

    results = cc_comparison(args.algorithms, duration=args.duration)
    summaries = summarize_results(results)
    if args.json:
        print(_dumps(summaries))
        return 0
    rows = [
        [
            s["key"],
            s["optimum_mbps"],
            s["achieved_mean_mbps"],
            s["utilization_of_optimum"],
            "yes" if s["reached_optimum"] else "no",
            s["stability_cv"],
        ]
        for s in summaries
    ]
    print(
        format_table(
            ["congestion control", "optimum", "achieved", "utilization", "reached", "stability cv"],
            rows,
        )
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from .experiments.scenarios import olia_default_path_sweep, summarize_results
    from .measure.report import format_table

    results = olia_default_path_sweep(duration=args.duration, algorithm=args.cc)
    summaries = summarize_results(results)
    if args.json:
        print(_dumps(summaries))
        return 0
    rows = [
        [
            f"Path {int(s['key']) + 1} default",
            s["achieved_mean_mbps"],
            s["utilization_of_optimum"],
            "yes" if s["reached_optimum"] else "no",
        ]
        for s in summaries
    ]
    print(format_table(["default path", "achieved", "utilization", "reached optimum"], rows))
    return 0


def _command_fairness(args: argparse.Namespace) -> int:
    from .experiments.multiflow import run_multiflow
    from .experiments.scenarios import COMPETITION_SCENARIOS, competition_config
    from .measure.report import format_table

    scenario = _resolve_scenario(args, COMPETITION_SCENARIOS, "fairness")
    if scenario is None:
        return args.exit_code
    config = competition_config(
        scenario, args.cc, duration=args.duration, bottleneck_mbps=args.bottleneck_mbps
    )
    result = run_multiflow(config.with_overrides(backend=args.backend))

    if args.json:
        print(_dumps(result.summary()))
        return 0

    fairness = result.fairness
    rows = [
        [
            flow.name,
            flow.kind,
            f"{flow.mean_mbps:.2f}",
            f"{fairness.shares.get(flow.name, 0.0):.3f}",
            _cell(fairness.settle_times.get(flow.name), ".1f"),
            flow.retransmissions,
        ]
        for flow in result.flows
    ]
    print(format_table(["flow", "kind", "mean mbps", "share", "settle s", "retx"], rows))
    print()
    print(f"Jain's fairness index: {fairness.jain_index:.4f}")
    if fairness.mptcp_tcp_ratio is not None:
        print(f"MPTCP / TCP bottleneck-share ratio: {fairness.mptcp_tcp_ratio:.3f}")
    if fairness.bottleneck_utilization is not None:
        print(
            f"Bottleneck utilisation: {fairness.bottleneck_utilization:.3f} "
            f"of {fairness.bottleneck_capacity_mbps:g} Mbps"
        )
    return 0


def _command_dynamics(args: argparse.Namespace) -> int:
    from .experiments.ascii_plot import plot_figure
    from .experiments.harness import run_experiment
    from .experiments.scenarios import DYNAMICS_SCENARIOS
    from .measure.report import format_table

    scenario = _resolve_scenario(args, DYNAMICS_SCENARIOS, "dynamics")
    if scenario is None:
        return args.exit_code
    config = DYNAMICS_SCENARIOS[scenario](
        congestion_control=args.cc, duration=args.duration
    )
    result = run_experiment(config)
    report = result.dynamics

    if args.json:
        print(_dumps(result.summary()))
        return 0

    spec = config.dynamics
    print(f"{scenario}: {spec.description}")
    if not args.no_plot:
        print()
        print(
            plot_figure(
                result.per_path_series,
                result.total_series,
                title=f"{scenario} ({args.cc})",
            )
        )
    print()
    rows = [
        [
            f"{epoch.epoch:.2f}",
            _cell(epoch.failover_gap_s, ".2f"),
            _cell(epoch.reconvergence_s, ".2f"),
        ]
        for epoch in report.epochs
    ]
    print(format_table(["event at s", "failover gap s", "re-convergence s"], rows))
    if report.tracking_error is not None:
        print(f"\nCapacity-tracking error: {report.tracking_error:.4f}")
    print(f"Retransmissions: {result.stats.retransmissions}, drops: {result.drops}")
    return 0


def _command_campaign_merge(args: argparse.Namespace) -> int:
    """``campaign merge STORE... --into OUT``: combine worker shard stores."""
    from .experiments.fabric import merge_stores

    if not args.sources:
        print(
            "error: campaign merge needs at least one source store",
            file=sys.stderr,
        )
        return 2
    report = merge_stores(args.sources, args.into)
    if args.json:
        print(_dumps(report.as_dict()))
        return 0
    print(
        f"merged {len(report.sources)} store(s) into {report.path}: "
        f"{report.keys} keys ({report.completed} completed, "
        f"{report.quarantined} quarantined, {report.retryable} retryable), "
        f"{report.dropped_leases} lease records dropped"
    )
    return 0


def _command_campaign(args: argparse.Namespace) -> int:
    if args.scenario == "merge":
        return _command_campaign_merge(args)
    from .experiments.campaign import CAMPAIGN_GRIDS
    from .experiments.chaos import ChaosSpec
    from .experiments.fabric import FabricConfig, drive_campaign
    from .measure.report import format_table

    grid = _resolve_scenario(args, CAMPAIGN_GRIDS, "campaign")
    if grid is None:
        return args.exit_code
    kwargs = {} if args.duration is None else {"duration": args.duration}
    if args.backend is not None:
        # Left out, the grid's own fidelity stands: workload_fct is
        # flow-level by default, the other grids packet-level.
        kwargs["backend"] = args.backend
    spec = CAMPAIGN_GRIDS[grid](**kwargs)
    store_path = args.store or f"campaign_{grid}.jsonl"

    def progress(done: int, total: int) -> None:
        if total:
            print(f"campaign {grid}: {done}/{total} pending points", file=sys.stderr)

    chaos = None
    if args.chaos:
        chaos = ChaosSpec.parse(
            args.chaos,
            fire_attempts=args.chaos_attempts,
            hang_duration=args.chaos_hang_duration,
        )
    fabric = None
    if (
        args.worker_id is not None
        or args.point_timeout is not None
        or args.single_pass
        or args.chaos
    ):
        fabric = FabricConfig(
            worker_id=args.worker_id or "",
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            point_timeout=args.point_timeout,
            max_rounds=1 if args.single_pass else None,
        )
    result = drive_campaign(
        spec,
        store_path,
        fabric=fabric,
        chaos=chaos,
        max_attempts=args.max_attempts,
        chunk_size=args.chunk_size,
        max_workers=args.max_workers,
        resume=args.resume,
        progress=progress,
    )
    report = result.validation_report()
    # Partial grids must be visible to automation: retryable failures (retried
    # on the next invocation) and quarantined points exit non-zero.
    exit_code = 1 if result.error_records or result.quarantined_records else 0

    if args.json:
        print(
            _dumps(
                {
                    "campaign": result.summary(),
                    "points": result.records,
                }
            )
        )
        return exit_code

    print(
        f"campaign {grid}: {len(result.points)} points, {result.executed} executed, "
        f"{result.skipped} resumed from {result.store_path}"
    )
    print()
    rows = []
    lp_errors = []
    by_key = {record.get("key"): record for record in result.records}
    for point in result.points:
        # A point can lack a record entirely (left to another live worker by
        # a fabric run); keep the table aligned and show it as pending.
        record = by_key.get(point.key, {"status": "pending"})
        validation = record.get("validation") or {}
        lp = (validation.get("predictions") or {}).get("lp") or {}
        rel_error = lp.get("rel_error")
        if record.get("status") == "ok" and rel_error is not None:
            lp_errors.append(float(rel_error))
        rows.append(
            [
                point.label(),
                record.get("status"),
                validation.get("measured_total"),
                lp.get("total"),
                _cell(rel_error),
                _cell(lp.get("rank_agreement"), ".2f"),
            ]
        )
    print(
        format_table(
            ["point", "status", "measured", "lp optimum", "lp rel err", "rank agr"],
            rows,
        )
    )
    if result.error_records or result.quarantined_records:
        print()
        for record in result.error_records:
            print(f"error: {record.get('params')}: {record.get('error')}", file=sys.stderr)
        for record in result.quarantined_records:
            print(
                f"quarantined after {record.get('attempts')} attempts: "
                f"{record.get('params')}: {record.get('error')}",
                file=sys.stderr,
            )
    print()
    print("model-vs-simulation error summary:")
    summary_rows = [
        [
            stats.model,
            stats.count,
            stats.mean_rel_error,
            stats.median_rel_error,
            stats.p90_rel_error,
            stats.max_rel_error,
            stats.mean_rank_agreement,
        ]
        for stats in report.models.values()
    ]
    print(
        format_table(
            ["model", "points", "mean err", "median err", "p90 err", "max err", "rank agr"],
            summary_rows,
        )
    )
    cross = result.cross_fidelity_report()
    if cross is not None:
        print()
        print(
            "flow-level vs packet-level: "
            f"{cross['points']} points, mean rel err {cross['mean_rel_error']}, "
            f"max rel err {cross['max_rel_error']}, "
            f"rank agreement {cross['mean_rank_agreement']}"
        )
    if not args.no_plot and lp_errors:
        from .experiments.ascii_plot import ascii_chart
        from .measure.sampling import TimeSeries

        print()
        series = TimeSeries(
            times=[float(i + 1) for i in range(len(lp_errors))],
            values=lp_errors,
            label="LP rel error",
            interval=1.0,
        )
        print(
            ascii_chart(
                [series],
                width=min(72, max(len(lp_errors) * 4, 24)),
                height=10,
                title="LP-vs-simulation relative error per grid point (x = point #)",
            )
        )
    return exit_code


def _command_workload(args: argparse.Namespace) -> int:
    from .measure.report import format_table
    from .measure.validation import compare_workload_backends
    from .workload.runner import run_workload
    from .workload.scenarios import WORKLOAD_SCENARIOS

    scenario = _resolve_scenario(args, WORKLOAD_SCENARIOS, "workload")
    if scenario is None:
        return args.exit_code
    kwargs = {"backend": args.backend}
    if args.duration is not None:
        kwargs["duration"] = args.duration
    if args.sessions is not None:
        kwargs["sessions"] = args.sessions
    if args.seed is not None:
        kwargs["seed"] = args.seed
    config = WORKLOAD_SCENARIOS[scenario](**kwargs)
    result = run_workload(config)

    comparison = None
    if args.compare:
        other = "packet" if args.backend == "flowlevel" else "flowlevel"
        twin = run_workload(config.with_overrides(backend=other))
        flowlevel, packet = (result, twin) if args.backend == "flowlevel" else (twin, result)
        comparison = compare_workload_backends(flowlevel, packet)

    if args.json:
        payload = {"workload": result.summary()}
        if comparison is not None:
            payload["cross_fidelity_fct"] = comparison.as_dict()
        print(_dumps(payload))
        return 0

    fct = result.fct
    print(
        f"{scenario} [{result.backend}]: {len(result.plan.sessions)} sessions, "
        f"{fct.completed}/{fct.offered} transfers completed "
        f"({fct.completion_ratio:.1%}), {fct.total_bytes / 1e6:.1f} MB delivered"
    )
    print()
    rows = [
        ["mean", _cell(fct.mean_fct_s)],
        *[[name, _cell(value)] for name, value in fct.percentiles.items()],
    ]
    print(format_table(["FCT", "seconds"], rows))
    if fct.pages:
        print()
        page_rows = [
            ["pages", str(fct.pages)],
            ["mean load", _cell(fct.mean_page_load_s)],
            *[[name, _cell(value)] for name, value in fct.page_load_percentiles.items()],
        ]
        print(format_table(["page load", "value"], page_rows))
    if fct.size_deciles:
        print()
        decile_rows = [
            [
                row["decile"],
                row["flows"],
                row["min_bytes"],
                row["max_bytes"],
                f"{row['mean_fct_s']:.4f}",
                f"{row['p99_fct_s']:.4f}",
            ]
            for row in fct.size_deciles
        ]
        print(
            format_table(
                ["size decile", "flows", "min bytes", "max bytes", "mean fct s", "p99 fct s"],
                decile_rows,
            )
        )
    if comparison is not None:
        print()
        print(
            "flow-level vs packet-level FCT: "
            f"completion agreement {comparison.completion_agreement:.3f}, "
            f"mean rel err {comparison.mean_rel_error}, "
            f"max rel err {comparison.max_rel_error}"
        )
    return 0


def _command_info(args: argparse.Namespace) -> int:
    import platform

    from .kernel import kernel_info

    kernel = kernel_info()
    if args.json:
        print(
            _dumps(
                {
                    "version": __version__,
                    "python": sys.version.split()[0],
                    "platform": platform.platform(),
                    "kernel": kernel,
                }
            )
        )
        return 0

    print(f"mptcp-overlap {__version__}")
    print(f"python:    {sys.version.split()[0]}")
    print(f"platform:  {platform.platform()}")
    print(f"kernel:    {kernel['kernel']} (REPRO_KERNEL mode: {kernel['mode']})")
    if kernel["extension"]:
        print(f"extension: {kernel['extension']}")
    else:
        print(f"extension: not loaded ({kernel['compiled_reason']})")
    print(f"links:     {kernel['link_handlers']} handlers ({kernel['link_handlers_reason']})")
    print(
        f"transport: {kernel['transport_handlers']} handlers "
        f"({kernel['transport_handlers_reason']})"
    )
    print(f"capture:   {kernel['capture_tap']} tap ({kernel['capture_tap_reason']})")
    print(f"counters:  {kernel['counters']} fields ({kernel['counters_reason']})")
    print(
        f"fluid:     {kernel['fluid_integrator']} integrator "
        f"({kernel['fluid_integrator_reason']})"
    )
    return 0


#: Sub-command -> (help line, argument set-up, handler).
_COMMANDS = {
    "lp": ("print the Fig. 1c constraints and reference allocations", _arguments_lp, _command_lp),
    "figure": ("regenerate one panel of Fig. 2", _arguments_figure, _command_figure),
    "compare": ("congestion-control comparison (RES-CC)", _arguments_compare, _command_compare),
    "sweep": ("OLIA default-path sweep (RES-OLIA-DEFAULT)", _arguments_sweep, _command_sweep),
    "fairness": (
        "run a multi-flow competition scenario and report fairness",
        _arguments_fairness,
        _command_fairness,
    ),
    "dynamics": (
        "run a network-dynamics scenario (failover / capacity step / handover)",
        _arguments_dynamics,
        _command_dynamics,
    ),
    "campaign": (
        "run a sharded, resumable parameter-sweep grid with model validation",
        _arguments_campaign,
        _command_campaign,
    ),
    "workload": (
        "run a named workload scenario and report flow completion times",
        _arguments_workload,
        _command_workload,
    ),
    "info": (
        "print the active kernel, version and environment",
        _arguments_info,
        _command_info,
    ),
}


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser, with the arguments of ``command`` alone set up.

    Every sub-command is listed (``--help`` names them all); only the one the
    call asked for pays for its registries.
    """
    parser = argparse.ArgumentParser(
        prog="mptcp-overlap",
        description="Reproduction of 'The Performance of Multi-Path TCP with Overlapping Paths'",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help, add_arguments, _) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help)
        if name == command:
            add_arguments(subparser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command and return its exit code (a process enters through :func:`run`)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first
    # word that is not an option is the sub-command.
    command = next((word for word in argv if not word.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except ReproError as error:  # bad input the library refused: one line, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry (``python -m repro.cli``, the ``repro`` script): :func:`main`, then exit.

    ``gc.freeze()`` leaves shutdown's collections nothing to walk (numpy's and
    scipy's objects: 0.02 s of a cold campaign call) while ``atexit`` hooks,
    buffered writes and the exit code work as ever, which ``os._exit`` would
    not give.  In-process callers use :func:`main`, which freezes nothing.

    A reader that closes the pipe early (``repro info --json | head -c 20``)
    ends the process with exit code 1 and nothing on stderr: stdout is
    pointed at ``os.devnull`` so the interpreter's own last flush cannot fail
    again (the recipe of the :mod:`signal` docs, "Note on SIGPIPE").
    """
    import gc

    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
