#!/usr/bin/env python3
"""The repo's benchmark: six workloads, four end-to-end numbers, per-layer attribution.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--scale full|tiny] [--json OUT]
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --selfcheck [--json DIR]

With ``--workload`` one workload is measured in this process and the last
line of standard output is the result object the benchmark contract asks
for.  Without it every workload runs, one child process at a time, exactly
as the driver would run them -- the four ``BENCHMARK.json`` declares, which
the driver gates, and the two it has no time for.  ``--trace 1`` is the
separate traced run that yields the per-layer metrics.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

# Set before numpy loads, and inherited by every child.  OpenBLAS otherwise
# starts one spinning thread per core for the model solves' tiny matrices: on
# the 2-core box that made a campaign_fabric round 8 % slower, cost 40 % more
# CPU than wall, and put three runnable threads on two cores, so the rounds
# measured the scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1, help="feeds input generation only")
    parser.add_argument("--seconds", type=float, default=None, help="time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--json", metavar="OUT", help="write the full result document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--selfcheck", action="store_true",
        help="two untraced sets back to back; fail if they disagree beyond the bounds",
    )
    return parser.parse_args(argv)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def print_metrics(name: str, run: dict) -> None:
    print(f"== {name}: {run['rounds']} rounds, {run['attempted']} operations, "
          f"{run['failed']} failed, sim_digest {run['sim_digest']}")
    for failure in run["failures"]:
        print(f"   FAILED {failure}")
    for metric, entry in run["metrics"].items():
        print(f"   {metric:<42} {entry['value']:>14.6g} {entry['unit']:<6} n={entry['n']}")


def run_one(args, benchmark: dict) -> dict:
    """Measure one workload in this process; returns the result document."""
    from ledger import measure, workloads

    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    factor = 1.0 if args.scale == "full" else 0.2
    # Built first: loading the kernel here compiles it if the checkout is
    # fresh, so no timing below ever includes the build.
    header = measure.header(args)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=make_scratch_root()))
    try:
        workload = workloads.WORKLOADS[args.workload](factor, scratch)
        run = measure.measure(workload, args, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        drop_scratch_root()
    return {"header": header, "workloads": {args.workload: run}}


def make_scratch_root() -> pathlib.Path:
    """Campaign stores live inside the checkout, in a directory git ignores."""
    root = ROOT / ".perf_tmp"
    root.mkdir(exist_ok=True)
    return root


def drop_scratch_root() -> None:
    try:
        (ROOT / ".perf_tmp").rmdir()
    except OSError:
        pass  # another run is still using it


def contract_line(run: dict, expected: list) -> str:
    """The driver's result object: every declared metric of this mode, by name.

    A per-layer metric whose layer did no work in this workload is absent
    from the result document and reads 0 here, because the contract wants
    every name on every workload.
    """
    metrics = {}
    for spec in expected:
        entry = run["metrics"].get(spec["name"])
        metrics[spec["name"]] = {
            "value": entry["value"] if entry else 0,
            "unit": spec["unit"],
        }
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def run_set(args, names) -> dict:
    """Every workload, each in a fresh child of this script, merged into one document."""
    merged = None
    with tempfile.TemporaryDirectory(dir=make_scratch_root()) as tmp:
        for name in names:
            out = pathlib.Path(tmp) / f"{name}.json"
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--json", str(out),
            ]
            child = subprocess.run(command, capture_output=True, text=True)
            if child.returncode != 0:
                sys.stderr.write(child.stderr)
                raise SystemExit(f"workload {name} exited with {child.returncode}")
            # The child's table, without its machine-readable last line.
            print("\n".join(child.stdout.splitlines()[:-1]))
            document = json.loads(out.read_text(encoding="utf-8"))
            if merged is None:
                merged = document
            else:
                merged["workloads"].update(document["workloads"])
    drop_scratch_root()
    return merged


def write_json(path: str, document: dict) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: no src/repro beside it, nothing to measure", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    from ledger import compare

    if args.compare:
        documents = [json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in args.compare]
        try:
            rows = compare.compare(*documents, benchmark["end_to_end"])
        except compare.NotComparable as error:
            print(f"refusing to compare: {error}", file=sys.stderr)
            return 2
        print(compare.render(rows))
        return 1 if compare.regressed(rows) else 0

    sys.path.insert(0, str(ROOT / "src"))
    from ledger.workloads import WORKLOADS

    if args.selfcheck:
        args.trace = 0
        first = run_set(args, WORKLOADS)
        second = run_set(args, WORKLOADS)
        if args.json:
            write_json(str(pathlib.Path(args.json) / "set1.json"), first)
            write_json(str(pathlib.Path(args.json) / "set2.json"), second)
        rows = compare.compare(first, second, benchmark["end_to_end"])
        print(compare.render(rows, quartile_columns=True))
        problems = compare.regressed(rows)
        problems += [f"{r['workload']} x sim_digest" for r in rows if not r["same_simulation"]]
        problems += [
            f"{name} x fail_share" for doc in (first, second)
            for name, run in doc["workloads"].items() if run["failed"]
        ]
        for problem in problems:
            print(f"selfcheck: sets disagree on {problem}")
        return 1 if problems else 0

    if args.workload is None:
        document = run_set(args, WORKLOADS)
        if args.json:
            write_json(args.json, document)
        return 0 if all(run["correct"] for run in document["workloads"].values()) else 1

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    document = run_one(args, benchmark)
    run = document["workloads"][args.workload]
    if args.json:
        write_json(args.json, document)
    print_metrics(args.workload, run)
    print(contract_line(run, benchmark["per_layer" if args.trace else "end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
