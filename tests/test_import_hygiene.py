"""A cold process loads what its command runs.

``import repro.cli`` loads the standard library, ``repro._version`` and
``repro.errors``; package names resolve on first use (``repro._lazy``);
scipy's HiGHS module loads only where an LP is solved, SLSQP's never (the
proportional-fair solve is numpy's), and ``scipy.optimize`` (~0.3 s) never;
networkx (~0.15 s) only where a graph is queried, which no run does.

Each check needs an interpreter that has not imported anything yet, so each
runs a short script in a fresh subprocess and reads what it prints.
"""

import gc
import importlib
import importlib.util
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import types

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: The layer packages whose ``__init__`` is a lazy table (with ``repro`` itself).
LAYERS = (
    "core", "experiments", "flowsim", "measure", "model", "netsim", "tcp", "topologies", "workload"
)
THIRD_PARTY = ("numpy", "scipy", "networkx")
#: What ``info`` and ``lp`` must never load: the simulator proper.
SIMULATOR = ("repro.netsim.link", "repro.tcp", "repro.core")

CAMPAIGN = ["campaign", "paper_cc_rate", "--duration", "0.3", "--no-plot"]


def _run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(script: str, *prefixes: str) -> list:
    """Run ``script``; the modules its interpreter then holds at or under ``prefixes``."""
    report = (
        "\nimport sys\n"
        f"print('LOADED', *sorted(m for m in sys.modules if any("
        f"m == p or m.startswith(p + '.') for p in {prefixes!r})))"
    )
    return _run_python("-c", script + report).splitlines()[-1].split()[1:]


def _cli(*argv: str) -> str:
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0"


#: The module of scipy's HiGHS bindings, what an LP solve calls.
HIGHS = "scipy.optimize._highspy._core"
#: The module of scipy's SLSQP: no solve loads it.
SLSQP = "scipy.optimize._slsqplib"
#: What ``import scipy.optimize`` loads and no solve needs.
SCIPY_PACKAGES = ("scipy.optimize", "scipy.linalg")

#: What only a point that executes needs: the simulator, the solvers, the pool,
#: and the multi-flow build step a single connection runs through.
EXECUTION = (
    "repro.netsim.network", "repro.netsim.link", "repro.tcp", "repro.core.connection",
    "repro.experiments.multiflow", "repro.kernel._ckernel", "multiprocessing", "scipy",
)


@pytest.fixture(scope="module")
def cold_campaign(tmp_path_factory):
    """``(argv, modules)`` of one cold ``campaign paper_cc_rate`` on two workers:
    the call that filled the store, and what its interpreter then held."""
    store = tmp_path_factory.mktemp("campaign") / "store.jsonl"
    argv = [*CAMPAIGN, "--max-workers", "2", "--store", str(store)]
    return argv, _loaded(_cli(*argv), *EXECUTION)


class TestImportingLoadsNoLayer:
    @pytest.mark.parametrize(
        "module, held",
        [
            ("repro.cli", ["repro", "repro._lazy", "repro._version", "repro.cli", "repro.errors"]),
            ("repro.errors", ["repro", "repro._lazy", "repro.errors"]),
        ],
    )
    def test_no_third_party_and_no_layer(self, module, held):
        assert _loaded(f"import {module}", "repro", *THIRD_PARTY) == held

    def test_a_public_name_still_resolves_to_the_harness_function(self):
        script = (
            "from repro import paper_experiment\n"
            "from repro.experiments.harness import paper_experiment as defined\n"
            "assert paper_experiment is defined"
        )
        assert "repro.experiments.harness" in _loaded(script, "repro.experiments")

    @pytest.mark.parametrize("argv", [("info",), ("lp", "--json")])
    def test_info_and_lp_load_no_simulator(self, argv):
        assert _loaded(_cli(*argv), *SIMULATOR) == []

    def test_version_and_help_load_nothing(self):
        script = (
            "from repro.cli import main\n"
            "for flag in ('--version', '--help'):\n"
            "    try:\n"
            "        main([flag])\n"
            "    except SystemExit as done:\n"
            "        assert done.code == 0"
        )
        assert _loaded(script, *THIRD_PARTY, *(f"repro.{layer}" for layer in LAYERS)) == []


class TestScipyStaysUnloaded:
    def test_importing_the_cli_loads_no_scipy(self):
        assert _loaded("import repro.cli", "scipy") == []

    def test_importing_the_lp_loads_no_scipy(self):
        assert _loaded("import repro.model.lp", "scipy") == []

    def test_resuming_a_finished_campaign_loads_no_scipy(self, cold_campaign):
        assert _loaded(_cli(*cold_campaign[0]), "scipy") == []

    def test_a_solve_loads_the_highs_module_and_not_scipy_optimize(self):
        """An LP solve loads HiGHS's module from its file, never the
        ``scipy.optimize`` package around it; a proportional-fair solve loads
        no scipy module at all."""
        pytest.importorskip("scipy.optimize")
        script = (
            "from repro.model.bottleneck import build_constraints\n"
            "from repro.model.lp import max_total_throughput, proportional_fair_rates\n"
            "from repro.topologies.paper import paper_scenario\n"
            "system = build_constraints(*paper_scenario())\n"
            "assert proportional_fair_rates(system).solver == 'interior-point'\n"
            "import sys\n"
            "assert not any(name.startswith('scipy') for name in sys.modules)\n"
            "assert max_total_throughput(system).solver == 'highs'"
        )
        loaded = set(_loaded(script, "scipy"))
        assert HIGHS in loaded and SLSQP not in loaded
        assert loaded.isdisjoint(SCIPY_PACKAGES)

    def test_a_cold_campaign_loads_highs_not_slsqp_or_scipy_optimize(self, cold_campaign):
        loaded = set(cold_campaign[1])
        assert loaded.isdisjoint(SCIPY_PACKAGES)
        assert SLSQP not in loaded
        if importlib.util.find_spec("scipy") is not None:
            assert HIGHS in loaded

    def test_scipy_optimize_imported_after_a_solve_answers_as_repro(self):
        """A later ``import scipy.optimize`` reuses the registered HiGHS module
        (the pybind module initialised once) and its ``linprog`` answers what
        repro answered."""
        pytest.importorskip("scipy.optimize")
        script = (
            "import sys\n"
            "from repro.model.bottleneck import build_constraints\n"
            "from repro.model.lp import max_total_throughput\n"
            "from repro.topologies.paper import paper_scenario\n"
            "system = build_constraints(*paper_scenario())\n"
            "lp = max_total_throughput(system)\n"
            f"solver = sys.modules[{HIGHS!r}]\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "from scipy.optimize import linprog\n"
            f"assert solver is sys.modules[{HIGHS!r}]\n"
            "a, c, n = system.matrix(), system.rhs(), system.path_count\n"
            "x = linprog([-1.0] * n, A_ub=a, b_ub=c, bounds=[(0, None)] * n, method='highs').x\n"
            "assert [float(v) for v in x] == lp.rates"
        )
        assert "scipy.optimize" in _loaded(script, "scipy.optimize")


class TestNetworkxStaysUnloaded:
    """No run loads it: routes come from ``Topology.adjacency()``."""

    def test_importing_the_cli_loads_no_networkx(self):
        assert _loaded("import repro.cli", "networkx") == []

    def test_resuming_a_finished_campaign_loads_no_networkx(self, cold_campaign):
        assert _loaded(_cli(*cold_campaign[0]), "networkx") == []

    def test_building_a_network_loads_no_networkx(self):
        script = (
            "from repro.netsim.network import Network\n"
            "from repro.topologies.paper import paper_scenario\n"
            "Network(paper_scenario()[0])"
        )
        assert _loaded(script, "networkx") == []

    def test_running_an_experiment_loads_no_networkx(self):
        script = (
            "from repro import paper_experiment, run_experiment\n"
            "assert run_experiment(paper_experiment('lia', duration=0.3)).total_series.values"
        )
        assert _loaded(script, "networkx") == []

    def test_a_cold_campaign_loads_no_networkx(self, tmp_path):
        """Nor, the grid being single-connection and packet-level, the flow-level
        engine, the workload runners or the fairness and FCT analysers: its one
        connection runs through the multi-flow build step, not its measurement."""
        campaign = [*CAMPAIGN, "--max-workers", "1", "--store", str(tmp_path / "store.jsonl")]
        unused = (
            "networkx", "repro.flowsim", "repro.workload",
            "repro.measure.fairness", "repro.measure.fct",
        )
        assert _loaded(_cli(*campaign), *unused) == []

    def test_a_path_query_loads_it(self):
        script = (
            "from repro.topologies.paper import paper_scenario\n"
            "assert len(paper_scenario()[0].k_shortest_paths('s', 'd', 3)) == 3"
        )
        assert "networkx" in _loaded(script, "networkx")


class TestDeclaringExecutesNothing:
    """``ExperimentConfig``, ``CampaignSpec`` and ``ValidationReport`` declare and
    aggregate; the simulator, the solvers and the pool load where a point runs."""

    def test_a_cold_campaign_loads_what_its_points_run(self, cold_campaign):
        expected = set(EXECUTION)
        if os.environ.get("REPRO_KERNEL", "").strip().lower() == "python":
            expected.discard("repro.kernel._ckernel")
        if importlib.util.find_spec("scipy") is None:
            expected.discard("scipy")
        assert expected <= set(cold_campaign[1])

    def test_a_resumed_campaign_loads_none_of_it(self, cold_campaign):
        assert _loaded(_cli(*cold_campaign[0]), *EXECUTION) == []

    def test_listing_the_grids_loads_none_of_it(self):
        assert _loaded(_cli("campaign", "--list"), *EXECUTION) == []

    def test_merging_stores_loads_none_of_it(self, cold_campaign, tmp_path):
        store = cold_campaign[0][-1]
        merge = ["campaign", "merge", store, "--into", str(tmp_path / "merged.jsonl")]
        assert _loaded(_cli(*merge), *EXECUTION) == []


class TestProcessEntry:
    """``python -m repro.cli`` and the ``repro`` script enter through ``cli.run``:
    ``main``, then ``gc.freeze()``, then a normal ``sys.exit``."""

    @staticmethod
    def _process(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120,
        )

    def test_exit_codes_and_output_reach_the_caller(self, cold_campaign, tmp_path):
        resumed = self._process(*cold_campaign[0], "--json")
        assert resumed.returncode == 0, resumed.stderr
        # Nine points of JSON outgrow the pipe's buffer: all of it arrived.
        assert json.loads(resumed.stdout)["campaign"]["skipped"] == 9
        assert resumed.stdout.endswith("}\n")

        store = pathlib.Path(cold_campaign[0][-1])
        records = [json.loads(line) for line in store.read_text().splitlines()]
        records[0].update(status="quarantined", attempts=3, error="Boom: injected")
        given_up = tmp_path / "quarantined.jsonl"
        given_up.write_text("".join(json.dumps(record) + "\n" for record in records))
        quarantined = self._process(*cold_campaign[0][:-1], str(given_up))
        assert quarantined.returncode == 1
        assert "0 executed, 9 resumed" in quarantined.stdout
        assert "quarantined after 3 attempts" in quarantined.stderr

        missing = self._process("campaign", "merge", str(tmp_path / "nope.jsonl"))
        assert missing.returncode == 2
        assert "missing store" in missing.stderr

    @pytest.mark.parametrize("argv", [["info", "--json"], ["lp", "--json"]])
    def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback(self, argv):
        # `repro ... | head -c 1` when head leaves before the process writes:
        # the read end is closed before the process starts, so its first
        # write to stdout fails, whatever the output's size.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""

    def test_the_process_freezes_and_atexit_hooks_still_run(self):
        script = (
            "import atexit, gc, sys\n"
            "from repro.cli import run\n"
            "atexit.register(lambda: print('AT EXIT', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['repro', 'info']\n"
            "run()"
        )
        assert _run_python("-c", script).splitlines()[-1] == "AT EXIT True"

    def test_main_in_process_freezes_nothing(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--version"])
        assert main(["info"]) == 0
        assert "kernel:" in capsys.readouterr().out
        # ``info --json`` reports what ``info`` prints and nothing more.
        from repro.kernel import kernel_info

        assert main(["info", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"version", "python", "platform", "kernel"}
        assert report["kernel"] == kernel_info()
        with pytest.raises(SystemExit) as exit_info:
            main(["info", "--baseline", "x"])
        assert exit_info.value.code == 2
        assert gc.get_freeze_count() == 0


_FORKED_WORKER_SCRIPT = """
import sys
from repro.experiments.harness import WorkerPool

def loaded(_):
    return [
        name in sys.modules
        for name in (
            "scipy.optimize._highspy._core",
            "scipy.optimize._slsqplib",
            "scipy.optimize",
            "networkx",
        )
    ]

assert loaded(None) == [False] * 4  # nothing in this process has solved anything
print("WORKERS", WorkerPool(runner=loaded, max_workers=2).map([0, 1]))
"""


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="only forked workers inherit the parent's modules",
)
def test_forked_workers_start_with_the_lp_solver_loaded():
    """The pre-fork load maps HiGHS once, so no worker loads it on its first
    solve; none holds SLSQP (no solve calls it) or ``scipy.optimize``, and
    networkx is no longer anything a point needs."""
    pytest.importorskip("scipy.optimize")
    workers = _run_python("-c", _FORKED_WORKER_SCRIPT).splitlines()[-1]
    assert workers == "WORKERS [[True, False, False, False], [True, False, False, False]]"


@pytest.mark.parametrize(
    "package", ["repro", *(f"repro.{layer}" for layer in LAYERS), "repro.core.coupled"]
)
def test_package_names_are_declared_once_and_resolve_lazily(package):
    """``__all__``, ``dir()``, ``from pkg import *`` and attribute access all
    read the one table the package's ``__init__`` hands to ``lazy_exports``."""
    module = importlib.import_module(package)
    assert module.__all__ == sorted(set(module.__all__))
    assert set(module.__all__) <= set(dir(module))
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value
        assert not isinstance(value, types.ModuleType), name  # a submodule of the same name
        defined_in = getattr(value, "__module__", None)
        if isinstance(defined_in, str) and defined_in.startswith("repro."):
            # Classes and functions say where they were written.
            assert getattr(importlib.import_module(defined_in), name) is value
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'nonsense'"):
        module.nonsense
