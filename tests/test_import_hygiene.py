"""scipy.optimize (~0.3 s) loads only where something is solved, networkx
(~0.15 s) only where a graph is queried.

Each check needs an interpreter that has not imported them yet, so each runs
a short script in a fresh subprocess and reads what it prints.
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def _run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded_modules(script: str, package: str) -> str:
    """Run ``script``, then report the ``package`` modules its interpreter holds."""
    report = (
        "\nimport sys\n"
        f"print('LOADED', sorted(m for m in sys.modules if m.startswith({package!r})))"
    )
    return _run_python("-c", script + report).splitlines()[-1]


def _loaded_scipy_modules(script: str) -> str:
    return _loaded_modules(script, "scipy")


class TestScipyStaysUnloaded:
    def test_importing_the_cli_loads_no_scipy(self):
        assert _loaded_scipy_modules("import repro.cli") == "LOADED []"

    def test_resuming_a_finished_campaign_loads_no_scipy(self, tmp_path):
        store = str(tmp_path / "store.jsonl")
        campaign = ["campaign", "paper_cc_rate", "--duration", "0.3", "--store", store, "--no-plot"]
        assert "9 executed, 0 resumed" in _run_python("-m", "repro.cli", *campaign)
        resumed = _loaded_scipy_modules(
            f"from repro.cli import main\nassert main({campaign!r}) == 0"
        )
        assert resumed == "LOADED []"

    def test_a_solve_loads_it(self):
        script = (
            "from repro.model.bottleneck import build_constraints\n"
            "from repro.model.lp import max_total_throughput\n"
            "from repro.topologies.paper import paper_scenario\n"
            "assert max_total_throughput(build_constraints(*paper_scenario())).solver == 'highs'"
        )
        assert "'scipy.optimize'" in _loaded_scipy_modules(script)


class TestNetworkxStaysUnloaded:
    def test_importing_the_cli_loads_no_networkx(self):
        assert _loaded_modules("import repro.cli", "networkx") == "LOADED []"

    def test_resuming_a_finished_campaign_loads_no_networkx(self, tmp_path):
        store = str(tmp_path / "store.jsonl")
        campaign = ["campaign", "paper_cc_rate", "--duration", "0.3", "--store", store, "--no-plot"]
        assert "9 executed, 0 resumed" in _run_python("-m", "repro.cli", *campaign)
        resumed = _loaded_modules(
            f"from repro.cli import main\nassert main({campaign!r}) == 0", "networkx"
        )
        assert resumed == "LOADED []"

    def test_building_a_network_loads_it(self):
        script = (
            "from repro.netsim.network import Network\n"
            "from repro.topologies.paper import paper_scenario\n"
            "Network(paper_scenario()[0])"
        )
        assert "'networkx'" in _loaded_modules(script, "networkx")


_FORKED_WORKER_SCRIPT = """
import sys
from repro.experiments.harness import WorkerPool

def loaded(_):
    return "scipy.optimize" in sys.modules and "networkx" in sys.modules

assert not loaded(None)  # nothing in this process has solved or built anything
print("WORKERS", WorkerPool(runner=loaded, max_workers=2).map([0, 1]))
"""


@pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="only forked workers inherit the parent's modules",
)
def test_forked_workers_start_with_scipy_optimize_loaded():
    """Without the pre-fork load every worker would import scipy.optimize on its
    first solve and networkx on its first network."""
    assert _run_python("-c", _FORKED_WORKER_SCRIPT).splitlines()[-1] == "WORKERS [True, True]"
