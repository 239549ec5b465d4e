"""Differential fuzz of the two kernels over arbitrary small scenes.

The goldens pin fifteen scenes; the compiled kernel reads Python
``__slots__`` by offset for every link and every TCP agent.  This module is
the oracle for everything in between: a hypothesis strategy draws a scene --
a small random topology of one to three (optionally overlapping) paths, one
to four flows over {reno, cubic, lia, olia, balia, wvegas, sfc, telehaptic}
or UDP constant-bit-rate / on-off cross-traffic (packets a Python source
acquires, which the compiled kernel hands to the Python bodies), a queue
discipline, ECN on or off, greedy or bytes-limited transfers, and an
optional :mod:`repro.netsim.dynamics` schedule -- runs it through
``run_multiflow`` under ``REPRO_KERNEL=python`` and ``=compiled`` and demands
the same result JSON and the same observable network state
(:func:`tests.kernel_state.network_snapshot`), with the packet conservation
laws (:func:`tests.kernel_state.conservation_problems`) holding on both.
``run_multiflow`` closes each network once its result is built
(:meth:`Network.close`); the state is read just before, and after the call
``gc.collect()`` must find nothing: the closed graph was freed by reference
counting, on both kernels.  A second, smaller draw keeps to what the
whole-window Scene takes (single-path reno/cubic over drop-tail, no ECN, no
dynamics) and makes the links fat and long -- to 1 Gbps, to 20 ms, hundreds
of packets per link direction, the depth the Scene's calendar lanes hold --
which only those scenes can afford on the reference kernel.

Budget: the default run draws a fixed (derandomised) set of examples in well
under a minute; ``--hypothesis-profile=deep`` is the local soak (random, a
few thousand examples).  Every counter-example the strategy has ever shrunk
to is pinned in :data:`REGRESSION_SCENES` and stays fixed, not skipped.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import kernel
from repro.experiments import multiflow as multiflow_module
from repro.experiments.multiflow import FlowSpec, MultiFlowConfig, run_multiflow
from repro.model.paths import Path, PathSet
from repro.netsim.dynamics import (
    DynamicsSpec,
    LinkDelayChange,
    LinkDown,
    LinkRateChange,
    LinkUp,
    LossBurst,
    Schedule,
)
from repro.netsim.network import Network
from repro.netsim.topology import Topology
from tests.conftest import left_to_collector
from tests.kernel_state import conservation_problems, network_snapshot

SINGLE_PATH_CC = ("reno", "cubic", "sfc", "telehaptic")
MULTIPATH_CC = ("reno", "cubic", "lia", "olia", "balia", "wvegas", "sfc", "telehaptic")
QUEUE_KINDS = ("droptail", "red", "codel")

_DEEP = settings.get_profile("deep")
#: ``--hypothesis-profile=deep`` soaks; anything else is the fixed CI draw.
_SETTINGS = (
    _DEEP
    if settings.default is _DEEP
    else settings(
        max_examples=300,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
)
#: The fat draw: a gigabit example costs the reference kernel up to a second.
_FAT_SETTINGS = settings(_SETTINGS, max_examples=_SETTINGS.max_examples // 10)


# ----------------------------------------------------------------- the scene
def scene_is_native(scene: dict) -> bool:
    """Whether the compiled kernel runs ``scene`` as one whole-window Scene
    (``pipeline._plan_scene``'s eligibility, on the axes drawn here)."""
    return (
        scene["queue_kind"] == "droptail"
        and not scene["ecn"]
        and not scene["dynamics"]
        and all(f["kind"] == "tcp" and f["cc"] in ("reno", "cubic") for f in scene["flows"])
    )


def scene_topology(scene: dict):
    """``s -- r<i> [-- x] -- d`` per branch; ``x`` is the overlapping tail."""
    topology = Topology("fuzz")
    topology.add_host("s")
    topology.add_host("d")
    tail = scene["tail"]
    if tail is not None:
        topology.add_router("x")
        topology.add_link("x", "d", tail["mbps"], tail["delay"], tail["queue"])
    paths = []
    for index, branch in enumerate(scene["branches"]):
        router = f"r{index + 1}"
        topology.add_router(router)
        topology.add_link("s", router, branch["mbps"] * 2, branch["delay"], 100)
        topology.add_link(
            router, "x" if tail is not None else "d",
            branch["mbps"], branch["delay"], branch["queue"],
        )
        nodes = ["s", router] + (["x"] if tail is not None else []) + ["d"]
        paths.append(Path(nodes, tag=index + 1, name=f"Path {index + 1}"))
    return topology, PathSet(paths)


def scene_links(scene: dict):
    """Directed forward links a dynamics event may touch."""
    exits = "x" if scene["tail"] is not None else "d"
    links = [(f"r{i + 1}", exits) for i in range(len(scene["branches"]))]
    links += [("s", f"r{i + 1}") for i in range(len(scene["branches"]))]
    if scene["tail"] is not None:
        links.append(("x", "d"))
    return links


def scene_dynamics(scene: dict):
    if not scene["dynamics"]:
        return None
    links = scene_links(scene)
    schedule = Schedule()
    for event in scene["dynamics"]:
        a, b = links[event["link"] % len(links)]
        at = event["at"]
        kind = event["kind"]
        if kind == "rate":
            schedule.at(at, LinkRateChange(a, b, event["value"]))
        elif kind == "delay":
            schedule.at(at, LinkDelayChange(a, b, event["value"] * 1e-3))
        elif kind == "flap":
            schedule.at(at, LinkDown(a, b, flush=event["flush"]))
            schedule.at(at + event["value"] * 1e-2, LinkUp(a, b))
        else:
            schedule.at(at, LossBurst(a, b, event["value"] * 1e-2, loss_rate=0.3, seed=event["link"]))
    return DynamicsSpec(schedule=schedule)


def scene_config(scene: dict) -> MultiFlowConfig:
    count = len(scene["branches"])
    flows = []
    for flow in scene["flows"]:
        if flow["kind"] == "tcp":
            flows.append(FlowSpec(
                kind="tcp", path_index=flow["path"] % count,
                congestion_control=flow["cc"], total_bytes=flow["bytes"],
                start=flow["start"],
            ))
        elif flow["kind"] in ("udp", "onoff"):
            flows.append(FlowSpec(
                kind=flow["kind"], path_index=flow["path"] % count,
                rate_mbps=flow["rate"], start=flow["start"],
                on_duration=0.05, off_duration=0.05,
            ))
        else:
            flows.append(FlowSpec(
                kind="mptcp", congestion_control=flow["cc"], scheduler=flow["scheduler"],
                total_bytes=flow["bytes"], start=flow["start"],
            ))
    return MultiFlowConfig(
        name="fuzz",
        scenario=lambda: scene_topology(scene),
        flows=flows,
        duration=scene["duration"],
        sampling_interval=0.05,
        queue_kind=scene["queue_kind"],
        ecn=scene["ecn"],
        dynamics=scene_dynamics(scene),
    )


class ConservingNetwork(Network):
    """A :class:`Network` that checks :func:`conservation_problems` at every
    window boundary: after each :meth:`run`, whichever tier ran the window,
    and once more after :meth:`close`, whose counters stay readable.  It
    keeps its observable state from just before the close in ``state``."""

    state = None

    def run(self, duration: float) -> float:
        now = super().run(duration)
        assert conservation_problems(self) == []
        return now

    def close(self) -> None:
        self.state = network_snapshot(self)
        super().close()
        assert conservation_problems(self) == []


def run_scene(scene: dict, mode: str):
    """(result JSON, observable network state) of ``scene`` on kernel ``mode``."""
    built = []

    def recording_network(topology):
        network = ConservingNetwork(topology)
        built.append(network)
        return network

    config = scene_config(scene)
    recording = mock.patch.object(multiflow_module, "Network", recording_network)

    def run():
        with kernel.override(mode), recording:
            result = run_multiflow(config)
        (network,) = built
        built.clear()  # the recorder's reference: the network goes with this frame
        return result, network.state, network.bypass_outcome == "native"

    (result, state, native), left = left_to_collector(run)
    assert state is not None, "run_multiflow did not close its network"
    assert left == 0, f"{left} objects of a closed {mode} run left to the collector"
    return json.dumps(result.summary(), sort_keys=True), state, native


def assert_kernels_agree(scene: dict) -> None:
    reference_json, reference_state, _ = run_scene(scene, "python")
    compiled_json, compiled_state, native = run_scene(scene, "compiled")
    assert compiled_state == reference_state
    assert compiled_json == reference_json
    assert native == scene_is_native(scene)


# -------------------------------------------------------------- the strategy
_link = st.fixed_dictionaries({
    "mbps": st.sampled_from((8.0, 30.0, 90.0)),
    "delay": st.sampled_from((0.0005, 0.002, 0.008)),
    "queue": st.sampled_from((4, 12, 40)),
})
_bytes = st.sampled_from((None, None, None, 1, 1461, 40_000, 400_000))
_start = st.sampled_from((0.0, 0.013, 0.1))
_flow = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("tcp"), "cc": st.sampled_from(SINGLE_PATH_CC),
        "path": st.integers(0, 2), "bytes": _bytes, "start": _start,
    }),
    st.fixed_dictionaries({
        "kind": st.just("mptcp"), "cc": st.sampled_from(MULTIPATH_CC),
        "scheduler": st.sampled_from(("minrtt", "roundrobin")),
        "bytes": _bytes, "start": _start,
    }),
    st.fixed_dictionaries({
        "kind": st.sampled_from(("udp", "onoff")), "path": st.integers(0, 2),
        "rate": st.sampled_from((2.0, 12.0)), "start": _start,
    }),
)
_event = st.fixed_dictionaries({
    "kind": st.sampled_from(("rate", "delay", "flap", "burst")),
    "link": st.integers(0, 6),
    "at": st.sampled_from((0.05, 0.11, 0.2, 0.31, 0.5)),
    "value": st.sampled_from((1.0, 3.0, 12.0)),
    "flush": st.sampled_from(("drop", "park")),
})
scenes = st.fixed_dictionaries({
    "branches": st.lists(_link, min_size=1, max_size=3),
    "tail": st.one_of(st.none(), _link),
    "queue_kind": st.sampled_from(QUEUE_KINDS),
    "ecn": st.booleans(),
    "flows": st.lists(_flow, min_size=1, max_size=4),
    "dynamics": st.lists(_event, max_size=3),
    "duration": st.sampled_from((0.4, 0.8, 1.5)),
})

# Fattest first: hypothesis draws (and shrinks) towards the first element.
_fat_link = st.fixed_dictionaries({
    "mbps": st.sampled_from((1000.0, 300.0, 90.0)),
    "delay": st.sampled_from((0.005, 0.02, 0.002)),
    "queue": st.sampled_from((2000, 100, 12)),
})
fat_scenes = st.fixed_dictionaries({
    "branches": st.lists(_fat_link, min_size=1, max_size=2),
    "tail": st.one_of(st.none(), _fat_link),
    "queue_kind": st.just("droptail"),
    "ecn": st.just(False),
    "flows": st.lists(
        st.fixed_dictionaries({
            "kind": st.just("tcp"), "cc": st.sampled_from(("reno", "cubic")),
            "path": st.integers(0, 1), "bytes": st.sampled_from((None, None, 400_000)),
            "start": _start,
        }),
        min_size=1, max_size=3,
    ),
    "dynamics": st.just([]),
    "duration": st.sampled_from((0.4, 0.6)),
})


# ------------------------------------------------------------------ the tests
@pytest.fixture(autouse=True, scope="module")
def _needs_both_kernels():
    available, reason = kernel.compiled_available()
    if not available:
        pytest.skip(f"compiled kernel unavailable: {reason}")


@_SETTINGS
@given(scenes)
def test_kernels_agree_on_arbitrary_scenes(scene):
    assert_kernels_agree(scene)


@_FAT_SETTINGS
@given(fat_scenes)
def test_kernels_agree_on_fat_long_scene_windows(scene):
    assert scene_is_native(scene)
    assert_kernels_agree(scene)


def _scene(**overrides) -> dict:
    scene = {
        "branches": [{"mbps": 10.0, "delay": 0.002, "queue": 12}],
        "tail": None,
        "queue_kind": "droptail",
        "ecn": False,
        "flows": [{"kind": "tcp", "cc": "cubic", "path": 0, "bytes": None, "start": 0.0}],
        "dynamics": [],
        "duration": 0.4,
    }
    scene.update(overrides)
    return scene


#: Shrunk counter-examples, by the name of what they caught.
REGRESSION_SCENES = {
    # Found in the parent of the PR that added this file: an ECN-capable
    # single-path flow over drop-tail lines was taken by the whole-window
    # Scene, whose packets carry no ECT, so the window's in-flight and queued
    # data segments came back with ecn == 0 where Python leaves 1.  The
    # Scene now declines ECN-capable senders.
    "scene_window_forgets_ect": _scene(
        branches=[{"mbps": 4.0, "delay": 0.0005, "queue": 4}],
        ecn=True,
        flows=[{"kind": "tcp", "cc": "reno", "path": 0, "bytes": None, "start": 0.0}],
    ),
}


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENES))
def test_pinned_counter_examples_stay_fixed(name):
    assert_kernels_agree(REGRESSION_SCENES[name])
