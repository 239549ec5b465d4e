"""Compiled-kernel facade, equivalence and stress tests.

Three layers of guarantees:

* the ``repro.kernel`` facade honours ``REPRO_KERNEL`` / ``override`` and
  fails loudly when a hard-pinned compiled kernel is unavailable;
* ``KernelSim`` is a drop-in :class:`~repro.netsim.engine.Simulator`
  (scheduling, cancellation, until-bounded runs, event accounting, event
  handles that read alike pending, fired, cancelled or dropped) and, like
  it, lets the collector reclaim a finished run's object graph;
* the whole-window native bypass (:mod:`repro.kernel.pipeline`) leaves the
  network in the *observable* state the Python event loop would have
  produced -- :func:`tests.kernel_state.snapshot`, compared field by field
  across compiled/fallback window boundaries -- says why whenever it
  declines, and rebuilds packets that are safe to release twice; its
  calendar (one heap entry per link, the in-flight rings as lanes) pops in
  the Python engine's order however deep the lanes, and the ``Scene`` type
  refuses events it cannot fire instead of crashing on them.

Compiled-only tests skip (never silently pass on the fallback) when the
extension cannot be built.
"""

from __future__ import annotations

import gc
import weakref
from functools import partial

import pytest

from repro import kernel
from repro.core.connection import MptcpConnection
from repro.kernel import maybe_run_network
from repro.kernel.pipeline import run_network
from repro.netsim import packet as packet_mod
from repro.netsim.engine import Simulator, make_simulator
from repro.netsim.network import Network
from repro.netsim.topology import Topology
from repro.tcp.connection import TcpConnection, TransferQueueAdapter
from repro.tcp.sender import TcpSender
from repro.topologies.paper import paper_scenario
from tests.kernel_state import snapshot

compiled_ok, compiled_reason = kernel.compiled_available()
needs_compiled = pytest.mark.skipif(
    not compiled_ok, reason=f"compiled kernel unavailable: {compiled_reason}"
)


def micro_network(sim=None, *, queue_packets: int = 100, flows: int = 1,
                  mbps: float = 100.0, delay: float = 0.001) -> Network:
    """The bench micro-scenario: s -- r -- d, 100 Mbps, 1 ms, one tag per flow."""
    topology = Topology("micro")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("r")
    topology.add_link("s", "r", mbps, delay, queue_packets)
    topology.add_link("r", "d", mbps, delay, queue_packets)
    network = Network(topology, sim=sim)
    for flow in range(flows):
        network.install_path(["s", "r", "d"], tag=flow + 1, as_default=flow == 0)
    return network


def run_micro(mode: str, *, cc: str = "cubic", duration: float = 1.0,
              windows: int = 1, flows: int = 1, queue_packets: int = 100,
              total_bytes=None, pin_sim: bool = False, **line):
    """Run the micro-scenario under ``mode``: (observable states, outcomes).

    Un-pinned, ``compiled`` is a native first window on ``KernelSim`` and
    ``python`` the reference ``Simulator``.  With ``windows > 1`` only the
    first window starts quiescent -- later windows run the per-event handlers
    on ``KernelSim`` over state the native window copied back.  ``states``
    is the snapshot and ``outcomes`` ``network.bypass_outcome`` after each
    window; ``line`` is ``mbps`` / ``delay`` of :func:`micro_network`.
    """
    with kernel.override(mode):
        network = micro_network(Simulator() if pin_sim else None,
                                queue_packets=queue_packets, flows=flows, **line)
        capture = network.attach_capture("d", data_only=False)
        # Pin flow_id: it is drawn from a process-global counter, so two
        # runs in one process would differ on an id that is not kernel state.
        connections = [
            TcpConnection(network, "s", "d", cc=cc, tag=flow + 1, flow_id=7 + flow,
                          total_bytes=total_bytes)
            for flow in range(flows)
        ]
        for connection in connections:
            connection.start(0.0)
        states, outcomes = [], []
        for _ in range(windows):
            network.run(duration / windows)
            states.append(snapshot(network, connections, [capture]))
            outcomes.append(network.bypass_outcome)
    return states, outcomes


class TestKernelFacade:
    def test_override_python_forces_python(self):
        with kernel.override("python"):
            assert kernel.active_kernel() == "python"
            assert kernel.compiled_module() is None
            assert isinstance(make_simulator(), Simulator)

    def test_override_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            with kernel.override("fast"):
                pass  # pragma: no cover

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(kernel.KERNEL_ENV, "turbo")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel.kernel_info()

    def test_kernel_info_shape(self):
        info = kernel.kernel_info()
        assert set(info) == {"mode", "kernel", "compiled_reason", "extension",
                             "link_handlers", "link_handlers_reason",
                             "transport_handlers", "transport_handlers_reason",
                             "capture_tap", "capture_tap_reason",
                             "fluid_integrator", "fluid_integrator_reason",
                             "counters", "counters_reason"}
        assert info["kernel"] in ("compiled", "python")
        # Every body with a C twin is native exactly when the kernel is compiled.
        tier = {"compiled": "native", "python": "python"}[info["kernel"]]
        bodies = ("link_handlers", "transport_handlers", "capture_tap", "fluid_integrator",
                  "counters")
        assert {info[body] for body in bodies} == {tier}
        assert all(info[body + "_reason"] for body in bodies)

    def test_python_mode_reports_disabled(self):
        with kernel.override("python"):
            info = kernel.kernel_info()
        assert info["kernel"] == info["link_handlers"] == info["transport_handlers"] == "python"
        assert info["capture_tap"] == info["fluid_integrator"] == info["counters"] == "python"
        assert "REPRO_KERNEL=python" in info["fluid_integrator_reason"]
        assert info["extension"] is None

    @needs_compiled
    def test_auto_and_compiled_use_the_extension(self):
        with kernel.override("compiled"):
            assert kernel.active_kernel() == "compiled"
            sim = make_simulator()
        assert type(sim).__name__ == "KernelSim"


class TestKernelSimSemantics:
    """KernelSim must behave exactly like the Python Simulator."""

    pytestmark = needs_compiled

    def make(self):
        with kernel.override("compiled"):
            return make_simulator()

    def test_ordering_and_accounting_match_python(self):
        order_c, order_p = [], []
        for sim, order in ((self.make(), order_c), (Simulator(), order_p)):
            sim.schedule_fast(0.002, order.append, ("late", sim.now))
            sim.schedule(0.001, lambda o=order, s=sim: o.append(("timer", s.now)))
            sim.schedule_fast(0.001, lambda o=order, s=sim: o.append(("fast", s.now)))
            handle = sim.schedule(0.0015, order.append, ("cancelled",))
            handle.cancel()
            sim.run()
            assert sim.pending_events == 0
        assert order_c == order_p
        # Cancelled entries are drained, not fired, but still pass through
        # the loop -- both kernels count processed events identically.

    def test_until_bounded_run_advances_to_horizon(self):
        sim = self.make()
        fired = []
        sim.schedule_fast(0.5, fired.append, 1)
        assert sim.run(until=0.25) == 0.25
        assert sim.now == 0.25 and fired == []
        assert sim.run(until=1.0) == 1.0
        assert fired == [1] and sim.now == 1.0

    def test_events_processed_counts_fired_events(self):
        sim = self.make()
        for i in range(100):
            sim.schedule_fast(i * 0.001, (lambda: None))
        sim.run()
        assert sim.events_processed == 100

    def test_cancel_is_idempotent_and_stops_delivery(self):
        sim = self.make()
        fired = []
        handle = sim.schedule(0.01, fired.append, 1)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert fired == []

    def test_free_list_stress_many_cancelled_chains(self):
        """Thousands of schedule/cancel cycles: nothing leaks or corrupts."""
        sim = self.make()
        fired = []
        handles = [sim.schedule(0.001 * i, fired.append, i) for i in range(5000)]
        for handle in handles[::2]:
            handle.cancel()
        sim.run()
        assert fired == list(range(1, 5000, 2))
        assert sim.pending_events == 0


class _Owner:
    """A callback's owner, to see whether a dropped event still holds it."""

    def fire(self):
        pass


class TestEventHandlesAgreeAcrossKernels:
    """An :class:`Event` and a ``KernelEvent`` read alike in every state."""

    def test_pending_fired_cancelled_and_dropped_handles(self, each_kernel):
        sim = make_simulator()
        owner = _Owner()  # of every event still in the heap when it is cleared
        fired_owner = _Owner()
        fired = sim.schedule(0.5, fired_owner.fire)
        fired_ref = weakref.ref(fired_owner)
        del fired_owner
        cancelled = sim.schedule_at(0.75, owner.fire)
        cancelled.cancel()
        pending = sim.schedule(2.0, owner.fire)
        cancelled_pending = sim.schedule(3.0, owner.fire)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run(until=1.0)
            # The fired handle outlives its run, but not its callback's owner.
            assert fired_ref() is None
        finally:
            if gc_was_enabled:
                gc.enable()
        cancelled_pending.cancel()
        dropped = sim.schedule_at(4.0, owner.fire)

        def read():
            return {name: [h.time, h.seq, h.cancelled] for name, h in (
                ("fired", fired), ("cancelled", cancelled), ("pending", pending),
                ("cancelled_pending", cancelled_pending), ("dropped", dropped))}

        readings = {
            "fired": [0.5, 0, False], "cancelled": [0.75, 1, True],
            "pending": [2.0, 2, False], "cancelled_pending": [3.0, 3, True],
            "dropped": [4.0, 4, False],
        }
        assert read() == readings
        ref = weakref.ref(owner)
        del owner
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim._clear_pending()
            # The handles outlive the heap, but no dropped entry holds its callback.
            assert ref() is None
        finally:
            if gc_was_enabled:
                gc.enable()
        # A dropped event reads as it did, as a fired one does: not cancelled.
        assert read() == readings
        assert sim.pending_events == 0
        assert sim.run(until=5.0) == 5.0 and sim.events_processed == 1
        dropped.cancel()
        assert dropped.cancelled


class TestRunObjectGraphIsCollectable:
    """Pending events own bound methods of links and agents, which own the
    simulator: a cycle the collector must be able to see on either kernel."""

    def test_network_with_pending_events_is_collected(self, each_kernel):
        # MPTCP: the subflow agents reach the network through their
        # connection, and the scene runs the Python handlers on either kernel.
        topology, paths = paper_scenario()
        network = Network(topology)
        connection = MptcpConnection(network, paths.src, paths.dst, paths,
                                     congestion_control="lia")
        connection.start(at=0.0)
        network.run(0.2)
        assert network.sim.pending_events > 0
        ref = weakref.ref(network)
        del network, connection
        gc.collect()
        assert ref() is None

    def test_pending_link_events_are_collected(self, each_kernel):
        # On KernelSim a pending delivery owns its link directly, with no
        # bound method in between: link -> sim -> heap entry -> link.
        network = micro_network()
        connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
        connection.start(0.0)
        network.sim.run(until=0.2)
        assert any(link._in_flight for link in network.links.values())
        if each_kernel == "compiled":
            assert network.sim.events_native > 0
        ref = weakref.ref(network)
        del network, connection
        gc.collect()
        assert ref() is None

    def test_pending_retransmission_timers_are_collected(self, each_kernel):
        # On KernelSim an armed timer is a native entry that owns its sender,
        # and the sender's _rto_event the entry's handle:
        # sender -> sim -> heap entry -> sender.
        network = micro_network()
        connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
        connection.start(0.0)
        network.sim.run(until=0.2)
        sender = connection.sender
        assert sender._rto_event is not None
        if each_kernel == "compiled":
            assert [cb.__self__ for _t, _seq, cb, _args in network.sim._export_entries()
                    if cb is not None and cb.__qualname__ == "TcpSender._fire_rto"] == [sender]

        def live_senders():  # slotted, so not weak-referenceable: count them
            return sum(isinstance(o, TcpSender) for o in gc.get_objects())

        gc.collect()
        before = live_senders()
        del network, connection, sender
        gc.collect()
        assert live_senders() == before - 1


@needs_compiled
class TestCompiledBypassEquivalence:
    """A native window must leave the observable state Python would have."""

    def assert_equivalent(self, **scene):
        compiled, outcomes = run_micro("compiled", **scene)
        python, reference = run_micro("python", **scene)
        assert outcomes[0] == "native"
        assert set(reference) == {"python kernel is active"}
        assert compiled == python
        return compiled[-1], outcomes

    @pytest.mark.parametrize("cc", ["cubic", "reno"])
    def test_full_state_identical_after_one_window(self, cc):
        state, _ = self.assert_equivalent(cc=cc)
        assert state["heap"] and state["senders"][0]["segments"]
        assert any(link["in_flight"] for link in state["links"].values())

    def test_multi_window_native_then_fallback_identical(self):
        # Window 1 runs natively; windows 2..4 start mid-flight and run the
        # Python handlers on KernelSim over the copied-back state.
        _, outcomes = self.assert_equivalent(windows=4)
        assert all(o.startswith("link s->r: ") for o in outcomes[1:]), outcomes

    def test_four_concurrent_senders_share_the_line(self):
        state, _ = self.assert_equivalent(flows=4, duration=0.5)
        assert all(s["stats"][2] > 0 for s in state["senders"])
        assert state["links"]["s->r"]["qstats"]["dropped"] > 0

    def test_bounded_transfer_finishes_inside_the_window(self):
        state, _ = self.assert_equivalent(total_bytes=300_000)
        sender = state["senders"][0]
        assert sender["prov"][:2] == [300_000, 300_000]
        assert sender["segments"] == [] and sender["rto_event"] is None
        assert state["receivers"][0]["rcv_nxt"] == 300_000

    def test_reno_recovers_from_small_queue_losses(self):
        state, _ = self.assert_equivalent(cc="reno", queue_packets=8, duration=2.0)
        assert state["senders"][0]["stats"][3] > 0  # retransmissions
        assert state["links"]["s->r"]["qstats"]["dropped"] > 0

    def test_pinned_python_simulator_declines_and_matches_python(self):
        compiled, outcomes = run_micro("compiled", pin_sim=True)
        assert outcomes == ["simulator is not KernelSim"]
        assert compiled == run_micro("python")[0]

    def test_bypass_refuses_mid_flight_windows(self):
        with kernel.override("compiled"):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
            connection.start(0.0)
            network.run(0.5)
            assert network.bypass_outcome == "native"
            # Mid-flight state (segments in flight, pending deliveries) is
            # not expressible as a quiescent Scene: the bypass must decline.
            assert maybe_run_network(network, 1.0) is None
            assert network.bypass_outcome in (
                "link s->r: transmitter busy", "link s->r: packets in flight")


#: A line whose every link direction holds > 400 packets once the pipe is
#: full: 1 Gbps x 5 ms, a queue deep enough for slow start to fill it.
FAT_LINE = dict(mbps=1000.0, delay=0.005, queue_packets=2000)


class TestSceneCalendar:
    """The Scene keeps a link's pending deliveries in its in-flight ring and
    only the ring's head in the heap; pop order, sequence numbers and the
    written-back heap must be what the all-in-one-heap engines produce."""

    def windows(self, each_kernel, **scene):
        """Per-window states under ``each_kernel``, equal to the reference's."""
        states, outcomes = run_micro(each_kernel, **scene)
        reference, _ = run_micro("python", **scene)
        for window, (state, expected) in enumerate(zip(states, reference)):
            assert state == expected, f"window {window}"
        if each_kernel == "compiled":
            # One native window; the rest start mid-flight and run per event.
            assert outcomes[0] == "native" and "native" not in outcomes[1:]
        return states

    def test_deep_lanes_cut_at_a_horizon_then_run_on_per_event(self, each_kernel):
        states = self.windows(each_kernel, duration=0.6, windows=3, **FAT_LINE)
        for state in states:
            depths = {name: len(link["in_flight"]) for name, link in state["links"].items()}
            assert min(depths.values()) >= 300, depths
            # Every in-flight packet is a pending delivery with its own (t, seq).
            deliveries = [e for e in state["heap"] if e[2] == "Link._deliver"]
            assert len(deliveries) == sum(depths.values())
            assert state["sim"]["pending"] == len(state["heap"])
        assert states[0]["links"]["s->r"]["queue"]  # a serve chain is pending too

    def test_serve_delivery_and_timer_entries_interleave(self, each_kernel):
        # Four senders start at t = 0 (ties broken by seq alone) into a
        # 10-packet queue: drops, fast retransmits, timeouts and re-armed
        # (stale) timers share the heap with the lanes' heads.
        states = self.windows(each_kernel, flows=4, queue_packets=10, duration=1.5, windows=3)
        first = states[0]
        pending = {entry[2] for entry in first["heap"]}
        assert pending == {"Link._deliver", "Link._serve_queue", "TcpSender._fire_rto", None}
        assert sum(s["stats"][3] for s in first["senders"]) > 0  # retransmissions
        assert sum(s["stats"][5] for s in first["senders"]) > 0  # timeouts
        assert first["links"]["s->r"]["qstats"]["dropped"] > 0

    def test_equal_time_deliveries_on_two_lanes_fire_in_seq_order(self, each_kernel):
        # A line whose times are exact: a 1460-byte segment serialises in
        # 2**-10 s and a hop is four of those, so the s->r delivery of segment
        # k + 5 and the r->d delivery of segment k fall on the same instant and
        # only their seq decides which link's lane fires first (the later
        # events' seq numbers, which the heap snapshot compares, follow from it).
        states = self.windows(each_kernel, mbps=11.96032, delay=2.0 ** -8, duration=0.3)
        times = [t for t, _seq, name, *_owner in states[0]["heap"] if name == "Link._deliver"]
        assert len(set(times)) < len(times)  # still tied at the cut

    @needs_compiled
    def test_heap_is_bounded_by_links_not_by_packets_in_flight(self):
        with kernel.override("compiled"):
            network = micro_network(**FAT_LINE)
            connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
            connection.start(0.0)
            ext = KeepingExt(kernel.compiled_module())
            assert run_network(network, 0.2, ext) == 0.2
        (scene,) = ext.scenes
        events = scene.export_events()
        in_flight = [len(link._in_flight) for link in network.links.values()]
        assert min(in_flight) >= 300
        deliveries = sum(kind == ext.EV_DELIVER for kind, _t, _seq, _idx in events)
        cancelled = sum(kind == ext.EV_CANCELLED for kind, _t, _seq, _idx in events)
        # export_events still counts every packet in flight ...
        assert deliveries == sum(in_flight) > 1200
        assert network.sim.pending_events == len(events)
        # ... while the heap holds one delivery per busy link beside the rest.
        assert scene.heap_len == len(events) - deliveries + len(in_flight)
        senders = 1
        assert scene.heap_len <= 2 * len(network.links) + senders + cancelled


@needs_compiled
class TestSceneRefusesEventsItCannotFire:
    """``Scene.add_event`` is reachable from Python: a bad kind or index must
    raise, not index a table that has no such row (a segfault before)."""

    def test_bad_events_raise_and_the_process_carries_on(self):
        with kernel.override("compiled"):
            ext = kernel.compiled_module()
        scene = ext.Scene()
        for kind in (ext.EV_DELIVER, ext.EV_SERVE):
            # Link events come with a lane entry / a queued packet: only the
            # scene can create them, and a window starts with idle links.
            with pytest.raises(ValueError, match="created by the scene"):
                scene.add_event(kind, 0.5, 1, 7)
        for kind in (ext.EV_RTO, ext.EV_START):
            for sender in (0, 7, -1):
                with pytest.raises(IndexError, match="sender index out of range"):
                    scene.add_event(kind, 0.5, 1, sender)
        for kind in (5, -1, 1 << 20):
            with pytest.raises(ValueError, match="unknown event kind"):
                scene.add_event(kind, 0.5, 1, 0)
        assert scene.heap_len == 0
        scene.add_event(ext.EV_CANCELLED, 0.5, 1, 7)  # carries no index
        assert scene.run(0.0, 2, 1.0) == (1.0, 2, 0)
        assert scene.heap_len == 0 and scene.export_events() == []
        with pytest.raises(AttributeError):
            scene.heap_len = 3
        # A real scene still runs natively afterwards.
        states, outcomes = run_micro("compiled", duration=0.1)
        assert outcomes == ["native"] and states[0]["sim"]["processed"] > 0


#: One out-of-range node or link index per ``Scene.add_*`` argument that
#: ``scene.run`` later indexes ``nodes[]`` / ``links[]`` with.
BAD_SCENE_INDICES = {
    "link.dst": ("add_link", lambda bad, state: ({**state, "dst": bad},)),
    "fwd.node": ("add_fwd", lambda bad, node, dst, tag, link: (bad, dst, tag, link)),
    "fwd.dst": ("add_fwd", lambda bad, node, dst, tag, link: (node, bad, tag, link)),
    "fwd.link": ("add_fwd", lambda bad, node, dst, tag, link: (node, dst, tag, bad)),
    "sender.host": ("add_sender", lambda bad, state: ({**state, "host": bad},)),
    "sender.dst": ("add_sender", lambda bad, state: ({**state, "dst": bad},)),
    "sender.route_link": ("add_sender", lambda bad, state: ({**state, "route_link": bad},)),
    "receiver.host": ("add_receiver", lambda bad, state, ooo: ({**state, "host": bad}, ooo)),
    "receiver.peer": ("add_receiver", lambda bad, state, ooo: ({**state, "peer": bad}, ooo)),
    "receiver.route_link": (
        "add_receiver", lambda bad, state, ooo: ({**state, "route_link": bad}, ooo)),
}


@needs_compiled
class TestSceneChecksIndicesWhereTheyEnter:
    """``pipeline._build_scene`` hands the Scene node and link indices; one
    that names no row must raise in ``add_*`` (before: the scene built, and
    ``scene.run`` indexed past the table and took the interpreter down)."""

    @pytest.mark.parametrize("bad", [10**6, -1])
    @pytest.mark.parametrize("case", sorted(BAD_SCENE_INDICES))
    def test_out_of_range_index_raises(self, case, bad):
        method, corrupt = BAD_SCENE_INDICES[case]
        with kernel.override("compiled"):
            network = micro_network()
            TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7).start(0.0)
            ext = CorruptingExt(kernel.compiled_module(), method, partial(corrupt, bad))
            with pytest.raises(IndexError, match="(node|link) index -?\\d+ out of range"):
                run_network(network, 0.2, ext)
            # Nothing ran and nothing was touched: the real kernel takes the window.
            network.run(0.2)
            assert network.bypass_outcome == "native"

    def test_an_empty_scene_has_no_row_zero(self):
        with kernel.override("compiled"):
            scene = kernel.compiled_module().Scene()
        with pytest.raises(IndexError, match="node index 0 out of range"):
            scene.add_fwd(0, 0, 1, 0)


@needs_compiled
class TestDeclineReasons:
    """Every decline names the object and the requirement it failed."""

    def outcome(self, *, data=None, prepare=lambda network, connection: None):
        with kernel.override("compiled"):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7,
                                       data=data)
            connection.start(0.0)
            prepare(network, connection)
            assert maybe_run_network(network, 0.1) is None
        return network.bypass_outcome

    def test_custom_data_provider(self):
        reason = self.outcome(data=TransferQueueAdapter())
        assert reason == "sender s#7: data provider is not a bulk transfer"

    def test_connection_level_sink(self):
        def attach_sink(network, connection):
            connection.receiver.connection_sink = lambda *args: None

        assert self.outcome(prepare=attach_sink) == (
            "receiver d#7: feeds a connection-level sink")

    def test_foreign_pending_event(self):
        def schedule_probe(network, connection):
            network.sim.schedule(0.05, print)

        assert self.outcome(prepare=schedule_probe) == (
            "event at t=0.05: pending print is not a sender start")

    def test_python_kernel_says_so(self):
        with kernel.override("python"):
            network = micro_network()
            network.run(0.01)
        assert network.bypass_outcome == "python kernel is active"


class FailingScene:
    """A Scene whose ``run`` raises, as a bug in the C kernel would."""

    def __init__(self, scene):
        self._scene = scene

    def __getattr__(self, name):
        return getattr(self._scene, name)

    def run(self, *args):
        raise RuntimeError("injected scene failure")


class KeepingExt:
    """The extension, keeping hold of the Scenes it builds (``run_network``
    drops its own once the state is written back)."""

    def __init__(self, ext):
        self._ext = ext
        self.scenes = []

    def __getattr__(self, name):
        return getattr(self._ext, name)

    def Scene(self, **kwargs):
        self.scenes.append(self._ext.Scene(**kwargs))
        return self.scenes[-1]


class FailingExt(KeepingExt):
    def Scene(self, **kwargs):
        return FailingScene(super().Scene(**kwargs))


class CorruptingExt(KeepingExt):
    """The extension, its Scenes passing ``method``'s arguments through
    ``corrupt`` first."""

    def __init__(self, ext, method, corrupt):
        super().__init__(ext)
        self._method, self._corrupt = method, corrupt

    def Scene(self, **kwargs):
        return CorruptingScene(super().Scene(**kwargs), self._method, self._corrupt)


class CorruptingScene:
    def __init__(self, scene, method, corrupt):
        self._scene, self._method, self._corrupt = scene, method, corrupt

    def __getattr__(self, name):
        target = getattr(self._scene, name)
        if name != self._method:
            return target
        return lambda *args: target(*self._corrupt(*args))


@needs_compiled
class TestFailingNativeRun:
    """A failing ``scene.run`` is a bug: loud when pinned, recorded on auto."""

    def started_network(self):
        network = micro_network()
        connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
        connection.start(0.0)
        return network

    def test_compiled_mode_raises(self):
        with kernel.override("compiled"):
            network = self.started_network()
            with pytest.raises(RuntimeError, match="injected scene failure"):
                run_network(network, 0.2, FailingExt(kernel.compiled_module()))

    def test_auto_mode_falls_back_and_records_why(self):
        with kernel.override("auto"):
            network = self.started_network()
            ext = FailingExt(kernel.compiled_module())
            assert run_network(network, 0.2, ext) is None
            assert network.bypass_outcome.startswith("native run failed: RuntimeError")
            # Nothing was touched: the real kernel still takes the window.
            network.run(0.2)
            assert network.bypass_outcome == "native"


@needs_compiled
class TestPacketPoolUnderCompiledKernel:
    """Packet-pool invariants across the compiled write-back."""

    def run_window(self, duration=0.2):
        with kernel.override("compiled"):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", cc="cubic", tag=1)
            connection.start(0.0)
            network.run(duration)
        assert network.bypass_outcome == "native"
        return network

    def in_flight_packets(self, network):
        packets = []
        for link in network.links.values():
            packets.extend(link._in_flight)
            packets.extend(link.queue._queue)
        return packets

    def test_written_back_packets_double_release_harmless(self):
        network = self.run_window()
        packets = self.in_flight_packets(network)
        assert packets, "mid-transfer window must leave packets in flight"
        before = len(packet_mod._pool)
        for packet in packets:
            assert not packet._poolable  # rebuilt packets never enter the pool
            packet.release()
            packet.release()
        assert len(packet_mod._pool) == before
        assert not any(p in packets for p in packet_mod._pool)

    def test_pool_acquired_double_release_single_entry(self):
        with kernel.override("compiled"):
            packet = packet_mod.acquire_data(
                src="s", dst="d", size=1500, tag=1, flow_id=1, subflow_id=0,
                seq=0, payload_len=1440, dsn=0, is_retransmission=False,
                created_at=0.0,
            )
            packet.release()
            first = len(packet_mod._pool)
            packet.release()
        assert len(packet_mod._pool) == first

    def test_packet_counter_advances_past_written_back_ids(self):
        # Rebuilt in-flight packets take fresh, distinct ids from the
        # counter, so ids handed out afterwards can never collide with them.
        network = self.run_window()
        existing = [p.packet_id for p in self.in_flight_packets(network)]
        assert len(set(existing)) == len(existing)
        fresh = packet_mod.Packet(src="s", dst="d", size=40, tag=1)
        assert fresh.packet_id > max(existing)
