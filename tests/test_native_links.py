"""Tier-boundary tests for the compiled kernel's native link events.

On a ``KernelSim`` every link is ``KernelSim.link_type``: ``send``,
``_serve_queue`` and ``_deliver`` run in C and call Python only where the
Python bodies call something they do not define -- an agent, a capture tap,
an AQM queue, an impaired link's admission, an overridden ``receive``, a
routing miss.  Each scene here crosses one of those boundaries mid-run and
must leave the observable state (:func:`tests.kernel_state.snapshot`, or the
result JSON for whole experiments) that the Python kernel leaves.

Every test runs under ``each_kernel`` and compares against a reference
computed on the Python kernel, so the ``python`` leg pins determinism and the
``compiled`` leg pins equivalence.
"""

from __future__ import annotations

import collections
import copy
import json
import pickle

import pytest

from repro import kernel
from repro.errors import SimulationError
from repro.experiments import paper_experiment, run_experiment, run_multiflow
from repro.experiments.scenarios import (
    aqm_vs_droptail,
    ecn_mptcp_fairness,
    link_flap_failover,
    mptcp_vs_tcp_shared_bottleneck,
)
from repro.netsim import capture as capture_module
from repro.netsim.capture import PacketCapture
from repro.netsim.engine import Simulator, make_simulator
from repro.netsim.link import Link, LinkStats
from repro.netsim.network import Network
from repro.netsim.node import Host, Node, NodeStats, Router
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.routing import TagRoutingTable
from repro.netsim.topology import Topology
from repro.tcp.connection import TcpConnection
from repro.tcp.receiver import ReceiverStats, TcpReceiver
from repro.tcp.sender import SenderStats, TcpSender
from tests.kernel_state import snapshot
from tests.test_kernel import run_micro


def line_network(queue_kind: str = "droptail", queue_packets: int = 20) -> Network:
    """s -- r -- d with the bottleneck (and so the queue) on r -> d."""
    topology = Topology("line")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("r")
    topology.add_link("s", "r", 100.0, 0.001, 100)
    topology.add_link("r", "d", 20.0, 0.002, queue_packets, queue_kind)
    network = Network(topology)
    network.install_path(["s", "r", "d"], tag=1, as_default=True)
    return network


class Scene:
    """One network with TCP flows s -> d, run on the event loop directly.

    ``sim.run`` rather than ``Network.run``: these scenes are about link
    events under Python handlers, not about the whole-window bypass.
    """

    def __init__(self, mode: str, *, flows: int = 1, ecn: bool = False, **line) -> None:
        self.mode = mode
        with kernel.override(mode):
            self.network = line_network(**line)
            self.capture = self.network.attach_capture("d", data_only=False)
            self.connections = [
                TcpConnection(self.network, "s", "d", cc="cubic", tag=1, flow_id=7 + i,
                              subflow_id=i, ecn=ecn)
                for i in range(flows)
            ]
            for connection in self.connections:
                connection.start(0.0)
        self.sim = self.network.sim
        self.bottleneck = self.network.link("r", "d")
        self.extras = []  # captures a script attached; compared like self.capture

    def run(self, until: float, **kwargs) -> "Scene":
        with kernel.override(self.mode):
            self.sim.run(until=until, **kwargs)
        return self

    def state(self) -> dict:
        return snapshot(self.network, self.connections, [self.capture] + self.extras)


def both(each_kernel: str, script, **scene_options) -> Scene:
    """Run ``script(scene)`` on this leg's kernel and on the Python reference;
    assert the two states equal and return this leg's scene."""
    scenes = []
    for mode in (each_kernel, "python"):
        scene = Scene(mode, **scene_options)
        script(scene)
        scenes.append(scene)
    assert scenes[0].state() == scenes[1].state()
    if each_kernel == "compiled":
        assert type(scenes[0].bottleneck) is scenes[0].sim.link_type
        assert 0 < scenes[0].sim.events_native <= scenes[0].sim.events_processed
    else:
        assert type(scenes[0].bottleneck) is Link
    return scenes[0]


class TestLinkTypeSelection:
    def test_link_constructor_picks_the_simulators_link_type(self, each_kernel):
        sim = make_simulator()
        routing = TagRoutingTable()
        a, b = Host("a", sim, routing), Host("b", sim, routing)
        link = Link(sim, a, b, rate_bps=1e6, delay=0.001)
        assert isinstance(link, Link) and isinstance(link.queue, DropTailQueue)
        if each_kernel == "compiled":
            assert type(link) is sim.link_type is not Link
            assert not hasattr(link, "__dict__")
            assert type(link).send is not Link.send
        else:
            assert type(link) is Link and not hasattr(sim, "link_type")

    def test_a_foreign_packet_runs_the_python_body(self, each_kernel):
        # Anything but sim.packet_type is handed to Link.send's Python body,
        # which fails on what it cannot read, as on the Python kernel.
        link = line_network().link("s", "r")
        with pytest.raises(AttributeError, match="size"):
            link.send(object())

    def test_native_link_rejects_what_it_cannot_read(self, each_kernel):
        if each_kernel != "compiled":
            pytest.skip("the Python link is duck-typed")
        link = line_network().link("s", "r")
        del link.stats
        with pytest.raises(AttributeError, match="stats"):
            link.send(link.sim.packet_type("s", "d", 100))


def stats_owners(scene: Scene) -> dict:
    """Every link, node and TCP agent of ``scene``, by a readable name."""
    owners = {f"link {a}->{b}": link for (a, b), link in scene.network.links.items()}
    owners.update((f"node {name}", node) for name, node in scene.network.nodes.items())
    for connection in scene.connections:
        owners[f"sender {connection.flow_id}"] = connection.sender
        owners[f"receiver {connection.flow_id}"] = connection.receiver
    return owners


def counters(scene: Scene) -> dict:
    """Every counter of every stats object in ``scene``, with its type."""
    return {
        (who, name): (type(value).__name__, value)
        for who, owner in stats_owners(scene).items()
        for name in type(owner.stats).__slots__
        for value in [getattr(owner.stats, name)]
    }


#: By owner kind: the KernelSim attribute naming its native stats type, and
#: the Python class that type extends.
NATIVE_STATS = {"link": ("link_stats_type", LinkStats), "node": ("node_stats_type", NodeStats),
                "sender": ("sender_stats_type", SenderStats),
                "receiver": ("receiver_stats_type", ReceiverStats)}


class TestNativeCounters:
    """On a KernelSim the stats of links, nodes and agents, and a link's
    ``_busy_until`` / ``_serve_at``, are C numbers under the slot names."""

    def test_owners_build_the_simulators_stats_types(self, each_kernel):
        scene = Scene(each_kernel)
        for who, owner in stats_owners(scene).items():
            attr, python_class = NATIVE_STATS[who.split()[0]]
            if each_kernel == "compiled":
                native = getattr(scene.sim, attr)
                assert type(owner.stats) is native and native.__base__ is python_class, who
            else:
                assert type(owner.stats) is python_class and not hasattr(scene.sim, attr), who
        if each_kernel == "compiled":
            fields = vars(scene.sim.link_type)
            assert {type(fields[name]).__name__ for name in ("_busy_until", "_serve_at")} == {
                "getset_descriptor"}

    @pytest.mark.parametrize("line", [
        {"flows": 4, "queue_packets": 8},
        {"flows": 4, "queue_kind": "red", "ecn": True},
    ], ids=["droptail-4-flows", "red-ecn-4-flows"])
    def test_every_counter_equals_the_python_tiers(self, each_kernel, line):
        counted = counters(Scene(each_kernel, **line).run(1.0))
        assert counted == counters(Scene("python", **line).run(1.0))
        assert sum(v for (_, name), (_, v) in counted.items() if name == "dupacks") > 0

    def test_a_counter_takes_ints_and_nothing_it_cannot_hold(self, each_kernel):
        if each_kernel != "compiled":
            pytest.skip("a Python counter holds any object")
        scene = Scene(each_kernel).run(0.05)
        stats, link = scene.bottleneck.stats, scene.bottleneck
        stats.packets_sent = 7
        stats.busy_time = 2
        link._serve_at = 3
        assert (stats.packets_sent, stats.busy_time, link._serve_at) == (7, 2.0, 3.0)
        assert type(stats.busy_time) is type(link._serve_at) is float
        bytes_sent = stats.bytes_sent
        with pytest.raises(TypeError, match="packets_sent must be an int, not float"):
            stats.packets_sent = 1.5
        with pytest.raises(TypeError):
            stats.busy_time = "slow"
        with pytest.raises(OverflowError):
            stats.bytes_sent = 2 ** 63
        for owner, name in ((stats, "packets_sent"), (stats, "busy_time"), (link, "_busy_until")):
            with pytest.raises(TypeError, match=f"cannot delete {name}"):
                delattr(owner, name)
        # A refused value leaves the field as it was.
        assert (stats.packets_sent, stats.busy_time, stats.bytes_sent) == (7, 2.0, bytes_sent)

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda stats: pickle.loads(pickle.dumps(stats)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_python_class_with_the_same_counters(self, each_kernel, duplicate):
        if each_kernel != "compiled":
            pytest.skip("nothing native to copy")
        scene = Scene(each_kernel).run(0.3)
        for who, owner in stats_owners(scene).items():
            twin = duplicate(owner.stats)
            assert type(twin) is type(owner.stats).__base__, who
            assert [getattr(twin, name) for name in twin.__slots__] == [
                getattr(owner.stats, name) for name in twin.__slots__], who

    def test_a_foreign_stats_object_is_a_type_error_naming_the_native_type(self, each_kernel):
        if each_kernel != "compiled":
            pytest.skip("the Python link is duck-typed")
        network = line_network()
        upstream = network.link("s", "r")
        upstream.stats = LinkStats()
        with pytest.raises(TypeError, match=r"must be a repro\.kernel\._ckernel\.LinkStats"):
            upstream.send(network.sim.packet_type("s", "d", 100))
        network = line_network()
        network.node("r").stats = NodeStats()
        assert network.link("s", "r").send(network.sim.packet_type("s", "d", 100))
        with pytest.raises(TypeError, match=r"must be a repro\.kernel\._ckernel\.NodeStats"):
            network.sim.run(until=1.0)


class TestDynamicsMidRun:
    """A link goes dynamic at t > 0 with packets in flight and queued."""

    def test_rate_down_then_up(self, each_kernel):
        def script(scene):
            scene.sim.schedule_at(0.30, scene.network.set_link_rate, "r", "d", 5.0)
            scene.sim.schedule_at(0.55, scene.network.set_link_rate, "r", "d", 40.0)
            scene.run(0.30)
            assert scene.bottleneck._in_flight and scene.bottleneck.queue._queue
            scene.run(0.8)

        scene = both(each_kernel, script)
        assert scene.bottleneck._dynamic and scene.bottleneck.rate_bps == 40e6

    def test_delay_cut_never_reorders(self, each_kernel):
        # 2 ms -> 0.2 ms is more than a serialisation time (0.6 ms): packets
        # sent after the cut would overtake those on the wire without the
        # non-decreasing deadline clamp.
        def script(scene):
            scene.sim.schedule_at(0.30, scene.network.set_link_delay, "r", "d", 0.0002)
            scene.run(0.30)
            scene.before = len(scene.capture.records)
            scene.run(0.6)

        scene = both(each_kernel, script)
        times = [r.time for r in scene.capture.records]
        assert times == sorted(times) and len(times) > scene.before
        seqs = [r.seq for r in scene.capture.records[scene.before:scene.before + 20]]
        assert seqs == sorted(seqs)

    def test_down_parked_then_up(self, each_kernel):
        def script(scene):
            scene.sim.schedule_at(0.30, lambda: scene.network.set_link_down(
                "r", "d", bidirectional=False, flush="park"))
            scene.sim.schedule_at(0.45, lambda: scene.network.set_link_up(
                "r", "d", bidirectional=False))
            scene.run(0.40)
            assert not scene.bottleneck.up and scene.bottleneck.queue._queue
            scene.run(1.0)

        scene = both(each_kernel, script)
        assert scene.bottleneck.up and scene.bottleneck.stats.packets_dropped > 0

    def test_seeded_loss_burst(self, each_kernel):
        def script(scene):
            scene.sim.schedule_at(0.30, lambda: scene.network.start_loss_burst(
                "r", "d", 0.2, 0.3, seed=11))
            scene.run(0.9)

        scene = both(each_kernel, script)
        assert scene.bottleneck.stats.packets_dropped > 0
        assert not scene.bottleneck._impaired  # cleared lazily by a later send


class TestServeChainEdges:
    """Branches of ``_serve_queue`` no schedule reaches: state is set by hand,
    identically on both kernels."""

    def test_live_serve_event_rearms_past_a_moved_busy_until(self, each_kernel):
        def script(scene):
            scene.run(0.30)
            link = scene.bottleneck
            assert link._serving and link.queue._queue
            link._go_dynamic()
            link._busy_until += 0.001  # as a re-plan of the in-service packet would
            scene.run(0.6)

        both(each_kernel, script)

    def test_queue_drained_elsewhere_ends_the_serve_chain(self, each_kernel):
        def script(scene):
            scene.run(0.30)
            queue = scene.bottleneck.queue
            assert scene.bottleneck._serving and queue._queue
            # Nothing new may arrive before the pending serve event fires.
            scene.network.set_link_down("s", "r", bidirectional=False)
            upstream = scene.network.link("s", "r")
            upstream._in_flight.clear()
            upstream._deadlines.clear()
            queue._queue.clear()
            queue._bytes = 0
            scene.run(0.31)
            assert not scene.bottleneck._serving
            scene.network.set_link_up("s", "r", bidirectional=False)
            scene.run(1.2)

        scene = both(each_kernel, script)
        assert scene.connections[0].sender.stats.retransmissions > 0


class TestPolicyStaysPython:
    @pytest.mark.parametrize("queue_kind", ["red", "codel"])
    def test_aqm_queue_verdicts(self, each_kernel, queue_kind):
        scene = both(each_kernel, lambda scene: scene.run(1.0),
                     queue_kind=queue_kind, queue_packets=40, ecn=True)
        stats = scene.bottleneck.queue.stats
        assert stats.ecn_marks + stats.early_drops > 0 and stats.queue_delay_sum > 0

    def test_plain_function_tap_beside_a_packet_capture(self, each_kernel):
        seen = {}

        def script(scene):
            rows = seen.setdefault(scene.mode + str(len(seen)), [])
            scene.network.host("d").add_capture(
                lambda packet, now: rows.append((now, packet.seq, packet.hops)))
            scene.run(0.4)

        scene = both(each_kernel, script)
        first, second = seen.values()
        assert first == second and len(first) == len(scene.capture.records)

    @staticmethod
    def count_python_deliveries(monkeypatch):
        """Count the runs of ``Host._deliver_locally``'s Python body, by host.

        Patched after the links are built, so it never turns their fused
        receive off: on a ``KernelSim`` a native packet's local delivery
        runs in C and is not counted; any other packet's is."""
        seen = []
        body = Host._deliver_locally

        def counting(self, packet):
            seen.append(self)
            body(self, packet)

        monkeypatch.setattr(Host, "_deliver_locally", counting)
        return seen

    def stray_scene(self, each_kernel, monkeypatch, stray_fields, until, **scene_options):
        """A scene whose host s sends one stray packet of the kernel's own
        packet type at 0.2 s: the C dispatch meets a flow it has no agent for."""
        seen = self.count_python_deliveries(monkeypatch)

        def script(scene):
            kind = getattr(scene.sim, "packet_type", Packet)
            scene.stray = kind("s", "d", 200, tag=1, **stray_fields)
            scene.sim.schedule_at(0.2, scene.network.host("s").send, scene.stray)
            scene.run(until)
            scene.python_deliveries = sum(host is scene.network.host("d") for host in seen)

        scene = both(each_kernel, script, **scene_options)
        host = scene.network.host("d")
        assert scene.stray.hops == 2
        if each_kernel == "compiled":
            assert type(scene.stray) is scene.sim.packet_type
            assert scene.python_deliveries == 0
        else:
            assert scene.python_deliveries == host.stats.delivered
        return scene

    def test_two_agents_and_an_unknown_flow(self, each_kernel, monkeypatch):
        # Two agents: the stray flow is a miss of the dispatch memo.
        scene = self.stray_scene(each_kernel, monkeypatch, {"flow_id": 999}, 0.5, flows=2)
        host = scene.network.host("d")
        assert host._sole_agent is None and len(host._agents) == 2
        assert all(c.receiver.stats.bytes_received > 0 for c in scene.connections)
        assert host.stats.delivered == len(scene.capture.records)

    def test_sole_agent_ignores_its_flows_other_subflows(self, each_kernel, monkeypatch):
        scene = self.stray_scene(each_kernel, monkeypatch,
                                 {"flow_id": 7, "subflow_id": 3, "seq": 10**9}, 0.4)
        host = scene.network.host("d")
        assert host._sole_agent is scene.connections[0].receiver
        assert host.stats.delivered == scene.connections[0].receiver.stats.segments_received + 1

    def test_install_path_bumps_the_routing_version(self, each_kernel):
        def script(scene):
            scene.sim.schedule_at(0.25, scene.network.install_path, ["s", "r", "d"], 5)
            scene.run(0.25)
            scene.hits_before = scene.network.node("r").stats.forwarded
            scene.run(0.5)

        scene = both(each_kernel, script)
        router = scene.network.node("r")
        assert router._hop_version == scene.network.routing.version > 1
        assert router.stats.forwarded > scene.hits_before

    def test_overridden_receive_is_called_not_fused(self, each_kernel):
        class CountingRouter(Router):
            __slots__ = ("seen",)

            def receive(self, packet, link=None):
                kind = getattr(self.sim, "packet_type", Packet)
                self.seen.append((packet.seq, link.name, type(packet) is kind))
                super().receive(packet, link)

        def chain(mode):
            with kernel.override(mode):
                sim = make_simulator()
                routing = TagRoutingTable()
                routing.install_path(["s", "r", "d"], 1)
                s, d = Host("s", sim, routing), Host("d", sim, routing)
                r = CountingRouter("r", sim, routing)
                r.seen = []
                for a, b in ((s, r), (r, d)):
                    a.attach_link(Link(sim, a, b, rate_bps=1e7, delay=0.001))
                got = []
                d.add_capture(lambda packet, now: got.append((now, packet.seq, packet.hops)))
                # The kernel's own packet type: on a KernelSim the link's C
                # _deliver meets the override and calls it.
                kind = getattr(sim, "packet_type", Packet)
                for seq in range(5):
                    sim.schedule_at(seq * 1e-4, s.send, kind("s", "d", 1000, tag=1, seq=seq))
                sim.run()
                stats = [(n.stats.received, n.stats.forwarded, n.stats.delivered)
                         for n in (s, r, d)]
                native = getattr(sim, "events_native", 0)
                return (r.seen, got, stats, sim.events_processed, sim._seq), native

        here, native = chain(each_kernel)
        assert here == chain("python")[0]
        seen = here[0]
        assert len(seen) == 5 and all(ours for _seq, _link, ours in seen)
        if each_kernel == "compiled":
            # Every event but the five sends was a link's, and ran in C.
            assert native == here[3] - len(seen)


class TestStockTapIsNative:
    """The stock ``PacketCapture.on_packet`` runs in C on a ``KernelSim`` host;
    every scene compares the stored row bytes with the Python kernel's
    (``snapshot``'s ``capture_rows``), so these pin where the C body stops."""

    def test_the_row_layout_is_one_layout(self, each_kernel):
        assert capture_module._ROW.size == capture_module._ROW_DTYPE.itemsize == 72
        if each_kernel == "compiled":
            assert kernel.compiled_module().CAPTURE_ROW_SIZE == capture_module._ROW.size

    def test_a_subclass_overriding_on_packet_keeps_its_python_body(self, each_kernel):
        class Counting(PacketCapture):
            def on_packet(self, packet, now):
                self.calls += 1
                super().on_packet(packet, now)

        def script(scene):
            counting = Counting(data_only=True)
            counting.calls = 0
            scene.extras.append(counting)
            scene.network.host("d").add_capture(counting.on_packet)
            scene.run(0.4)

        scene = both(each_kernel, script)
        counting = scene.extras[0]
        assert counting.calls == scene.network.host("d").stats.delivered == len(counting) > 0

    def test_a_subclass_that_inherits_on_packet_is_called_too(self, each_kernel):
        # Exact class only: the slots a subclass shows need not be the ones it uses.
        class DataOnly(PacketCapture):
            data_only = property(lambda self: True, lambda self, value: None)

        def script(scene):
            scene.extras.append(DataOnly("acks-at-s"))
            scene.network.host("s").add_capture(scene.extras[0].on_packet)
            scene.run(0.4)

        scene = both(each_kernel, script)
        assert scene.network.host("s").stats.delivered > 0 == len(scene.extras[0])

    def test_taps_fire_in_list_order_whatever_their_kind(self, each_kernel):
        def script(scene):
            second = PacketCapture("second")
            scene.extras.append(second)
            scene.order = []
            host = scene.network.host("d")
            # [stock tap, plain function, stock tap]: the function sees the
            # first capture's row written and the second's not yet.
            host.add_capture(
                lambda packet, now: scene.order.append((len(scene.capture), len(second))))
            host.add_capture(second.on_packet)
            scene.run(0.4)

        scene = both(each_kernel, script)
        assert len(scene.order) == len(scene.capture) == len(scene.extras[0]) > 0
        assert scene.order == [(k + 1, k) for k in range(len(scene.order))]

    def test_negative_tag_raises_the_python_text_and_writes_no_row(self, each_kernel):
        def script(scene):
            # The kernel's own packet type, so the C tap is the one refusing.
            kind = getattr(scene.sim, "packet_type", Packet)
            host = scene.network.host("s")
            good = [kind("s", "d", 200, tag=1, flow_id=7, seq=seq) for seq in (1, 3)]
            scene.sim.schedule_at(0.1, host.send, good[0])
            # Straight onto the last link: no route is installed for tag -3.
            scene.sim.schedule_at(0.2, scene.bottleneck.send, kind("s", "d", 200, tag=-3, seq=2))
            scene.sim.schedule_at(0.3, host.send, good[1])
            untagged = kind("s", "d", 200, flow_id=7, seq=4)
            scene.sim.schedule_at(0.4, host.send, untagged)
            with pytest.raises(
                ValueError, match=r"^negative path tags are reserved by the capture, got -3$"
            ):
                scene.run(1.0)
            assert len(scene.capture) == 1 and len(scene.capture._rows) == 72
            scene.run(1.0)

        scene = both(each_kernel, script, flows=0)
        assert [(r.seq, r.tag) for r in scene.capture.records] == [(1, 1), (3, 1), (4, None)]

    def test_a_field_struct_pack_refuses_is_the_python_bodys_error(self, each_kernel):
        import struct

        def script(scene):
            # A number no C field holds: a foreign packet's, or the native
            # packet's tag slot, which the C tap leaves to the Python body.
            kind = getattr(scene.sim, "packet_type", Packet)
            scene.sim.schedule_at(0.1, scene.bottleneck.send, Packet("s", "d", 200, dsn=2**70))
            with pytest.raises(struct.error):
                scene.run(1.0)
            scene.sim.schedule_at(1.05, scene.bottleneck.send, kind("s", "d", 200, tag=2**70))
            with pytest.raises(struct.error):
                scene.run(1.1)
            assert len(scene.capture._rows) == 0
            # An int-like field converts through __index__, as struct.pack does.
            scene.sim.schedule_at(1.1, scene.bottleneck.send, Packet("s", "d", 200, dsn=_Index(9)))
            scene.run(2.0)

        scene = both(each_kernel, script, flows=0)
        assert [r.dsn for r in scene.capture.records] == [9]

    def test_filters_are_read_per_packet(self, each_kernel):
        def script(scene):
            acks = scene.network.attach_capture("s")
            scene.extras.append(acks)
            scene.counts = []
            for until, data_only, flow_id in (
                (0.2, False, None), (0.3, True, None), (0.4, False, 8), (0.5, False, None),
            ):
                acks.data_only, acks.flow_id = data_only, flow_id
                before = len(acks)
                scene.run(until)
                scene.counts.append({r.flow_id for r in acks.records[before:]})

        scene = both(each_kernel, script, flows=2)
        # Only ACKs reach s: data_only records nothing, a flow filter one flow.
        assert scene.counts == [{7, 8}, set(), {8}, {7, 8}]

    def test_a_live_view_makes_the_next_delivery_a_buffer_error(self, each_kernel):
        def script(scene):
            scene.run(0.2)
            rows = len(scene.capture)
            view = scene.capture._all_columns()
            with pytest.raises(BufferError):
                scene.run(0.3)
            assert len(view) == rows == len(scene.capture)
            del view
            scene.run(0.4)
            assert len(scene.capture) > rows

        both(each_kernel, script)

    def test_clear_between_windows(self, each_kernel):
        def script(scene):
            scene.run(0.2)
            scene.first = scene.capture.records
            scene.capture.clear()
            assert len(scene.capture) == 0 and scene.capture.records == ()
            scene.run(0.4)

        scene = both(each_kernel, script)
        assert scene.first and scene.capture.records
        assert scene.capture.records[0].time > scene.first[-1].time


class _Index:
    """An int-like that is not an int (``struct.pack`` takes it, the C tap defers)."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class TestRunLoopContract:
    def test_raising_handler_leaves_a_reusable_simulator(self, each_kernel):
        class Boom(RuntimeError):
            pass

        errors = []

        def script(scene):
            original = scene.connections[0].receiver.handle_packet
            calls = []

            def flaky(packet):
                calls.append(packet.seq)
                if len(calls) == 40:
                    raise Boom(f"segment {packet.seq} at t={scene.sim.now}")
                original(packet)

            host = scene.network.host("d")
            host.unregister_agent(7, 0)
            host.register_agent(7, 0, type("Agent", (), {"handle_packet": staticmethod(flaky)})())
            with pytest.raises(Boom) as caught:
                scene.run(0.5)
            errors.append(str(caught.value))
            assert not scene.sim._running and scene.sim.now < 0.5
            scene.run(0.5)

        both(each_kernel, script)
        assert errors[0] == errors[1] and errors[0].startswith("segment ")

    def test_stop_from_inside_handle_packet(self, each_kernel):
        def script(scene):
            sender = scene.connections[0].sender
            original = sender.handle_packet
            acks = []

            def stopping(packet):
                original(packet)
                acks.append(packet.ack)
                if len(acks) == 25:
                    scene.sim.stop()

            host = scene.network.host("s")
            host.unregister_agent(7, 0)
            host.register_agent(7, 0, type("Agent", (), {"handle_packet": staticmethod(stopping)})())
            scene.run(0.5)
            scene.stopped_at = scene.sim.now
            assert scene.stopped_at < 0.5 and scene.sim.pending_events
            scene.run(0.5)

        both(each_kernel, script)

    def test_max_events_lands_between_a_deliver_and_its_serve(self, each_kernel):
        # One event per run() call, both kernels in lockstep: wherever the
        # budget runs out -- a delivery made, its link's serve still pending
        # -- the states agree.
        scenes = [Scene(each_kernel).run(0.2), Scene("python").run(0.2)]
        between = 0
        for _ in range(80):
            for scene in scenes:
                scene.run(None, max_events=1)
            assert scenes[0].state() == scenes[1].state()
            pending = {name for _t, _s, name, owner, _f in scenes[0].state()["heap"]
                       if owner == "r->d"}
            between += pending == {"Link._deliver", "Link._serve_queue"}
        assert between and scenes[0].sim.now < 0.3

    def test_nan_times_are_rejected_and_inf_parks(self, each_kernel):
        sim = make_simulator()
        fired = []
        for name in ("schedule", "schedule_at", "schedule_fast", "schedule_fast_at"):
            with pytest.raises(SimulationError, match="NaN time .got nan"):
                getattr(sim, name)(float("nan"), fired.append, name)
        sim.schedule_fast_at(float("inf"), fired.append, "parked")
        sim.schedule_fast(1.0, fired.append, "one")
        assert sim.run(until=3.0) == 3.0 and fired == ["one"]
        assert sim.pending_events == 1


class TestWholeExperiments:
    """MPTCP, AQM/ECN and link-flap scenes: the result JSON is the contract."""

    @pytest.mark.parametrize("make", [
        lambda: mptcp_vs_tcp_shared_bottleneck(duration=0.6),
        lambda: aqm_vs_droptail(queue_kind="red", ecn=True, duration=0.6),
        lambda: ecn_mptcp_fairness(queue_kind="codel", congestion_control_a="sfc",
                                   congestion_control_b="telehaptic", duration=0.6),
    ], ids=["mptcp-vs-tcp", "red-ecn", "codel-sfc-telehaptic"])
    def test_multiflow_result_json(self, each_kernel, make):
        with kernel.override("python"):
            reference = json.dumps(run_multiflow(make()).summary(), sort_keys=True)
        assert json.dumps(run_multiflow(make()).summary(), sort_keys=True) == reference

    def test_link_flap_result_json(self, each_kernel):
        with kernel.override("python"):
            reference = json.dumps(run_experiment(link_flap_failover(duration=1.0)).summary(),
                                   sort_keys=True)
        result = run_experiment(link_flap_failover(duration=1.0))
        assert json.dumps(result.summary(), sort_keys=True) == reference


class TestAfterANativeSceneWindow:
    def test_second_window_delivers_rebuilt_packets_by_native_events(self, each_kernel):
        state, outcomes = run_micro(each_kernel, windows=2)
        assert state == run_micro("python", windows=2)[0]
        if each_kernel == "compiled":
            assert outcomes[0] == "native" and outcomes[1] != "native"

    def test_written_back_entries_are_native(self, each_kernel):
        if each_kernel != "compiled":
            pytest.skip("the Python heap holds bound methods only")
        network = line_network()
        connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
        connection.start(0.0)
        network.run(0.3)
        assert network.bypass_outcome == "native"
        sim = network.sim
        before = sim.events_native
        pending = [cb.__qualname__ for _t, _s, cb, _a in sim._export_entries() if cb]
        assert "Link._deliver" in pending
        sim.run(until=0.35)
        assert sim.events_native > before


class TestThePythonTierRunsTheReferenceBodies:
    """The python tier is the specification, so its hot path must *call* the
    bodies the C twins are compared against, not carry copies of them."""

    BODIES = (
        (Node, "receive"),
        (Host, "_deliver_locally"),
        (Link, "_transmit"),
        (Simulator, "schedule_fast_at"),
        (TcpSender, "_transmit_segment"),
        (TcpReceiver, "_deliver"),
        (Packet, "release"),
    )

    def test_every_reference_body_runs(self, monkeypatch):
        calls = collections.Counter()
        receivers = set()

        def counting(owner, name):
            body = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                calls[f"{owner.__name__}.{name}"] += 1
                if name == "receive":
                    receivers.add(self)
                return body(self, *args, **kwargs)

            return wrapper

        # Before any scene is built: a link binds its node's receive once.
        for owner, name in self.BODIES:
            monkeypatch.setattr(owner, name, counting(owner, name))
        with kernel.override("python"):
            result = run_experiment(paper_experiment("lia", duration=1.0))
        assert result.summary()["achieved_mean_mbps"] > 0
        Scene("python").run(0.2)  # s -> Router r -> d: one forwarded hop
        assert set(calls) == {f"{owner.__name__}.{name}" for owner, name in self.BODIES}
        assert all(count > 0 for count in calls.values()), calls
        hosts = [node for node in receivers if isinstance(node, Host)]
        routers = [node for node in receivers if isinstance(node, Router)]
        assert calls["Host._deliver_locally"] == sum(host.stats.delivered for host in hosts)
        assert calls["Node.receive"] == sum(node.stats.received for node in receivers)
        assert routers and all(router.stats.forwarded > 0 for router in routers)
