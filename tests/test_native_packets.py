"""Tier-boundary tests for the compiled kernel's native packets.

On a ``KernelSim`` every packet the native agents build is
``KernelSim.packet_type``: its numbers are C fields, it comes from and goes
back to a free list, its id is drawn from the sequence ``Packet()`` and
``acquire()`` draw from, and a native link forwards it through a hop memo
checked against the routing table's version.  Any other packet -- a UDP
source's, a Python ``TcpSender`` subclass's, a hand-built one -- is foreign
and runs the Python bodies wherever it goes.  Queue counters are
``KernelSim.queue_stats_type``.  Each scene runs on this leg's kernel and on
the Python reference and must leave the same observable state
(:func:`tests.kernel_state.snapshot`).
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import kernel
from repro.netsim import packet as packet_module
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.netsim.queues import QueueStats
from repro.netsim.topology import Topology
from repro.tcp import connection as tcp_connection
from repro.tcp.connection import TcpConnection
from repro.tcp.sender import TcpSender
from repro.workload.sources import UdpConstantBitRate
from tests.kernel_state import packet_fields, snapshot


class PythonSender(TcpSender):
    """A Python subclass: it keeps the Python bodies, and its packets are
    acquired in Python, so on a KernelSim they are foreign."""

    __slots__ = ()


def red_chain() -> Network:
    """s -- r1 -- r2 -- d, RED on the r2 -> d bottleneck: the whole-window
    Scene declines it, so every window runs on the event loop."""
    topology = Topology("chain")
    topology.add_host("s")
    topology.add_host("d")
    topology.add_router("r1")
    topology.add_router("r2")
    topology.add_link("s", "r1", 100.0, 0.001, 100)
    topology.add_link("r1", "r2", 50.0, 0.001, 100)
    topology.add_link("r2", "d", 12.0, 0.002, 30, "red")
    network = Network(topology)
    network.install_path(["s", "r1", "r2", "d"], tag=1, as_default=True)
    return network


class TestForeignPackets:
    def run_chain(self, mode: str, monkeypatch):
        with kernel.override(mode):
            network = red_chain()
            capture = network.attach_capture("d", data_only=False)
            native = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7, ecn=True)
            with monkeypatch.context() as patch:
                patch.setattr(tcp_connection, "TcpSender", PythonSender)
                python = TcpConnection(network, "s", "d", cc="reno", tag=1, flow_id=8)
            udp = UdpConstantBitRate(network, "s", "d", 3.0, tag=1, flow_id=9)
            native.start(0.0)
            python.start(0.01)
            udp.start(at=0.02, stop_at=0.6)
            ingress = network.link("s", "r1")
            for seq in range(5):
                # Hand-built, for no agent: delivered at d and ignored there.
                network.sim.schedule_at(0.1 + seq * 0.05, ingress.send,
                                        Packet("s", "d", 700, tag=1, flow_id=99, seq=seq))
            network.run(0.4)
            network.run(0.4)
        state = snapshot(network, [native, python], [capture])
        return network, state, (udp.packets_sent, udp.sink.packets_received,
                                udp.sink.bytes_received), (native, python)

    def test_foreign_packets_cross_a_multi_hop_red_path(self, each_kernel, monkeypatch):
        network, state, udp, (native, python) = self.run_chain(each_kernel, monkeypatch)
        _, reference, reference_udp, _ = self.run_chain("python", monkeypatch)
        assert state == reference
        assert udp == reference_udp and udp[1] > 0
        assert type(python.sender) is PythonSender
        assert python.sender.stats.segments_sent > 0 and native.sender.stats.segments_sent > 0
        assert network.node("d").stats.delivered == len(state["captures"][0])
        if each_kernel == "compiled":
            assert network.bypass_outcome != "native"
            assert type(native.sender) is network.sim.sender_type
            queue = network.link("r2", "d").queue
            assert type(queue.stats) is network.sim.queue_stats_type
            assert queue.stats.ecn_marks + queue.stats.early_drops > 0


def diamond(mode: str) -> Network:
    """s -- r, then r -- a -- d or r -- b -- d: two ways through r."""
    with kernel.override(mode):
        topology = Topology("diamond")
        topology.add_host("s")
        topology.add_host("d")
        for router in ("r", "a", "b"):
            topology.add_router(router)
        topology.add_link("s", "r", 100.0, 0.001, 100)
        for via in ("a", "b"):
            topology.add_link("r", via, 20.0, 0.002, 40)
            topology.add_link(via, "d", 100.0, 0.001, 100)
        network = Network(topology)
        network.install_path(["s", "r", "a", "d"], tag=1, as_default=True)
        return network


class TestHopResolution:
    def run_switch(self, mode: str):
        network = diamond(mode)
        with kernel.override(mode):
            connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
            connection.start(0.0)
            network.sim.schedule_at(0.3, network.install_path, ["s", "r", "b", "d"], 1)
            network.sim.run(until=0.3)
            via_a = network.link("r", "a")
            before = (via_a.stats.packets_sent, len(via_a.queue._queue))
            network.sim.run(until=0.7)
        return network, connection, before

    def test_install_path_mid_run_moves_the_hop_resolution(self, each_kernel):
        network, connection, (sent_a, queued_a) = self.run_switch(each_kernel)
        reference, reference_connection, _ = self.run_switch("python")
        assert snapshot(network, [connection], []) == snapshot(
            reference, [reference_connection], [])
        via_a, via_b = network.link("r", "a"), network.link("r", "b")
        # After the switch r sends (d, 1) to b; a only drains what it held.
        assert via_b.stats.packets_sent > 0
        assert via_a.stats.packets_sent - sent_a <= queued_a + 1
        assert network.node("r")._hop_version == network.routing.version
        if each_kernel == "compiled":
            ingress = network.link("s", "r")
            assert type(ingress._hop_memo).__name__ == "HopMemo"
            # Anything else in its place is replaced, never read as a memo.
            ingress._hop_memo = "junk"
            with kernel.override(each_kernel):
                network.sim.run(until=0.8)
            assert type(ingress._hop_memo).__name__ == "HopMemo"


class TestLocalDispatch:
    def run_close(self, mode: str):
        with kernel.override(mode):
            network = red_chain()
            first, second = (
                TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7, subflow_id=sub)
                for sub in (0, 1))
            first.start(0.0)
            second.start(0.0)
            # Packets of the closed incarnation still in flight then reach a
            # host that no longer dispatches them.
            network.sim.schedule_at(0.3, second.close)
            network.sim.run(until=0.3)
            received = second.receiver.stats.segments_received
            network.sim.run(until=0.6)
        return network, (first, second), received

    def test_a_host_whose_agents_change_mid_run_dispatches_as_its_tables_say(
            self, each_kernel):
        network, connections, received = self.run_close(each_kernel)
        reference, reference_connections, _ = self.run_close("python")
        assert snapshot(network, connections, []) == snapshot(
            reference, reference_connections, [])
        first, second = connections
        assert second.receiver.stats.segments_received == received > 0
        assert first.receiver.stats.segments_received > received
        assert network.host("d")._sole_agent is first.receiver


@pytest.fixture
def compiled_sim():
    available, reason = kernel.compiled_available()
    if not available:
        pytest.skip(f"compiled kernel unavailable: {reason}")
    with kernel.override("compiled"):
        network = red_chain()
        connection = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7)
        connection.start(0.0)
        network.sim.run(until=0.2)
    return network


#: The fields of a native packet that are C numbers, by kind.
INT_FIELDS = ("packet_id", "size", "flow_id", "subflow_id", "seq", "payload_len", "ack",
              "dsn", "dack", "hops")
FLOAT_FIELDS = ("ts_echo", "created_at", "enqueued_at")


class TestNativePacketFields:
    def test_the_kernels_packets_are_the_native_type(self, compiled_sim):
        sim = compiled_sim.sim
        assert sim.packet_type.__base__ is Packet
        assert sim.queue_stats_type.__base__ is QueueStats
        wire = [p for link in compiled_sim.links.values()
                for p in list(link._in_flight) + list(link.queue._queue)]
        assert wire and all(type(p) is sim.packet_type for p in wire)
        assert all(type(link.queue.stats) is sim.queue_stats_type
                   for link in compiled_sim.links.values())
        fields = vars(sim.packet_type)
        assert {type(fields[name]).__name__ for name in INT_FIELDS + FLOAT_FIELDS} == {
            "getset_descriptor"}

    def test_a_field_takes_ints_and_nothing_it_cannot_hold(self, compiled_sim):
        packet = compiled_sim.sim.packet_type("s", "d", 100, seq=5, created_at=2)
        assert (packet.size, packet.seq, packet.created_at) == (100, 5, 2.0)
        assert type(packet.created_at) is float
        packet.hops = 3
        packet.enqueued_at = 1
        with pytest.raises(TypeError, match="hops must be an int, not float"):
            packet.hops = 1.5
        with pytest.raises(TypeError):
            packet.ts_echo = "late"
        with pytest.raises(OverflowError):
            packet.dsn = 2 ** 63
        for name in ("size", "ts_echo"):
            with pytest.raises(TypeError, match=f"cannot delete {name}"):
                delattr(packet, name)
        # A refused value leaves the field as it was.
        assert (packet.hops, packet.enqueued_at, packet.dsn, packet.ts_echo) == (3, 1.0, 0, -1.0)
        # The other fields stay Python slots.
        packet.tag = "any"
        del packet.tag
        with pytest.raises(AttributeError):
            packet.tag

    def test_a_queue_counter_takes_ints_and_nothing_it_cannot_hold(self, compiled_sim):
        stats = compiled_sim.link("r2", "d").queue.stats
        enqueued = stats.enqueued
        with pytest.raises(TypeError, match="enqueued must be an int, not float"):
            stats.enqueued = 1.5
        with pytest.raises(OverflowError):
            stats.bytes_enqueued = -2 ** 64
        with pytest.raises(TypeError, match="cannot delete queue_delay_sum"):
            del stats.queue_delay_sum
        assert stats.enqueued == enqueued
        stats.queue_delay_sum = 1
        assert type(stats.queue_delay_sum) is float and stats.full_drops == (
            stats.dropped - stats.early_drops)

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_the_python_class_with_the_same_fields(self, compiled_sim, duplicate):
        packet = compiled_sim.sim.packet_type("s", "d", 100, tag=4, seq=9, sack_blocks=((1, 2),))
        twin = duplicate(packet)
        assert type(twin) is Packet
        assert packet_fields(twin) == packet_fields(packet)
        assert (twin.packet_id, twin._poolable) == (packet.packet_id, packet._poolable)
        stats = compiled_sim.link("r2", "d").queue.stats
        twin = duplicate(stats)
        assert type(twin) is QueueStats and twin.as_dict() == stats.as_dict()

    def test_one_id_sequence_for_every_packet(self, compiled_sim):
        assert type(packet_module._packet_counter).__name__ == "PacketIds"
        first = Packet("s", "d", 40)
        native = compiled_sim.sim.packet_type("s", "d", 40)
        with kernel.override("compiled"):
            compiled_sim.sim.run(until=0.5)
        built = [p.packet_id for link in compiled_sim.links.values()
                 for p in link._in_flight]
        last = Packet("s", "d", 40)
        assert first.packet_id < native.packet_id < min(built)
        assert max(built) < last.packet_id

    def test_release_recycles_a_kernel_packet_once(self, compiled_sim):
        sim = compiled_sim.sim
        kept = compiled_sim.link("s", "r1")._in_flight[0]
        assert type(kept) is sim.packet_type and kept._poolable
        made = sim.packet_type("s", "d", 40)
        made.release()      # built by hand: never pooled
        assert not made._poolable
        seq = kept.seq
        kept.release()
        kept.release()
        assert kept._poolable is False
        # Held here, it is never handed out again behind this reference.
        with kernel.override("compiled"):
            sim.run(until=0.4)
        assert kept.seq == seq
