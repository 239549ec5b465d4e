"""Tier-boundary tests for the compiled kernel's native transport.

On a ``KernelSim`` every ``TcpSender`` / ``TcpReceiver`` is
``KernelSim.sender_type`` / ``receiver_type``: ``handle_packet``,
``_try_send``, ``_fire_rto`` and ``_on_rto`` run the shared C bodies of
``_transport.h`` over the Python objects' ``__slots__`` and call Python only
where the Python bodies call something they do not define -- the congestion
controller, the data provider, the connection sink, ``on_idle``, a non-stock
RTT estimator.  Each scene here crosses one of those boundaries, or drives a
body through a corner the stock experiments rarely reach, and must leave the
observable state (:func:`tests.kernel_state.snapshot`) the Python kernel
leaves.

Every test runs under ``each_kernel`` against a reference computed on the
Python kernel: the ``python`` leg pins determinism, the ``compiled`` leg
equivalence.
"""

from __future__ import annotations

import pytest

from repro import kernel
from repro.core.connection import MptcpConnection
from repro.errors import ProtocolError
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.tcp import connection as tcp_connection
from repro.tcp.connection import BulkDataAdapter, TcpConnection, TransferQueueAdapter
from repro.tcp.receiver import ReceiverStats, TcpReceiver
from repro.tcp.rtt import RttEstimator
from repro.tcp.sender import SenderStats, TcpSender
from tests.conftest import make_two_path_scenario
from tests.kernel_state import network_snapshot, snapshot
from tests.test_kernel import micro_network
from tests.test_native_links import Scene, both


def transport_both(each_kernel, script, **scene_options) -> Scene:
    """:func:`tests.test_native_links.both`, plus: the agents are the native
    types exactly on the compiled leg."""
    scene = both(each_kernel, script, **scene_options)
    sender, receiver = scene.connections[0].sender, scene.connections[0].receiver
    if each_kernel == "compiled":
        assert type(sender) is scene.sim.sender_type is not TcpSender
        assert type(receiver) is scene.sim.receiver_type is not TcpReceiver
        assert isinstance(sender, TcpSender) and not hasattr(sender, "__dict__")
    else:
        assert type(sender) is TcpSender and type(receiver) is TcpReceiver
    return scene


def packet_type(agent):
    """The packet class the agent's kernel builds: on a KernelSim the native
    one, so a hand-made packet takes the C body as the agent's own do."""
    return getattr(agent.sim, "packet_type", Packet)


def ack_for(sender, ack, *, sack=(), ts_echo=-1.0, ecn=False) -> Packet:
    packet = packet_type(sender)(
        "d", "s", 60, is_ack=True, ack=ack, sack_blocks=sack,
        flow_id=sender.flow_id, subflow_id=sender.subflow_id, ts_echo=ts_echo)
    packet.ecn = ecn
    return packet


def data_for(receiver, seq, length, *, dsn=None, ecn=0, created_at=0.0) -> Packet:
    packet = packet_type(receiver)(
        "s", "d", length + 60, seq=seq, payload_len=length,
        dsn=seq if dsn is None else dsn, flow_id=receiver.flow_id,
        subflow_id=receiver.subflow_id, created_at=created_at)
    packet.ecn = ecn
    return packet


class TestSackRecovery:
    def test_more_than_four_blocks_then_a_partial_ack(self, each_kernel):
        """Hand-made ACKs: six SACK blocks (a receiver never sends more than
        four), the third duplicate enters recovery, a partial ACK keeps it
        going and the ACK of ``recover`` leaves it."""

        def script(scene):
            scene.run(0.0005)  # start fired: the initial window is on the wire
            snd = scene.connections[0].sender
            mss = snd.mss
            assert snd.snd_nxt == 10 * mss and len(snd._seg_queue) == 10
            blocks = tuple((i * mss, (i + 1) * mss) for i in (1, 3, 4, 6, 8, 9))
            for upto in (4, 5, 6):
                snd.handle_packet(ack_for(snd, 0, sack=blocks[:upto]))
            assert snd.in_fast_recovery and snd.stats.fast_retransmits == 1
            assert [g.sacked for g in snd._seg_queue][:10] == [
                False, True, False, True, True, False, True, False, True, True]
            assert [g.lost for g in snd._seg_queue][:10] == [
                True, False, True, False, False, True, False, True, False, False]
            snd.handle_packet(ack_for(snd, 2 * mss, sack=blocks[1:]))  # partial
            assert snd.in_fast_recovery and snd.snd_una == 2 * mss
            snd.handle_packet(ack_for(snd, snd._recover))
            assert not snd.in_fast_recovery
            assert not any(g.retx_in_recovery for g in snd._seg_queue)
            scene.run(0.2)  # and the real ACKs of all that arrive on top

        transport_both(each_kernel, script)

    def test_a_block_that_starts_inside_a_segment_sacks_nothing_of_it(self, each_kernel):
        """A segment only partly inside a block is not SACKed, and, ending at
        the highest SACKed end, is inferred lost (``seg_end <= highest``)."""

        def script(scene):
            scene.run(0.0005)
            snd = scene.connections[0].sender
            mss = snd.mss
            snd.handle_packet(ack_for(snd, 0, sack=((2 * mss + 100, 3 * mss),)))
            assert [g.sacked for g in snd._seg_queue][:4] == [False] * 4
            assert [g.lost for g in snd._seg_queue][:4] == [True, True, True, False]
            assert snd._lost_pending_bytes == 3 * mss and snd._sacked_bytes == 0
            scene.run(0.1)

        transport_both(each_kernel, script)

    def test_karn_fallback_samples_the_latest_never_retransmitted_segment(self, each_kernel):
        """No timestamp echo and no sample yet: the RTT comes from the most
        recently sent ACKed segment that was never retransmitted."""

        def script(scene):
            scene.run(0.0005)
            snd = scene.connections[0].sender
            mss = snd.mss
            first, second, third = list(snd._seg_queue)[:3]
            first.sent_at, second.sent_at, third.sent_at = -0.004, -0.002, -0.001
            third.retransmitted = True  # Karn: never sampled
            snd.handle_packet(ack_for(snd, 3 * mss))
            assert snd.rtt.samples == 1
            assert snd.rtt.latest_rtt == scene.sim.now - (-0.002)
            scene.run(0.1)

        transport_both(each_kernel, script)

    def test_queue_overflow_recovery_end_to_end(self, each_kernel):
        scene = transport_both(each_kernel, lambda scene: scene.run(1.2), flows=3,
                               queue_packets=8)
        stats = [c.sender.stats for c in scene.connections]
        assert sum(s.fast_retransmits for s in stats) > 3
        assert sum(s.retransmissions for s in stats) > 10


class TestRetransmissionTimer:
    def test_backoff_saturates_at_64_and_native_entries_show_as_bound_methods(self, each_kernel):
        def script(scene):
            scene.sim.schedule_at(0.3, scene.network.set_link_down, "r", "d")
            scene.run(60.0)

        scene = transport_both(each_kernel, script)
        snd = scene.connections[0].sender
        assert snd._rto_backoff == 64.0 and snd.stats.timeouts >= 7
        if each_kernel == "compiled":
            timers = [(t, cb) for t, _seq, cb, _args in scene.sim._export_entries()
                      if cb is not None and cb.__qualname__ == "TcpSender._fire_rto"]
            assert [cb.__self__ for _t, cb in timers] == [snd]
            assert timers[0][0] == snd._rto_fire_at
            assert snd._rto_event is not None and snd._rto_event.time == snd._rto_fire_at

    def test_lazy_rearm_deadline_pushed_then_pulled_earlier(self, each_kernel):
        """ACKs only push ``_rto_deadline`` (the armed event re-schedules
        itself when it fires early); after an outage the healed path resets
        the backoff and the next ACK pulls the deadline *before* the armed
        64x fire time, which cancels and re-schedules."""
        seen = {}

        def script(scene):
            snd = scene.connections[0].sender

            def fail():
                scene.network.set_link_down("r", "d")
                snd.path_down = True

            def heal():
                scene.network.set_link_up("r", "d")
                snd.path_down = False
                snd.on_path_restored()

            scene.sim.schedule_at(0.3, fail)
            scene.sim.schedule_at(30.0, heal)
            scene.run(0.25)
            assert snd._rto_deadline > snd._rto_fire_at  # pushed, not re-scheduled
            scene.run(29.9)
            # Frozen while the path is known dead: probes back off, the
            # window state and the timeout counter do not move.
            assert snd.path_down and snd._rto_backoff == 64.0 and snd.stats.timeouts == 0
            seen["armed_for"] = snd._rto_fire_at
            scene.run(30.5)
            assert snd._rto_backoff == 1.0 and snd._rto_fire_at < seen["armed_for"]
            scene.run(31.0)

        scene = transport_both(each_kernel, script)
        assert scene.connections[0].sender.stats.timeouts == 1  # on_path_restored's probe


class TestMptcpLifecycle:
    def run_two_path(self, mode, act):
        with kernel.override(mode):
            topology, paths = make_two_path_scenario(20.0, 30.0)
            network = Network(topology)
            connection = MptcpConnection(network, "s", "d", paths, congestion_control="lia",
                                         flow_id=5)
            connection.start(at=0.0)
            network.sim.schedule_at(0.3, act, network, connection)
            network.sim.run(until=0.9)
        return network, connection

    @pytest.mark.parametrize("how", ["close_subflow", "path_down_and_back"])
    def test_reinjection_mid_run(self, each_kernel, how):
        def close_subflow(network, connection):
            connection.close_subflow(connection.subflows[1])

        def path_down_and_back(network, connection):
            network.set_link_down("s", "b")
            network.sim.schedule(0.25, network.set_link_up, "s", "b")

        act = {"close_subflow": close_subflow, "path_down_and_back": path_down_and_back}[how]
        states = []
        for mode in (each_kernel, "python"):
            network, connection = self.run_two_path(mode, act)
            states.append((network_snapshot(network), connection.bytes_delivered,
                           [s.state for s in connection.subflows]))
        assert states[0] == states[1]
        assert states[0][1] > 500_000
        if how == "close_subflow":
            assert states[0][2] == ["active", "closed"]


class TestEcnEcho:
    def test_ece_is_reacted_to_once_per_window(self, each_kernel):
        def script(scene):
            scene.run(0.0005)
            snd = scene.connections[0].sender
            mss = snd.mss
            cwnd = snd.cc.cwnd
            snd.handle_packet(ack_for(snd, mss, ecn=True))
            assert snd.stats.ecn_echoes == 1 and snd.cc.cwnd < cwnd
            assert snd._ecn_recover >= 10 * mss
            cwnd = snd.cc.cwnd
            snd.handle_packet(ack_for(snd, 2 * mss, ecn=True))  # same window: ignored
            assert snd.stats.ecn_echoes == 1 and snd.cc.cwnd >= cwnd
            snd.handle_packet(ack_for(snd, snd._ecn_recover + 0, ecn=False))
            beyond = snd.snd_una + mss
            snd.handle_packet(ack_for(snd, beyond, ecn=True))  # next window: reacts
            assert snd.stats.ecn_echoes == 2 and snd.cc.ecn_signals == 2
            scene.run(0.1)

        transport_both(each_kernel, script, ecn=True)

    def test_red_marks_are_echoed_and_counted(self, each_kernel):
        scene = transport_both(each_kernel, lambda scene: scene.run(1.5), ecn=True,
                               flows=2, queue_kind="red")
        assert sum(c.receiver.stats.ce_received for c in scene.connections) > 0
        assert sum(c.sender.stats.ecn_echoes for c in scene.connections) > 0


class TestIdleAndReuse:
    def test_on_idle_fires_and_the_connection_carries_a_second_transfer(self, each_kernel):
        logs = []
        for mode in (each_kernel, "python"):
            log = []
            with kernel.override(mode):
                network = micro_network()
                data = TransferQueueAdapter()
                connection = TcpConnection(network, "s", "d", cc="reno", tag=1, flow_id=7,
                                           data=data)
                sim = network.sim
                connection.sender.on_idle = lambda sender: log.append(("idle", sim.now))
                data.enqueue(30_000, lambda now: log.append(("first", now)))
                connection.start(0.0)
                sim.run(until=0.5)
                assert data.pending_transfers == 0 and connection.sender.flight_size == 0
                assert connection.sender._rto_event is None  # quiescent: no timer
                data.enqueue(45_000, lambda now: log.append(("second", now)))
                connection.sender.resume()
                sim.run(until=1.0)
            logs.append((log, snapshot(network, [connection], [])))
        assert logs[0] == logs[1]
        kinds = [kind for kind, _now in logs[0][0]]
        assert kinds.count("first") == kinds.count("second") == 1
        assert kinds.count("idle") >= 2 and kinds[-1] == "idle"


class TestReceiverCorners:
    def test_spurious_retransmissions_overlapping_rcv_nxt(self, each_kernel):
        def script(scene):
            rcv = scene.connections[0].receiver
            rcv.handle_packet(data_for(rcv, 0, 1000))
            rcv.handle_packet(data_for(rcv, 2500, 500))  # out of order
            rcv.handle_packet(data_for(rcv, 2500, 400))  # same seq again: first wins
            rcv.handle_packet(data_for(rcv, 4000, 100))
            assert rcv.rcv_nxt == 1000 and sorted(rcv._out_of_order) == [2500, 4000]
            rcv.handle_packet(data_for(rcv, 0, 1000))  # wholly old
            rcv.handle_packet(data_for(rcv, 500, 2000, dsn=10_500))  # overlaps rcv_nxt
            # delivered 1000..2500 and drained the buffered 2500..3000
            assert rcv.rcv_nxt == 3000 and sorted(rcv._out_of_order) == [4000]
            assert rcv.stats.duplicates == 2 and rcv.stats.bytes_received == 3000
            rcv.handle_packet(data_for(rcv, 3000, 0))  # empty in-order segment
            rcv.handle_packet(data_for(rcv, 3000, 1000, ecn=2))  # CE-marked: ECE on the ACK
            assert rcv.rcv_nxt == 4100 and not rcv._out_of_order
            assert rcv.stats.ce_received == 1 and rcv.stats.acks_sent == 8
            scene.run(0.05)  # the sender starts; those eight ACKs reach it first

        transport_both(each_kernel, script)

    def test_more_than_four_reorder_runs_are_truncated_to_four_blocks(self, each_kernel):
        def script(scene):
            rcv = scene.connections[0].receiver
            for run in (9, 3, 7, 1, 5, 11):  # six disjoint runs, out of order
                rcv.handle_packet(data_for(rcv, run * 1000, 500))
                rcv.handle_packet(data_for(rcv, run * 1000 + 500, 200))  # merges
            acks = [p for p in scene.network.link("d", "r")._in_flight]
            queued = list(scene.network.link("d", "r").queue._queue)
            last = (acks + queued)[-1]
            assert last.sack_blocks == ((1000, 1700), (3000, 3700), (5000, 5700), (7000, 7700))
            scene.run(0.01)

        transport_both(each_kernel, script)


class GreedyGrant(BulkDataAdapter):
    """A provider that grants one byte more than it was asked for."""

    def request_data(self, sender, max_bytes):
        return 0, max_bytes + 1


class TestProtocolErrors:
    def test_invalid_grant_and_ack_beyond_snd_nxt_raise_the_same_text(self, each_kernel):
        messages = []
        for mode in (each_kernel, "python"):
            with kernel.override(mode):
                network = micro_network()
                bad = TcpConnection(network, "s", "d", tag=1, flow_id=7, data=GreedyGrant())
                bad.start(0.0)
                with pytest.raises(ProtocolError) as grant:
                    network.sim.run(until=0.1)
                good = TcpConnection(network, "s", "d", tag=1, flow_id=8)
                with pytest.raises(ProtocolError) as beyond:
                    good.sender.handle_packet(ack_for(good.sender, 1_000_000))
                # Nothing moved, and the simulator is reusable afterwards.
                assert bad.sender.snd_nxt == 0 and not bad.sender._seg_queue
                good.start(0.2)
                network.sim.run(until=0.4)
                assert good.bytes_acked > 100_000
            messages.append((str(grant.value), str(beyond.value)))
        assert messages[0] == messages[1] == (
            "data provider granted invalid length 1401",
            "ACK 1000000 beyond snd_nxt 0",
        )


class HalvingEstimator(RttEstimator):
    """A stock-layout estimator with its own update()."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def update(self, sample):
        self.calls += 1
        super().update(sample / 2.0)


class DuckEstimator:
    """Not an RttEstimator at all: just the attributes the sender reads."""

    def __init__(self):
        self.samples, self.srtt, self._rto = 0, None, 0.3

    def update(self, sample):
        self.samples += 1
        self.srtt = sample


class TestCustomRttEstimator:
    @pytest.mark.parametrize("make", [HalvingEstimator, DuckEstimator])
    def test_a_non_stock_estimator_is_called_not_inlined(self, each_kernel, make):
        def script(scene):
            for connection in scene.connections:
                connection.sender.rtt = make()
            scene.run(0.8)

        states = []
        for mode in (each_kernel, "python"):
            scene = Scene(mode, queue_packets=8)
            script(scene)
            rtt = scene.connections[0].sender.rtt
            states.append((scene.sim.now, scene.sim._seq, scene.sim.events_processed,
                           scene.connections[0].bytes_acked, rtt.samples, rtt.srtt,
                           getattr(rtt, "calls", None),
                           scene.connections[0].sender.stats.retransmissions))
        assert states[0] == states[1]
        assert states[0][4] > 100 and states[0][7] > 0


class CountingSender(TcpSender):
    """A Python subclass: keeps its Python bodies on either kernel."""

    __slots__ = ("dupacks_seen",)

    def _on_dupack(self, now):
        self.dupacks_seen = getattr(self, "dupacks_seen", 0) + 1
        super()._on_dupack(now)


class TestPythonSubclass:
    def test_a_subclass_runs_its_python_bodies_on_a_kernelsim(self, each_kernel, monkeypatch):
        monkeypatch.setattr(tcp_connection, "TcpSender", CountingSender)
        scene = both(each_kernel, lambda scene: scene.run(1.0), queue_packets=8)
        sender = scene.connections[0].sender
        assert type(sender) is CountingSender
        assert sender.dupacks_seen == sender.stats.dupacks > 0
        if each_kernel == "compiled":
            # The receiver is stock, so it is native; the sender's timer is
            # the Python bound method, not a native entry.  Its Python bodies
            # count in the native stats type all the same.
            assert type(scene.connections[0].receiver) is scene.sim.receiver_type
            assert sender._rto_event is not None
            assert type(sender.stats) is scene.sim.sender_stats_type


class TestSlotChecks:
    def test_an_unset_slot_is_an_attribute_error(self, each_kernel):
        with kernel.override(each_kernel):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", tag=1, flow_id=7)
            connection.start(0.0)
            network.sim.run(until=0.0005)
            del connection.sender.stats
            with pytest.raises(AttributeError, match="stats"):
                connection.sender.handle_packet(ack_for(connection.sender, 1460))
            del connection.receiver._out_of_order
            with pytest.raises(AttributeError, match="_out_of_order"):
                connection.receiver.handle_packet(data_for(connection.receiver, 5000, 100))

    def test_a_foreign_stats_object_is_a_type_error_naming_the_native_type(self, each_kernel):
        if each_kernel != "compiled":
            pytest.skip("the Python agents are duck-typed")
        with kernel.override(each_kernel):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", tag=1, flow_id=7)
            connection.start(0.0)
            network.sim.run(until=0.0005)
        sender, receiver = connection.sender, connection.receiver
        sender.stats, receiver.stats = SenderStats(), ReceiverStats()
        with pytest.raises(TypeError, match=r"must be a repro\.kernel\._ckernel\.SenderStats"):
            sender.handle_packet(ack_for(sender, 1460))
        with pytest.raises(TypeError, match=r"must be a repro\.kernel\._ckernel\.ReceiverStats"):
            receiver.handle_packet(data_for(receiver, 0, 100))

    def test_a_slot_of_the_wrong_type_is_a_type_error(self, each_kernel):
        with kernel.override(each_kernel):
            network = micro_network()
            connection = TcpConnection(network, "s", "d", tag=1, flow_id=7)
            connection.start(0.0)
            network.sim.run(until=0.0005)
            with pytest.raises(TypeError):
                # A C field refuses the str; the Python body fails on it.
                connection.sender.snd_una = "zero"
                connection.sender.handle_packet(ack_for(connection.sender, 1460))
            # Anything but the native packet runs the Python body.
            with pytest.raises(AttributeError, match="is_ack"):
                connection.sender.handle_packet(object())


class TestWindowsAcrossTiers:
    """Scene windows and per-event windows share one state: the slots."""

    def run_windows(self, mode):
        with kernel.override(mode):
            network = micro_network(flows=2)
            capture = network.attach_capture("d", data_only=False)
            first = TcpConnection(network, "s", "d", cc="cubic", tag=1, flow_id=7,
                                  total_bytes=80_000)
            second = TcpConnection(network, "s", "d", cc="reno", tag=2, flow_id=8)
            first.start(0.0)
            second.start(0.45)
            outcomes = []
            network.sim.run(until=0.4)  # per-event: the first transfer completes
            assert first.bytes_acked == 80_000
            for until in (0.8, 1.2):
                network.run(until)
                outcomes.append(network.bypass_outcome)
        return snapshot(network, [first, second], [capture]), outcomes, network

    def test_per_event_window_then_scene_window_then_per_event_window(self, each_kernel):
        state, outcomes, network = self.run_windows(each_kernel)
        reference, _, _ = self.run_windows("python")
        assert state == reference
        if each_kernel == "compiled":
            # Window 2 starts quiescent (a finished transfer, a pending
            # start): the Scene takes it over state the native agents left.
            # Window 3 starts mid-flight: per-event, over what the Scene
            # wrote back, its timer re-armed as a native entry.
            assert outcomes[0] == "native" and outcomes[1].startswith("link ")
            assert network.sim.events_native > 0
