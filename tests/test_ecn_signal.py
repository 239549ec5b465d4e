"""End-to-end ECN semantics: CE at the bottleneck -> ECE echo -> rate cut.

RFC 3168 over the packet substrate: an ECN-capable sender marks its segments
ECT, an AQM bottleneck CE-marks them instead of dropping, the receiver echoes
CE as ECE on its ACKs, and the sender reduces its rate exactly once per
window of data -- without retransmitting anything, because the marked
segments were delivered.  The suites below pin that chain for single-path
TCP (Reno/Cubic) and for every coupled MPTCP controller family.
"""

import pytest

from repro.core.connection import MptcpConnection
from repro.core.coupled import MULTIPATH_ALGORITHMS
from repro.netsim.network import Network
from repro.netsim.packet import acquire_ack
from repro.netsim.queues import REDQueue
from repro.tcp.connection import TcpConnection

from .conftest import make_chain_topology, make_two_path_scenario


def make_responsive_red(capacity_packets: int = 400) -> REDQueue:
    """A RED queue that marks long before its buffer can overflow.

    The stock weight (0.002) tracks the instantaneous queue so slowly that a
    slow-start burst overflows the buffer before the average crosses the
    thresholds; a fast average plus low thresholds and a deep buffer make
    every congestion signal a CE mark and never a loss.
    """
    return REDQueue(
        capacity_packets,
        min_threshold=20,
        max_threshold=60,
        weight=0.05,
        ecn=True,
    )


def swap_in_red(network: Network, a: str, b: str) -> REDQueue:
    queue = make_responsive_red()
    link = network.link(a, b)
    link.queue = queue
    link._enqueue = queue.enqueue  # Link binds enqueue once at construction
    return queue


def run_single_ecn(cc: str, *, ecn: bool = True, capacity_mbps: float = 15.0,
                   duration: float = 1.0):
    topology = make_chain_topology(capacity_mbps=capacity_mbps, queue_packets=400)
    network = Network(topology)
    queue = swap_in_red(network, "s", "r1")
    network.install_path(["s", "r1", "d"], tag=1, as_default=True)
    connection = TcpConnection(network, "s", "d", cc=cc, tag=1, ecn=ecn)
    connection.start(0.0)
    network.run(duration)
    return network, connection, queue


def run_mptcp_ecn(cc: str, *, duration: float = 1.0):
    topology, paths = make_two_path_scenario(cap1=12.0, cap2=18.0)
    network = Network(topology)
    queues = [swap_in_red(network, "s", "a"), swap_in_red(network, "s", "b")]
    connection = MptcpConnection(
        network, "s", "d", paths, congestion_control=cc, ecn=True
    )
    connection.start(0.0)
    network.run(duration)
    return network, connection, queues


class TestSinglePathEcn:
    @pytest.mark.parametrize("cc", ["reno", "cubic"])
    def test_ce_marked_then_echoed_then_reacted(self, cc):
        network, connection, queue = run_single_ecn(cc)
        assert queue.stats.ecn_marks > 0
        # Every marked segment was delivered (nothing downstream drops), so
        # the receiver saw exactly the marked count as CE.
        assert connection.receiver.stats.ce_received == queue.stats.ecn_marks
        assert connection.sender.stats.ecn_echoes > 0

    @pytest.mark.parametrize("cc", ["reno", "cubic"])
    def test_reaction_is_once_per_window(self, cc):
        _, connection, queue = run_single_ecn(cc)
        sender = connection.sender
        # The sender reacts at most once per window of data, and every
        # reaction is the congestion controller's on_ecn (not a loss path).
        assert sender.stats.ecn_echoes <= connection.receiver.stats.ce_received
        assert sender.cc.ecn_signals == sender.stats.ecn_echoes

    def test_many_echoes_collapse_to_few_reactions(self):
        # Reno overshoots hard enough that RED marks whole bursts: the
        # receiver echoes far more ECE ACKs than the sender takes cuts.
        _, connection, _ = run_single_ecn("reno")
        sender = connection.sender
        assert connection.receiver.stats.ce_received > sender.stats.ecn_echoes

    @pytest.mark.parametrize("cc", ["reno", "cubic"])
    def test_marks_cause_no_retransmissions(self, cc):
        network, connection, _ = run_single_ecn(cc)
        assert connection.sender.stats.ecn_echoes > 0
        # The whole point of ECN: rate comes down without a single loss.
        assert network.total_drops() == 0
        assert connection.sender.stats.retransmissions == 0
        receiver = connection.receiver
        assert receiver.stats.bytes_received == receiver.rcv_nxt  # contiguous

    def test_throughput_still_fills_the_link(self):
        _, connection, _ = run_single_ecn("cubic")
        assert connection.throughput_mbps(1.0) > 0.6 * 15.0

    def test_non_ecn_sender_is_early_dropped_instead(self):
        network, connection, queue = run_single_ecn("reno", ecn=False)
        assert queue.stats.ecn_marks == 0
        assert connection.receiver.stats.ce_received == 0
        assert connection.sender.stats.ecn_echoes == 0
        # Same congestion, signalled the pre-ECN way: early drops and the
        # loss-recovery machinery.
        assert queue.stats.early_drops > 0
        assert connection.sender.stats.retransmissions > 0

    def test_sender_reacts_once_until_new_window_acked(self):
        # Direct guard check: a quiescent sender receiving two ECE ACKs for
        # the same window must cut exactly once (RFC 3168 once-per-RTT).
        _, connection, _ = run_single_ecn("reno", capacity_mbps=50.0, duration=0.2)
        sender = connection.sender
        assert sender._ecn_recover < sender.snd_una  # no marks at 50 Mbps
        echoes_before = sender.stats.ecn_echoes
        cwnd_before = sender.cc.cwnd
        for _ in range(2):
            ack = acquire_ack(
                "d", "s", 60, 1, sender.flow_id, sender.subflow_id,
                sender.snd_una, 0, (), -1.0, sender.sim.now,
            )
            ack.ecn = True  # ECE
            sender.handle_packet(ack)
        assert sender.stats.ecn_echoes == echoes_before + 1
        assert sender.cc.cwnd < cwnd_before
        assert sender._ecn_recover == sender.snd_nxt


class TestMptcpEcn:
    @pytest.mark.parametrize(
        "cc", sorted(set(MULTIPATH_ALGORITHMS) - {"cubic", "reno"})
    )
    def test_coupled_controllers_react_without_losses(self, cc):
        network, connection, queues = run_mptcp_ecn(cc)
        assert sum(q.stats.ecn_marks for q in queues) > 0
        echoes = sum(sf.sender.stats.ecn_echoes for sf in connection.subflows)
        signals = sum(sf.cc.ecn_signals for sf in connection.subflows)
        assert echoes > 0
        assert signals == echoes
        assert network.total_drops() == 0
        assert sum(sf.sender.stats.retransmissions for sf in connection.subflows) == 0
        assert connection.allocator.acked_bytes > 0

    def test_wvegas_and_lia_share_signal_accounting(self):
        # The counter lives on the base class: every family increments the
        # same ecn_signals slot its on_ecn override is reached through.
        for cc in ("lia", "wvegas"):
            _, connection, _ = run_mptcp_ecn(cc, duration=0.5)
            for subflow in connection.subflows:
                assert subflow.cc.ecn_signals == subflow.sender.stats.ecn_echoes
