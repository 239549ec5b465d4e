"""Drop-tail, RED and CoDel queue behaviour."""

import pytest

from repro.netsim.packet import Packet
from repro.netsim.queues import (
    ECN_CE,
    ECN_ECT,
    CoDelQueue,
    DropTailQueue,
    QUEUE_KINDS,
    REDQueue,
    make_queue,
)


def make_packet(size=1500, ecn=0):
    packet = Packet("s", "d", size)
    packet.ecn = ecn
    return packet


class TestDropTailQueue:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_packets=10)
        first, second = make_packet(), make_packet()
        queue.enqueue(first, 0.0)
        queue.enqueue(second, 0.0)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_dequeue_empty_returns_none(self):
        assert DropTailQueue().dequeue() is None

    def test_drops_when_full(self):
        queue = DropTailQueue(capacity_packets=2)
        assert queue.enqueue(make_packet(), 0.0)
        assert queue.enqueue(make_packet(), 0.0)
        assert not queue.enqueue(make_packet(), 0.0)
        assert queue.stats.dropped == 1
        assert len(queue) == 2

    def test_byte_count_tracks_contents(self):
        queue = DropTailQueue(capacity_packets=10)
        queue.enqueue(make_packet(1000), 0.0)
        queue.enqueue(make_packet(500), 0.0)
        assert queue.byte_count == 1500
        queue.dequeue()
        assert queue.byte_count == 500

    def test_stats_counters(self):
        queue = DropTailQueue(capacity_packets=1)
        queue.enqueue(make_packet(100), 0.0)
        queue.enqueue(make_packet(200), 0.0)  # dropped
        queue.dequeue()
        stats = queue.stats.as_dict()
        assert stats["enqueued"] == 1
        assert stats["dropped"] == 1
        assert stats["dequeued"] == 1
        assert stats["bytes_dropped"] == 200
        assert stats["max_depth"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=0)

    def test_enqueued_timestamp_recorded(self):
        queue = DropTailQueue()
        packet = make_packet()
        queue.enqueue(packet, 1.25)
        assert packet.enqueued_at == 1.25


class TestRedQueue:
    def test_accepts_everything_when_lightly_loaded(self):
        queue = REDQueue(capacity_packets=100, seed=1)
        accepted = sum(queue.enqueue(make_packet(), 0.0) for _ in range(10))
        assert accepted == 10

    def test_never_exceeds_hard_capacity(self):
        queue = REDQueue(capacity_packets=20, seed=1)
        for _ in range(200):
            queue.enqueue(make_packet(), 0.0)
        assert len(queue) <= 20

    def test_drops_probabilistically_under_sustained_load(self):
        queue = REDQueue(capacity_packets=50, min_threshold=5, max_threshold=15, seed=3)
        # Keep the queue long so the average crosses the thresholds.
        for _ in range(500):
            queue.enqueue(make_packet(), 0.0)
        assert queue.stats.dropped > 0

    def test_deterministic_given_seed(self):
        def run(seed):
            queue = REDQueue(capacity_packets=30, min_threshold=2, max_threshold=10, seed=seed)
            return [queue.enqueue(make_packet(), 0.0) for _ in range(300)]

        assert run(7) == run(7)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            REDQueue(capacity_packets=10, min_threshold=8, max_threshold=4)


class TestQueueFactory:
    def test_droptail_by_name(self):
        assert isinstance(make_queue("droptail", 10), DropTailQueue)

    def test_fifo_alias(self):
        assert isinstance(make_queue("fifo", 10), DropTailQueue)

    def test_red_by_name(self):
        assert isinstance(make_queue("red", 10), REDQueue)

    def test_codel_by_name(self):
        assert isinstance(make_queue("codel", 10), CoDelQueue)

    def test_all_registered_kinds_constructible(self):
        for kind in QUEUE_KINDS:
            assert make_queue(kind, 10).capacity_packets == 10

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_queue("pie", 10)

    def test_capacity_forwarded(self):
        assert make_queue("droptail", 7).capacity_packets == 7


class TestRedIdleDecay:
    def test_average_decays_across_idle_period(self):
        """Floyd & Jacobson: the EWMA must decay while the queue sits empty."""
        queue = REDQueue(capacity_packets=50, seed=1, ecn=False)
        # Build up a non-trivial average.
        for _ in range(200):
            queue.enqueue(make_packet(), 0.0)
        while queue.dequeue(0.0) is not None:
            pass
        busy_avg = queue._avg
        assert busy_avg > 0.0
        # One arrival after a long idle gap: the decayed average must be far
        # below the busy-period average.
        queue.enqueue(make_packet(), 10.0)
        assert queue._avg < busy_avg * 0.01

    def test_no_decay_without_idle_gap(self):
        queue = REDQueue(capacity_packets=50, seed=1, ecn=False)
        for _ in range(100):
            queue.enqueue(make_packet(), 0.0)
        avg = queue._avg
        queue.enqueue(make_packet(), 0.0)
        assert queue._avg >= avg


def sustain_backlog(queue, n, depth, ecn=0):
    """Offer ``n`` packets while a drain keeps the standing queue at ``depth``."""
    packets = []
    for _ in range(n):
        packet = make_packet(ecn=ecn)
        packets.append(packet)
        queue.enqueue(packet, 0.0)
        while len(queue) > depth:
            queue.dequeue(0.0)
    return packets


class TestRedEcn:
    def test_marks_ect_packets_instead_of_dropping(self):
        queue = REDQueue(
            capacity_packets=50, min_threshold=2, max_threshold=10, seed=3, ecn=True
        )
        sustain_backlog(queue, 1000, depth=20, ecn=ECN_ECT)
        assert queue.stats.ecn_marks > 0
        assert queue.stats.early_drops == 0

    def test_marked_packets_carry_ce(self):
        queue = REDQueue(
            capacity_packets=50, min_threshold=2, max_threshold=10, seed=3, ecn=True
        )
        packets = sustain_backlog(queue, 1000, depth=20, ecn=ECN_ECT)
        marked = [p for p in packets if p.ecn == ECN_CE]
        assert len(marked) == queue.stats.ecn_marks

    def test_non_ect_traffic_still_dropped(self):
        queue = REDQueue(
            capacity_packets=50, min_threshold=2, max_threshold=10, seed=3, ecn=True
        )
        sustain_backlog(queue, 1000, depth=20, ecn=0)
        assert queue.stats.early_drops > 0
        assert queue.stats.ecn_marks == 0

    def test_early_and_full_drops_counted_separately(self):
        queue = REDQueue(
            capacity_packets=10, min_threshold=1, max_threshold=4, seed=5, ecn=False
        )
        sustain_backlog(queue, 1000, depth=8)
        stats = queue.stats
        assert stats.early_drops > 0
        assert stats.full_drops >= 0
        assert stats.early_drops + stats.full_drops == stats.dropped
        as_dict = stats.as_dict()
        assert as_dict["early_drops"] == stats.early_drops
        assert as_dict["full_drops"] == stats.full_drops


class TestCoDelQueue:
    def test_fifo_when_under_target(self):
        queue = CoDelQueue(capacity_packets=10)
        first, second = make_packet(), make_packet()
        queue.enqueue(first, 0.0)
        queue.enqueue(second, 0.0)
        assert queue.dequeue(0.001) is first
        assert queue.dequeue(0.001) is second
        assert queue.stats.dropped == 0

    def test_drops_when_sojourn_exceeds_target_for_interval(self):
        queue = CoDelQueue(capacity_packets=100, target=0.005, interval=0.1, ecn=False)
        now = 0.0
        for _ in range(50):
            queue.enqueue(make_packet(), now)
        # Drain slowly: every packet's sojourn stays above target for longer
        # than one interval, so the control law must start discarding.
        dequeued = 0
        for step in range(50):
            now = 0.2 + step * 0.05
            if queue.dequeue(now) is not None:
                dequeued += 1
            if not len(queue):
                break
        assert queue.stats.dropped > 0
        assert dequeued + queue.stats.dropped + len(queue) == 50

    def test_marks_instead_of_drops_for_ect(self):
        queue = CoDelQueue(capacity_packets=100, target=0.005, interval=0.1, ecn=True)
        packets = [make_packet(ecn=ECN_ECT) for _ in range(50)]
        now = 0.0
        for packet in packets:
            queue.enqueue(packet, now)
        delivered = []
        for step in range(100):
            now = 0.2 + step * 0.05
            packet = queue.dequeue(now)
            if packet is not None:
                delivered.append(packet)
            if not len(queue):
                break
        assert queue.stats.dropped == 0
        assert queue.stats.ecn_marks > 0
        assert len(delivered) == 50
        assert sum(1 for p in delivered if p.ecn == ECN_CE) == queue.stats.ecn_marks

    def test_tracks_queue_delay(self):
        queue = CoDelQueue(capacity_packets=10)
        queue.enqueue(make_packet(), 1.0)
        queue.dequeue(1.5)
        assert queue.stats.queue_delay_sum == pytest.approx(0.5)

    def test_recovers_after_load_subsides(self):
        queue = CoDelQueue(capacity_packets=100, target=0.005, interval=0.1, ecn=False)
        now = 0.0
        for _ in range(30):
            queue.enqueue(make_packet(), now)
        while len(queue):
            now += 0.05
            queue.dequeue(now)
        drops_during_overload = queue.stats.dropped
        # Light load afterwards: fresh packets with tiny sojourn sail through.
        for i in range(10):
            t = 100.0 + i * 1.0
            queue.enqueue(make_packet(), t)
            assert queue.dequeue(t + 0.001) is not None
        assert queue.stats.dropped == drops_during_overload
