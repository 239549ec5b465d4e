"""Equivalence tests for the fast paths.

The columnar capture, the vectorised binning and the merged link event chain
replaced scalar per-record/per-event implementations, and the protocol-stack
fast path (the packet pool, O(1) scheduler dispatch, fused coupled-CC
aggregation) rebuilt the per-packet work of the transport layers.  These
tests pin the new code two ways:

* against reference implementations of the old behaviour on randomized
  inputs (identical filter results, bin-for-bin identical series, identical
  delivery timing, identical coupled-increase floats); and
* against ``tests/data/golden_pipeline.json`` -- the full observable output
  of pinned single-flow and multi-flow scenarios computed by the tree from
  *before* the protocol fast path, which must round-trip bit-identically.
"""

import random

import pytest

from repro.experiments.harness import paper_experiment, run_experiment, run_scenarios_parallel
from repro.measure.sampling import per_tag_timeseries, throughput_timeseries
from repro.netsim.capture import CaptureRecord, PacketCapture
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet, acquire, acquire_ack, acquire_data
from repro.netsim.queues import DropTailQueue
from repro.units import mbps, throughput_mbps, transmission_time

from tests import golden_pipeline


def random_capture(seed: int, count: int = 400) -> PacketCapture:
    """A capture with randomized tags, subflows, ACKs and retransmissions."""
    rng = random.Random(seed)
    cap = PacketCapture()
    for _ in range(count):
        is_ack = rng.random() < 0.3
        size = 60 if is_ack else rng.choice([200, 1000, 1460])
        cap.on_packet(
            Packet(
                "s",
                "d",
                size,
                tag=rng.choice([None, 1, 2, 3]),
                flow_id=rng.choice([1, 2]),
                subflow_id=rng.choice([0, 1, 2]),
                payload_len=0 if is_ack else size - 60,
                is_ack=is_ack,
                seq=rng.randrange(10**6),
                dsn=rng.randrange(10**6),
                is_retransmission=rng.random() < 0.05,
            ),
            round(rng.uniform(0.0, 4.0), 6),
        )
    return cap


def legacy_filter(records, *, tag=None, subflow_id=None, flow_id=None, data_only=True,
                  predicate=None):
    """The historical per-record filter loop, kept as the reference."""
    selected = []
    for record in records:
        if data_only and record.is_ack:
            continue
        if tag is not None and record.tag != tag:
            continue
        if subflow_id is not None and record.subflow_id != subflow_id:
            continue
        if flow_id is not None and record.flow_id != flow_id:
            continue
        if predicate is not None and not predicate(record):
            continue
        selected.append(record)
    return selected


def legacy_throughput_timeseries(records, interval, *, start=0.0, end=None,
                                 use_payload=False):
    """The historical per-record Python binning loop, kept as the reference."""
    records = list(records)
    if end is None:
        end = max((r.time for r in records), default=start) + interval
    bin_count = max(int((end - start) / interval + 0.5), 1)
    bins = [0] * bin_count
    for record in records:
        if record.time < start or record.time > end:
            continue
        index = min(int((record.time - start) / interval), bin_count - 1)
        bins[index] += record.payload_len if use_payload else record.size
    times = [start + (i + 1) * interval for i in range(bin_count)]
    values = [throughput_mbps(num_bytes, interval) for num_bytes in bins]
    return times, values


class TestColumnarCaptureEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_filter_matches_legacy(self, seed):
        cap = random_capture(seed)
        reference = cap.records
        cases = [
            {},
            {"data_only": False},
            {"tag": 1},
            {"tag": 2, "subflow_id": 1},
            {"flow_id": 2, "data_only": False},
            {"subflow_id": 0, "flow_id": 1},
            {"tag": 3, "predicate": lambda r: r.time > 1.0},
            {"predicate": lambda r: r.is_retransmission, "data_only": False},
        ]
        for kwargs in cases:
            assert cap.filter(**kwargs) == legacy_filter(reference, **kwargs)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_accounting_matches_legacy(self, seed):
        cap = random_capture(seed)
        reference = cap.records
        assert cap.tags() == sorted(
            {r.tag for r in reference if r.tag is not None and not r.is_ack}
        )

    def test_record_view_round_trips_none_tag(self):
        cap = PacketCapture()
        cap.on_packet(Packet("s", "d", 500, tag=None, payload_len=440), 0.25)
        record = cap.records[0]
        assert record.tag is None
        assert isinstance(record, CaptureRecord)

    def test_record_view_invalidated_by_append(self):
        cap = random_capture(7, count=10)
        before = len(cap.records)
        cap.on_packet(Packet("s", "d", 100, tag=1, payload_len=40), 5.0)
        assert len(cap.records) == before + 1


class TestVectorizedBinningEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("interval", [0.01, 0.1, 0.3])
    def test_bins_match_legacy_loop(self, seed, interval):
        cap = random_capture(seed)
        records = cap.filter()
        series = throughput_timeseries(records, interval)
        ref_times, ref_values = legacy_throughput_timeseries(records, interval)
        assert series.times == ref_times
        assert series.values == ref_values

    @pytest.mark.parametrize("kwargs", [
        {"start": 0.5, "end": 3.5},
        {"start": 0.0, "end": 10.0},
        {"use_payload": True},
        {"end": 2.0, "use_payload": True},
    ])
    def test_bins_match_legacy_with_options(self, kwargs):
        cap = random_capture(11)
        records = cap.filter()
        series = throughput_timeseries(records, 0.05, **kwargs)
        ref_times, ref_values = legacy_throughput_timeseries(records, 0.05, **kwargs)
        assert series.times == ref_times
        assert series.values == ref_values

    def test_empty_records(self):
        series = throughput_timeseries([], 0.1)
        ref_times, ref_values = legacy_throughput_timeseries([], 0.1)
        assert series.times == ref_times
        assert series.values == ref_values

    def test_capture_fast_path_matches_record_path(self):
        cap = random_capture(13)
        from_columns = throughput_timeseries(cap, 0.1, end=4.0)
        from_records = throughput_timeseries(cap.filter(), 0.1, end=4.0)
        assert from_columns.times == from_records.times
        assert from_columns.values == from_records.values

    @pytest.mark.parametrize("seed", [0, 4])
    def test_per_tag_grouped_pass_matches_per_filter(self, seed):
        cap = random_capture(seed)
        grouped = per_tag_timeseries(cap, 0.1, end=4.0)
        assert sorted(grouped) == cap.tags()
        for tag, series in grouped.items():
            ref_times, ref_values = legacy_throughput_timeseries(
                legacy_filter(cap.records, tag=tag), 0.1, end=4.0
            )
            assert series.times == ref_times
            assert series.values == ref_values

    def test_per_tag_default_end_is_per_tag(self):
        # With end=None each tag historically got its own range; the grouped
        # pass must preserve that.
        cap = PacketCapture()
        cap.on_packet(Packet("s", "d", 1000, tag=1, payload_len=940), 0.05)
        cap.on_packet(Packet("s", "d", 1000, tag=2, payload_len=940), 1.95)
        grouped = per_tag_timeseries(cap, 0.1)
        for tag in (1, 2):
            ref_times, ref_values = legacy_throughput_timeseries(
                legacy_filter(cap.records, tag=tag), 0.1
            )
            assert grouped[tag].times == ref_times
            assert grouped[tag].values == ref_values


class RecordingNode:
    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.received = []

    def receive(self, packet, link=None):
        self.received.append((self.sim.now, packet))


class TestMergedLinkEquivalence:
    """The single-delivery-event link must reproduce the classic
    serialise-then-propagate timing exactly."""

    def test_burst_delivery_times_match_two_event_chain(self):
        sim = Simulator()
        src, dst = RecordingNode("a", sim), RecordingNode("b", sim)
        link = Link(sim, src, dst, rate_bps=mbps(10), delay=0.003, queue=DropTailQueue(100))
        sizes = [1500, 500, 1460, 60, 1000]
        for size in sizes:
            link.send(Packet("a", "b", size))
        sim.run()
        # Reference: packet k starts when the previous serialisation ends.
        expected = []
        tx_end = 0.0
        for size in sizes:
            tx_end = tx_end + transmission_time(size, mbps(10))
            expected.append(tx_end + 0.003)
        assert [t for t, _ in dst.received] == pytest.approx(expected, abs=0.0)

    def test_staggered_arrivals_and_idle_gaps(self):
        sim = Simulator()
        src, dst = RecordingNode("a", sim), RecordingNode("b", sim)
        link = Link(sim, src, dst, rate_bps=mbps(50), delay=0.001)
        tx = transmission_time(1000, mbps(50))
        # Two back-to-back, then a gap long enough for the link to go idle.
        sim.schedule(0.0, link.send, Packet("a", "b", 1000))
        sim.schedule(0.0, link.send, Packet("a", "b", 1000))
        sim.schedule(1.0, link.send, Packet("a", "b", 1000))
        sim.run()
        times = [t for t, _ in dst.received]
        assert times[0] == pytest.approx(tx + 0.001, abs=0.0)
        assert times[1] == pytest.approx(2 * tx + 0.001, abs=0.0)
        assert times[2] == pytest.approx(1.0 + tx + 0.001, abs=0.0)

    def test_queue_occupancy_drops_match_capacity(self):
        sim = Simulator()
        src, dst = RecordingNode("a", sim), RecordingNode("b", sim)
        link = Link(sim, src, dst, rate_bps=mbps(1), delay=0.0, queue=DropTailQueue(2))
        results = [link.send(Packet("a", "b", 1000)) for _ in range(6)]
        # 1 serialising + 2 queued accepted, the other 3 dropped at enqueue.
        assert results == [True, True, True, False, False, False]
        assert link.drops == 3
        sim.run()
        assert len(dst.received) == 3


class TestEngineFastPath:
    def test_fast_and_slow_events_interleave_deterministically(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "slow-1")
        sim.schedule_fast(1.0, order.append, "fast-1")
        sim.schedule_fast(0.5, order.append, "fast-0.5")
        sim.schedule(1.0, order.append, "slow-2")
        sim.run()
        assert order == ["fast-0.5", "slow-1", "fast-1", "slow-2"]

    def test_schedule_fast_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_fast_at(0.75, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(0.75)]

    def test_schedule_fast_rejects_negative_delay(self):
        from repro.errors import SimulationError

        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_fast(-0.1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_fast_at(-1.0, lambda: None)

    def test_cancel_after_fire_does_not_touch_a_later_event(self):
        sim = Simulator()
        stale = sim.schedule(0.5, lambda: None)
        cancelled = sim.schedule(0.6, lambda: None)
        cancelled.cancel()
        sim.run()  # fires one, drops the cancelled one
        seen = []
        fresh = sim.schedule(1.0, seen.append, "fresh")
        stale.cancel()  # handles of entries that left the heap
        cancelled.cancel()
        sim.run()
        assert seen == ["fresh"]
        assert fresh.cancelled is False
        assert stale.cancelled is True
        assert sim.pending_events == 0


class TestParallelHarnessEquivalence:
    def test_parallel_sweep_matches_serial(self):
        configs = [
            paper_experiment("cubic", duration=0.4, sampling_interval=0.1),
            paper_experiment("lia", duration=0.4, sampling_interval=0.1),
        ]
        serial = [run_experiment(config) for config in configs]
        parallel = run_scenarios_parallel(configs, max_workers=2)
        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            assert p.total_series.values == s.total_series.values
            assert p.summary() == s.summary()


class TestPacketPool:
    """The free-list packet pool must never mutate a packet behind a holder."""

    def test_acquired_packets_recycle(self):
        p = acquire_data("a", "b", 1500, 1, 7, 0, 100, 1460, 100, False, 0.5)
        assert p._poolable
        pid = id(p)
        p.release()
        q = acquire_ack("b", "a", 60, 1, 7, 0, 1560, 1560, (), 0.5, 0.6)
        assert id(q) == pid  # LIFO reuse of the released instance
        assert q.is_ack and q.ack == 1560 and q.payload_len == 0
        assert q.sack_blocks == ()
        q.release()

    def test_constructor_packets_never_pooled(self):
        p = Packet("a", "b", 100)
        assert not p._poolable
        p.release()  # no-op
        q = acquire("a", "b", 100, None, 1, 0, "tcp", 0, 40, False, 0, 0, 0,
                    False, (), -1.0, 0.0)
        assert q is not p
        q.release()

    def test_double_release_is_harmless(self):
        p = acquire("a", "b", 100, None, 1, 0, "tcp", 0, 40, False, 0, 0, 0,
                    False, (), -1.0, 0.0)
        p.release()
        p.release()  # second release must not enqueue the object twice
        q = acquire("a", "b", 100, None, 2, 0, "tcp", 0, 40, False, 0, 0, 0,
                    False, (), -1.0, 0.0)
        r = acquire("a", "b", 100, None, 3, 0, "tcp", 0, 40, False, 0, 0, 0,
                    False, (), -1.0, 0.0)
        assert q is not r
        q.release()
        r.release()

    def test_acquire_matches_constructor_fields(self):
        a = acquire("s", "d", 1500, 2, 9, 1, "tcp", 11, 1460, False, 0, 22,
                    33, True, ((5, 9),), 0.25, 1.5)
        b = Packet("s", "d", 1500, tag=2, flow_id=9, subflow_id=1,
                   protocol="tcp", seq=11, payload_len=1460, is_ack=False,
                   ack=0, dsn=22, dack=33, is_retransmission=True,
                   sack_blocks=((5, 9),), ts_echo=0.25, created_at=1.5)
        for field in ("src", "dst", "size", "tag", "flow_id", "subflow_id",
                      "protocol", "seq", "payload_len", "is_ack", "ack",
                      "dsn", "dack", "is_retransmission", "sack_blocks",
                      "ts_echo", "created_at", "enqueued_at", "hops", "ecn"):
            assert getattr(a, field) == getattr(b, field), field
        assert b.packet_id > a.packet_id


class TestPureAckFastPath:
    """Satellite audit: pure ACKs must carry no dead per-packet work."""

    def _run_one_second(self):
        from repro.netsim.network import Network
        from repro.netsim.topology import Topology
        from repro.tcp.connection import TcpConnection

        topology = Topology("ack-audit")
        topology.add_host("s")
        topology.add_host("d")
        topology.add_link("s", "d", 50.0, 0.002, 1000)
        network = Network(topology)
        network.install_path(["s", "d"], tag=1, as_default=True)
        # Bounded transfer far below the queue capacity: the run stays
        # loss-free, so every ACK is a pure in-order cumulative ACK.
        connection = TcpConnection(
            network, "s", "d", cc="reno", tag=1, total_bytes=200 * 1460
        )
        return network, connection

    def test_in_order_acks_share_the_empty_sack_tuple(self):
        network, connection = self._run_one_second()
        sender = connection.sender
        seen = []

        class Tap:
            def handle_packet(self, packet):
                seen.append(packet.sack_blocks)
                sender.handle_packet(packet)

        host = network.host("s")
        host.unregister_agent(connection.flow_id, 0)
        host.register_agent(connection.flow_id, 0, Tap())
        connection.start(0.0)
        network.run(0.5)
        assert seen, "no ACKs observed"
        # Loss-free in-order run: every ACK carries the shared empty tuple
        # (no per-ACK tuple allocation on the fast path).
        empty = ()
        assert all(blocks is empty for blocks in seen)

    def test_data_only_capture_records_nothing_for_acks(self):
        cap = PacketCapture(data_only=True)
        ack = acquire_ack("d", "s", 60, 1, 1, 0, 1460, 1460, (), 0.1, 0.2)
        cap.on_packet(ack, 0.2)
        assert len(cap) == 0
        ack.release()


def _reference_lia_increase(members, me, acked_segments):
    """The historical multi-pass LIA update, kept as the reference."""
    total_cwnd = sum(m.cwnd for m in members)
    if total_cwnd <= 0 or me.cwnd <= 0:
        return max(me.cwnd, 1.0) - me.cwnd
    denominator = sum(m.cwnd / m.rtt_or_default() for m in members) ** 2
    if total_cwnd <= 0 or denominator <= 0:
        alpha = 1.0
    else:
        alpha = total_cwnd * max(
            m.cwnd / (m.rtt_or_default() ** 2) for m in members
        ) / denominator
    coupled = alpha * acked_segments / total_cwnd
    uncoupled = acked_segments / me.cwnd
    return min(coupled, uncoupled)


class TestCoupledFusedPassEquivalence:
    """The fused one-pass aggregates must be bit-identical to the old loops."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_lia_increase_matches_multi_pass_reference(self, seed):
        from repro.core.coupled import CouplingGroup, LiaCongestionControl

        rng = random.Random(seed)
        group = CouplingGroup()
        members = [LiaCongestionControl(mss=1460, group=group) for _ in range(3)]
        for m in members:
            m.cwnd = rng.uniform(1.0, 120.0)
            m.ssthresh = 1.0  # force congestion avoidance
            m.srtt = rng.uniform(0.001, 0.3)
        for m in members:
            acked = rng.uniform(0.1, 2.0)
            expected = m.cwnd + _reference_lia_increase(members, m, acked)
            m._congestion_avoidance(acked, m.srtt, 1.0)
            assert m.cwnd == expected  # exact float equality

    @pytest.mark.parametrize("algorithm", ["olia", "balia", "wvegas"])
    def test_fused_algorithms_reproduce_golden_series(self, algorithm):
        # End-to-end: one short run per algorithm is deterministic, so two
        # consecutive runs must produce identical series (guards against
        # order-dependent state in the fused passes / cached member lists).
        config = paper_experiment(algorithm, duration=0.5, sampling_interval=0.1)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.total_series.values == second.total_series.values

    def test_members_of_cache_invalidated_on_membership_change(self):
        from repro.core.coupled import CouplingGroup, OliaCongestionControl

        group = CouplingGroup()
        a = OliaCongestionControl(mss=1460, group=group)
        assert group.members_of(OliaCongestionControl) == [a]
        b = OliaCongestionControl(mss=1460, group=group)
        assert group.members_of(OliaCongestionControl) == [a, b]
        group.unregister(a)
        assert group.members_of(OliaCongestionControl) == [b]


class TestSchedulerFastDispatch:
    """O(1) unconstrained dispatch must be indistinguishable from the full path."""

    def _throughputs(self, scheduler, send_buffer_bytes):
        config = paper_experiment("cubic", duration=0.6, sampling_interval=0.1)
        config = config.with_overrides(
            scheduler=scheduler, send_buffer_bytes=send_buffer_bytes
        )
        return run_experiment(config).total_series.values

    @pytest.mark.parametrize("scheduler", ["minrtt", "roundrobin"])
    def test_unconstrained_equals_forced_slow_path(self, scheduler, monkeypatch):
        from repro.core import connection as connection_module

        fast = self._throughputs(scheduler, None)
        # Force the generic scheduler dispatch by disabling the fast flag.
        original_init = connection_module.MptcpConnection.__init__

        def patched(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self._fast_allocate = False

        monkeypatch.setattr(connection_module.MptcpConnection, "__init__", patched)
        slow = self._throughputs(scheduler, None)
        assert fast == slow

    def test_minrtt_single_pass_picks_first_minimum(self):
        # Construct sender stubs with equal SRTTs: the historical
        # min()-over-candidates kept the first subflow; the single-pass scan
        # must do the same.
        from repro.core.scheduler import MinRttScheduler

        class StubRtt:
            def __init__(self, srtt):
                self.srtt = srtt

        class StubCc:
            cwnd = 10.0
            mss = 1460

        class StubSender:
            def __init__(self, srtt):
                self.snd_nxt = 0
                self.snd_una = 0
                self.mss = 1460
                self.cc = StubCc()
                self.rtt = StubRtt(srtt)

        class StubSubflow:
            def __init__(self, srtt):
                self.sender = StubSender(srtt)
                self.state = "active"

        class StubAllocator:
            send_buffer_bytes = 1
            total_bytes = None

            def allocate(self, max_bytes):
                return (0, max_bytes)

        class StubConnection:
            allocator = StubAllocator()

        first, second = StubSubflow(0.05), StubSubflow(0.05)
        StubConnection.subflows = [first, second]
        scheduler = MinRttScheduler()
        assert scheduler.allocate(StubConnection(), first, 1460) == (0, 1460)
        assert scheduler.allocate(StubConnection(), second, 1460) is None


@pytest.mark.usefixtures("each_kernel")
class TestGoldenPipelineEquivalence:
    """Every pinned scenario must reproduce its pre-fast-path output exactly.

    The golden file stores *all* float samples of every throughput series
    (JSON round-trips IEEE-754 doubles exactly), plus drop/retransmission
    counters, generated before the protocol fast path landed.  Parametrized
    over both kernels (``each_kernel``): the compiled event loop must
    reproduce the same bytes as the pure-Python reference.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return golden_pipeline.load_golden()

    @pytest.mark.parametrize("cc", ["cubic", "lia", "olia"])
    def test_single_flow_series_byte_identical(self, golden, cc):
        fresh = golden_pipeline.single_flow_case(cc)
        assert fresh == golden[f"single/{cc}"]

    def test_bounded_buffer_scheduler_series_byte_identical(self, golden):
        fresh = golden_pipeline.single_flow_case(
            "cubic", scheduler="roundrobin", send_buffer_bytes=256 * 1024
        )
        assert fresh == golden["single/cubic-roundrobin-bounded"]
        fresh = golden_pipeline.single_flow_case(
            "lia", scheduler="minrtt", send_buffer_bytes=192 * 1024
        )
        assert fresh == golden["single/lia-minrtt-bounded"]

    def test_mptcp_vs_tcp_shared_bottleneck_byte_identical(self, golden):
        from repro.experiments.scenarios import mptcp_vs_tcp_shared_bottleneck

        fresh = golden_pipeline.multi_flow_case(
            mptcp_vs_tcp_shared_bottleneck(
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            )
        )
        assert fresh == golden["multi/mptcp_vs_tcp_shared_bottleneck"]

    def test_two_mptcp_competition_byte_identical(self, golden):
        from repro.experiments.scenarios import two_mptcp_competition

        fresh = golden_pipeline.multi_flow_case(
            two_mptcp_competition(
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            )
        )
        assert fresh == golden["multi/two_mptcp_competition"]

    def test_mptcp_vs_tcp_olia_byte_identical(self, golden):
        from repro.experiments.scenarios import mptcp_vs_tcp_shared_bottleneck

        fresh = golden_pipeline.multi_flow_case(
            mptcp_vs_tcp_shared_bottleneck(
                congestion_control="olia",
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            )
        )
        assert fresh == golden["multi/mptcp_vs_tcp_olia"]

    def test_red_ecn_single_flow_byte_identical(self, golden):
        # AQM scenes decline the native bypass (the kernel's eligibility
        # check requires drop-tail queues), so the compiled leg of this test
        # pins the Python handlers under the compiled event loop against the
        # same golden bytes as the pure-Python loop.
        fresh = golden_pipeline.single_flow_case("lia", queue_kind="red", ecn=True)
        assert fresh == golden["single/lia-red-ecn"]

    def test_codel_multi_flow_byte_identical(self, golden):
        from repro.experiments.scenarios import aqm_vs_droptail

        fresh = golden_pipeline.multi_flow_case(
            aqm_vs_droptail(
                queue_kind="codel",
                ecn=True,
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            )
        )
        assert fresh == golden["multi/aqm_codel_ecn"]


class TestAqmDeclinesNativeBypass:
    """The whole-window native pipeline must refuse non-drop-tail scenes.

    The eligibility plan requires ``type(link.queue) is DropTailQueue``; a
    RED or CoDel link makes ``run_network`` return None (untouched scene,
    Python fallback) where the identical drop-tail scene runs natively.
    """

    @staticmethod
    def build_network(queue_kind):
        from repro.netsim.network import Network
        from repro.tcp.connection import TcpConnection

        from .conftest import make_chain_topology

        topology = make_chain_topology(capacity_mbps=20.0)
        if queue_kind != "droptail":
            topology.set_queue_kind(queue_kind)
        network = Network(topology)
        network.install_path(["s", "r1", "d"], tag=1, as_default=True)
        connection = TcpConnection(network, "s", "d", cc="reno", tag=1)
        connection.start(0.0)
        return network

    @pytest.mark.parametrize("queue_kind", ["red", "codel"])
    def test_aqm_scene_is_ineligible(self, queue_kind):
        from repro import kernel
        from repro.kernel.pipeline import run_network

        available, reason = kernel.compiled_available()
        if not available:
            pytest.skip(f"compiled kernel unavailable: {reason}")
        with kernel.override("compiled"):
            ext = kernel.compiled_module()
            assert ext is not None
            network = self.build_network(queue_kind)
            assert run_network(network, 0.5, ext) is None
            queue_class = {"red": "REDQueue", "codel": "CoDelQueue"}[queue_kind]
            assert network.bypass_outcome == f"link s->r1: queue is {queue_class}"
            # Positive control: the same scene with drop-tail queues runs
            # natively, so the decline above is the queue discipline's doing.
            control = self.build_network("droptail")
            assert run_network(control, 0.5, ext) is not None
            assert control.bypass_outcome == "native"
