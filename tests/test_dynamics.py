"""Network dynamics: time-varying links, failure/recovery, subflow lifecycle.

Covers the three refactored layers:

* netsim -- Link's dynamic mode (mid-serve rate re-plan, down/park/up, loss
  bursts, delay changes, FIFO-no-reorder guarantee) and the Schedule API;
* core -- the PathManager lifecycle (runtime add/close subflow, failover,
  DSN re-injection, coupling-group membership);
* experiments/cli -- the named dynamics scenarios end-to-end, including the
  acceptance pin: a connection keeps transferring data across a default-path
  LinkDown/LinkUp cycle.

Plus the merged-but-inactive guard: an attached empty Schedule leaves the
golden static scenarios byte-identical.
"""

import random

import pytest

from repro.core.connection import MptcpConnection
from repro.core.path_manager import FailoverPathManager
from repro.errors import ConfigurationError
from repro.experiments.harness import paper_experiment, run_experiment
from repro.experiments.scenarios import (
    DYNAMICS_SCENARIOS,
    capacity_step_tracking,
    handover_subflow_migration,
    link_flap_failover,
)
from repro.netsim import (
    DropTailQueue,
    DynamicsSpec,
    LinkDelayChange,
    LinkDown,
    LinkRateChange,
    LinkUp,
    Network,
    Schedule,
    Simulator,
)
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.topologies.generators import wifi_cellular
from repro.units import mbps

from tests import golden_pipeline


class RecordingNode:
    def __init__(self, name, sim):
        self.name = name
        self.sim = sim
        self.received = []

    def receive(self, packet, link=None):
        self.received.append((self.sim.now, packet.packet_id))


def subflow_states(connection):
    """Lifecycle state per subflow id (``active`` / ``down`` / ``closed``)."""
    return {sf.subflow_id: sf.state for sf in connection.subflows}


def make_link(sim, rate_mbps=10.0, delay=0.001, queue=None):
    src, dst = RecordingNode("a", sim), RecordingNode("b", sim)
    link = Link(sim, src, dst, rate_bps=mbps(rate_mbps), delay=delay, queue=queue)
    return link, dst


class TestLinkDynamics:
    def test_rate_decrease_mid_serve_replans_delivery(self):
        sim = Simulator()
        link, dst = make_link(sim, 10.0, 0.001)
        link.send(Packet("a", "b", 1500))  # tx = 1.2 ms, deliver at 2.2 ms
        sim.schedule_at(0.0006, link.set_rate, mbps(5))
        sim.run()
        # 0.6 ms served at 10 Mbps; the remaining 0.6 ms of bits take 1.2 ms
        # at 5 Mbps: delivery at 0.6 + 1.2 + 1.0(delay) ms.
        assert dst.received[0][0] == pytest.approx(0.0028, abs=1e-12)

    def test_rate_increase_mid_serve_delivers_earlier(self):
        sim = Simulator()
        link, dst = make_link(sim, 10.0, 0.001)
        link.send(Packet("a", "b", 1500))
        sim.schedule_at(0.0006, link.set_rate, mbps(20))
        sim.run()
        assert dst.received[0][0] == pytest.approx(0.0019, abs=1e-12)

    def test_rate_change_reaches_queued_packets(self):
        sim = Simulator()
        link, dst = make_link(sim, 10.0, 0.0)
        link.send(Packet("a", "b", 1000))
        link.send(Packet("a", "b", 1000))  # queued behind the first
        sim.schedule_at(0.0004, link.set_rate, mbps(5))
        sim.run()
        times = [t for t, _ in dst.received]
        # First: 0.4 ms at 10 Mbps + 0.8 ms remaining at 5 Mbps = 1.2 ms;
        # second serialises fully at 5 Mbps (1.6 ms) after it.
        assert times == pytest.approx([0.0012, 0.0028], abs=1e-12)

    def test_rate_change_while_idle_and_noop_rate(self):
        sim = Simulator()
        link, dst = make_link(sim, 10.0, 0.0)
        link.set_rate(mbps(20))
        link.set_rate(mbps(20))  # same rate: no-op
        link.send(Packet("a", "b", 1000))
        sim.run()
        assert dst.received[0][0] == pytest.approx(1000 * 8 / mbps(20), abs=1e-15)

    def test_down_drops_offered_and_flushes_queue(self):
        sim = Simulator()
        link, dst = make_link(sim, 1.0, 0.0, queue=DropTailQueue(10))
        for _ in range(3):
            assert link.send(Packet("a", "b", 1000))
        sim.schedule_at(0.004, link.set_down)  # first packet (8 ms) mid-serve
        sim.run()
        # The serialising packet was committed to the wire; the two queued
        # ones were flushed.
        assert len(dst.received) == 1
        assert link.stats.packets_dropped == 2
        assert link.drops == 2
        assert not link.up
        assert link.send(Packet("a", "b", 1000)) is False
        assert link.stats.packets_dropped == 3

    def test_down_park_resumes_on_up(self):
        sim = Simulator()
        link, dst = make_link(sim, 1.0, 0.0, queue=DropTailQueue(10))
        for _ in range(3):
            link.send(Packet("a", "b", 1000))
        sim.schedule_at(0.004, lambda: link.set_down(flush="park"))
        sim.schedule_at(0.050, link.set_up)
        sim.run()
        times = [t for t, _ in dst.received]
        # Packet 1 completes at 8 ms; the parked two resume at 50 ms.
        assert times == pytest.approx([0.008, 0.058, 0.066], abs=1e-12)
        assert link.stats.packets_dropped == 0

    def test_set_down_rejects_unknown_flush(self):
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(ValueError):
            link.set_down(flush="teleport")

    def test_loss_burst_reseeds_per_burst(self):
        # Two bursts with the same seed must produce the same drop pattern
        # regardless of what the first burst consumed from the RNG.
        def pattern(link, sim, count):
            outcomes = []
            for _ in range(count):
                outcomes.append(link.send(Packet("a", "b", 100)))
                sim.run()
            return outcomes

        sim = Simulator()
        link, _ = make_link(sim, 100.0, 0.0)
        link.start_loss_burst(1.0, 0.5, seed=7)
        first = pattern(link, sim, 10)
        link.start_loss_burst(1.0, 0.5, seed=7)
        second = pattern(link, sim, 10)
        assert first == second

    def test_loss_burst_is_deterministic_and_expires(self):
        sim = Simulator()
        link, dst = make_link(sim, 100.0, 0.0)
        link.start_loss_burst(1.0, 0.5, seed=42)
        reference = random.Random(42)
        outcomes = []
        for _ in range(20):
            outcomes.append(link.send(Packet("a", "b", 100)))
            sim.run()  # drain so the transmitter is idle again
        expected = [reference.random() >= 0.5 for _ in range(20)]
        assert outcomes == expected
        # After the burst expires every packet goes through again.
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert link.send(Packet("a", "b", 100))
        assert not link._impaired

    def test_delay_change_applies_to_later_packets_without_reordering(self):
        sim = Simulator()
        link, dst = make_link(sim, 100.0, 0.010)
        first = Packet("a", "b", 1000)
        second = Packet("a", "b", 1000)
        link.send(first)  # deliver at 10.08 ms
        sim.schedule_at(0.001, lambda: link.set_delay(0.0))
        sim.schedule_at(0.002, lambda: link.send(second))
        sim.run()
        # The second packet's raw deadline (2.08 ms) would overtake the
        # first; a FIFO link never reorders, so it is clamped behind it.
        assert [pid for _, pid in dst.received] == [first.packet_id, second.packet_id]
        assert dst.received[0][0] == pytest.approx(0.01008, abs=1e-12)
        assert dst.received[1][0] == pytest.approx(0.01008, abs=1e-12)
        # A third packet sent later uses the new delay normally.
        third = Packet("a", "b", 1000)
        sim.schedule_at(0.020, lambda: link.send(third))
        sim.run()
        assert dst.received[2][0] == pytest.approx(0.02008, abs=1e-12)

    def test_utilization_stays_truthful_across_rate_change(self):
        from repro.netsim.topology import Topology

        topology = Topology("util")
        topology.add_host("a")
        topology.add_host("b")
        topology.add_link("a", "b", 10.0, 0.0, 10)
        network = Network(topology)
        link = network.link("a", "b")
        # 10 back-to-back packets, rate halved while the queue drains: the
        # link is busy the whole time it transmits, never longer.
        for _ in range(10):
            link.send(Packet("a", "b", 1250))  # 1 ms each at 10 Mbps
        network.sim.schedule_at(0.0025, link.set_rate, mbps(5))
        network.sim.run()
        busy = link.stats.busy_time
        assert busy == pytest.approx(network.sim.now, rel=1e-9)
        utilization = network.link_utilization("a", "b", network.sim.now * 2)
        assert utilization == pytest.approx(0.5, rel=1e-9)

    def test_static_link_never_goes_dynamic(self):
        sim = Simulator()
        link, dst = make_link(sim)
        for _ in range(5):
            link.send(Packet("a", "b", 1000))
        sim.run()
        assert not link._dynamic
        assert not link._deadlines


class TestSchedule:
    def test_empty_schedule_is_free(self):
        topology, paths = wifi_cellular()
        network = Network(topology)
        pending_before = network.sim.pending_events
        Schedule().apply(network)
        assert network.sim.pending_events == pending_before
        assert not Schedule()
        assert not DynamicsSpec()

    def test_at_rejects_a_negative_time(self):
        with pytest.raises(ConfigurationError):
            Schedule().at(-1.0, LinkDown("a", "b"))

    def test_events_fire_at_scheduled_times(self):
        topology, paths = wifi_cellular()
        network = Network(topology)
        schedule = (
            Schedule()
            .at(1.0, LinkDown("client", "wifi_ap"))
            .at(2.0, LinkUp("client", "wifi_ap"))
            .at(2.5, LinkRateChange("client", "lte_bs", 5.0))
            .at(2.5, LinkDelayChange("client", "lte_bs", 0.05))
        )
        schedule.apply(network)
        network.run(1.5)
        assert not network.link("client", "wifi_ap").up
        assert not network.link("wifi_ap", "client").up  # bidirectional default
        assert not network.path_is_up(["client", "wifi_ap", "server"])
        network.run(1.5)
        assert network.link("client", "wifi_ap").up
        assert network.path_is_up(["client", "wifi_ap", "server"])
        cellular = network.link("client", "lte_bs")
        assert cellular.rate_bps == mbps(5.0)
        assert cellular.delay == 0.05
        # Directed events leave the reverse direction alone.
        assert network.link("lte_bs", "client").rate_bps == mbps(20.0)

    def test_dynamics_spec_epochs_default_to_event_times(self):
        spec = DynamicsSpec(schedule=Schedule().at(1.0, LinkDown("a", "b")))
        assert spec.measurement_epochs() == [1.0]
        explicit = DynamicsSpec(
            schedule=Schedule().at(1.0, LinkDown("a", "b")), epochs=(2.0, 0.5)
        )
        assert explicit.measurement_epochs() == [0.5, 2.0]


class TestSubflowLifecycle:
    def _flapped_connection(self, total_bytes=None, cc="lia"):
        topology, paths = wifi_cellular()
        network = Network(topology)
        connection = MptcpConnection(
            network, "client", "server", paths,
            congestion_control=cc, total_bytes=total_bytes,
        )
        connection.start(0.0)
        return network, connection

    def test_connection_survives_default_path_flap(self):
        """Acceptance pin: data keeps flowing across a LinkDown/LinkUp cycle
        of the default path, via the surviving subflow."""
        network, connection = self._flapped_connection()
        capture = network.attach_capture("server", data_only=True)
        Schedule().at(1.0, LinkDown("client", "wifi_ap")).at(
            2.0, LinkUp("client", "wifi_ap")
        ).apply(network)
        network.run(1.1)
        assert subflow_states(connection) == {0: "down", 1: "active"}
        delivered_at_down = connection.bytes_delivered
        network.run(0.9)
        delivered_in_outage = connection.bytes_delivered - delivered_at_down
        assert delivered_in_outage > 50_000  # in-order delivery continued
        network.run(1.0)
        assert subflow_states(connection) == {0: "active", 1: "active"}
        assert connection.bytes_delivered > delivered_at_down + delivered_in_outage
        # Receiver-side: the surviving (cellular, tag 2) path carried data
        # through the outage window.
        from repro.measure.sampling import per_tag_timeseries

        per_tag = per_tag_timeseries(capture, 0.1, end=3.0, tags=[1, 2])
        assert per_tag[2].window(1.2, 2.0).mean() > 1.0
        assert per_tag[1].window(1.2, 2.0).mean() == 0.0  # dead path silent

    def test_bounded_transfer_completes_across_outage(self):
        total = 1_500_000
        network, connection = self._flapped_connection(total_bytes=total)
        Schedule().at(0.15, LinkDown("client", "wifi_ap")).apply(network)
        network.run(8.0)
        assert connection.bytes_delivered == total

    def test_reinjected_ranges_tolerate_duplicate_delivery(self):
        total = 1_500_000
        network, connection = self._flapped_connection(total_bytes=total)
        Schedule().at(0.15, LinkDown("client", "wifi_ap")).at(
            0.6, LinkUp("client", "wifi_ap")
        ).apply(network)
        network.run(8.0)
        # The healed path retransmits ranges that were already re-injected;
        # the reassembler must deliver each byte exactly once.
        assert connection.bytes_delivered == total
        assert connection.reassembler.duplicate_bytes > 0

    def test_half_restored_link_keeps_path_down(self):
        # Restoring only the forward direction must not reactivate the
        # subflow: the reverse (ACK) direction is still dead.
        network, connection = self._flapped_connection()
        Schedule().at(0.5, LinkDown("client", "wifi_ap")).at(
            1.0, LinkUp("client", "wifi_ap", bidirectional=False)
        ).apply(network)
        network.run(1.2)
        assert not network.path_is_up(["client", "wifi_ap", "server"])
        assert subflow_states(connection)[0] == "down"
        network.link("wifi_ap", "client").set_up()
        network._notify_dynamics("link_up", "wifi_ap", "client")
        network.run(0.5)
        assert subflow_states(connection)[0] == "active"

    def test_close_of_down_subflow_does_not_reinject_twice(self):
        network, connection = self._flapped_connection()
        Schedule().at(0.5, LinkDown("client", "wifi_ap")).apply(network)
        network.run(0.6)
        victim = connection.subflows[0]
        assert victim.state == "down"
        network.run(0.2)  # siblings drain the re-injected ranges
        queued_before = len(connection._reinject)
        connection.close_subflow(victim)
        # Closing the already-down subflow must not enqueue a second copy.
        assert len(connection._reinject) == queued_before
        assert victim.state == "closed"

    def test_down_subflow_leaves_coupling_group_and_rejoins(self):
        network, connection = self._flapped_connection()
        assert len(connection.coupling_group) == 2
        Schedule().at(0.5, LinkDown("client", "wifi_ap")).at(
            1.0, LinkUp("client", "wifi_ap")
        ).apply(network)
        network.run(0.6)
        assert len(connection.coupling_group) == 1
        network.run(0.6)
        assert len(connection.coupling_group) == 2

    def test_add_subflow_at_runtime(self):
        topology, paths = wifi_cellular()
        network = Network(topology)
        connection = MptcpConnection(
            network, "client", "server", [paths[0]], congestion_control="olia"
        )
        connection.start(0.0)
        network.run(0.5)
        assert len(connection.subflows) == 1
        before = connection.subflows[0].acked_bytes
        added = connection.add_subflow(paths[1])
        assert added.subflow_id == 1
        assert added.tag == paths[1].tag
        assert len(connection.coupling_group) == 2
        network.run(1.0)
        assert added.acked_bytes > 0  # the new subflow carries data
        assert connection.subflows[0].acked_bytes > before

    def test_close_subflow_unregisters_and_reinjects(self):
        total = 1_000_000
        topology, paths = wifi_cellular()
        network = Network(topology)
        connection = MptcpConnection(
            network, "client", "server", paths,
            congestion_control="lia", total_bytes=total,
        )
        connection.start(0.0)
        network.run(0.2)
        victim = connection.subflows[0]
        connection.close_subflow(victim)
        assert victim.state == "closed"
        assert victim.sender.closed
        assert len(connection.coupling_group) == 1
        # Closing twice is harmless.
        connection.close_subflow(victim)
        network.run(6.0)
        assert connection.bytes_delivered == total
        # The closed sender never transmits again.
        sent_after_close = victim.sender.stats.segments_sent
        network.run(0.5)
        assert victim.sender.stats.segments_sent == sent_after_close

    def test_idle_subflow_resumes_after_heal(self):
        # The secondary subflow joins (join_delay) while its path is already
        # down: it is idle (nothing outstanding) for the whole outage and
        # must be explicitly resumed when the path heals.
        topology, paths = wifi_cellular()
        network = Network(topology)
        connection = MptcpConnection(
            network, "client", "server", paths,
            congestion_control="lia", default_path_index=1, join_delay=0.5,
        )
        connection.start(0.0)
        # Wi-Fi (tag 1, subflow 0) is the delayed secondary here; fail it
        # before it joins and heal it later.
        Schedule().at(0.1, LinkDown("client", "wifi_ap")).at(
            1.0, LinkUp("client", "wifi_ap")
        ).apply(network)
        wifi = connection.subflows[1]
        assert wifi.tag == 1
        network.run(2.5)
        assert wifi.state == "active"
        assert wifi.acked_bytes > 0  # healed path actually carries data

    def test_failover_path_manager_opens_backup_at_runtime(self):
        topology, paths = wifi_cellular()
        network = Network(topology)
        manager = FailoverPathManager(list(paths))
        connection = MptcpConnection(
            network, "client", "server", path_manager=manager,
            congestion_control="lia",
        )
        connection.start(0.0)
        Schedule().at(1.0, LinkDown("client", "wifi_ap")).apply(network)
        network.run(0.9)
        assert len(connection.subflows) == 1
        delivered_before = connection.bytes_delivered
        network.run(1.1)
        assert len(connection.subflows) == 2
        assert subflow_states(connection) == {0: "down", 1: "active"}
        assert connection.bytes_delivered > delivered_before + 50_000


class TestDynamicsScenarios:
    def test_link_flap_failover_reports_metrics(self):
        config = link_flap_failover(duration=3.0, congestion_control="cubic")
        result = run_experiment(config)
        assert result.dynamics is not None
        report = result.dynamics
        assert len(report.epochs) == 2
        assert report.worst_gap_s is not None and report.worst_gap_s > 0.0
        # Down at 0.9, up at 1.8: the cellular path keeps data flowing.
        assert result.per_path_series[2].window(1.1, 1.8).mean() > 1.0
        assert "dynamics" in result.summary()

    def test_capacity_step_tracking_follows_profile(self):
        config = capacity_step_tracking(duration=3.0, congestion_control="cubic")
        result = run_experiment(config)
        report = result.dynamics
        assert report.tracking_error is not None
        assert report.tracking_error < 0.25
        # During the reduced window throughput must hug the reduced rate.
        reduced = result.total_series.window(1.4, 1.8).mean()
        assert 10.0 < reduced < 25.0

    def test_handover_subflow_migration_migrates(self):
        config = handover_subflow_migration(duration=3.0, congestion_control="cubic")
        result = run_experiment(config)
        # Before the handover only the Wi-Fi tag carries data; afterwards
        # only the cellular tag does.
        wifi, cellular = result.per_path_series[1], result.per_path_series[2]
        assert wifi.window(0.2, 1.2).mean() > 1.0
        assert cellular.window(0.2, 1.1).mean() == 0.0
        assert cellular.window(1.6, 3.0).mean() > 1.0

    def test_spec_with_only_epochs_still_produces_report(self):
        # Epochs/profile may describe events driven outside the Schedule;
        # the report must not be gated on scheduled events alone.
        from repro.experiments.harness import paper_experiment

        config = paper_experiment("cubic", duration=1.0).with_overrides(
            dynamics=DynamicsSpec(
                epochs=(0.5,), capacity_profile=((0.0, 90.0),)
            )
        )
        result = run_experiment(config)
        assert result.dynamics is not None
        assert [e.epoch for e in result.dynamics.epochs] == [0.5]
        assert result.dynamics.tracking_error is not None
        # A fully empty spec still yields no report.
        empty = run_experiment(
            paper_experiment("cubic", duration=0.5).with_overrides(
                dynamics=DynamicsSpec()
            )
        )
        assert empty.dynamics is None

    def test_scenario_registry_is_complete(self):
        assert set(DYNAMICS_SCENARIOS) == {
            "link_flap_failover",
            "capacity_step_tracking",
            "handover_subflow_migration",
        }

    def test_scenarios_validate_event_times(self):
        with pytest.raises(ConfigurationError):
            link_flap_failover(duration=1.0, down_at=0.8, up_at=0.5)
        with pytest.raises(ConfigurationError):
            capacity_step_tracking(duration=1.0, step_down_at=2.0)
        with pytest.raises(ConfigurationError):
            handover_subflow_migration(duration=1.0, handover_at=1.5)


class TestEmptyScheduleByteIdentical:
    """The dynamics machinery merged but inactive must cost nothing."""

    def test_single_flow_with_empty_spec_matches_golden(self):
        golden = golden_pipeline.load_golden()
        fresh = golden_pipeline.single_flow_case("cubic", dynamics=DynamicsSpec())
        assert fresh == golden["single/cubic"]
        assert fresh == golden["single/cubic-empty-dynamics"]

    def test_multi_flow_with_empty_spec_matches_golden(self):
        from repro.experiments.scenarios import two_mptcp_competition

        golden = golden_pipeline.load_golden()
        fresh = golden_pipeline.multi_flow_case(
            two_mptcp_competition(
                duration=golden_pipeline.MULTI_FLOW_DURATION,
                sampling_interval=golden_pipeline.SAMPLING_INTERVAL,
            ).with_overrides(dynamics=DynamicsSpec())
        )
        assert fresh == golden["multi/two_mptcp_competition"]
        assert fresh == golden["multi/two_mptcp_empty_dynamics"]


class TestNoOpEventChangesNothing:
    """Setting a link to the rate or delay it already has flips it into
    dynamic mode and changes nothing else: the paper run's series, drops and
    delivered bytes stay the static run's, and the event is the only extra
    event.  Dynamic mode's send / serve / deliver branches (which read
    ``_busy_until`` and ``_serve_at``) must reproduce the static timing:
    ``v1 -> v4`` never queues in these runs, ``s -> v1`` queues deep."""

    @staticmethod
    def observe(cc: str, *timed_events) -> tuple:
        config = paper_experiment(cc, duration=1.5)
        if timed_events:
            config = config.with_overrides(
                dynamics=DynamicsSpec(schedule=Schedule().at(*timed_events))
            )
        result = run_experiment(config)
        return (result.per_path_series, result.drops, result.stats.bytes_delivered,
                result.events_processed)

    @pytest.mark.parametrize("link", [("v1", "v4"), ("s", "v1")], ids="->".join)
    @pytest.mark.parametrize("kind", ["rate", "delay"])
    @pytest.mark.parametrize("cc", ["cubic", "lia"])
    def test_a_link_set_to_what_it_is(self, each_kernel, cc, kind, link):
        spec = paper_experiment(cc).build_scenario()[0].link(*link)
        event = (LinkRateChange(*link, spec.capacity_mbps) if kind == "rate"
                 else LinkDelayChange(*link, spec.delay))
        *static, events = self.observe(cc)
        for at in (0.3, 0.7, 1.1):
            *fired, fired_events = self.observe(cc, at, event)
            assert fired == static, at
            assert fired_events == events + 1, at


class TestDynamicsCli:
    def test_list_flags(self, capsys):
        from repro.cli import main

        assert main(["dynamics", "--list"]) == 0
        assert "link_flap_failover" in capsys.readouterr().out
        assert main(["fairness", "--list"]) == 0
        assert "two_mptcp_competition" in capsys.readouterr().out

    def test_unknown_scenarios_exit_nonzero_with_names(self, capsys):
        from repro.cli import main

        assert main(["dynamics", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "no_such_scenario" in err and "link_flap_failover" in err
        assert main(["fairness", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "mptcp_vs_tcp_shared_bottleneck" in err

    def test_missing_scenario_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["dynamics"]) == 2
        assert "required" in capsys.readouterr().err

    def test_dynamics_json_run(self, capsys):
        import json

        from repro.cli import main

        assert main(
            ["dynamics", "link_flap_failover", "--duration", "1.5", "--cc", "cubic", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "dynamics" in payload
        assert len(payload["dynamics"]["epochs"]) == 2
