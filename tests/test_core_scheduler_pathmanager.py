"""MPTCP schedulers and path managers."""

import pytest

from repro.core.connection import MptcpConnection
from repro.core.path_manager import TagPathManager
from repro.core.scheduler import (
    MinRttScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.errors import ConfigurationError
from repro.model.paths import Path
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.topologies.paper import paper_paths

from .conftest import make_two_path_scenario


class TestSchedulerFactory:
    def test_known_names(self):
        assert isinstance(make_scheduler("minrtt"), MinRttScheduler)
        assert isinstance(make_scheduler("default"), MinRttScheduler)
        assert isinstance(make_scheduler("roundrobin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("redundant"), RedundantScheduler)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scheduler("blest")


def build_connection(scheduler="minrtt", send_buffer_bytes=None, cc="cubic", started=True):
    topology, paths = make_two_path_scenario()
    network = Network(topology)
    connection = MptcpConnection(
        network,
        "s",
        "d",
        paths,
        congestion_control=cc,
        scheduler=scheduler,
        send_buffer_bytes=send_buffer_bytes,
    )
    if started:
        # Mark the senders established without transmitting anything (a real
        # run calls sender.start(), which would immediately pull data through
        # the scheduler and perturb these allocation unit tests).
        for subflow in connection.subflows:
            subflow.sender._started = True
    return network, connection


class TestSchedulerAllocation:
    def test_minrtt_grants_freely_with_unbounded_buffer(self):
        _, connection = build_connection("minrtt")
        subflow = connection.subflows[0]
        grant = connection.scheduler.allocate(connection, subflow, 1400)
        assert grant == (0, 1400)

    def test_minrtt_prefers_lowest_rtt_when_buffer_scarce(self):
        _, connection = build_connection("minrtt", send_buffer_bytes=1400)
        fast, slow = connection.subflows
        fast.sender.rtt.update(0.005)
        slow.sender.rtt.update(0.050)
        # The slow subflow asks first but must be refused; the fast one is served.
        assert connection.scheduler.allocate(connection, slow, 1400) is None
        assert connection.scheduler.allocate(connection, fast, 1400) is not None

    def test_roundrobin_rotates_when_buffer_scarce(self):
        _, connection = build_connection("roundrobin", send_buffer_bytes=1400)
        first, second = connection.subflows
        grant = connection.scheduler.allocate(connection, first, 700)
        assert grant is not None
        connection.allocator.acked_bytes += 700
        # After the first grant the pointer moved to the second subflow.
        assert connection.scheduler.allocate(connection, first, 700) is None
        assert connection.scheduler.allocate(connection, second, 700) is not None

    def test_roundrobin_skips_window_limited_subflow(self):
        # Regression: a window-limited subflow at the head of the rotation
        # used to refuse every other subflow until it recovered, stalling
        # the whole connection (head-of-line blocking).
        _, connection = build_connection("roundrobin", send_buffer_bytes=4200)
        first, second = connection.subflows
        # Fill the first subflow's congestion window: it cannot send.
        first.sender.snd_nxt = first.sender.snd_una + int(first.sender.effective_window)
        assert first.sender.flight_size + first.sender.mss > first.sender.effective_window
        # The second subflow is served even though the pointer is on the first.
        assert connection.scheduler.allocate(connection, second, 700) is not None
        # Repeatedly: the stalled subflow never starves the connection.
        connection.allocator.acked_bytes += 700
        assert connection.scheduler.allocate(connection, second, 700) is not None

    def test_roundrobin_stalled_subflow_regains_turn(self):
        _, connection = build_connection("roundrobin", send_buffer_bytes=4200)
        first, second = connection.subflows
        first.sender.snd_nxt = first.sender.snd_una + int(first.sender.effective_window)
        assert connection.scheduler.allocate(connection, second, 700) is not None
        # Window opens again: the rotation comes back to the first subflow.
        first.sender.snd_nxt = first.sender.snd_una
        connection.allocator.acked_bytes += 700
        assert connection.scheduler.allocate(connection, second, 700) is None
        assert connection.scheduler.allocate(connection, first, 700) is not None

    def test_roundrobin_skips_not_yet_established_subflow(self):
        # A subflow that has not joined yet (join_delay) must not hold the
        # rotation: it has no window limit but cannot send either.
        _, connection = build_connection("roundrobin", send_buffer_bytes=4200)
        first, second = connection.subflows
        second.sender._started = False
        assert connection.scheduler.allocate(connection, first, 700) is not None
        connection.allocator.acked_bytes += 700
        # The pointer moved to the unjoined subflow; the established one is
        # still served instead of the connection stalling.
        assert connection.scheduler.allocate(connection, first, 700) is not None

    def test_roundrobin_join_delay_does_not_stall_transfer(self):
        # End-to-end regression: with a bounded send buffer and a late
        # MP_JOIN, the round-robin rotation used to park on the unjoined
        # subflow and deliver nothing until it came up.
        topology, paths = make_two_path_scenario()
        network = Network(topology)
        connection = MptcpConnection(
            network,
            "s",
            "d",
            paths,
            congestion_control="cubic",
            scheduler="roundrobin",
            send_buffer_bytes=64_000,
            join_delay=1.0,
        )
        connection.start(at=0.0)
        network.run(1.0)
        # Well before the second subflow joins, the first one is moving data.
        assert connection.bytes_delivered > 100_000

    def test_redundant_duplicates_the_stream(self):
        _, connection = build_connection("redundant")
        a, b = connection.subflows
        scheduler = connection.scheduler
        first = scheduler.allocate(connection, a, 1400)
        duplicate = scheduler.allocate(connection, b, 1400)
        assert first == (0, 1400)
        assert duplicate == (0, 1400)
        # The next request on subflow a continues past the duplicated range.
        assert scheduler.allocate(connection, a, 1400) == (1400, 1400)


class TestTagPathManager:
    def test_builds_one_subflow_per_path(self, paper_network):
        network, paths = paper_network
        manager = TagPathManager(paths, default_index=1)
        subflows = manager.initial_subflows(network, "s", "d")
        assert len(subflows) == 3
        assert {sf.tag for sf in subflows} == {1, 2, 3}

    def test_default_subflow_listed_first(self, paper_network):
        network, paths = paper_network
        manager = TagPathManager(paths, default_index=1)
        subflows = manager.initial_subflows(network, "s", "d")
        assert subflows[0].is_default
        assert subflows[0].path.name == "Path 2"

    def test_routes_installed_for_each_tag(self, paper_network):
        network, paths = paper_network
        TagPathManager(paths, default_index=0).initial_subflows(network, "s", "d")
        for path in paths:
            packet = Packet("s", "d", 100, tag=path.tag)
            hops = ["s"]
            for _ in path.links:
                hops.append(network.routing.next_hop(hops[-1], packet))
            assert hops == list(path.nodes)

    def test_rejects_paths_with_wrong_endpoints(self, paper_network):
        network, _ = paper_network
        bad = [Path(["v1", "v4", "d"], tag=1)]
        with pytest.raises(ConfigurationError):
            TagPathManager(bad).initial_subflows(network, "s", "d")

    def test_rejects_empty_path_list(self):
        with pytest.raises(ConfigurationError):
            TagPathManager([])

    def test_rejects_bad_default_index(self):
        with pytest.raises(ConfigurationError):
            TagPathManager(paper_paths(), default_index=5)
