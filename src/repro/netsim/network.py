"""Network: instantiate a topology into simulator objects (Mininet substitute).

This is the library's equivalent of the paper's Mininet script: it creates
hosts, routers and rate-limited links from a :class:`Topology`, holds the
shared tag-routing table, installs the pre-selected paths, attaches captures
and runs the simulation for a given duration.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SimulationError, TopologyError
from ..units import mbps
from .capture import PacketCapture
from .engine import Simulator, make_simulator
from .link import Link
from .node import Host, Node, Router
from .queues import make_queue
from .routing import RoutingTable, StaticRoutingTable, TagRoutingTable
from .topology import Topology

#: Signature of a dynamics listener: ``(kind, src, dst)`` where ``kind`` is
#: ``"link_down"`` / ``"link_up"`` / ``"link_rate"`` / ``"link_delay"`` /
#: ``"loss_burst"`` and ``(src, dst)`` the link named by the event.
DynamicsListener = Callable[[str, str, str], None]


class Network:
    """A built (instantiated) network ready to run traffic.

    Parameters
    ----------
    topology:
        The declarative topology to instantiate.
    sim:
        Optional simulator to share with other components; a fresh one is
        created otherwise.
    routing:
        Routing table shared by all nodes.  By default a
        :class:`TagRoutingTable` with a shortest-path fallback is used, which
        matches the paper's setup (tagged subflows plus a default route).
    """

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        routing: Optional[RoutingTable] = None,
    ) -> None:
        self.topology = topology
        self.sim = sim if sim is not None else make_simulator()
        if routing is None:
            fallback = StaticRoutingTable(topology.adjacency())
            routing = TagRoutingTable(fallback=fallback)
        self.routing = routing
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._captures: Dict[Tuple[str, Optional[int]], PacketCapture] = {}
        self._dynamics_listeners: List[DynamicsListener] = []
        #: How the last :meth:`run` window executed: ``"native"`` when the
        #: compiled whole-window bypass took it, else why it declined.
        self.bypass_outcome: Optional[str] = None
        self._closed = False
        self._build()

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        for spec in self.topology.nodes:
            node_spec = self.topology.node(spec)
            cls = Host if node_spec.kind == "host" else Router
            self.nodes[spec] = cls(spec, self.sim, self.routing)
        for link_spec in self.topology.links:
            queue = make_queue(link_spec.queue_kind, link_spec.queue_packets)
            link = Link(
                self.sim,
                self.nodes[link_spec.src],
                self.nodes[link_spec.dst],
                rate_bps=mbps(link_spec.capacity_mbps),
                delay=link_spec.delay,
                queue=queue,
            )
            self.nodes[link_spec.src].attach_link(link)
            self.links[(link_spec.src, link_spec.dst)] = link

    # ------------------------------------------------------------------ access
    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def host(self, name: str) -> Host:
        node = self.node(name)
        if not isinstance(node, Host):
            raise TopologyError(f"node {name!r} is not a host")
        return node

    def link(self, a: str, b: str) -> Link:
        try:
            return self.links[(a, b)]
        except KeyError:
            raise TopologyError(f"unknown link {a!r}->{b!r}") from None

    # ------------------------------------------------------------------ paths
    def install_path(
        self,
        nodes: Sequence[str],
        tag: Optional[int],
        *,
        as_default: bool = False,
    ) -> None:
        """Install tag forwarding state for an explicit path.

        Raises :class:`TopologyError` if the path uses a missing link and
        requires the shared routing table to be tag-capable.
        """
        self.topology.validate_path(nodes)
        if not isinstance(self.routing, TagRoutingTable):
            raise TopologyError("install_path requires a TagRoutingTable")
        self.routing.install_path(list(nodes), tag, as_default=as_default)

    # ------------------------------------------------------------------ capture
    def attach_capture(
        self,
        host_name: str,
        *,
        data_only: bool = False,
        flow_id: Optional[int] = None,
    ) -> PacketCapture:
        """Attach (or return the existing) tshark-like capture at ``host_name``.

        With ``flow_id`` the capture records only that flow's packets -- a
        per-flow tap, one per competing connection in multi-flow scenarios.
        Captures are cached per ``(host, flow_id)``, so asking again returns
        the existing instance.
        """
        key = (host_name, flow_id)
        if key in self._captures:
            return self._captures[key]
        suffix = "-capture" if flow_id is None else f"-flow{flow_id}-capture"
        capture = PacketCapture(
            name=f"{host_name}{suffix}", data_only=data_only, flow_id=flow_id
        )
        self.host(host_name).add_capture(capture.on_packet)
        self._captures[key] = capture
        return capture

    # ------------------------------------------------------------------ dynamics
    def add_dynamics_listener(self, listener: DynamicsListener) -> None:
        """Register a callback invoked after every dynamics event is applied.

        The protocol layers (e.g. :class:`~repro.core.connection.MptcpConnection`)
        use this to react to path failures and recoveries -- the simulated
        equivalent of a netlink link-state notification.
        """
        self._dynamics_listeners.append(listener)

    def _notify_dynamics(self, kind: str, a: str, b: str) -> None:
        for listener in self._dynamics_listeners:
            listener(kind, a, b)

    def _directed_links(self, a: str, b: str, bidirectional: bool) -> List[Link]:
        links = [self.link(a, b)]
        if bidirectional:
            reverse = self.links.get((b, a))
            if reverse is not None:
                links.append(reverse)
        return links

    def set_link_rate(
        self, a: str, b: str, rate_mbps: float, *, bidirectional: bool = False
    ) -> None:
        """Change the rate of link ``a -> b`` (and ``b -> a`` if bidirectional)."""
        for link in self._directed_links(a, b, bidirectional):
            link.set_rate(mbps(rate_mbps))
        self._notify_dynamics("link_rate", a, b)

    def set_link_delay(
        self, a: str, b: str, delay: float, *, bidirectional: bool = False
    ) -> None:
        """Change the propagation delay of link ``a -> b``."""
        for link in self._directed_links(a, b, bidirectional):
            link.set_delay(delay)
        self._notify_dynamics("link_delay", a, b)

    def set_link_down(
        self, a: str, b: str, *, bidirectional: bool = True, flush: str = "drop"
    ) -> None:
        """Fail the link between ``a`` and ``b`` (both directions by default)."""
        for link in self._directed_links(a, b, bidirectional):
            link.set_down(flush=flush)
        self._notify_dynamics("link_down", a, b)

    def set_link_up(self, a: str, b: str, *, bidirectional: bool = True) -> None:
        """Restore the link between ``a`` and ``b``."""
        for link in self._directed_links(a, b, bidirectional):
            link.set_up()
        self._notify_dynamics("link_up", a, b)

    def start_loss_burst(
        self,
        a: str,
        b: str,
        duration: float,
        loss_rate: float = 1.0,
        *,
        seed: int = 0,
        bidirectional: bool = False,
    ) -> None:
        """Begin a transient loss episode on link ``a -> b``."""
        for link in self._directed_links(a, b, bidirectional):
            link.start_loss_burst(duration, loss_rate, seed=seed)
        self._notify_dynamics("loss_burst", a, b)

    def path_is_up(self, nodes: Sequence[str]) -> bool:
        """True when every link along ``nodes`` is up, in *both* directions.

        The reverse direction carries the path's acknowledgements, so a
        half-restored link (forward up, reverse down) must still count as a
        failed path -- otherwise traffic would be committed to a path that
        can never ACK.
        """
        for a, b in zip(nodes, nodes[1:]):
            link = self.links.get((a, b))
            if link is None or not link.up:
                return False
            reverse = self.links.get((b, a))
            if reverse is not None and not reverse.up:
                return False
        return True

    # ------------------------------------------------------------------ run
    def run(self, duration: float) -> float:
        """Run the simulation for ``duration`` seconds (from the current time).

        When the compiled kernel is active the links built in
        :meth:`_build` are ``KernelSim.link_type``, so forwarding, drop-tail
        queueing and host dispatch run in C for every scene; when the whole
        window is also expressible natively (static links, single-path TCP,
        tag/static routing -- see :mod:`repro.kernel.pipeline`), the run
        bypasses the event loop entirely.  Results are byte-identical
        either way.  A ``duration`` that is not a positive finite number
        (zero, negative, NaN or infinite) raises :class:`ConfigurationError`
        on either kernel, and a closed network (:meth:`close`) raises
        :class:`SimulationError`.
        """
        if self._closed:
            raise SimulationError(f"network {self.topology.name!r} is closed and cannot run")
        if not 0 < duration < math.inf:
            raise ConfigurationError(f"duration must be positive and finite, got {duration!r}")
        until = self.sim.now + duration
        from ..kernel import maybe_run_network  # lazy: kernel builds on first use

        result = maybe_run_network(self, until)
        if result is not None:
            return result
        return self.sim.run(until=until)

    def close(self) -> None:
        """End the network's life: drop its pending events and cut its cycles.

        A built network is one cyclic graph: pending events hold bound
        methods of links and agents, which hold the simulator; nodes hold
        their links, which hold their nodes; hosts hold their agents, which
        hold their host; the dynamics listeners hold the connections, which
        hold the network; a compiled kernel's links hold what they resolved
        downstream.  Closing cuts each of those edges, so the graph is
        freed by reference counting once its last outside reference goes,
        not by a later generation-2 collection.  Counters, captures and
        topology stay readable; :meth:`run` refuses a closed network.  The
        packet front doors close theirs once the result is built.
        """
        self._closed = True
        self.sim._clear_pending()
        for node in self.nodes.values():
            node._close()
        for link in self.links.values():
            link._close()
        self._dynamics_listeners.clear()

    # ------------------------------------------------------------------ stats
    def link_utilization(self, a: str, b: str, duration: float) -> float:
        """Utilisation of the directed link ``a -> b`` over ``duration`` seconds.

        Static links derive busy time from bytes and the (constant) rate;
        a link whose rate changed mid-run uses the accumulated per-packet
        busy time instead (bytes over the *current* rate would misprice
        everything transmitted at earlier rates).
        """
        link = self.link(a, b)
        if link._dynamic:
            if duration <= 0:
                return 0.0
            return min(1.0, link.stats.busy_time / duration)
        return link.stats.utilization(link.rate_bps, duration)

    def total_drops(self) -> int:
        """Total packets dropped at any queue in the network."""
        return sum(link.drops for link in self.links.values())

    def signal_plane_totals(self) -> Dict[str, float]:
        """Aggregate congestion-signal counters over every queue.

        Sums the AQM/ECN counters (CE marks, early vs full-buffer drops,
        sojourn-time accumulation) across all links; the measurement layer
        turns these into rates (see :mod:`repro.measure.signalplane`).
        Drop-tail networks report all-zero marks/early drops by construction.
        """
        totals = {
            "ecn_marks": 0,
            "early_drops": 0,
            "full_drops": 0,
            "dropped": 0,
            "dequeued": 0,
            "queue_delay_sum": 0.0,
        }
        for link in self.links.values():
            stats = link.queue.stats
            totals["ecn_marks"] += stats.ecn_marks
            totals["early_drops"] += stats.early_drops
            totals["full_drops"] += stats.full_drops
            totals["dropped"] += stats.dropped
            totals["dequeued"] += stats.dequeued
            totals["queue_delay_sum"] += stats.queue_delay_sum
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Network({self.topology.name!r}, nodes={len(self.nodes)}, links={len(self.links)})"
