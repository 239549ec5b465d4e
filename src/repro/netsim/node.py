"""Nodes: routers forward packets, hosts terminate transport agents.

A :class:`Router` looks up the next hop in the routing table and pushes the
packet onto the corresponding outgoing link.  A :class:`Host` additionally
dispatches packets addressed to itself to the transport agent registered for
``(flow_id, subflow_id)`` and feeds every delivered packet to the capture
taps attached to it (the tshark substitute).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import RoutingError
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .link import Link
    from .routing import RoutingTable


class NodeStats:
    """Per-node forwarding counters (on a compiled simulator, the C fields of
    ``sim.node_stats_type``: see :class:`~repro.netsim.link.LinkStats`)."""

    __slots__ = ("received", "forwarded", "delivered", "routing_drops")

    def __init__(self) -> None:
        self.received = 0
        self.forwarded = 0
        self.delivered = 0
        self.routing_drops = 0


class Node:
    """A network node with outgoing links and a routing table.

    Hot-path design: when the routing table's forwarding decision depends
    only on ``(node, destination, tag)`` (tag/static tables -- the paper's
    setup), the resolved outgoing :class:`Link` is memoised per
    ``(destination, tag)``.  Every forwarded packet then costs one dict
    lookup instead of a virtual ``next_hop`` dispatch plus the table's own
    lookup chain; the cache is invalidated whenever the table's mutation
    ``version`` moves (``install_path``).  The cache is never emptied in
    place while the node holds it: :meth:`_reset_hop_cache` swaps in a fresh
    dict, so the compiled kernel's hop memo, which checks the dict's
    identity, never serves a stale entry.
    """

    __slots__ = (
        "name",
        "sim",
        "routing",
        "links",
        "stats",
        "_hop_cache",
        "_hop_version",
    )

    def __init__(self, name: str, sim: "Simulator", routing: Optional["RoutingTable"] = None) -> None:
        self.name = name
        self.sim = sim
        self.routing = routing
        self.links: Dict[str, "Link"] = {}
        self.stats = getattr(sim, "node_stats_type", NodeStats)()
        cache_ok = routing is not None and routing.hop_cache_safe()
        self._hop_cache: Optional[Dict[tuple, "Link"]] = {} if cache_ok else None
        self._hop_version = routing.version if cache_ok else 0

    # ------------------------------------------------------------------
    def attach_link(self, link: "Link") -> None:
        """Register an outgoing link (keyed by the downstream node's name)."""
        self.links[link.dst.name] = link
        self._reset_hop_cache()

    def _reset_hop_cache(self) -> None:
        """Forget every resolved hop: a fresh dict, then the old one emptied."""
        stale = self._hop_cache
        if stale is not None:
            self._hop_cache = {}
            stale.clear()

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Originate or forward ``packet`` towards its destination."""
        cache = self._hop_cache
        if cache is not None:
            routing = self.routing
            if self._hop_version != routing.version:
                self._reset_hop_cache()
                cache = self._hop_cache
                self._hop_version = routing.version
            link = cache.get((packet.dst, packet.tag))
            if link is not None:
                return link.send(packet)
            next_hop = routing.next_hop(self.name, packet)
            if next_hop is None:
                self.stats.routing_drops += 1
                return False
            link = self.links.get(next_hop)
            if link is None:
                raise RoutingError(f"{self.name} has no link to {next_hop}")
            cache[(packet.dst, packet.tag)] = link
            return link.send(packet)
        routing = self.routing
        if routing is None:
            raise RoutingError(f"node {self.name} has no routing table")
        next_hop = routing.next_hop(self.name, packet)
        if next_hop is None:
            self.stats.routing_drops += 1
            return False
        link = self.links.get(next_hop)
        if link is None:
            raise RoutingError(f"{self.name} has no link to {next_hop}")
        return link.send(packet)

    def receive(self, packet: Packet, link: Optional["Link"] = None) -> None:
        """Handle a packet arriving from ``link``."""
        stats = self.stats
        stats.received += 1
        if packet.dst == self.name:
            stats.delivered += 1
            self._deliver_locally(packet)
            return
        stats.forwarded += 1
        self.send(packet)

    def _deliver_locally(self, packet: Packet) -> None:  # pragma: no cover - overridden
        """Routers silently discard packets addressed to themselves."""

    def _close(self) -> None:
        """Let go of the outgoing links: :meth:`~repro.netsim.network.Network.close`."""
        self.links.clear()
        self._reset_hop_cache()


class Router(Node):
    """A pure forwarding node."""

    __slots__ = ()


class Host(Node):
    """An end host running transport agents and capture taps."""

    __slots__ = (
        "_agents",
        "_agents_by_flow",
        "_sole_agent",
        "_sole_flow",
        "_sole_subflow",
        "_captures",
    )

    def __init__(self, name: str, sim: "Simulator", routing: Optional["RoutingTable"] = None) -> None:
        super().__init__(name, sim, routing)
        self._agents: Dict[Tuple[int, int], object] = {}
        #: Hot-path mirror of ``_agents``: flow_id -> subflow_id -> agent.
        #: Two int-keyed lookups beat building a tuple key per delivery.  A
        #: change replaces the tables it touches and never edits them in
        #: place, so the compiled kernel's dispatch memo, which checks the
        #: outer table's identity, never serves a stale entry.
        self._agents_by_flow: Dict[int, Dict[int, object]] = {}
        #: Single-agent fast path: most hosts terminate exactly one
        #: (sender or receiver) endpoint, so delivery reduces to two int
        #: comparisons.  Cleared whenever a second agent registers.
        self._sole_agent: Optional[object] = None
        self._sole_flow = -1
        self._sole_subflow = -1
        self._captures: List[Callable[[Packet, float], None]] = []

    # ------------------------------------------------------------------
    def register_agent(self, flow_id: int, subflow_id: int, agent: object) -> None:
        """Bind ``agent`` to packets of ``(flow_id, subflow_id)`` arriving here.

        The agent must expose ``handle_packet(packet)``.
        """
        key = (flow_id, subflow_id)
        if key in self._agents:
            raise RoutingError(f"{self.name}: agent already registered for flow {key}")
        self._agents[key] = agent
        by_flow = dict(self._agents_by_flow)
        by_flow[flow_id] = {**by_flow.get(flow_id, {}), subflow_id: agent}
        self._replace_agent_tables(by_flow)
        self._refresh_sole_agent()

    def unregister_agent(self, flow_id: int, subflow_id: int) -> None:
        self._agents.pop((flow_id, subflow_id), None)
        per_flow = self._agents_by_flow.get(flow_id)
        if per_flow is not None and subflow_id in per_flow:
            by_flow = dict(self._agents_by_flow)
            rest = {sub: agent for sub, agent in per_flow.items() if sub != subflow_id}
            if rest:
                by_flow[flow_id] = rest
            else:
                del by_flow[flow_id]
            self._replace_agent_tables(by_flow)
        self._refresh_sole_agent()

    def _replace_agent_tables(self, by_flow: Dict[int, Dict[int, object]]) -> None:
        """Install ``by_flow``, then empty the table it replaces."""
        stale = self._agents_by_flow
        self._agents_by_flow = by_flow
        stale.clear()

    def _refresh_sole_agent(self) -> None:
        if len(self._agents) == 1:
            ((flow_id, subflow_id), agent), = self._agents.items()
            self._sole_flow = flow_id
            self._sole_subflow = subflow_id
            self._sole_agent = agent
        else:
            self._sole_agent = None
            self._sole_flow = -1
            self._sole_subflow = -1

    def add_capture(self, callback: Callable[[Packet, float], None]) -> None:
        """Attach a capture tap invoked for every packet delivered to this host."""
        self._captures.append(callback)

    def _close(self) -> None:
        """Also let go of the agents and capture taps."""
        super()._close()
        self._agents.clear()
        self._replace_agent_tables({})
        self._captures.clear()
        self._refresh_sole_agent()

    # ------------------------------------------------------------------
    def _deliver_locally(self, packet: Packet) -> None:
        captures = self._captures
        if captures:
            now = self.sim.now
            for capture in captures:
                capture(packet, now)
        sole = self._sole_agent
        if sole is not None:
            if packet.flow_id == self._sole_flow and packet.subflow_id == self._sole_subflow:
                sole.handle_packet(packet)  # type: ignore[attr-defined]
            # Key mismatch: unknown flow, delivered but ignored (no socket).
            return
        per_flow = self._agents_by_flow.get(packet.flow_id)
        if per_flow is None:
            # Unknown flow: the packet is counted as delivered but ignored,
            # mirroring a host without a listening socket.
            return
        agent = per_flow.get(packet.subflow_id)
        if agent is not None:
            agent.handle_packet(packet)  # type: ignore[attr-defined]
