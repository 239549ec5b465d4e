"""Routing tables: static shortest-path, tag-based, and ECMP forwarding.

The paper pins each MPTCP subflow to a pre-selected path by *tagging* its
packets (a modified ``ndiffports`` path manager applies one tag per subflow)
and installing deterministic per-tag forwarding state in the network.
:class:`TagRoutingTable` implements exactly that: the forwarding decision at
every node is keyed on ``(destination, tag)`` and falls back to a per-
destination default route when the tag is unknown.

:class:`StaticRoutingTable` provides plain shortest-path forwarding and
:class:`EcmpRoutingTable` hashes flows across equal-cost next hops, which is
the other tagging realisation mentioned in the paper (ECMP hashing).

:class:`StaticRoutingTable` (every :class:`~repro.netsim.network.Network`
builds one as its fallback) is a breadth-first search of its own;
:mod:`networkx` loads only when an :class:`EcmpRoutingTable` is built.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import RoutingError
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


class RoutingTable(ABC):
    """Interface used by nodes to pick the next hop of a packet."""

    #: Monotonic mutation counter.  Implementations that can change after
    #: construction (``TagRoutingTable.install_path``) bump it so that nodes
    #: holding a memoised next-hop cache know to invalidate.
    version: int = 0

    @abstractmethod
    def next_hop(self, node: str, packet: Packet) -> Optional[str]:
        """Return the neighbour to forward ``packet`` to from ``node``.

        ``None`` means the packet has reached a node with no route; the caller
        treats this as a routing error and drops the packet.
        """

    def hop_cache_safe(self) -> bool:
        """True when ``next_hop`` depends only on ``(node, dst, tag)``.

        Nodes may then memoise the resolved outgoing link per destination and
        tag (invalidated via :attr:`version`).  Tables that hash additional
        per-flow state (ECMP) must return False.
        """
        return False


class StaticRoutingTable(RoutingTable):
    """Hop-count shortest-path routing computed once from an adjacency mapping.

    ``adjacency`` maps every node to its neighbours
    (:meth:`Topology.adjacency() <repro.netsim.topology.Topology.adjacency>`;
    an undirected :class:`networkx.Graph` is such a mapping too).  One
    breadth-first search per destination; among equally short routes the
    neighbour that discovers a node first becomes its next hop, so the table
    -- entries and their order -- is what ``networkx.shortest_path(graph,
    target=dst)`` gives over the same adjacency order.
    """

    def __init__(self, adjacency: Mapping[str, Iterable[str]]) -> None:
        self._next: Dict[Tuple[str, str], str] = {}
        for dst in adjacency:
            seen = {dst}
            level = [dst]
            while level:
                discovered = []
                for via in level:
                    for node in adjacency[via]:
                        if node not in seen:
                            seen.add(node)
                            self._next[(node, dst)] = via
                            discovered.append(node)
                level = discovered

    def next_hop(self, node: str, packet: Packet) -> Optional[str]:
        return self._next.get((node, packet.dst))

    def hop_cache_safe(self) -> bool:
        return True


class TagRoutingTable(RoutingTable):
    """Deterministic per-tag forwarding (the paper's tagging mechanism).

    Paths are installed explicitly with :meth:`install_path`; the forward
    direction carries data segments and the reverse direction carries the
    subflow's acknowledgements, both keyed by the same tag so that ACKs follow
    the reverse of the data path.

    ``version`` is a slot: the compiled kernel's hop resolution reads it in
    place on every forwarded packet.
    """

    __slots__ = ("_entries", "_defaults", "_fallback", "version")

    def __init__(self, fallback: Optional[RoutingTable] = None) -> None:
        self._entries: Dict[Tuple[str, str, Optional[int]], str] = {}
        self._defaults: Dict[Tuple[str, str], str] = {}
        self._fallback = fallback
        self.version = 0

    # ------------------------------------------------------------------
    def install_path(
        self,
        nodes: Sequence[str],
        tag: Optional[int],
        *,
        bidirectional: bool = True,
        as_default: bool = False,
    ) -> None:
        """Install forwarding state for ``nodes`` (source first) under ``tag``.

        Parameters
        ----------
        nodes:
            Ordered list of node names from source to destination.
        tag:
            The tag value carried by packets of the subflow pinned to this
            path.  ``None`` installs the path as the untagged route.
        bidirectional:
            Also install the reverse path under the same tag (used by ACKs).
        as_default:
            Additionally register this path as the default (untagged) route
            towards the destination — the paper designates one path as the
            "default shortest path" used by the initial subflow.
        """
        if len(nodes) < 2:
            raise RoutingError("a path needs at least two nodes")
        self.version += 1
        src, dst = nodes[0], nodes[-1]
        if len(set(nodes)) != len(nodes):
            raise RoutingError(f"path {nodes!r} visits a node twice")
        for a, b in zip(nodes, nodes[1:]):
            self._entries[(a, dst, tag)] = b
        if as_default:
            for a, b in zip(nodes, nodes[1:]):
                self._defaults[(a, dst)] = b
        if bidirectional:
            reverse = list(reversed(nodes))
            rdst = reverse[-1]
            for a, b in zip(reverse, reverse[1:]):
                self._entries[(a, rdst, tag)] = b
            if as_default:
                for a, b in zip(reverse, reverse[1:]):
                    self._defaults[(a, rdst)] = b

    # ------------------------------------------------------------------
    def next_hop(self, node: str, packet: Packet) -> Optional[str]:
        hop = self._entries.get((node, packet.dst, packet.tag))
        if hop is not None:
            return hop
        hop = self._defaults.get((node, packet.dst))
        if hop is not None:
            return hop
        if self._fallback is not None:
            return self._fallback.next_hop(node, packet)
        return None

    def hop_cache_safe(self) -> bool:
        return self._fallback is None or self._fallback.hop_cache_safe()


class EcmpRoutingTable(RoutingTable):
    """Equal-cost multi-path routing with per-flow hashing.

    At every node all shortest-path next hops towards the destination are
    candidates and one is selected by hashing the packet's flow identifiers,
    which is how ECMP-based tagging steers subflows onto different paths.
    """

    def __init__(self, graph: nx.Graph, weight: Optional[str] = None, salt: int = 0) -> None:
        import networkx as nx

        self._candidates: Dict[Tuple[str, str], List[str]] = {}
        self._salt = salt
        lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight=weight))
        for node in graph.nodes:
            for dst in graph.nodes:
                if node == dst:
                    continue
                if dst not in lengths.get(node, {}):
                    continue
                best = lengths[node][dst]
                hops = []
                for neighbor in graph.neighbors(node):
                    edge_weight = 1 if weight is None else graph[node][neighbor].get(weight, 1)
                    if dst == neighbor:
                        through = edge_weight
                    elif dst in lengths.get(neighbor, {}):
                        through = edge_weight + lengths[neighbor][dst]
                    else:
                        continue
                    if abs(through - best) < 1e-12:
                        hops.append(neighbor)
                if hops:
                    self._candidates[(node, dst)] = sorted(hops)

    def _hash(self, packet: Packet, node: str) -> int:
        key = f"{self._salt}:{node}:{packet.src}:{packet.dst}:{packet.flow_id}:{packet.subflow_id}"
        digest = hashlib.sha256(key.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big")

    def next_hop(self, node: str, packet: Packet) -> Optional[str]:
        candidates = self._candidates.get((node, packet.dst))
        if not candidates:
            return None
        return candidates[self._hash(packet, node) % len(candidates)]
