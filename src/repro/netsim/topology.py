"""Declarative network topology.

A :class:`Topology` is a lightweight description of hosts, routers and
bidirectional links (capacity, delay, queue size) that is later instantiated
into simulator objects by :class:`repro.netsim.network.Network`.  Path
enumeration and shortest-path queries (:meth:`Topology.graph`,
:meth:`~Topology.shortest_path`, :meth:`~Topology.simple_paths`,
:meth:`~Topology.k_shortest_paths`) go through :mod:`networkx`, which loads on
the first such query and never on the run path: declaring topologies, building
a :class:`~repro.netsim.network.Network` (its fallback routes come from
:meth:`Topology.adjacency`) and running a campaign need no graph library.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from ..units import DEFAULT_CAPACITY_MBPS, DEFAULT_LINK_DELAY, DEFAULT_QUEUE_PACKETS

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclass(frozen=True)
class LinkSpec:
    """Description of one direction of a link."""

    src: str
    dst: str
    capacity_mbps: float = DEFAULT_CAPACITY_MBPS
    delay: float = DEFAULT_LINK_DELAY
    queue_packets: int = DEFAULT_QUEUE_PACKETS
    queue_kind: str = "droptail"


@dataclass
class NodeSpec:
    """Description of a node."""

    name: str
    kind: str = "router"  # "router" or "host"
    metadata: dict = field(default_factory=dict)


class Topology:
    """A named collection of nodes and bidirectional links."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: Dict[str, NodeSpec] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}

    # ------------------------------------------------------------------ nodes
    def add_host(self, name: str, **metadata) -> None:
        self._add_node(name, "host", metadata)

    def add_router(self, name: str, **metadata) -> None:
        self._add_node(name, "router", metadata)

    def _add_node(self, name: str, kind: str, metadata: dict) -> None:
        if name in self._nodes:
            raise TopologyError(f"node {name!r} already exists")
        self._nodes[name] = NodeSpec(name=name, kind=kind, metadata=dict(metadata))

    def node(self, name: str) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    # ------------------------------------------------------------------ links
    def add_link(
        self,
        a: str,
        b: str,
        capacity_mbps: float = DEFAULT_CAPACITY_MBPS,
        delay: float = DEFAULT_LINK_DELAY,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
        queue_kind: str = "droptail",
        *,
        capacity_mbps_reverse: Optional[float] = None,
    ) -> None:
        """Add a bidirectional link between ``a`` and ``b``.

        Both directions get the same parameters unless
        ``capacity_mbps_reverse`` is given for an asymmetric link.
        """
        for name in (a, b):
            if name not in self._nodes:
                raise TopologyError(f"cannot link unknown node {name!r}")
        if a == b:
            raise TopologyError("self-loops are not allowed")
        if (a, b) in self._links or (b, a) in self._links:
            raise TopologyError(f"link {a!r}-{b!r} already exists")
        if capacity_mbps <= 0:
            raise TopologyError("link capacity must be positive")
        self._links[(a, b)] = LinkSpec(a, b, capacity_mbps, delay, queue_packets, queue_kind)
        reverse_capacity = capacity_mbps_reverse if capacity_mbps_reverse is not None else capacity_mbps
        self._links[(b, a)] = LinkSpec(b, a, reverse_capacity, delay, queue_packets, queue_kind)

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._links

    def link(self, a: str, b: str) -> LinkSpec:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise TopologyError(f"unknown link {a!r}->{b!r}") from None

    def set_queue_kind(
        self,
        kind: str,
        a: Optional[str] = None,
        b: Optional[str] = None,
        *,
        bidirectional: bool = True,
    ) -> None:
        """Change the queue discipline of one link, or of every link.

        With ``a``/``b`` given only that link is rewritten (both directions
        unless ``bidirectional=False``); without them the whole topology is
        switched to ``kind`` -- the operation behind the ``queue_kind``
        experiment and campaign axes.
        """
        from .queues import QUEUE_KINDS

        kind = kind.lower()
        if kind not in QUEUE_KINDS:
            raise TopologyError(
                f"unknown queue discipline {kind!r}; choose from {QUEUE_KINDS}"
            )
        if a is None and b is None:
            edges = list(self._links)
        elif a is not None and b is not None:
            self.link(a, b)  # raises on unknown link
            edges = [(a, b), (b, a)] if bidirectional else [(a, b)]
        else:
            raise TopologyError("set_queue_kind needs both endpoints or neither")
        for edge in edges:
            spec = self._links[edge]
            self._links[edge] = LinkSpec(
                spec.src, spec.dst, spec.capacity_mbps, spec.delay, spec.queue_packets, kind
            )

    def scale_links(self, *, rate: float = 1.0, delay: float = 1.0) -> None:
        """Multiply every link's capacity and/or propagation delay in place.

        The uniform scaling used by parameter sweeps: the topology's shape
        (and therefore its constraint structure) is preserved while the
        absolute link speeds / RTTs move.
        """
        if rate <= 0:
            raise TopologyError("rate scale must be positive")
        if delay <= 0:
            raise TopologyError("delay scale must be positive")
        if rate == 1.0 and delay == 1.0:
            return
        for edge, spec in list(self._links.items()):
            self._links[edge] = LinkSpec(
                spec.src,
                spec.dst,
                spec.capacity_mbps * rate,
                spec.delay * delay,
                spec.queue_packets,
                spec.queue_kind,
            )

    @property
    def links(self) -> List[LinkSpec]:
        """All directed link specs (two per bidirectional link)."""
        return list(self._links.values())

    def capacity_of(self, a: str, b: str) -> float:
        """Capacity in Mbps of the directed link ``a -> b``."""
        return self.link(a, b).capacity_mbps

    # ------------------------------------------------------------------ graph
    def adjacency(self) -> Dict[str, List[str]]:
        """``{node: neighbours}`` of the undirected view, isolated nodes included.

        Nodes and neighbours come in exactly the order :meth:`undirected_graph`
        holds them -- node-major over the directed links, each edge entering
        both endpoints' lists when first met -- because breadth-first next hops
        depend on that order and the golden scenes pin them.
        """
        successors: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for src, dst in self._links:
            successors[src].append(dst)
        neighbours: Dict[str, Dict[str, None]] = {name: {} for name in self._nodes}
        for node, nexts in successors.items():
            for other in nexts:
                neighbours[node][other] = None
                neighbours[other][node] = None
        return {name: list(found) for name, found in neighbours.items()}

    def graph(self) -> nx.DiGraph:
        """Return a directed networkx view with capacity/delay attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for node in self._nodes.values():
            g.add_node(node.name, kind=node.kind, **node.metadata)
        for spec in self._links.values():
            g.add_edge(
                spec.src,
                spec.dst,
                capacity_mbps=spec.capacity_mbps,
                delay=spec.delay,
                queue_packets=spec.queue_packets,
            )
        return g

    def undirected_graph(self) -> nx.Graph:
        """Undirected view (used for shortest-path routing and path search)."""
        import networkx as nx

        return nx.Graph(self.graph())

    # ------------------------------------------------------------------ paths
    def shortest_path(self, src: str, dst: str, weight: Optional[str] = None) -> List[str]:
        with self._path_query(src, dst) as nx:
            return nx.shortest_path(self.undirected_graph(), src, dst, weight=weight)

    def simple_paths(self, src: str, dst: str, cutoff: Optional[int] = None) -> Iterator[List[str]]:
        """All simple paths from ``src`` to ``dst`` (optionally length-bounded)."""
        with self._path_query(src, dst) as nx:
            yield from nx.all_simple_paths(self.undirected_graph(), src, dst, cutoff=cutoff)

    def k_shortest_paths(self, src: str, dst: str, k: int) -> List[List[str]]:
        """The ``k`` shortest simple paths by hop count."""
        with self._path_query(src, dst) as nx:
            return list(islice(nx.shortest_simple_paths(self.undirected_graph(), src, dst), k))

    @contextmanager
    def _path_query(self, src: str, dst: str):
        """Yield :mod:`networkx` for a query between two known nodes.

        Unknown endpoints and unreachable destinations raise
        :class:`TopologyError`, never a networkx exception.
        """
        import networkx as nx

        self.node(src)
        self.node(dst)
        try:
            yield nx
        except nx.NetworkXNoPath as exc:
            raise TopologyError(f"no path from {src!r} to {dst!r}") from exc

    def validate_path(self, nodes: Sequence[str]) -> None:
        """Raise :class:`TopologyError` unless consecutive nodes are linked."""
        if len(nodes) < 2:
            raise TopologyError("a path needs at least two nodes")
        for a, b in zip(nodes, nodes[1:]):
            if not self.has_link(a, b):
                raise TopologyError(f"path uses missing link {a!r}->{b!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, nodes={len(self._nodes)}, "
            f"links={len(self._links) // 2})"
        )
