"""Path abstraction and overlap analysis.

A :class:`Path` is an ordered list of node names between a source and a
destination, optionally associated with the tag that pins packets to it.  The
functions in this module analyse how a set of paths overlap -- which pairs
share links, what the shared capacities are -- which is exactly the structure
that makes the paper's throughput-maximisation problem non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import ModelError
from ..netsim.topology import Topology

Edge = Tuple[str, str]


@dataclass(frozen=True)
class Path:
    """An explicit forwarding path.

    Parameters
    ----------
    nodes:
        Node names from source to destination.
    tag:
        Tag value pinning packets to this path (``None`` for the default route).
    name:
        Human-readable name, e.g. ``"Path 2"``.
    """

    nodes: Tuple[str, ...]
    tag: Optional[int] = None
    name: str = ""

    def __init__(self, nodes: Sequence[str], tag: Optional[int] = None, name: str = "") -> None:
        if len(nodes) < 2:
            raise ModelError("a path needs at least two nodes")
        if len(set(nodes)) != len(nodes):
            raise ModelError(f"path {list(nodes)!r} visits a node twice")
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "name", name or f"{nodes[0]}->{nodes[-1]}")

    # ------------------------------------------------------------------
    @property
    def src(self) -> str:
        return self.nodes[0]

    @property
    def dst(self) -> str:
        return self.nodes[-1]

    @property
    def links(self) -> Tuple[Edge, ...]:
        """Directed links traversed, in order."""
        return tuple(zip(self.nodes, self.nodes[1:]))

    def shares_link_with(self, other: "Path") -> bool:
        return bool(self.shared_links(other))

    def shared_links(self, other: "Path") -> List[Edge]:
        """Directed links used by both paths, in this path's order."""
        other_links = set(other.links)
        return [edge for edge in self.links if edge in other_links]

    def capacity(self, topology: Topology) -> float:
        """Bottleneck (minimum) capacity of the path in Mbps."""
        return min(topology.capacity_of(a, b) for a, b in self.links)

    def propagation_delay(self, topology: Topology) -> float:
        """Sum of one-way link delays along the path, in seconds."""
        return sum(topology.link(a, b).delay for a, b in self.links)

    def __len__(self) -> int:
        return len(self.nodes)

    def __str__(self) -> str:
        return f"{self.name}: {' -> '.join(self.nodes)}"


@dataclass
class PathSet:
    """A set of paths between one source-destination pair."""

    paths: List[Path] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.paths:
            return
        src, dst = self.paths[0].src, self.paths[0].dst
        for path in self.paths:
            if (path.src, path.dst) != (src, dst):
                raise ModelError("all paths of a PathSet must share source and destination")

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, index: int) -> Path:
        return self.paths[index]

    @property
    def src(self) -> str:
        return self.paths[0].src

    @property
    def dst(self) -> str:
        return self.paths[0].dst

    # ------------------------------------------------------------------
    def is_disjoint(self) -> bool:
        """True if no two paths share a link (the Wi-Fi + cellular use case)."""
        paths = self.paths
        return not any(a.shares_link_with(b) for i, a in enumerate(paths) for b in paths[i + 1:])
