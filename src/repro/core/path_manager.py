"""MPTCP path managers: the subflow lifecycle of a connection.

The path manager decides how many subflows a connection opens, which path
each one is pinned to, and -- since the network learned to change under a
running connection (:mod:`repro.netsim.dynamics`) -- how the subflow set
evolves when paths fail and recover.  The lifecycle is:

* :meth:`PathManager.initial_subflows` produces the subflow descriptors the
  connection opens before the first packet;
* :meth:`PathManager.on_path_down` runs when a link on a subflow's path goes
  down; returning a :class:`~repro.model.paths.Path` tells the connection to
  open a replacement subflow on it at runtime (handover);
* :meth:`PathManager.on_path_up` runs when a failed path heals.

The paper modifies the ``ndiffports`` path manager so that every subflow's
packets carry a distinct tag ("the exact tags and the number of subflows is
given as an argument for our path-manager module"); :class:`TagPathManager`
reproduces that module.  The failure-driven :class:`FailoverPathManager`
(mobile handover) serves the dynamics scenarios.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..errors import ConfigurationError
from ..model.paths import Path, PathSet
from .subflow import Subflow

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.network import Network
    from .connection import MptcpConnection


class PathManager(ABC):
    """Produces and maintains the subflow descriptors (path + tag) of a connection.

    Subclasses implement :meth:`initial_subflows` and may override the
    lifecycle hooks.
    """

    name = "base"

    @abstractmethod
    def initial_subflows(self, network: "Network", src: str, dst: str) -> List[Subflow]:
        """Return the subflows opened at connection setup (no transport yet)."""

    # ------------------------------------------------------------------ lifecycle
    def on_path_down(
        self, connection: "MptcpConnection", subflow: Subflow
    ) -> Optional[Path]:
        """React to ``subflow``'s path losing a link.

        Return a :class:`Path` to open a replacement subflow on it, or None
        to ride out the outage on the surviving subflows.  The connection has
        already marked the subflow down and re-injected its unacknowledged
        data before calling this hook.
        """
        return None

    def on_path_up(self, connection: "MptcpConnection", subflow: Subflow) -> None:
        """React to ``subflow``'s path healing (it is active again)."""


class TagPathManager(PathManager):
    """The paper's modified ``ndiffports``: one tagged subflow per given path.

    Parameters
    ----------
    paths:
        The pre-selected paths.  Tags default to the paths' own tags or to
        ``1..n`` when unset.
    default_index:
        Which path is the connection's default ("shortest") path; its subflow
        is created first and its route is installed as the untagged default.
    """

    name = "tag"

    def __init__(self, paths: Sequence[Path] | PathSet, default_index: int = 0) -> None:
        path_list = list(paths)
        if not path_list:
            raise ConfigurationError("TagPathManager needs at least one path")
        if not 0 <= default_index < len(path_list):
            raise ConfigurationError(
                f"default_index {default_index} out of range for {len(path_list)} paths"
            )
        self.paths = path_list
        self.default_index = default_index

    def initial_subflows(self, network: "Network", src: str, dst: str) -> List[Subflow]:
        subflows: List[Subflow] = []
        for index, path in enumerate(self.paths):
            if path.src != src or path.dst != dst:
                raise ConfigurationError(
                    f"path {path} does not connect {src!r} to {dst!r}"
                )
            tag = path.tag if path.tag is not None else index + 1
            is_default = index == self.default_index
            network.install_path(path.nodes, tag, as_default=is_default)
            subflows.append(
                Subflow(subflow_id=index, path=path, tag=tag, is_default=is_default)
            )
        # The default subflow is listed first so that it starts first, like
        # the initial MPTCP subflow on the default route.
        subflows.sort(key=lambda sf: (not sf.is_default, sf.subflow_id))
        return subflows


class FailoverPathManager(PathManager):
    """Failure-driven handover: open backup subflows only when paths die.

    Starts on the primary path alone (the first of ``paths``).  Each time an
    active subflow's path fails, the next unused backup path gets a new
    subflow opened at runtime -- the mobile-handover lifecycle (e.g. Wi-Fi
    drops, a cellular subflow joins mid-connection).  Healed paths simply
    resume; already-opened subflows are never closed by this manager.

    The manager tracks which backups it has handed out, so it is meant to
    drive a single connection.
    """

    name = "failover"

    def __init__(self, paths: Sequence[Path] | PathSet) -> None:
        path_list = list(paths)
        if not path_list:
            raise ConfigurationError("FailoverPathManager needs at least one path")
        self.paths = path_list
        self._next_backup = 1

    def initial_subflows(self, network: "Network", src: str, dst: str) -> List[Subflow]:
        primary = self.paths[0]
        if primary.src != src or primary.dst != dst:
            raise ConfigurationError(
                f"path {primary} does not connect {src!r} to {dst!r}"
            )
        self._next_backup = 1
        tag = primary.tag if primary.tag is not None else 1
        network.install_path(primary.nodes, tag, as_default=True)
        return [Subflow(subflow_id=0, path=primary, tag=tag, is_default=True)]

    def on_path_down(
        self, connection: "MptcpConnection", subflow: Subflow
    ) -> Optional[Path]:
        while self._next_backup < len(self.paths):
            backup = self.paths[self._next_backup]
            self._next_backup += 1
            if connection.network.path_is_up(backup.nodes):
                return backup
        return None
