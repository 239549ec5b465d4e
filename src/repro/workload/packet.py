"""Run a compiled :class:`~repro.workload.spec.WorkloadPlan` at packet fidelity.

Each session becomes one transport connection between the workload's two
hosts; each transfer is a sized byte range on that connection's stream.
Transfer begin/complete times come from real segments crossing the simulated
network, so the resulting :class:`~repro.measure.fct.FctRecord` list carries
the full queueing/slow-start/loss dynamics the flow-level backend abstracts
away.

Transports
----------
``"tcp"`` (default)
    One single-path :class:`~repro.tcp.connection.TcpConnection` per session,
    pinned to the path the plan chose, fed by a
    :class:`~repro.tcp.connection.TransferQueueAdapter`.  All sessions share
    the driver's ``flow_id`` and take monotonically increasing subflow ids,
    so one host-side capture (``flow_id=driver.flow_id``) observes the whole
    population and reconnect incarnations never collide in the host dispatch
    tables.  A ``new_connection`` transfer (idle timeout expired in the
    plan) tears the warm connection down and opens a fresh incarnation --
    unless earlier transfers are still in flight, in which case the
    connection demonstrably was not idle and is reused.

``"mptcp"``
    One bounded :class:`~repro.core.connection.MptcpConnection` per session
    striping over *all* workload paths
    (:meth:`~repro.core.connection.MptcpConnection.queue_transfer`).
    ``new_connection`` is ignored: an MPTCP session keeps its subflow set.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.connection import MptcpConnection
from ..errors import ConfigurationError
from ..measure.fct import FctRecord
from ..model.paths import Path
from ..netsim.network import Network
from ..tcp.connection import TcpConnection, TransferQueueAdapter
from ..units import DEFAULT_MSS
from .spec import SessionPlan, TransferPlan, WorkloadPlan

#: Driver-level flow ids, clear of the TCP (1+), MPTCP (1000+) and UDP
#: (50000+) counters.
_driver_flow_ids = itertools.count(70000)


class _Session:
    """Mutable per-session state: the live connection and its adapter."""

    __slots__ = ("plan", "connection", "adapter")

    def __init__(self, plan: SessionPlan) -> None:
        self.plan = plan
        self.connection: Optional[object] = None
        self.adapter: Optional[TransferQueueAdapter] = None


class PacketWorkloadDriver:
    """Installs a workload plan on a packet-level :class:`Network`.

    Usage::

        driver = PacketWorkloadDriver(network, plan, paths, src="s", dst="d")
        driver.install()
        network.run(duration)
        driver.records  # FctRecord per completed transfer
    """

    def __init__(
        self,
        network: Network,
        plan: WorkloadPlan,
        paths: Sequence[Path],
        *,
        src: str,
        dst: str,
        transport: str = "tcp",
        congestion_control: Optional[str] = None,
        mss: int = DEFAULT_MSS,
        flow_id: Optional[int] = None,
        prefix: str = "",
    ) -> None:
        if transport not in ("tcp", "mptcp"):
            raise ConfigurationError(f"unknown workload transport {transport!r}")
        if not paths:
            raise ConfigurationError("workload needs at least one path")
        self.network = network
        self.plan = plan
        self.paths = list(paths)
        self.src = src
        self.dst = dst
        self.transport = transport
        self.congestion_control = congestion_control or (
            "lia" if transport == "mptcp" else "cubic"
        )
        self.mss = mss
        self.flow_id = flow_id if flow_id is not None else next(_driver_flow_ids)
        self.prefix = prefix
        self.records: List[FctRecord] = []
        self._sessions: Dict[int, _Session] = {}
        self._children: Dict[Tuple[int, int], List[TransferPlan]] = {}
        self._next_subflow_id = 0
        self._paths_installed = False

    # ------------------------------------------------------------------
    def flow_name(self, session: SessionPlan, transfer: TransferPlan) -> str:
        return f"{self.prefix}{session.name}/t{transfer.index}"

    def install(self) -> None:
        """Index dependency edges and schedule every session's start."""
        sim = self.network.sim
        for session in self.plan.sessions:
            for transfer in session.transfers:
                if transfer.after >= 0:
                    key = (session.index, transfer.after)
                    self._children.setdefault(key, []).append(transfer)
        for session in self.plan.sessions:
            sim.schedule_at(
                session.start, lambda _s=session: self._start_session(_s)
            )

    def release(self) -> None:
        """Let go of the sessions once the run is measured.

        Each session's transfer callbacks hold this driver, which holds the
        sessions: dropping them, and releasing each MPTCP session's
        connection (:meth:`MptcpConnection.release`), leaves the driver to
        reference counting once its network is closed.  ``records`` stay.
        """
        if self.transport == "mptcp":
            for state in self._sessions.values():
                state.connection.release()
        self._sessions.clear()

    # ------------------------------------------------------------------
    def _install_paths(self) -> None:
        if self._paths_installed:
            return
        self._paths_installed = True
        for index, path in enumerate(self.paths):
            tag = path.tag if path.tag is not None else index + 1
            self.network.install_path(path.nodes, tag)

    def _path_tag(self, path_index: int) -> int:
        path = self.paths[path_index]
        return path.tag if path.tag is not None else path_index + 1

    def _open_connection(self, state: _Session) -> None:
        """Create a fresh transport incarnation for ``state`` and start it."""
        now = self.network.sim.now
        if self.transport == "mptcp":
            connection = MptcpConnection(
                self.network,
                self.src,
                self.dst,
                self.paths,
                congestion_control=self.congestion_control,
                total_bytes=0,
            )
            state.connection = connection
            state.adapter = None
            connection.start(at=now)
            return
        self._install_paths()
        adapter = TransferQueueAdapter()
        connection = TcpConnection(
            self.network,
            self.src,
            self.dst,
            cc=self.congestion_control,
            tag=self._path_tag(state.plan.path_index),
            mss=self.mss,
            flow_id=self.flow_id,
            subflow_id=self._next_subflow_id,
            data=adapter,
        )
        self._next_subflow_id += 1
        state.connection = connection
        state.adapter = adapter
        connection.start(at=now)

    def _start_session(self, session: SessionPlan) -> None:
        state = _Session(session)
        self._sessions[session.index] = state
        self._open_connection(state)
        now = self.network.sim.now
        for transfer in session.transfers:
            if transfer.after < 0:
                self._schedule_transfer(session, transfer, now + transfer.delay)

    def _schedule_transfer(self, session: SessionPlan, transfer: TransferPlan, at: float) -> None:
        sim = self.network.sim
        if at <= sim.now:
            self._begin_transfer(session, transfer)
        else:
            sim.schedule_at(
                at, lambda _s=session, _t=transfer: self._begin_transfer(_s, _t)
            )

    def _begin_transfer(self, session: SessionPlan, transfer: TransferPlan) -> None:
        state = self._sessions[session.index]
        start = self.network.sim.now
        if self.transport == "mptcp":
            state.connection.queue_transfer(
                transfer.size_bytes,
                lambda now, _s=session, _t=transfer, _b=start: self._completed(
                    _s, _t, _b, now
                ),
            )
            return
        adapter = state.adapter
        if transfer.new_connection and adapter.pending_transfers == 0:
            # The plan's idle timeout expired between the previous response
            # and this request: the server closed the warm connection, so
            # this request pays a fresh incarnation (new slow start).
            state.connection.close()
            self._open_connection(state)
            adapter = state.adapter
        adapter.enqueue(
            transfer.size_bytes,
            lambda now, _s=session, _t=transfer, _b=start: self._completed(
                _s, _t, _b, now
            ),
        )
        # The sender parks itself once the queue drains; a fresh transfer on
        # a warm connection needs an explicit nudge on the next tick.
        self.network.sim.schedule(0.0, state.connection.sender.resume)

    def _completed(
        self, session: SessionPlan, transfer: TransferPlan, start: float, finish: float
    ) -> None:
        self.records.append(
            FctRecord(
                name=self.flow_name(session, transfer),
                size_bytes=transfer.size_bytes,
                start=start,
                finish=finish,
                session=session.name,
                page=transfer.page,
            )
        )
        for child in self._children.get((session.index, transfer.index), ()):
            self._schedule_transfer(session, child, finish + child.delay)
