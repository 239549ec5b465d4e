"""The MPTCP connection: subflows, data striping and connection statistics.

:class:`MptcpConnection` is the library's top-level protocol object -- the
equivalent of an MPTCP socket opened by iperf in the paper's measurements.
It asks a path manager for the subflows (one tagged TCP session per
pre-selected path), couples their congestion controllers through a shared
:class:`~repro.core.coupled.CouplingGroup`, stripes a bulk byte stream across
them according to the configured scheduler and reassembles the stream at the
destination host.

The subflow set is no longer fixed at setup: the connection listens for
network dynamics events and survives path failures.  When a link on a
subflow's path goes down, the subflow is marked ``"down"``, its
unacknowledged DSN ranges are re-injected on the sibling subflows (the MPTCP
re-injection mechanism) and the path manager may open a replacement subflow
at runtime (:meth:`add_subflow`); when the path heals, the subflow resumes.
:meth:`close_subflow` removes a subflow for good, keeping the coupling
group's membership caches consistent.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from ..model.paths import Path, PathSet
from ..netsim.network import Network
from ..tcp.receiver import TcpReceiver
from ..tcp.sender import TcpSender
from ..units import DEFAULT_MSS, throughput_mbps
from .coupled import CouplingGroup, make_multipath_congestion_control
from .options import DsnAllocator, DsnReassembler
from .path_manager import PathManager, TagPathManager
from .scheduler import MinRttScheduler, RoundRobinScheduler, Scheduler, make_scheduler
from .subflow import Subflow

_flow_ids = itertools.count(1000)


def _path_uses_link(path: Path, a: str, b: str) -> bool:
    """True when ``path`` traverses the link between ``a`` and ``b`` (either way)."""
    nodes = path.nodes
    for x, y in zip(nodes, nodes[1:]):
        if (x == a and y == b) or (x == b and y == a):
            return True
    return False


class MptcpConnection:
    """A multipath TCP connection between two hosts of a built network.

    Parameters
    ----------
    network:
        The instantiated :class:`~repro.netsim.network.Network`.
    src, dst:
        Host names of the sender and the receiver.
    paths:
        The pre-selected paths (a :class:`PathSet`, a list of
        :class:`~repro.model.paths.Path` or raw node lists).  Ignored when an
        explicit ``path_manager`` is given.
    congestion_control:
        ``"cubic"``, ``"reno"``, ``"lia"``, ``"olia"``, ``"balia"`` or ``"wvegas"``.
    scheduler:
        ``"minrtt"`` (default), ``"roundrobin"`` or ``"redundant"``.
    default_path_index:
        Which of ``paths`` is the default (shortest) path; the paper's
        measurements use Path 2 as the default.
    total_bytes:
        Size of the transfer; ``None`` means a greedy, unbounded source.
    send_buffer_bytes:
        Optional connection-level send-buffer bound.
    join_delay:
        Delay in seconds between the start of the default subflow and the
        start of each additional subflow (MP_JOIN establishment).
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        paths: Union[PathSet, Sequence[Path], Sequence[Sequence[str]], None] = None,
        *,
        congestion_control: str = "lia",
        scheduler: Union[str, Scheduler] = "minrtt",
        path_manager: Optional[PathManager] = None,
        default_path_index: int = 0,
        mss: int = DEFAULT_MSS,
        ecn: bool = False,
        total_bytes: Optional[int] = None,
        send_buffer_bytes: Optional[int] = None,
        join_delay: float = 0.0,
        flow_id: Optional[int] = None,
    ) -> None:
        if src == dst:
            raise ConfigurationError("source and destination must differ")
        self.network = network
        self.src = src
        self.dst = dst
        self.mss = int(mss)
        self.ecn = bool(ecn)
        self.flow_id = flow_id if flow_id is not None else next(_flow_ids)
        self.congestion_control_name = congestion_control.lower()
        self.join_delay = float(join_delay)

        if path_manager is None:
            if paths is None:
                raise ConfigurationError("either paths or a path_manager is required")
            path_objects = self._coerce_paths(paths)
            path_manager = TagPathManager(path_objects, default_index=default_path_index)
        self.path_manager = path_manager

        self.scheduler: Scheduler = (
            scheduler if isinstance(scheduler, Scheduler) else make_scheduler(scheduler)
        )
        self.allocator = DsnAllocator(total_bytes, send_buffer_bytes)
        self.reassembler = DsnReassembler()
        self.coupling_group = CouplingGroup()

        self.subflows: List[Subflow] = self.path_manager.initial_subflows(network, src, dst)
        self._senders: Dict[int, Subflow] = {}
        self._build_transport()
        self._start_time: Optional[float] = None
        self._starved_subflows: set[int] = set()
        self._next_subflow_id = max(sf.subflow_id for sf in self.subflows) + 1
        #: Unacknowledged DSN ranges rescued from failed/closed subflows,
        #: handed out ahead of fresh allocations (MPTCP re-injection).
        self._reinject: Deque[Tuple[int, int]] = deque()
        #: FIFO of (stream end offset, callback) per queued sized transfer.
        self._transfer_watchers: Deque[Tuple[int, object]] = deque()
        network.add_dynamics_listener(self._on_network_event)
        # O(1) dispatch for the dominant configuration: with an unbounded
        # greedy source both stock work-conserving schedulers grant every
        # request straight from the allocator (data is never scarce), so the
        # per-segment scheduler indirection and starvation bookkeeping can be
        # skipped entirely.  Scheduler subclasses keep the full dispatch.
        self._fast_allocate = (
            type(self.scheduler) in (MinRttScheduler, RoundRobinScheduler)
            and total_bytes is None
            and send_buffer_bytes is None
        )

    # ------------------------------------------------------------------ build
    @staticmethod
    def _coerce_paths(paths) -> List[Path]:
        if isinstance(paths, PathSet):
            return list(paths)
        coerced: List[Path] = []
        for index, item in enumerate(paths):
            if isinstance(item, Path):
                coerced.append(item)
            else:
                coerced.append(Path(list(item), tag=index + 1, name=f"Path {index + 1}"))
        return coerced

    def _build_transport(self) -> None:
        for subflow in self.subflows:
            self._attach_transport(subflow)

    def _attach_transport(self, subflow: Subflow) -> None:
        """Create and register the sender/receiver/cc triple of one subflow."""
        src_host = self.network.host(self.src)
        dst_host = self.network.host(self.dst)
        cc = make_multipath_congestion_control(
            self.congestion_control_name, mss=self.mss, group=self.coupling_group
        )
        sender = TcpSender(
            src_host,
            self.dst,
            self.flow_id,
            subflow.subflow_id,
            cc=cc,
            data_provider=self,
            tag=subflow.tag,
            mss=self.mss,
            ecn=self.ecn,
        )
        receiver = TcpReceiver(
            dst_host,
            self.src,
            self.flow_id,
            subflow.subflow_id,
            tag=subflow.tag,
            connection_sink=self,
        )
        src_host.register_agent(self.flow_id, subflow.subflow_id, sender)
        dst_host.register_agent(self.flow_id, subflow.subflow_id, receiver)
        subflow.sender = sender
        subflow.receiver = receiver
        subflow.cc = cc
        self._senders[subflow.subflow_id] = subflow

    # ------------------------------------------------------------------ DataProvider protocol
    def request_data(self, sender: TcpSender, max_bytes: int) -> Optional[Tuple[int, int]]:
        """Called by a subflow sender with free window; delegates to the scheduler."""
        if sender.path_down:
            # A failed path gets no data: anything granted here (fresh or
            # re-injected) would be stranded behind the dead link.
            return None
        reinject = self._reinject
        if reinject:
            # Rescued ranges from a failed/closed subflow go out first, on
            # whichever sibling asks -- ahead of scheduler policy, exactly
            # like the Linux re-injection queue.
            dsn, length = reinject.popleft()
            if length > max_bytes:
                reinject.appendleft((dsn + max_bytes, length - max_bytes))
                return dsn, max_bytes
            return dsn, length
        if self._fast_allocate:
            # Unconstrained source: the grant is always the full request (the
            # exact outcome MinRtt/RoundRobin produce via the allocator), so
            # the subflow can never starve and no bookkeeping is needed.
            if max_bytes <= 0:
                return None
            allocator = self.allocator
            dsn = allocator.next_dsn
            allocator.next_dsn = dsn + max_bytes
            return dsn, max_bytes
        subflow = self._senders[sender.subflow_id]
        grant = self.scheduler.allocate(self, subflow, max_bytes)
        if grant is None:
            # Remember the refusal: a subflow with nothing in flight receives
            # no more ACKs, so it must be woken explicitly once data frees up.
            self._starved_subflows.add(subflow.subflow_id)
        else:
            self._starved_subflows.discard(subflow.subflow_id)
        return grant

    def on_data_acked(self, sender: TcpSender, dsn: int, length: int, now: float) -> None:
        """Subflow-level acknowledgement of a DSN range."""
        self._senders[sender.subflow_id].acked_bytes += length
        allocator = self.allocator
        allocator.acked_bytes += length
        if self._starved_subflows:
            self._wake_starved_subflows()
        if self._transfer_watchers:
            watchers = self._transfer_watchers
            while watchers and allocator.acked_bytes >= watchers[0][0]:
                _, callback = watchers.popleft()
                callback(now)

    def queue_transfer(self, size_bytes: int, on_complete=None) -> None:
        """Append a sized transfer to a bounded connection's byte stream.

        The multipath counterpart of
        :meth:`repro.tcp.connection.TransferQueueAdapter.enqueue`: the
        connection must have been created with ``total_bytes`` set (``0``
        for a pure request/response source), each call extends the stream by
        ``size_bytes`` and ``on_complete(now)`` fires once the transfer's
        last byte is acknowledged at connection level.  Subflows that went
        quiescent after draining the previous transfer are kicked awake.
        """
        if size_bytes <= 0:
            raise ConfigurationError("transfer size must be positive")
        allocator = self.allocator
        if allocator.total_bytes is None:
            raise ConfigurationError(
                "queue_transfer requires a bounded connection (total_bytes is None)"
            )
        allocator.total_bytes += size_bytes
        if on_complete is not None:
            self._transfer_watchers.append((allocator.total_bytes, on_complete))
        self._kick_active_subflows()

    def _wake_starved_subflows(self) -> None:
        """Let previously refused subflows ask the scheduler again."""
        if not self._starved_subflows:
            return
        waiting = [self._senders[sid] for sid in sorted(self._starved_subflows)]
        self._starved_subflows.clear()
        for subflow in waiting:
            if subflow.sender is not None:
                self.network.sim.schedule(0.0, subflow.sender.resume)

    # ------------------------------------------------------------------ ConnectionSink protocol
    def on_subflow_data(self, subflow_id: int, dsn: int, length: int, now: float) -> int:
        """Receiver-side delivery of a DSN range from one subflow."""
        return self.reassembler.deliver(dsn, length, now)

    # ------------------------------------------------------------------ subflow lifecycle
    def add_subflow(
        self,
        path: Union[Path, Sequence[str]],
        *,
        tag: Optional[int] = None,
        is_default: bool = False,
        start: bool = True,
    ) -> Subflow:
        """Open a new subflow on ``path`` at runtime (MP_JOIN mid-connection).

        Installs the path's tag forwarding state, attaches a fresh
        sender/receiver/congestion-control triple (registered with the
        connection's coupling group, whose membership caches invalidate on
        registration) and, with ``start=True``, begins transmitting on the
        next event-loop tick.
        """
        if not isinstance(path, Path):
            path = Path(list(path), tag=tag, name=f"Path {self._next_subflow_id + 1}")
        if tag is None:
            tag = path.tag if path.tag is not None else self._next_subflow_id + 1
        self.network.install_path(path.nodes, tag)
        subflow = Subflow(
            subflow_id=self._next_subflow_id, path=path, tag=tag, is_default=is_default
        )
        self._next_subflow_id += 1
        self._attach_transport(subflow)
        self.subflows.append(subflow)
        if start:
            sim = self.network.sim
            subflow.started_at = sim.now
            sim.schedule(0.0, subflow.sender.start)
        return subflow

    def close_subflow(self, subflow: Subflow, *, reinject: bool = True) -> None:
        """Remove ``subflow`` for good (runtime teardown).

        The sender stops transmitting and its retransmission timer is
        cancelled, both transport agents are unregistered from their hosts,
        the congestion controller leaves the coupling group (invalidating the
        per-type membership caches) and -- unless ``reinject=False`` -- the
        subflow's unacknowledged DSN ranges are re-injected so the sibling
        subflows deliver them.
        """
        if subflow.state == "closed":
            return
        sender = subflow.sender
        if reinject and sender is not None and subflow.state != "down":
            # A down subflow's ranges were already re-injected when its path
            # failed (the frozen sender's queue is unchanged since); a second
            # copy would waste failover-window capacity on duplicates.
            self._reinject.extend(sender.unacked_ranges())
        subflow.state = "closed"
        if sender is not None:
            sender.close()
        self.network.host(self.src).unregister_agent(self.flow_id, subflow.subflow_id)
        self.network.host(self.dst).unregister_agent(self.flow_id, subflow.subflow_id)
        if subflow.cc is not None:
            self.coupling_group.unregister(subflow.cc)
        self._starved_subflows.discard(subflow.subflow_id)
        if self._reinject:
            self._kick_active_subflows()

    def _kick_active_subflows(self) -> None:
        """Give every active, started subflow a chance to transmit soon."""
        sim = self.network.sim
        for subflow in self.subflows:
            if subflow.state == "active" and subflow.sender is not None and subflow.sender.started:
                sim.schedule(0.0, subflow.sender.resume)

    # ------------------------------------------------------------------ dynamics
    def _on_network_event(self, kind: str, a: str, b: str) -> None:
        """Network dynamics listener: track which subflow paths are usable."""
        if kind == "link_down":
            for subflow in list(self.subflows):
                if subflow.state == "active" and _path_uses_link(subflow.path, a, b):
                    self._handle_path_down(subflow)
        elif kind == "link_up":
            network = self.network
            for subflow in self.subflows:
                if (
                    subflow.state == "down"
                    and _path_uses_link(subflow.path, a, b)
                    and network.path_is_up(subflow.path.nodes)
                ):
                    self._handle_path_up(subflow)

    def _handle_path_down(self, subflow: Subflow) -> None:
        subflow.state = "down"
        sender = subflow.sender
        if sender is not None:
            sender.path_down = True
            # MPTCP re-injection: the ranges stranded on the dead path are
            # re-sent on the siblings so connection-level delivery continues.
            self._reinject.extend(sender.unacked_ranges())
        if subflow.cc is not None:
            # A dead path must not throttle the survivors: its stale
            # cwnd/RTT would otherwise keep dominating the coupled increase
            # terms.  Leaving the group invalidates the per-type membership
            # caches; the controller rejoins when the path heals.
            self.coupling_group.unregister(subflow.cc)
        replacement = self.path_manager.on_path_down(self, subflow)
        if replacement is not None:
            self.add_subflow(replacement)
        self._kick_active_subflows()

    def _handle_path_up(self, subflow: Subflow) -> None:
        subflow.state = "active"
        sender = subflow.sender
        if subflow.cc is not None:
            self.coupling_group.register(subflow.cc)
        if sender is not None:
            sender.path_down = False
            sender.on_path_restored()
            if sender.started:
                # A subflow that was idle when its path failed has no ACK
                # clock and nothing outstanding to retransmit: without an
                # explicit resume it would stay silent forever.
                self.network.sim.schedule(0.0, sender.resume)
        self.path_manager.on_path_up(self, subflow)

    # ------------------------------------------------------------------ control
    def start(self, at: float = 0.0) -> None:
        """Schedule the transfer: default subflow at ``at``, others after ``join_delay``."""
        self._start_time = at
        sim = self.network.sim
        extra_started = 0
        for subflow in self.subflows:
            if subflow.is_default:
                start_at = at
            else:
                extra_started += 1
                start_at = at + self.join_delay * extra_started
            subflow.started_at = start_at
            sim.schedule_at(start_at, subflow.sender.start)

    def release(self) -> None:
        """Let go of the subflows once the run is measured.

        The subflow agents hold the connection (``data_provider`` /
        ``connection_sink``) and the coupling group holds their controllers,
        which hold the group: two cycles that outlive
        :meth:`Network.close <repro.netsim.network.Network.close>`.  Dropping
        the subflows and the group's members cuts both, so reference
        counting frees the connection.  Afterwards it has no subflows: read
        every statistic first.  The packet front doors release theirs once
        the result is built.
        """
        self.subflows = []
        self._senders.clear()
        self.coupling_group.clear()

    # ------------------------------------------------------------------ views
    @property
    def bytes_delivered(self) -> int:
        """Connection-level bytes delivered in order at the receiver."""
        return self.reassembler.delivered_bytes

    def total_throughput_mbps(self, duration: Optional[float] = None) -> float:
        """Mean connection goodput in Mbps over ``duration`` (default: elapsed)."""
        start = self._start_time or 0.0
        if duration is None:
            duration = max(self.network.sim.now - start, 1e-9)
        return throughput_mbps(self.bytes_delivered, duration)

    def total_retransmissions(self) -> int:
        return sum(sf.retransmissions for sf in self.subflows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MptcpConnection({self.src}->{self.dst}, cc={self.congestion_control_name}, "
            f"subflows={len(self.subflows)}, scheduler={self.scheduler.name})"
        )
