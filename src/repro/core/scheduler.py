"""MPTCP data schedulers.

The scheduler decides which subflow carries the next chunk of application
data.  The paper uses "the default MPTCP scheduler" -- lowest-RTT-first --
which is implemented by :class:`MinRttScheduler`.  With a greedy bulk source
and an unlimited send buffer every subflow is congestion-window limited and
the scheduler has little influence; once the connection-level send buffer is
bounded the choice starts to matter, which is what the scheduler ablation
benchmark explores.

Schedulers operate in a *pull* model: a subflow with free congestion window
asks the connection for data and the scheduler either grants a DSN range or
refuses (because another subflow should send it first).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .connection import MptcpConnection
    from .subflow import Subflow


class Scheduler(ABC):
    """Decides which subflow may transmit the next connection-level bytes."""

    name = "base"

    @abstractmethod
    def allocate(
        self, connection: "MptcpConnection", subflow: "Subflow", max_bytes: int
    ) -> Optional[Tuple[int, int]]:
        """Grant a ``(dsn, length)`` range to ``subflow`` or return None."""


def _is_unconstrained(allocator) -> bool:
    """True when data is never scarce (greedy source, unlimited send buffer)."""
    return allocator.send_buffer_bytes is None and allocator.total_bytes is None


def _subflow_can_send(subflow) -> bool:
    """True when the subflow is established and has window space for a segment."""
    if subflow.state != "active":
        return False
    sender = subflow.sender
    return (
        sender is not None
        and sender.started
        and sender.flight_size + sender.mss <= sender.effective_window
    )


class MinRttScheduler(Scheduler):
    """Lowest-SRTT-first scheduler (the Linux MPTCP default).

    When the send buffer is unconstrained every requesting subflow is served.
    When data is scarce (bounded send buffer or finite transfer) only the
    subflow with the smallest smoothed RTT among those that can currently
    send is granted data.
    """

    name = "minrtt"

    def allocate(self, connection, subflow, max_bytes):
        allocator = connection.allocator
        if allocator.send_buffer_bytes is None and allocator.total_bytes is None:
            return allocator.allocate(max_bytes)
        # Data is scarce: give it to the fastest path that has window space.
        # Single pass, no candidate list: ties keep the earliest subflow,
        # exactly like min() over the filtered list did.  Down/closed
        # subflows never win the turn (they could not use it, and granting
        # them would starve the live paths).
        best = None
        best_srtt = 0.0
        for sf in connection.subflows:
            sender = sf.sender
            if sender is None or sf.state != "active":
                continue
            cc = sender.cc
            if sender.snd_nxt - sender.snd_una + sender.mss > cc.cwnd * cc.mss:
                continue
            srtt = sender.rtt.srtt
            if srtt is None:
                srtt = float("inf")
            if best is None or srtt < best_srtt:
                best = sf
                best_srtt = srtt
        if best is None:
            return allocator.allocate(max_bytes)
        if best is not subflow:
            return None
        return allocator.allocate(max_bytes)


class RoundRobinScheduler(Scheduler):
    """Rotation across subflows when data is scarce.

    The rotation skips subflows that cannot currently send (window-limited or
    not yet established): a stalled subflow at the head of the rotation must
    not block every other subflow until it recovers (head-of-line stall).  It
    regains its turn as soon as it has window space again.
    """

    name = "roundrobin"

    def __init__(self) -> None:
        self._next_index = 0

    def allocate(self, connection, subflow, max_bytes):
        allocator = connection.allocator
        if _is_unconstrained(allocator):
            return allocator.allocate(max_bytes)
        subflows = connection.subflows
        if not subflows:
            return None
        count = len(subflows)
        # The turn belongs to the first subflow in rotation order that is able
        # to send.  The requester itself is always eligible: it asked because
        # it has free window.
        offset = 0
        chosen = None
        for offset in range(count):
            candidate = subflows[(self._next_index + offset) % count]
            if candidate is subflow or _subflow_can_send(candidate):
                chosen = candidate
                break
        if chosen is not subflow:
            return None
        grant = allocator.allocate(max_bytes)
        if grant is not None:
            self._next_index = (self._next_index + offset + 1) % count
        return grant


class RedundantScheduler(Scheduler):
    """Send every byte on every subflow (latency-oriented redundancy).

    Each subflow keeps its own cursor into the connection byte stream, so the
    same DSN range is (re)transmitted on all paths; the connection-level
    reassembler discards the duplicates.  Useful as an ablation: it wastes
    capacity on the overlapping-path topology by construction.
    """

    name = "redundant"

    def __init__(self) -> None:
        self._cursors: Dict[int, int] = {}

    def allocate(self, connection, subflow, max_bytes):
        allocator = connection.allocator
        cursor = self._cursors.get(subflow.subflow_id, 0)
        frontier = allocator.next_dsn
        if cursor < frontier:
            # Duplicate data already allocated to the stream on this subflow.
            length = min(max_bytes, frontier - cursor)
            self._cursors[subflow.subflow_id] = cursor + length
            return cursor, length
        grant = allocator.allocate(max_bytes)
        if grant is None:
            return None
        dsn, length = grant
        self._cursors[subflow.subflow_id] = dsn + length
        return dsn, length


_SCHEDULERS = {
    "minrtt": MinRttScheduler,
    "lowest-rtt": MinRttScheduler,
    "default": MinRttScheduler,
    "roundrobin": RoundRobinScheduler,
    "redundant": RedundantScheduler,
}


def _scheduler_class(name: str) -> type:
    """The scheduler class registered as ``name``, or a ConfigurationError."""
    try:
        return _SCHEDULERS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; choose from {sorted(set(_SCHEDULERS))}"
        ) from None


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by name (``minrtt``, ``roundrobin``, ``redundant``)."""
    return _scheduler_class(name)()
