"""Link queues: the congestion-signal plane of the simulator.

The paper's Mininet setup shapes links with ``tc htb`` and the default FIFO
(drop-tail) queue discipline; :class:`DropTailQueue` reproduces that
behaviour, where the only congestion signal a sender receives is packet
loss.  The queue layer is no longer limited to that world: every discipline
renders an ``enqueue -> admit / mark / drop`` *verdict* per arriving packet,
so a queue can signal congestion by ECN-marking an ECN-capable packet
instead of dropping it.  :class:`REDQueue` (Random Early Detection, with the
standard idle-time average decay) and :class:`CoDelQueue` (sojourn-time
controlled delay) both mark ECN-capable traffic and early-drop the rest,
feeding the ECE echo path in :mod:`repro.tcp.receiver` /
:mod:`repro.tcp.sender`.

ECN codepoints are carried in ``Packet.ecn``: ``0`` (:data:`ECN_OFF`) for
not-ECN-capable traffic, ``1`` (:data:`ECN_ECT`) for ECN-capable transport
and ``2`` (:data:`ECN_CE`) once a queue has marked Congestion Experienced.
On pure ACKs the same field carries the receiver's ECE echo as a boolean.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from typing import Optional

from .packet import Packet

#: ECN codepoints carried in ``Packet.ecn`` on data segments.
ECN_OFF = 0
ECN_ECT = 1  # ECN-capable transport
ECN_CE = 2  # congestion experienced (marked by an AQM queue)

#: Per-packet verdicts rendered by :meth:`Queue.verdict`.
ADMIT = 0
MARK = 1  # admit, but set the CE codepoint (ECN mark instead of drop)
DROP_EARLY = 2  # dropped by the AQM law while the buffer still had room
DROP_FULL = 3  # dropped because the buffer was full


class QueueStats:
    """Counters exported by every queue implementation.

    ``dropped`` is the total (early + full-buffer) so existing consumers --
    ``Link.drops``, the kernel scene dump -- keep their semantics;
    ``early_drops`` separates the AQM-law drops from buffer exhaustion.
    ``queue_delay_sum`` accumulates the sojourn time of packets leaving an
    AQM queue (drop-tail leaves it at zero, keeping its fast path and the
    compiled-kernel restore byte-identical).
    """

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped",
        "bytes_enqueued",
        "bytes_dropped",
        "max_depth",
        "early_drops",
        "ecn_marks",
        "queue_delay_sum",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_enqueued = 0
        self.bytes_dropped = 0
        self.max_depth = 0
        self.early_drops = 0
        self.ecn_marks = 0
        self.queue_delay_sum = 0.0

    @property
    def full_drops(self) -> int:
        """Drops caused by buffer exhaustion (total minus early drops)."""
        return self.dropped - self.early_drops

    def as_dict(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "bytes_enqueued": self.bytes_enqueued,
            "bytes_dropped": self.bytes_dropped,
            "max_depth": self.max_depth,
            "early_drops": self.early_drops,
            "full_drops": self.full_drops,
            "ecn_marks": self.ecn_marks,
            "queue_delay_sum": self.queue_delay_sum,
        }


class Queue(ABC):
    """Abstract bounded packet queue rendering per-packet verdicts."""

    __slots__ = ("capacity_packets", "stats", "_queue", "_bytes")

    def __init__(self, capacity_packets: int = 100) -> None:
        if capacity_packets <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_packets = capacity_packets
        self.stats = QueueStats()
        self._queue: deque[Packet] = deque()
        self._bytes = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_count(self) -> int:
        """Total bytes currently queued."""
        return self._bytes

    # ------------------------------------------------------------------
    @abstractmethod
    def verdict(self, packet: Packet, now: float) -> int:
        """Render :data:`ADMIT` / :data:`MARK` / :data:`DROP_EARLY` /
        :data:`DROP_FULL` for ``packet`` arriving at time ``now``."""

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Apply the verdict: admit (possibly CE-marked) or count a drop."""
        verdict = self.verdict(packet, now)
        stats = self.stats
        if verdict >= DROP_EARLY:
            stats.dropped += 1
            stats.bytes_dropped += packet.size
            if verdict == DROP_EARLY:
                stats.early_drops += 1
            return False
        if verdict == MARK:
            packet.ecn = ECN_CE
            stats.ecn_marks += 1
        packet.enqueued_at = now
        self._queue.append(packet)
        self._bytes += packet.size
        stats.enqueued += 1
        stats.bytes_enqueued += packet.size
        if len(self._queue) > stats.max_depth:
            stats.max_depth = len(self._queue)
        return True

    def dequeue(self, now: float = 0.0) -> Optional[Packet]:
        """Remove and return the head-of-line packet, or None if empty.

        ``now`` lets disciplines that act at departure time (CoDel's sojourn
        law, RED's idle decay) observe the clock; drop-tail ignores it.
        """
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.stats.dequeued += 1
        return packet


class DropTailQueue(Queue):
    """FIFO queue that drops arrivals once ``capacity_packets`` are queued."""

    __slots__ = ()

    def verdict(self, packet: Packet, now: float) -> int:
        return ADMIT if len(self._queue) < self.capacity_packets else DROP_FULL

    def enqueue(self, packet: Packet, now: float) -> bool:
        # Specialised hot path: same behaviour as the base implementation,
        # without the virtual verdict() dispatch (this runs once per packet
        # offered to a busy link).
        queue = self._queue
        stats = self.stats
        size = packet.size
        if len(queue) >= self.capacity_packets:
            stats.dropped += 1
            stats.bytes_dropped += size
            return False
        packet.enqueued_at = now
        queue.append(packet)
        self._bytes += size
        stats.enqueued += 1
        stats.bytes_enqueued += size
        depth = len(queue)
        if depth > stats.max_depth:
            stats.max_depth = depth
        return True


class AqmQueue(Queue):
    """Shared departure-side accounting for the AQM disciplines.

    Tracks when the queue last drained empty (RED's idle-time decay needs
    it) and accumulates per-packet sojourn times into
    ``stats.queue_delay_sum`` so the measurement layer can report the mean
    queueing delay a discipline sustains.
    """

    __slots__ = ("_empty_since",)

    def __init__(self, capacity_packets: int = 100) -> None:
        super().__init__(capacity_packets)
        self._empty_since = 0.0

    def dequeue(self, now: float = 0.0) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        stats = self.stats
        stats.dequeued += 1
        sojourn = now - packet.enqueued_at
        if sojourn > 0.0:
            stats.queue_delay_sum += sojourn
        if not self._queue:
            self._empty_since = now
        return packet


class REDQueue(AqmQueue):
    """Random Early Detection queue (Floyd & Jacobson 1993), gentle variant.

    Early-drops arriving packets probabilistically once the exponentially
    weighted average queue length exceeds ``min_threshold``; above
    ``max_threshold`` the drop probability ramps from ``max_p`` to 1 (gentle
    RED).  ECN-capable packets are CE-marked instead of dropped while the
    average stays in the early-detection band.  Across idle periods the
    average decays as if ``idle / mean_pkt_time`` empty-queue samples had
    been observed (the Floyd & Jacobson idle-time adjustment), so a queue
    that drained fully does not early-drop the next burst.
    """

    __slots__ = (
        "min_threshold",
        "max_threshold",
        "max_p",
        "weight",
        "ecn",
        "mean_pkt_time",
        "_avg",
        "_rng",
    )

    def __init__(
        self,
        capacity_packets: int = 100,
        *,
        min_threshold: Optional[float] = None,
        max_threshold: Optional[float] = None,
        max_p: float = 0.1,
        weight: float = 0.002,
        seed: int = 0,
        ecn: bool = True,
        mean_pkt_time: float = 0.001,
    ) -> None:
        super().__init__(capacity_packets)
        self.min_threshold = min_threshold if min_threshold is not None else capacity_packets * 0.25
        self.max_threshold = max_threshold if max_threshold is not None else capacity_packets * 0.75
        if self.max_threshold <= self.min_threshold:
            raise ValueError("max_threshold must exceed min_threshold")
        if mean_pkt_time <= 0:
            raise ValueError("mean_pkt_time must be positive")
        self.max_p = max_p
        self.weight = weight
        self.ecn = ecn
        self.mean_pkt_time = mean_pkt_time
        self._avg = 0.0
        self._rng = random.Random(seed)

    def verdict(self, packet: Packet, now: float) -> int:
        depth = len(self._queue)
        if depth >= self.capacity_packets:
            return DROP_FULL
        if not depth:
            # Idle-time adjustment: decay the average as if one empty-queue
            # sample had been taken every mean_pkt_time of the idle period.
            idle = now - self._empty_since
            if idle > 0.0 and self._avg > 0.0:
                self._avg *= (1.0 - self.weight) ** (idle / self.mean_pkt_time)
        self._avg = (1.0 - self.weight) * self._avg + self.weight * depth
        if self._avg < self.min_threshold:
            return ADMIT
        if self._avg < self.max_threshold:
            fraction = (self._avg - self.min_threshold) / (self.max_threshold - self.min_threshold)
            drop_probability = fraction * self.max_p
        else:
            # Gentle RED: ramp from max_p to 1 between max_threshold and 2*max_threshold.
            fraction = (self._avg - self.max_threshold) / max(self.max_threshold, 1.0)
            drop_probability = min(1.0, self.max_p + fraction * (1.0 - self.max_p))
        if self._rng.random() >= drop_probability:
            return ADMIT
        if self.ecn and packet.ecn:
            return MARK
        return DROP_EARLY


class CoDelQueue(AqmQueue):
    """Controlled-delay (CoDel) queue acting on per-packet sojourn times.

    Implements the target/interval law of Nichols & Jacobson: once the
    head-of-line sojourn time has stayed above ``target`` for a full
    ``interval``, the queue enters a dropping state and sheds one packet,
    then the next after ``interval / sqrt(count)``, and so on, until the
    sojourn time dips back under ``target``.  ECN-capable packets are
    CE-marked in place of each drop.  All action happens at dequeue time;
    arrivals are only refused when the buffer is full.
    """

    __slots__ = (
        "target",
        "interval",
        "ecn",
        "_first_above_time",
        "_dropping",
        "_drop_next",
        "_drop_count",
    )

    def __init__(
        self,
        capacity_packets: int = 100,
        *,
        target: float = 0.005,
        interval: float = 0.1,
        ecn: bool = True,
    ) -> None:
        super().__init__(capacity_packets)
        if target <= 0 or interval <= 0:
            raise ValueError("CoDel target and interval must be positive")
        self.target = target
        self.interval = interval
        self.ecn = ecn
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0

    def verdict(self, packet: Packet, now: float) -> int:
        return ADMIT if len(self._queue) < self.capacity_packets else DROP_FULL

    # ------------------------------------------------------------------
    def _pop_raw(self, now: float) -> Optional[Packet]:
        if not self._queue:
            self._first_above_time = 0.0
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        if not self._queue:
            self._empty_since = now
        return packet

    def _ok_to_drop(self, packet: Packet, now: float) -> bool:
        """The sojourn-time test, tracking how long we have been above target."""
        if now - packet.enqueued_at < self.target:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def _signal(self, packet: Packet) -> bool:
        """Mark ``packet`` CE if possible; return True when marked."""
        if self.ecn and packet.ecn:
            packet.ecn = ECN_CE
            self.stats.ecn_marks += 1
            return True
        return False

    def _discard(self, packet: Packet) -> None:
        stats = self.stats
        stats.dropped += 1
        stats.early_drops += 1
        stats.bytes_dropped += packet.size

    def _control_law(self, reference: float) -> float:
        return reference + self.interval / (self._drop_count ** 0.5)

    def dequeue(self, now: float = 0.0) -> Optional[Packet]:
        packet = self._pop_raw(now)
        if packet is None:
            self._dropping = False
            return None
        ok_to_drop = self._ok_to_drop(packet, now)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            else:
                while now >= self._drop_next:
                    self._drop_count += 1
                    if self._signal(packet):
                        # The mark is the congestion signal; deliver the
                        # packet and schedule the next action.
                        self._drop_next = self._control_law(self._drop_next)
                        break
                    self._discard(packet)
                    packet = self._pop_raw(now)
                    if packet is None:
                        self._dropping = False
                        return None
                    if not self._ok_to_drop(packet, now):
                        self._dropping = False
                        break
                    self._drop_next = self._control_law(self._drop_next)
        elif ok_to_drop and (
            now - self._drop_next < self.interval
            or now - self._first_above_time >= self.interval
        ):
            # Enter the dropping state: shed (or mark) the head packet and
            # resume the drop schedule where a recent episode left off.
            if now - self._drop_next < self.interval:
                self._drop_count = self._drop_count - 2 if self._drop_count > 2 else 1
            else:
                self._drop_count = 1
            self._dropping = True
            self._drop_next = self._control_law(now)
            if not self._signal(packet):
                self._discard(packet)
                packet = self._pop_raw(now)
                if packet is None:
                    self._dropping = False
                    return None
                self._ok_to_drop(packet, now)  # keep the above-target clock fresh
        stats = self.stats
        stats.dequeued += 1
        sojourn = now - packet.enqueued_at
        if sojourn > 0.0:
            stats.queue_delay_sum += sojourn
        return packet


#: Queue disciplines accepted by :func:`make_queue`, ``LinkSpec.queue_kind``
#: and the ``queue_kind`` experiment/campaign axes.
QUEUE_KINDS = ("droptail", "red", "codel")


def make_queue(kind: str = "droptail", capacity_packets: int = 100, **kwargs) -> Queue:
    """Factory for queue disciplines by name (``"droptail"``, ``"red"`` or
    ``"codel"``)."""
    kind = kind.lower()
    if kind in ("droptail", "fifo", "tail"):
        return DropTailQueue(capacity_packets)
    if kind == "red":
        return REDQueue(capacity_packets, **kwargs)
    if kind == "codel":
        return CoDelQueue(capacity_packets, **kwargs)
    raise ValueError(f"unknown queue discipline: {kind!r}")
