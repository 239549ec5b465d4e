"""Unidirectional link model: serialisation, propagation delay, queueing.

Each :class:`Link` owns one transmitter and one bounded queue.  When the link
is idle an offered packet starts serialising immediately; otherwise it is
enqueued (and possibly dropped by the queue discipline).  After the
serialisation time ``size * 8 / rate`` the packet propagates for ``delay``
seconds and is then delivered to the downstream node.

This reproduces the behaviour of a ``tc htb`` shaped veth pair in the paper's
Mininet setup: a fixed-rate bottleneck with a FIFO buffer in front of it.

Event design: the transmitter is tracked analytically through
``_busy_until`` instead of a dedicated end-of-serialisation event, so an
uncongested packet costs a *single* delivery event (scheduled at
``start + tx + delay`` via :meth:`Simulator.schedule_fast_at`).  Only while
packets are queued does the link keep one extra "serve" event alive, firing
exactly when the transmitter frees so queue occupancy (and therefore the
drop behaviour of the discipline) evolves identically to the classic
two-event serialise-then-propagate chain.

Dynamics: a link is born *static* and stays on the fast path above until the
first :mod:`repro.netsim.dynamics` event touches it (``set_rate``,
``set_delay``, ``set_down``/``set_up``, ``start_loss_burst``), which flips it
into *dynamic mode*:

* delivery becomes deadline-driven: a per-packet deadline deque mirrors
  ``_in_flight`` so a mid-serve rate change can re-plan the in-service
  packet (the already-scheduled delivery event defers itself when it fires
  early, and an extra event is pushed when the new deadline is earlier);
* the queue-serve chain validates its fire time against ``_serve_at`` so a
  re-planned transmitter never serves two packets at once, and re-arms
  itself when a rate reduction pushed ``_busy_until`` past the old fire
  time;
* ``send`` consults the ``_impaired`` flag (link down, or an active loss
  burst) before the normal transmit/enqueue logic.

Static links pay exactly two predictable branches per packet for all of
this (``_impaired`` in :meth:`send`, ``_dynamic`` in :meth:`_transmit`
and :meth:`_deliver`); the event layout and delivery timing are unchanged
until an event fires.

Kernels: this class is the Python kernel's link and the reference.  On a
compiled simulator ``Link(sim, ...)`` builds ``sim.link_type`` instead -- a
subclass whose :meth:`send`, :meth:`_serve_queue` and :meth:`_deliver` are
C (``kernel/_ckernel.c``, "native links"): the C ``_deliver`` fuses in what
the Python one calls (``Node.receive``, ``Host._deliver_locally`` and the
hop-cache hit of ``Node.send``), and the bodies here are the specification
the two kernels are compared against.  Everything else, dynamics
included, is inherited from here, and all state stays in these slots except
``_busy_until`` and ``_serve_at``, which that subclass keeps as C doubles
under the same names.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..units import BITS_PER_BYTE
from .packet import Packet
from .queues import DropTailQueue, Queue, QueueStats

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator
    from .node import Node


class LinkStats:
    """Counters kept by each link for utilisation reporting.

    ``packets_sent``/``bytes_sent``/``busy_time`` are counted when a packet
    *starts* serialising (the merged delivery event leaves no end-of-
    serialisation hook), so a run truncated mid-transmission includes the
    in-flight packet.  ``busy_time`` is kept for inspection; ``utilization``
    derives busy time from ``bytes_sent`` and the rate instead.

    On a compiled simulator links build ``sim.link_stats_type``: C int64
    fields (``busy_time`` a double) under these names, which take ints only,
    stay within int64 and cannot be deleted; it copies as :class:`LinkStats`.
    """

    __slots__ = ("packets_sent", "bytes_sent", "packets_dropped", "busy_time")

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.busy_time = 0.0

    def utilization(self, rate_bps: float, duration: float) -> float:
        """Fraction of ``duration`` the link spent transmitting.

        The busy time is derived from the bytes put on the wire and the link
        rate, so the figure is exact regardless of how transmissions were
        scheduled internally.
        """
        if duration <= 0 or rate_bps <= 0:
            return 0.0
        busy = self.bytes_sent * BITS_PER_BYTE / rate_bps
        return min(1.0, busy / duration)


class Link:
    """A unidirectional, rate-limited, store-and-forward link.

    Parameters
    ----------
    sim:
        The discrete-event simulator that drives this link.
    src, dst:
        Upstream and downstream :class:`~repro.netsim.node.Node` objects.
    rate_bps:
        Transmission rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Queue discipline; defaults to a 100-packet drop-tail queue.
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "rate_bps",
        "delay",
        "queue",
        "_enqueue",
        "name",
        "stats",
        "_busy_until",
        "_serving",
        "_dst_receive",
        "_fused_receive",
        "_fused_host",
        "_in_flight",
        "up",
        "_impaired",
        "_dynamic",
        "_deadlines",
        "_serve_at",
        "_loss_rate",
        "_loss_until",
        "_loss_rng",
    )

    def __new__(cls, sim: "Simulator", *args, **kwargs) -> "Link":
        native = getattr(sim, "link_type", None)
        if cls is Link and native is not None:
            cls = native
        return object.__new__(cls)

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue: Optional[Queue] = None,
        name: Optional[str] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("link delay cannot be negative")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue()
        queue_stats_type = getattr(sim, "queue_stats_type", None)
        if queue_stats_type is not None and type(self.queue.stats) is QueueStats:
            # A queue is built without its simulator: on a compiled one the
            # link swaps in C counters, carrying over what it counted so far.
            counted = self.queue.stats
            self.queue.stats = queue_stats_type()
            for field in QueueStats.__slots__:
                setattr(self.queue.stats, field, getattr(counted, field))
        self._enqueue = self.queue.enqueue  # bound once; runs per offered packet
        self.name = name or f"{src.name}->{dst.name}"
        self.stats = getattr(sim, "link_stats_type", LinkStats)()
        self._busy_until = 0.0
        self._serving = False
        # The downstream node never changes after construction, so its
        # receive is bound once.
        self._dst_receive = dst.receive
        from .node import Host, Node  # runtime import: node.py imports this module lazily

        # Read by the native twin of _deliver only (nl_arrive): when the
        # downstream node runs the stock Node.receive / Host._deliver_locally,
        # it runs them in C instead of calling _dst_receive.
        self._fused_receive = type(dst).receive is Node.receive
        self._fused_host = (
            self._fused_receive
            and isinstance(dst, Host)
            and type(dst)._deliver_locally is Host._deliver_locally
        )
        #: Packets serialising/propagating on this link, in delivery order.
        #: Deliveries are FIFO by construction (busy_until is monotone, the
        #: propagation delay constant), so the delivery event itself carries
        #: no arguments and pops from the left -- one args-tuple allocation
        #: per packet per hop avoided.
        self._in_flight: deque = deque()
        #: Dynamics state: inert until the first dynamics event touches this
        #: link (see the module docstring).
        self.up = True
        self._impaired = False
        self._dynamic = False
        self._deadlines: deque = deque()  # mirrors _in_flight in dynamic mode
        self._serve_at = -1.0  # canonical fire time of the live serve event
        self._loss_rate = 0.0
        self._loss_until = 0.0
        self._loss_rng: Optional[random.Random] = None

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns False if the packet was dropped by the queue discipline (or
        by an outage / loss burst on a dynamic link).
        """
        if self._impaired and not self._admit_impaired(packet):
            return False
        now = self.sim.now
        if now < self._busy_until or self._serving:
            accepted = self._enqueue(packet, now)
            if accepted and not self._serving:
                # First queued packet: arm the serve event for the instant
                # the transmitter frees (the old end-of-serialisation time).
                self._serving = True
                self._serve_at = self._busy_until
                self.sim.schedule_fast_at(self._busy_until, self._serve_queue)
            return accepted
        self._transmit(packet)
        return True

    def _transmit(self, packet: Packet) -> float:
        """Start serialising ``packet`` now; returns the transmitter-free time.

        Charges the link's counters and schedules the packet's single merged
        delivery event at ``tx_end + delay``.
        """
        sim = self.sim
        size = packet.size
        tx_time = size * 8.0 / self.rate_bps
        tx_end = sim.now + tx_time
        self._busy_until = tx_end
        stats = self.stats
        stats.busy_time += tx_time
        stats.packets_sent += 1
        stats.bytes_sent += size
        self._in_flight.append(packet)
        deliver_at = tx_end + self.delay
        if self._dynamic:
            # FIFO guarantee: a delay reduction must not let this packet
            # overtake one already on the wire, so the deadline is clamped to
            # be non-decreasing (the link never reorders).
            deadlines = self._deadlines
            if deadlines and deliver_at < deadlines[-1]:
                deliver_at = deadlines[-1]
            deadlines.append(deliver_at)
        sim.schedule_fast_at(deliver_at, self._deliver)
        return tx_end

    # ------------------------------------------------------------------
    def _serve_queue(self) -> None:
        """Runs at the instant the transmitter frees while packets are queued."""
        sim = self.sim
        if self._dynamic:
            # A dynamics event may have orphaned this serve event (rate
            # re-plan, LinkDown): only the event armed for ``_serve_at`` is
            # live.  A rate reduction can also push the transmitter-free
            # time past this event's fire time; re-arm at the new time.
            now = sim.now
            if now != self._serve_at:
                return
            if now < self._busy_until:
                self._serve_at = self._busy_until
                sim.schedule_fast_at(self._busy_until, self._serve_queue)
                return
        queue = self.queue
        packet = queue.dequeue(sim.now)
        if packet is None:
            # Queue drained elsewhere, or an AQM discipline (CoDel) shed
            # every queued packet at departure time.
            self._serving = False
            return
        tx_end = self._transmit(packet)
        if not queue._queue:
            self._serving = False
        else:
            self._serve_at = tx_end
            sim.schedule_fast_at(tx_end, self._serve_queue)

    def _deliver(self) -> None:
        if self._dynamic:
            # Deadline-driven delivery: a mid-serve rate change moves the
            # in-service packet's deadline, so the pre-scheduled event can
            # fire early (defer to the true deadline) or an extra event may
            # exist (swallowed when nothing is in flight, or bounced until
            # the head packet is actually due -- a packet is never delivered
            # before its deadline, and never reordered).
            in_flight = self._in_flight
            if not in_flight:
                return
            deadline = self._deadlines[0]
            if self.sim.now < deadline:
                self.sim.schedule_fast_at(deadline, self._deliver)
                return
            self._deadlines.popleft()
        packet = self._in_flight.popleft()
        packet.hops += 1
        self._dst_receive(packet, self)

    def _close(self) -> None:
        """Forget what was resolved downstream: :meth:`~repro.netsim.network.Network.close`.

        This link resolves nothing; the compiled kernel's link drops its hop
        memo here, whose entries hold the links and agents further on.
        """

    # ------------------------------------------------------------------ dynamics
    def _go_dynamic(self) -> None:
        """Flip the link into dynamic mode (first dynamics event only).

        Back-fills the deadline deque for packets already in flight: their
        delivery events are exact, so intermediate packets get an always-due
        deadline of 0.0; the newest packet records its true deadline
        (``busy_until + delay`` -- it is the one that set ``busy_until``) so
        a subsequent rate change can re-plan it and later transmissions can
        clamp against it.
        """
        if self._dynamic:
            return
        self._dynamic = True
        deadlines = self._deadlines
        deadlines.clear()
        count = len(self._in_flight)
        for _ in range(count):
            deadlines.append(0.0)
        if count:
            deadlines[-1] = self._busy_until + self.delay

    def _admit_impaired(self, packet: Packet) -> bool:
        """Down-link / loss-burst admission; True lets ``packet`` proceed.

        Dropped packets are counted in ``stats.packets_dropped`` and -- like
        queue drops -- are *not* recycled into the packet pool: the link
        never owns a packet it refused, so the free-list invariants of the
        transport layer are untouched.
        """
        if not self.up:
            self.stats.packets_dropped += 1
            return False
        if self.sim.now < self._loss_until:
            if self._loss_rng.random() < self._loss_rate:
                self.stats.packets_dropped += 1
                return False
            return True
        # Loss burst expired: clear the impairment lazily (no timer event).
        self._impaired = False
        self._loss_rate = 0.0
        return True

    def set_rate(self, rate_bps: float) -> None:
        """Change the transmission rate, re-planning the in-service packet.

        The remaining bits of the packet currently serialising finish at the
        new rate; queued packets serialise entirely at the new rate.  Fully
        serialised (propagating) packets are unaffected.
        """
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self._go_dynamic()
        old_rate = self.rate_bps
        if rate_bps == old_rate:
            return
        sim = self.sim
        now = sim.now
        busy_until = self._busy_until
        if now < busy_until:
            # Mid-serve: re-plan the in-service packet's end of serialisation
            # (and therefore its delivery deadline, preserving its own delay).
            new_end = now + (busy_until - now) * old_rate / rate_bps
            self._busy_until = new_end
            # busy_time was charged for the whole packet at the old rate;
            # correct it by the change in the remaining serialisation time
            # so utilization stays truthful across rate changes.
            self.stats.busy_time += new_end - busy_until
            deadlines = self._deadlines
            if deadlines:
                old_deadline = deadlines[-1]
                new_deadline = old_deadline + (new_end - busy_until)
                if len(deadlines) > 1 and new_deadline < deadlines[-2]:
                    new_deadline = deadlines[-2]  # FIFO: never overtake
                deadlines[-1] = new_deadline
                if new_deadline < old_deadline:
                    # The pre-scheduled event would deliver too late; push an
                    # earlier one (the stale event is swallowed by _deliver).
                    sim.schedule_fast_at(new_deadline, self._deliver)
            if self._serving:
                # Re-arm the queue-serve chain at the new free time; the old
                # serve event dies on the _serve_at check.
                self._serve_at = new_end
                sim.schedule_fast_at(new_end, self._serve_queue)
        self.rate_bps = float(rate_bps)

    def set_delay(self, delay: float) -> None:
        """Change the propagation delay for subsequently transmitted packets."""
        if delay < 0:
            raise ValueError("link delay cannot be negative")
        self._go_dynamic()
        self.delay = float(delay)

    def set_down(self, *, flush: str = "drop") -> None:
        """Fail the link: offered packets drop until :meth:`set_up`.

        ``flush="drop"`` discards the queued packets (counted in
        ``stats.packets_dropped``); ``flush="park"`` keeps them queued for
        delivery after the link comes back.  Packets already serialised onto
        the wire are delivered either way.
        """
        if flush not in ("drop", "park"):
            raise ValueError(f"unknown flush mode {flush!r}; use 'drop' or 'park'")
        self._go_dynamic()
        if not self.up:
            return
        self.up = False
        self._impaired = True
        self._serving = False
        self._serve_at = -1.0  # orphan any pending serve event
        if flush == "drop":
            queue = self.queue
            stats = self.stats
            now = self.sim.now
            packet = queue.dequeue(now)
            while packet is not None:
                stats.packets_dropped += 1
                packet = queue.dequeue(now)

    def set_up(self) -> None:
        """Restore a failed link; parked packets resume transmission."""
        self._go_dynamic()
        if self.up:
            return
        self.up = True
        now = self.sim.now
        self._impaired = now < self._loss_until
        if self.queue._queue and not self._serving:
            # Parked packets: resume serving once the transmitter frees (it
            # may still be finishing the packet committed before the cut).
            serve_at = self._busy_until if self._busy_until > now else now
            self._serving = True
            self._serve_at = serve_at
            self.sim.schedule_fast_at(serve_at, self._serve_queue)

    def start_loss_burst(self, duration: float, loss_rate: float = 1.0, *, seed: int = 0) -> None:
        """Drop offered packets with ``loss_rate`` for ``duration`` seconds.

        Deterministic: each burst reseeds the per-link RNG from ``seed``, so
        a burst's drop pattern depends only on its own seed -- identical
        schedules reproduce identical patterns, and distinct seeds give
        independent realizations regardless of burst order.
        """
        if duration < 0:
            raise ValueError("loss burst duration cannot be negative")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self._go_dynamic()
        self._loss_rate = float(loss_rate)
        self._loss_until = self.sim.now + duration
        self._loss_rng = random.Random(seed)
        if self.up:
            self._impaired = True

    # ------------------------------------------------------------------
    @property
    def drops(self) -> int:
        """Packets dropped at this link (queue discipline + outage drops)."""
        return self.queue.stats.dropped + self.stats.packets_dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name}, {self.rate_bps / 1e6:.1f} Mbps, {self.delay * 1e3:.2f} ms)"
