"""Packet-level TCP sender.

One :class:`TcpSender` drives one subflow (or a plain single-path TCP
connection): it keeps the send window, reacts to cumulative, duplicate and
selective acknowledgements, performs SACK-based fast retransmit / fast
recovery (a simplified RFC 6675 pipe algorithm, which is what the Linux
stack the paper measured uses) and falls back to a retransmission timeout,
delegating all window sizing to a pluggable
:class:`~repro.tcp.cc.base.CongestionControl` object.

Data to transmit is pulled from a *data provider* -- an object exposing
``request_data(sender, max_bytes) -> Optional[tuple[dsn, length]]`` -- which
is how the MPTCP connection (or a bulk traffic source) hands byte ranges with
their connection-level data sequence numbers to the subflow.

Kernels: this class is the Python kernel's sender and the reference every
test compares against.  On a compiled simulator ``TcpSender(host, ...)``
builds ``sim.sender_type`` instead -- a subclass with the same slots whose
:meth:`~TcpSender.handle_packet`, :meth:`~TcpSender._try_send`,
:meth:`~TcpSender._fire_rto` and :meth:`~TcpSender._on_rto` run the C twins
of the bodies below over these very slots (``kernel/_transport.h``, shared
with the whole-window Scene; keep the two in sync, :class:`_SegmentInfo`,
:class:`SenderStats` and :class:`~repro.tcp.rtt.RttEstimator` included; the
counters are the C fields of ``sim.sender_stats_type``).
Everything else -- ``start``/``resume``/``close``/``on_path_restored``, the
properties -- is inherited from here, and the congestion controller, the data
provider and ``on_idle`` are called from C exactly where they are called
below.  A Python *subclass* keeps all of its Python bodies on either kernel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Protocol, Tuple

from ..errors import ProtocolError
from ..netsim.packet import acquire_data
from ..units import DEFAULT_MSS, HEADER_SIZE
from .cc.base import CongestionControl
from .rtt import RttEstimator

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.engine import Event, Simulator
    from ..netsim.node import Host
    from ..netsim.packet import Packet


class DataProvider(Protocol):
    """Interface the sender uses to obtain data to transmit."""

    def request_data(self, sender: "TcpSender", max_bytes: int) -> Optional[Tuple[int, int]]:
        """Return ``(dsn, length)`` with ``0 < length <= max_bytes`` or None."""

    def on_data_acked(self, sender: "TcpSender", dsn: int, length: int, now: float) -> None:
        """Called when a byte range is newly acknowledged at subflow level."""


class _SegmentInfo:
    """Book-keeping for one transmitted segment."""

    __slots__ = (
        "seq",
        "length",
        "dsn",
        "sent_at",
        "retransmitted",
        "sacked",
        "lost",
        "lost_pending",
        "retx_in_recovery",
    )

    def __init__(self, seq: int, length: int, dsn: int, sent_at: float) -> None:
        self.seq = seq
        self.length = length
        self.dsn = dsn
        self.sent_at = sent_at
        self.retransmitted = False
        self.sacked = False
        self.lost = False
        self.lost_pending = False
        self.retx_in_recovery = False


class SenderStats:
    """Counters exported by a sender (on a compiled simulator, the C fields of
    ``sim.sender_stats_type``: see :class:`~repro.netsim.link.LinkStats`)."""

    __slots__ = (
        "segments_sent",
        "bytes_sent",
        "bytes_acked",
        "retransmissions",
        "fast_retransmits",
        "timeouts",
        "dupacks",
        "ecn_echoes",
    )

    def __init__(self) -> None:
        self.segments_sent = 0
        self.bytes_sent = 0
        self.bytes_acked = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.dupacks = 0
        self.ecn_echoes = 0


class TcpSender:
    """The sending half of one TCP subflow.

    Parameters
    ----------
    host:
        The :class:`~repro.netsim.node.Host` this sender runs on.
    dst:
        Name of the destination host.
    flow_id, subflow_id:
        Demultiplexing identifiers carried in every packet.
    cc:
        Congestion-control instance (owned by this sender).
    data_provider:
        Source of data ranges (the MPTCP connection or a bulk source adapter).
    tag:
        Path tag applied to every packet of this subflow (path pinning).
    mss:
        Maximum segment size in payload bytes.
    """

    DUPACK_THRESHOLD = 3

    __slots__ = (
        "host",
        "sim",
        "_host_send",
        "_route_enabled",
        "_route_key",
        "_route_link",
        "_route_version",
        "dst",
        "flow_id",
        "subflow_id",
        "cc",
        "data_provider",
        "tag",
        "mss",
        "ecn",
        "rtt",
        "stats",
        "snd_una",
        "snd_nxt",
        "_segments",
        "_seg_queue",
        "_sacked_bytes",
        "_lost_pending_bytes",
        "_dupacks",
        "_in_fast_recovery",
        "_recover",
        "_ecn_recover",
        "_rto_event",
        "_rto_deadline",
        "_rto_fire_at",
        "_rto_backoff",
        "_started",
        "closed",
        "path_down",
        "on_idle",
    )

    def __new__(cls, host: "Host", *args, **kwargs) -> "TcpSender":
        native = getattr(host.sim, "sender_type", None)
        if cls is TcpSender and native is not None:
            cls = native
        return object.__new__(cls)

    def __init__(
        self,
        host: "Host",
        dst: str,
        flow_id: int,
        subflow_id: int,
        cc: CongestionControl,
        data_provider: DataProvider,
        *,
        tag: Optional[int] = None,
        mss: int = DEFAULT_MSS,
        ecn: bool = False,
        rtt_estimator: Optional[RttEstimator] = None,
    ) -> None:
        self.host = host
        self.sim: "Simulator" = host.sim
        self._host_send = host.send  # bound once; runs per transmitted segment
        # Egress memo of the native twin (kernel/_ckernel.c): every segment
        # of this subflow routes by the same (dst, tag), so C adopts the link
        # the host's hop cache resolved and re-validates it against the
        # routing table's mutation version only.  The Python bodies always
        # call _host_send.
        self._route_enabled = getattr(host, "_hop_cache", None) is not None
        self._route_key = (dst, tag)
        self._route_link = None
        self._route_version = -1
        self.dst = dst
        self.flow_id = flow_id
        self.subflow_id = subflow_id
        self.cc = cc
        self.data_provider = data_provider
        self.tag = tag
        self.mss = int(mss)
        #: ECN-capable transport: outgoing data segments carry ECT and the
        #: sender reacts to echoed CE marks (see handle_packet).
        self.ecn = bool(ecn)
        self.rtt = rtt_estimator if rtt_estimator is not None else RttEstimator()
        self.stats = getattr(host.sim, "sender_stats_type", SenderStats)()

        self.snd_una = 0
        self.snd_nxt = 0
        self._segments: Dict[int, _SegmentInfo] = {}
        #: The same segment records in ascending-seq order (new segments only
        #: ever append at snd_nxt; retransmissions reuse their entry), so the
        #: cumulative-ACK prefix pops from the left in O(1) per segment and
        #: recovery walks holes without re-sorting.
        self._seg_queue: Deque[_SegmentInfo] = deque()
        self._sacked_bytes = 0
        self._lost_pending_bytes = 0
        self._dupacks = 0
        self._in_fast_recovery = False
        self._recover = 0
        # ECE reaction guard (mirrors _recover): react to at most one echoed
        # CE mark per window of data, per RFC 3168's once-per-RTT rule.
        self._ecn_recover = -1
        self._rto_event: Optional["Event"] = None
        self._rto_deadline = 0.0
        self._rto_fire_at = 0.0
        self._rto_backoff = 1.0
        self._started = False
        self.closed = False
        #: Set by the MPTCP connection while this subflow's path is failed;
        #: the data provider refuses grants so no fresh (or re-injected)
        #: ranges are stranded on a dead path.
        self.path_down = False
        #: Optional ``callback(sender)`` fired when the sender drains: the
        #: data provider refused data *and* every transmitted byte has been
        #: cumulatively acknowledged.  This is the sender-level completion
        #: signal for bytes-limited transfers (the workload transfer driver
        #: uses it to detect an idle, reusable connection).  May fire more
        #: than once while idle; receivers must be idempotent.
        self.on_idle = None

    # ------------------------------------------------------------------ API
    def start(self) -> None:
        """Begin transmitting (register first sends on the event loop)."""
        if self._started or self.closed:
            return
        self._started = True
        self._try_send()

    def resume(self) -> None:
        """Re-attempt transmission after the data provider refused data earlier.

        Called by the MPTCP connection when connection-level send-buffer space
        frees up; without it an idle subflow (no outstanding data, so no ACKs
        will arrive) would never ask for data again.
        """
        if self._started and not self.closed:
            self._try_send()

    def close(self) -> None:
        """Stop this sender for good (runtime subflow teardown).

        Cancels the retransmission timer and refuses all further
        transmissions; outstanding data is the connection's responsibility
        (see ``MptcpConnection.close_subflow``, which re-injects it).
        """
        self.closed = True
        self.path_down = True
        self._cancel_rto()

    def unacked_ranges(self) -> list:
        """The ``(dsn, length)`` ranges sent but not cumulatively acknowledged.

        SACKed segments are *included*: their payload sits in the peer
        receiver's subflow-level reorder buffer and reaches the connection
        only if this subflow's cumulative progress resumes -- which never
        happens once the subflow is closed.  The MPTCP connection re-injects
        these ranges on sibling subflows when this subflow's path fails or
        the subflow is closed; duplicate deliveries are deduplicated by the
        connection-level reassembler.
        """
        return [(info.dsn, info.length) for info in self._seg_queue]

    def on_path_restored(self) -> None:
        """The path healed: reset the timeout backoff and retransmit promptly.

        During an outage the RTO backs off exponentially (up to 64x), so a
        recovered path could otherwise idle for many seconds before the next
        retransmission probe discovers it is usable again.
        """
        if not self._started or self.closed:
            return
        self._rto_backoff = 1.0
        if self.snd_nxt > self.snd_una:
            self._cancel_rto()
            self._rto_event = self.sim.schedule(0.0, self._on_rto)

    @property
    def started(self) -> bool:
        """True once :meth:`start` has run (the subflow is established)."""
        return self._started and not self.closed

    @property
    def flight_size(self) -> int:
        """Bytes sent but not cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def pipe(self) -> int:
        """Bytes estimated to be in the network (RFC 6675 pipe).

        Flight size minus the bytes the receiver has selectively acknowledged
        and minus the bytes presumed lost that have not been retransmitted yet.
        """
        return max(self.flight_size - self._sacked_bytes - self._lost_pending_bytes, 0)

    @property
    def effective_window(self) -> float:
        """Usable window in bytes."""
        return self.cc.cwnd_bytes

    @property
    def in_fast_recovery(self) -> bool:
        return self._in_fast_recovery

    # ------------------------------------------------------------------ send
    def _try_send(self) -> None:
        # The window only moves on ACK and loss events, never inside this
        # loop, so it is read once; the pipe is re-read on every turn.
        mss = self.mss
        window = self.effective_window
        while True:
            if self.pipe + mss > window:
                return
            if self._in_fast_recovery and self._retransmit_next_hole():
                continue
            grant = self.data_provider.request_data(self, mss)
            if grant is None:
                # Off the greedy hot path (a refusing provider): with nothing
                # left in flight either, the sender is fully drained.
                if self.on_idle is not None and self.snd_nxt == self.snd_una:
                    self.on_idle(self)
                return
            dsn, length = grant
            if length <= 0 or length > mss:
                raise ProtocolError(f"data provider granted invalid length {length}")
            seq = self.snd_nxt
            self._transmit_segment(seq, length, dsn, is_retransmission=False)
            self.snd_nxt = seq + length

    def _retransmit_next_hole(self) -> bool:
        """Retransmit the lowest unSACKed segment of the recovery window.

        Returns True if a segment was retransmitted, False if every candidate
        has already been retransmitted during this recovery episode.
        """
        recover = self._recover
        for info in self._seg_queue:
            if info.seq >= recover:
                break
            if info.sacked or not info.lost or info.retx_in_recovery:
                continue
            info.retx_in_recovery = True
            if info.lost_pending:
                info.lost_pending = False
                self._lost_pending_bytes -= info.length
            self._transmit_segment(info.seq, info.length, info.dsn, is_retransmission=True)
            return True
        return False

    def _transmit_segment(self, seq: int, length: int, dsn: int, *, is_retransmission: bool) -> None:
        now = self.sim.now
        packet = acquire_data(
            self.host.name,
            self.dst,
            length + HEADER_SIZE,
            self.tag,
            self.flow_id,
            self.subflow_id,
            seq,
            length,
            dsn,
            is_retransmission,
            now,
        )
        if self.ecn:
            packet.ecn = 1  # ECT: this segment may be CE-marked instead of dropped
        segments = self._segments
        info = segments.get(seq)
        if info is None:
            # A new segment: seq is snd_nxt, so the record appends in order.
            segments[seq] = info = _SegmentInfo(seq, length, dsn, now)
            self._seg_queue.append(info)
        else:
            info.sent_at = now
        stats = self.stats
        if is_retransmission:
            info.retransmitted = True
            stats.retransmissions += 1
        stats.segments_sent += 1
        stats.bytes_sent += length
        self._host_send(packet)
        if self._rto_event is None:
            self._arm_rto()

    # ------------------------------------------------------------------ ACKs
    def handle_packet(self, packet: "Packet") -> None:
        """Entry point for packets delivered to this sender (ACKs).

        RTT sampling, SACK processing, cumulative/duplicate dispatch,
        recycling of the ACK packet and window-driven transmission.
        """
        if not packet.is_ack:
            return
        ack = packet.ack
        now = self.sim.now
        if ack > self.snd_nxt:
            raise ProtocolError(f"ACK {ack} beyond snd_nxt {self.snd_nxt}")
        # RFC 7323 timestamps: every ACK echoes the send time of the data
        # segment that triggered it, giving an unbiased RTT sample even for
        # ACKs of out-of-order or retransmitted data.
        ts_echo = packet.ts_echo
        if ts_echo >= 0:
            sample = now - ts_echo
            if sample > 0:
                self.rtt.update(sample)
        if packet.sack_blocks:
            self._apply_sack(packet.sack_blocks)
        if packet.ecn and ack > self._ecn_recover:
            # RFC 3168: the receiver echoes CE as ECE on every ACK until the
            # sender responds; react once per window of data (no retransmit,
            # the segment was delivered -- only the rate comes down).
            self._ecn_recover = self.snd_nxt
            self.stats.ecn_echoes += 1
            self.cc.on_ecn(now)
        snd_una = self.snd_una
        if ack > snd_una:
            self._on_new_ack(ack, now)
        elif ack == snd_una and self.snd_nxt > snd_una:
            self._on_dupack(now)
        # The ACK's life ends here.  It is recycled before _try_send so the
        # freed packet is available for the segments this very ACK clocks out.
        packet.release()
        self._try_send()

    def _apply_sack(self, blocks) -> None:
        """SACK scoreboard update plus FACK-style loss inference, in one pass.

        ``_seg_queue`` is in ascending ``seq`` order, so nothing beyond the
        highest SACKed end can be SACKed or inferred lost: a segment inside
        a block is SACKed, an unSACKed one wholly below the highest SACKed
        end is lost.
        """
        if not blocks:
            return
        highest_sacked_end = max(end for _, end in blocks)
        for info in self._seg_queue:
            seq = info.seq
            if seq > highest_sacked_end:
                break
            if info.sacked:
                continue
            seg_end = seq + info.length
            for start, end in blocks:
                if seq >= start and seg_end <= end:
                    info.sacked = True
                    self._sacked_bytes += info.length
                    if info.lost_pending:
                        info.lost_pending = False
                        self._lost_pending_bytes -= info.length
                    break
            else:
                if not info.lost and seg_end <= highest_sacked_end:
                    info.lost = True
                    info.lost_pending = True
                    self._lost_pending_bytes += info.length

    def _sacked_above_una(self) -> int:
        return self._sacked_bytes

    def _on_new_ack(self, ack: int, now: float) -> None:
        newly_acked = ack - self.snd_una
        self.stats.bytes_acked += newly_acked
        rtt = self.rtt
        if rtt.samples == 0:
            # Fallback when the peer does not echo timestamps.
            self._sample_rtt(ack, now)
        # _seg_queue is ordered by seq (snd_nxt only grows, retransmissions
        # reuse their entry), so the ACKed prefix pops from the left.
        queue = self._seg_queue
        while queue and queue[0].seq + queue[0].length <= ack:
            info = queue.popleft()
            del self._segments[info.seq]
            if info.sacked:
                self._sacked_bytes -= info.length
            if info.lost_pending:
                self._lost_pending_bytes -= info.length
            self.data_provider.on_data_acked(self, info.dsn, info.length, now)
        self.snd_una = ack
        self._dupacks = 0
        self._rto_backoff = 1.0

        cc = self.cc
        # srtt, or 0.01 s before the first sample.  An estimator only has to
        # define update / samples / srtt / _rto (tcp/rtt.py).
        srtt = rtt.srtt
        if srtt is None:
            srtt = 0.01
        if self._in_fast_recovery:
            if ack >= self._recover:
                self._exit_fast_recovery()
            elif cc.in_slow_start:
                # Post-timeout recovery: slow start clocks out the
                # retransmissions, so the window must grow on partial ACKs.
                cc.on_ack(newly_acked, srtt, now)
            # Otherwise partial ACKs keep the recovery loop going via _try_send().
        else:
            cc.on_ack(newly_acked, srtt, now)

        if self.snd_nxt == ack:
            self._cancel_rto()
        else:
            self._arm_rto(restart=True)

    def _on_dupack(self, now: float) -> None:
        self._dupacks += 1
        self.stats.dupacks += 1
        if self._in_fast_recovery:
            return
        lost_hint = self._dupacks >= self.DUPACK_THRESHOLD
        sack_hint = self._sacked_above_una() >= self.DUPACK_THRESHOLD * self.mss
        if lost_hint or sack_hint:
            self._enter_fast_recovery(now)

    def _enter_fast_recovery(self, now: float) -> None:
        self._in_fast_recovery = True
        self._recover = self.snd_nxt
        self.stats.fast_retransmits += 1
        self.cc.on_loss(now)
        # The first unacknowledged segment is by definition the hole that the
        # duplicate ACKs / SACK blocks point at.
        front = self._segments.get(self.snd_una)
        if front is not None and not front.sacked and not front.lost:
            front.lost = True
            front.lost_pending = True
            self._lost_pending_bytes += front.length
        self._retransmit_next_hole()

    def _exit_fast_recovery(self) -> None:
        self._in_fast_recovery = False
        for info in self._segments.values():
            info.retx_in_recovery = False

    # ------------------------------------------------------------------ RTT & cleanup
    def _sample_rtt(self, ack: int, now: float) -> None:
        """Karn's algorithm: only sample RTT from never-retransmitted segments."""
        best: Optional[_SegmentInfo] = None
        for seq, info in self._segments.items():
            if seq + info.length <= ack and not info.retransmitted:
                if best is None or info.sent_at > best.sent_at:
                    best = info
        if best is not None:
            sample = now - best.sent_at
            if sample > 0:
                self.rtt.update(sample)

    # ------------------------------------------------------------------ RTO
    def _arm_rto(self, restart: bool = False) -> None:
        """(Re-)arm the retransmission timer.

        Re-arming happens on every ACK, so the timer is lazy: the pending
        event is kept and only the deadline is pushed; :meth:`_fire_rto`
        re-checks the deadline when the event finally fires.  The event is
        only re-scheduled in the rare case the new deadline is *earlier*
        than the pending fire time (e.g. the RTO estimate collapsed).
        """
        if self._rto_event is not None and not restart:
            return
        # _rto: see _on_new_ack on the estimator contract.
        deadline = self.sim.now + self.rtt._rto * self._rto_backoff
        self._rto_deadline = deadline
        if self._rto_event is not None:
            if self._rto_fire_at <= deadline:
                return
            self._rto_event.cancel()
        self._rto_event = self.sim.schedule_at(deadline, self._fire_rto)
        self._rto_fire_at = deadline

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _fire_rto(self) -> None:
        deadline = self._rto_deadline
        now = self.sim.now
        if now < deadline:
            # The deadline was pushed by ACKs since this event was armed.
            self._rto_event = self.sim.schedule_at(deadline, self._fire_rto)
            self._rto_fire_at = deadline
            return
        self._on_rto()

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.flight_size == 0 or self.closed:
            return
        if self.path_down:
            # The connection knows this path is failed: retransmitting into
            # the dead link is pointless and every timeout reaction would
            # collapse ssthresh further (crippling the recovery once the
            # path heals).  Freeze the window state and keep a backed-off
            # timer running as a liveness probe.
            self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
            self._arm_rto(restart=True)
            return
        now = self.sim.now
        self.stats.timeouts += 1
        self.cc.on_timeout(now)
        self._dupacks = 0
        self._exit_fast_recovery()
        # All SACK information is considered stale after a timeout (RFC 6675)
        # and every outstanding segment is presumed lost; the slow-start
        # window then clocks out the retransmissions hole by hole.
        self._sacked_bytes = 0
        self._lost_pending_bytes = 0
        for info in self._segments.values():
            info.sacked = False
            info.lost = True
            info.lost_pending = True
            self._lost_pending_bytes += info.length
        self._in_fast_recovery = True
        self._recover = self.snd_nxt
        self._rto_backoff = min(self._rto_backoff * 2.0, 64.0)
        self._retransmit_next_hole()
        self._arm_rto(restart=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TcpSender(flow={self.flow_id}, sub={self.subflow_id}, tag={self.tag}, "
            f"cwnd={self.cc.cwnd:.1f}seg, una={self.snd_una}, nxt={self.snd_nxt})"
        )
