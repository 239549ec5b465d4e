"""Packet-level TCP receiver.

Implements cumulative acknowledgements with an out-of-order reassembly
buffer.  Every arriving data segment triggers an immediate ACK (duplicate
ACKs for out-of-order arrivals are what drives the sender's fast retransmit).
For MPTCP subflows the receiver forwards the connection-level data sequence
ranges it delivers to an optional *connection sink* so the MPTCP receiver can
perform data-level reassembly and goodput accounting.

Kernels: this class is the Python kernel's receiver and the reference.  On a
compiled simulator ``TcpReceiver(host, ...)`` builds ``sim.receiver_type``
instead -- a subclass with the same slots whose
:meth:`~TcpReceiver.handle_packet` is the C twin of the body below
(``kernel/_transport.h``; keep the two in sync), calling
``connection_sink.on_subflow_data`` where it is called here.  A Python
*subclass* keeps its Python bodies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Tuple

from ..netsim.packet import acquire_ack
from ..units import ACK_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.node import Host
    from ..netsim.packet import Packet


class ConnectionSink(Protocol):
    """Consumer of in-order subflow data at connection (DSN) level."""

    def on_subflow_data(self, subflow_id: int, dsn: int, length: int, now: float) -> int:
        """Deliver a DSN range; return the current data-level cumulative ACK."""


class ReceiverStats:
    """Counters exported by a receiver (on a compiled simulator, the C fields of
    ``sim.receiver_stats_type``: see :class:`~repro.netsim.link.LinkStats`)."""

    __slots__ = (
        "segments_received",
        "bytes_received",
        "duplicates",
        "out_of_order",
        "acks_sent",
        "ce_received",
    )

    def __init__(self) -> None:
        self.segments_received = 0
        self.bytes_received = 0
        self.duplicates = 0
        self.out_of_order = 0
        self.acks_sent = 0
        self.ce_received = 0


class TcpReceiver:
    """The receiving half of one TCP subflow."""

    __slots__ = (
        "host",
        "sim",
        "_host_send",
        "_route_enabled",
        "_route_key",
        "_route_link",
        "_route_version",
        "peer",
        "flow_id",
        "subflow_id",
        "tag",
        "connection_sink",
        "ack_size",
        "stats",
        "rcv_nxt",
        "_out_of_order",
        "_last_dack",
    )

    def __new__(cls, host: "Host", *args, **kwargs) -> "TcpReceiver":
        native = getattr(host.sim, "receiver_type", None)
        if cls is TcpReceiver and native is not None:
            cls = native
        return object.__new__(cls)

    def __init__(
        self,
        host: "Host",
        peer: str,
        flow_id: int,
        subflow_id: int,
        *,
        tag: Optional[int] = None,
        connection_sink: Optional[ConnectionSink] = None,
        ack_size: int = ACK_SIZE,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self._host_send = host.send  # bound once; runs per generated ACK
        # Egress memo of the native twin, as in TcpSender: C adopts the link
        # the host's hop cache resolved for (peer, tag).  The Python body
        # always calls _host_send.
        self._route_enabled = getattr(host, "_hop_cache", None) is not None
        self._route_key = (peer, tag)
        self._route_link = None
        self._route_version = -1
        self.peer = peer
        self.flow_id = flow_id
        self.subflow_id = subflow_id
        self.tag = tag
        self.connection_sink = connection_sink
        self.ack_size = ack_size
        self.stats = getattr(host.sim, "receiver_stats_type", ReceiverStats)()

        self.rcv_nxt = 0
        self._out_of_order: Dict[int, Tuple[int, int]] = {}  # seq -> (length, dsn)
        self._last_dack = 0

    # ------------------------------------------------------------------
    def handle_packet(self, packet: "Packet") -> None:
        """Entry point for packets delivered to this receiver (data segments)."""
        if packet.is_ack:
            return
        now = self.sim.now
        stats = self.stats
        stats.segments_received += 1
        seq, length, dsn = packet.seq, packet.payload_len, packet.dsn

        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            self._deliver(seq, length, dsn, now)
            self._drain_buffer(now)
        elif seq > rcv_nxt:
            stats.out_of_order += 1
            self._out_of_order.setdefault(seq, (length, dsn))
        else:
            # Fully or partially old data (a spurious retransmission).
            stats.duplicates += 1
            if seq + length > rcv_nxt:
                overlap = rcv_nxt - seq
                self._deliver(rcv_nxt, length - overlap, dsn + overlap, now)
                self._drain_buffer(now)
        ts_echo = packet.created_at
        # RFC 3168 echo: a CE-marked segment (codepoint 2, set by an
        # ECN-capable queue in place of a drop) raises ECE on the ACK.
        ece = packet.ecn == 2
        # The data segment's life ends here.  It is recycled before the ACK
        # is built so the freed packet is reusable for that ACK.
        packet.release()
        ack = acquire_ack(
            self.host.name,
            self.peer,
            self.ack_size,
            self.tag,
            self.flow_id,
            self.subflow_id,
            self.rcv_nxt,
            self._last_dack,
            self._sack_blocks(),
            ts_echo,
            now,
        )
        if ece:
            ack.ecn = True
            stats.ce_received += 1
        stats.acks_sent += 1
        self._host_send(ack)

    # ------------------------------------------------------------------
    def _deliver(self, seq: int, length: int, dsn: int, now: float) -> None:
        if length <= 0:
            return
        self.rcv_nxt = seq + length
        self.stats.bytes_received += length
        if self.connection_sink is not None:
            self._last_dack = self.connection_sink.on_subflow_data(
                self.subflow_id, dsn, length, now
            )

    def _drain_buffer(self, now: float) -> None:
        while self.rcv_nxt in self._out_of_order:
            length, dsn = self._out_of_order.pop(self.rcv_nxt)
            self._deliver(self.rcv_nxt, length, dsn, now)

    def _sack_blocks(self, max_blocks: int = 4) -> tuple:
        """Merge the out-of-order buffer into SACK blocks (RFC 2018)."""
        if not self._out_of_order:
            return ()
        blocks = []
        start = None
        end = None
        for seq in sorted(self._out_of_order):
            length, _ = self._out_of_order[seq]
            if start is None:
                start, end = seq, seq + length
            elif seq == end:
                end = seq + length
            else:
                blocks.append((start, end))
                start, end = seq, seq + length
        blocks.append((start, end))
        return tuple(blocks[:max_blocks])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TcpReceiver(flow={self.flow_id}, sub={self.subflow_id}, "
            f"rcv_nxt={self.rcv_nxt}, buffered={len(self._out_of_order)})"
        )
