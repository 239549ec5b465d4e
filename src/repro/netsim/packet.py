"""Packet representation shared by every layer of the simulator.

A single flat record is used for data segments, acknowledgements and
unreliable datagrams; the transport agents only fill in the fields they use.
``__slots__`` keeps per-packet overhead low because a 4-second MPTCP run
creates tens of thousands of packets.

Packet pool: the transport agents create millions of short-lived packets
per simulated minute, so a free-list pool recycles them.  :func:`acquire`
reinitialises a recycled instance and marks it poolable; the consumer that
terminates a packet's life (the receiving transport agent) hands it back with
:meth:`Packet.release`.  Packets built through the plain constructor are
never pooled, so externally-held instances (tests, ad-hoc traffic) can never
be mutated behind the holder's back, and ``release`` flips the poolable flag
off before recycling so a double release can never alias one object twice in
the pool.

Kernels: on a compiled simulator the native agents build
``sim.packet_type`` instead, a subclass whose numbers (id, size, flow ids,
sequence fields, hops, times) are C int64 / double fields under these names
(ints only, within int64, not deletable; it copies and pickles as
:class:`Packet`) and whose ``release`` hands it to the kernel's own free
list.  Every other packet -- this module's, a UDP source's, a hand-built one
-- runs the Python bodies on either kernel.  Once the compiled kernel binds,
``_packet_counter`` is its id sequence, continuing this one, so ids stay
unique and increasing across both kinds of packet.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional

_packet_counter = itertools.count(1)

#: Recycled packets; the bounded deque self-evicts its oldest entry when
#: full, so release sites never pay a length check and a burst cannot pin
#: memory forever.
_POOL_LIMIT = 1024
_pool: deque = deque(maxlen=_POOL_LIMIT)


class Packet:
    """A network packet.

    Parameters
    ----------
    src, dst:
        Names of the originating and destination hosts.
    size:
        Total size on the wire in bytes (payload + headers).
    tag:
        Path tag used by tag-based routing (the paper's path-pinning
        mechanism).  ``None`` means "use the default route".
    flow_id:
        Identifier of the (MP)TCP connection this packet belongs to.
    subflow_id:
        Identifier of the subflow within the connection.
    protocol:
        ``"tcp"`` or ``"udp"``.
    seq:
        Subflow-level sequence number of the first payload byte.
    payload_len:
        Number of payload bytes carried (0 for a pure ACK).
    is_ack:
        True for pure acknowledgements.
    ack:
        Cumulative subflow-level acknowledgement number.
    dsn:
        Connection-level data sequence number of the first payload byte
        (MPTCP DSS mapping).
    dack:
        Connection-level cumulative data acknowledgement.
    sack_blocks:
        Selective-acknowledgement blocks ``((start, end), ...)`` describing
        out-of-order data held by the receiver (RFC 2018).
    ts_echo:
        Timestamp echo (RFC 7323): on an ACK, the ``created_at`` of the data
        segment that triggered it, used for accurate RTT sampling.  Negative
        when absent.
    """

    __slots__ = (
        "packet_id",
        "src",
        "dst",
        "size",
        "tag",
        "flow_id",
        "subflow_id",
        "protocol",
        "seq",
        "payload_len",
        "is_ack",
        "ack",
        "dsn",
        "dack",
        "is_retransmission",
        "sack_blocks",
        "ts_echo",
        "created_at",
        "enqueued_at",
        "hops",
        "ecn",
        "_poolable",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        size: int,
        *,
        tag: Optional[int] = None,
        flow_id: int = 0,
        subflow_id: int = 0,
        protocol: str = "tcp",
        seq: int = 0,
        payload_len: int = 0,
        is_ack: bool = False,
        ack: int = 0,
        dsn: int = 0,
        dack: int = 0,
        is_retransmission: bool = False,
        sack_blocks: tuple = (),
        ts_echo: float = -1.0,
        created_at: float = 0.0,
    ) -> None:
        self.packet_id = next(_packet_counter)
        self.src = src
        self.dst = dst
        self.size = int(size)
        self.tag = tag
        self.flow_id = flow_id
        self.subflow_id = subflow_id
        self.protocol = protocol
        self.seq = seq
        self.payload_len = payload_len
        self.is_ack = is_ack
        self.ack = ack
        self.dsn = dsn
        self.dack = dack
        self.is_retransmission = is_retransmission
        self.sack_blocks = tuple(sack_blocks)
        self.ts_echo = ts_echo
        self.created_at = created_at
        self.enqueued_at = 0.0
        self.hops = 0
        self.ecn = False
        self._poolable = False

    def release(self) -> None:
        """Return a pool-acquired packet to the free list.

        No-op for constructor-built packets and for packets already released
        (the flag flip makes double release harmless).
        """
        if self._poolable:
            self._poolable = False
            _pool.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet#{self.packet_id}({kind} {self.src}->{self.dst} tag={self.tag} "
            f"flow={self.flow_id} sub={self.subflow_id} seq={self.seq} ack={self.ack} "
            f"len={self.payload_len})"
        )


_new_packet = Packet.__new__


def acquire(
    src: str,
    dst: str,
    size: int,
    tag: Optional[int],
    flow_id: int,
    subflow_id: int,
    protocol: str,
    seq: int,
    payload_len: int,
    is_ack: bool,
    ack: int,
    dsn: int,
    dack: int,
    is_retransmission: bool,
    sack_blocks: tuple,
    ts_echo: float,
    created_at: float,
) -> Packet:
    """Pool-aware packet constructor for the per-segment hot path.

    Positional-only by convention (every argument, every time): the cost of
    keyword processing is what this function exists to avoid.  ``size`` must
    already be an int and ``sack_blocks`` already a tuple -- the transport
    agents guarantee both, so the defensive coercions of ``__init__`` are
    skipped here.
    """
    pool = _pool
    packet = pool.pop() if pool else _new_packet(Packet)
    packet.packet_id = next(_packet_counter)
    packet.src = src
    packet.dst = dst
    packet.size = size
    packet.tag = tag
    packet.flow_id = flow_id
    packet.subflow_id = subflow_id
    packet.protocol = protocol
    packet.seq = seq
    packet.payload_len = payload_len
    packet.is_ack = is_ack
    packet.ack = ack
    packet.dsn = dsn
    packet.dack = dack
    packet.is_retransmission = is_retransmission
    packet.sack_blocks = sack_blocks
    packet.ts_echo = ts_echo
    packet.created_at = created_at
    packet.enqueued_at = 0.0
    packet.hops = 0
    packet.ecn = False
    packet._poolable = True
    return packet


def acquire_data(
    src: str,
    dst: str,
    size: int,
    tag: Optional[int],
    flow_id: int,
    subflow_id: int,
    seq: int,
    payload_len: int,
    dsn: int,
    is_retransmission: bool,
    created_at: float,
) -> Packet:
    """:func:`acquire` for a TCP data segment."""
    return acquire(src, dst, size, tag, flow_id, subflow_id, "tcp", seq, payload_len, False,
                   0, dsn, 0, is_retransmission, (), -1.0, created_at)


def acquire_ack(
    src: str,
    dst: str,
    size: int,
    tag: Optional[int],
    flow_id: int,
    subflow_id: int,
    ack: int,
    dack: int,
    sack_blocks: tuple,
    ts_echo: float,
    created_at: float,
) -> Packet:
    """:func:`acquire` for a pure TCP ACK."""
    return acquire(src, dst, size, tag, flow_id, subflow_id, "tcp", 0, 0, True,
                   ack, 0, dack, False, sack_blocks, ts_echo, created_at)
