"""Data-sequence-number (DSS) bookkeeping.

MPTCP stripes one byte stream across subflows; every transmitted segment
carries a *data sequence number* (DSN) mapping its payload back into the
connection-level stream.  :class:`DsnAllocator` hands out DSN ranges to the
scheduler and :class:`DsnReassembler` rebuilds the in-order stream at the
receiver, tolerating the duplicates produced by retransmissions and by the
redundant scheduler.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class DsnAllocator:
    """Allocates contiguous DSN ranges for new application data.

    Parameters
    ----------
    total_bytes:
        Size of the transfer; ``None`` models an unbounded (iperf-like) source.
    send_buffer_bytes:
        Optional cap on unacknowledged connection-level data.  When set, the
        allocator refuses new ranges until enough data has been acknowledged,
        which is when the choice of scheduler starts to matter.
    """

    def __init__(
        self,
        total_bytes: Optional[int] = None,
        send_buffer_bytes: Optional[int] = None,
    ) -> None:
        self.total_bytes = total_bytes
        self.send_buffer_bytes = send_buffer_bytes
        self.next_dsn = 0
        self.acked_bytes = 0

    # ------------------------------------------------------------------
    def allocate(self, max_bytes: int) -> Optional[Tuple[int, int]]:
        """Reserve up to ``max_bytes`` new bytes; return ``(dsn, length)`` or None.

        The grant is clamped by what is left of a finite transfer and by the
        room the send buffer has above the acknowledged bytes.
        """
        grant = max_bytes
        dsn = self.next_dsn
        total = self.total_bytes
        if total is not None:
            remaining = total - dsn
            if remaining < grant:
                grant = remaining
        send_buffer = self.send_buffer_bytes
        if send_buffer is not None:
            room = send_buffer - (dsn - self.acked_bytes)
            if room < grant:
                grant = room
        if grant <= 0:
            return None
        self.next_dsn = dsn + grant
        return dsn, grant


class DsnReassembler:
    """Connection-level in-order reassembly of DSN ranges.

    Duplicate deliveries (subflow retransmissions, redundant scheduling) are
    detected and ignored so goodput is never counted twice.
    """

    def __init__(self) -> None:
        self.data_ack = 0
        self._pending: Dict[int, int] = {}  # dsn -> length
        self.duplicate_bytes = 0
        self.delivered_bytes = 0

    # ------------------------------------------------------------------
    def deliver(self, dsn: int, length: int, now: float) -> int:
        """Deliver a DSN range; return the updated cumulative data ACK."""
        if length <= 0:
            return self.data_ack
        if dsn == self.data_ack and not self._pending:
            # Fast path: the in-order range with no reassembly holes -- the
            # overwhelmingly common case on the per-segment hot path.
            data_ack = dsn + length
            self.data_ack = data_ack
            self.delivered_bytes += length
            return data_ack
        end = dsn + length
        if end <= self.data_ack:
            self.duplicate_bytes += length
            return self.data_ack
        if dsn < self.data_ack:
            # Partial overlap with already-delivered data.
            self.duplicate_bytes += self.data_ack - dsn
            length = end - self.data_ack
            dsn = self.data_ack
        if dsn in self._pending:
            self.duplicate_bytes += length
            return self.data_ack
        self._pending[dsn] = max(self._pending.get(dsn, 0), length)
        self._advance()
        return self.data_ack

    def _advance(self) -> None:
        while self.data_ack in self._pending:
            length = self._pending.pop(self.data_ack)
            self.data_ack += length
            self.delivered_bytes += length

    # ------------------------------------------------------------------
    @property
    def out_of_order_bytes(self) -> int:
        """Bytes received above the cumulative data ACK, waiting for holes."""
        return sum(self._pending.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DsnReassembler(data_ack={self.data_ack}, pending={len(self._pending)}, "
            f"duplicates={self.duplicate_bytes})"
        )
