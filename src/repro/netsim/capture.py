"""Receiver-side packet capture (the tshark substitute).

The paper captures the data stream with tshark at the destination node and
filters the captured packets by tag to determine how MPTCP split the traffic
among subflows.  :class:`PacketCapture` records one packet per delivery and
offers the same filter-then-bin workflow.

Storage is one packed row per packet: instead of one :class:`CaptureRecord`
object each, the capture appends fixed 72-byte rows (time, size, payload_len,
tag, flow_id, subflow_id, flags, seq, dsn) to a single :class:`bytearray`
that numpy views zero-copy as a structured array.  The record-oriented API
(``records``, ``filter``) is kept as a lazy view materialised on demand, so
existing callers keep working, while the measurement layer bins throughput
directly from the columns via :meth:`PacketCapture.columns`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Tuple

import numpy as np

from .packet import Packet

#: Sentinel stored in the tag column for untagged (default-route) packets.
_NO_TAG = -1

#: Bit layout of the flags column.
_FLAG_ACK = 1
_FLAG_RETX = 2

#: One captured packet.  The layout is written once per language: this is the
#: Python one, ``CapRow`` in ``kernel/_ckernel.c`` the C one (the native tap
#: and the whole-window Scene write it), and a test holds their sizes equal.
_ROW = struct.Struct("=d5qb7x2q")
_pack_row = _ROW.pack


@dataclass(frozen=True)
class CaptureRecord:
    """One captured packet, as tshark would log it at the receiver."""

    time: float
    size: int
    payload_len: int
    tag: Optional[int]
    flow_id: int
    subflow_id: int
    is_ack: bool
    seq: int
    dsn: int
    is_retransmission: bool


@dataclass(frozen=True, eq=False)
class CaptureColumns:
    """A zero-copy columnar view of (a selection of) captured packets.

    All arrays share the same length; ``flags`` packs ``is_ack`` (bit 0) and
    ``is_retransmission`` (bit 1).  The ``tag`` column uses ``-1`` for
    untagged packets.
    """

    time: np.ndarray
    size: np.ndarray
    payload_len: np.ndarray
    tag: np.ndarray
    flow_id: np.ndarray
    subflow_id: np.ndarray
    flags: np.ndarray
    seq: np.ndarray
    dsn: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    def select(self, mask: np.ndarray) -> "CaptureColumns":
        """The sub-view of rows where ``mask`` is True."""
        return CaptureColumns(
            time=self.time[mask],
            size=self.size[mask],
            payload_len=self.payload_len[mask],
            tag=self.tag[mask],
            flow_id=self.flow_id[mask],
            subflow_id=self.subflow_id[mask],
            flags=self.flags[mask],
            seq=self.seq[mask],
            dsn=self.dsn[mask],
        )


#: :data:`_ROW` as numpy reads it: the fields of :class:`CaptureColumns`,
#: naturally aligned (which is where ``7x`` puts the padding).
_ROW_DTYPE = np.dtype(
    list(
        zip(
            (field.name for field in fields(CaptureColumns)),
            ("f8", "i8", "i8", "i8", "i8", "i8", "i1", "i8", "i8"),
        )
    ),
    align=True,
)


class PacketCapture:
    """Collects per-packet records at a host, stored as packed rows.

    Attach it with ``host.add_capture(capture.on_packet)`` or via
    :meth:`repro.netsim.network.Network.attach_capture`.  On the compiled
    kernel a host runs the stock ``on_packet`` of an exact ``PacketCapture``
    in C over these slots (``nl_capture`` in ``kernel/_ckernel.c``: keep the
    two in sync); a subclass's or any other tap is called.
    """

    __slots__ = ("name", "data_only", "flow_id", "_rows", "_record_cache")

    def __init__(
        self,
        name: str = "capture",
        *,
        data_only: bool = False,
        flow_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.data_only = data_only
        #: When set, only packets of this flow are recorded (a per-flow tap,
        #: the equivalent of a tshark capture filter on one connection).
        self.flow_id = flow_id
        self._rows = bytearray()
        self._record_cache: Optional[Tuple[CaptureRecord, ...]] = None

    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> None:
        """Capture tap compatible with :meth:`Host.add_capture`."""
        is_ack = packet.is_ack
        if is_ack and self.data_only:
            return
        if self.flow_id is not None and packet.flow_id != self.flow_id:
            return
        tag = packet.tag
        if tag is None:
            tag = _NO_TAG
        elif tag < 0:
            raise ValueError(f"negative path tags are reserved by the capture, got {tag}")
        self._rows += _pack_row(
            now,
            packet.size,
            packet.payload_len,
            tag,
            packet.flow_id,
            packet.subflow_id,
            (_FLAG_ACK if is_ack else 0) | (_FLAG_RETX if packet.is_retransmission else 0),
            packet.seq,
            packet.dsn,
        )
        self._record_cache = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def clear(self) -> None:
        del self._rows[:]
        self._record_cache = None

    # ------------------------------------------------------------------ views
    def columns(
        self,
        *,
        tag: Optional[int] = None,
        subflow_id: Optional[int] = None,
        flow_id: Optional[int] = None,
        data_only: bool = True,
    ) -> CaptureColumns:
        """A columnar view of the records matching the given filters.

        The arrays are numpy views over the capture's internal buffers when
        no filter applies, and fresh compacted arrays otherwise.  This is the
        fast path used by the measurement layer.
        """
        cols = self._all_columns()
        mask = None
        if data_only:
            mask = (cols.flags & _FLAG_ACK) == 0
        if tag is not None:
            part = cols.tag == tag
            mask = part if mask is None else (mask & part)
        if subflow_id is not None:
            part = cols.subflow_id == subflow_id
            mask = part if mask is None else (mask & part)
        if flow_id is not None:
            part = cols.flow_id == flow_id
            mask = part if mask is None else (mask & part)
        if mask is None:
            # The internal views alias the growable buffers; a view escaping
            # this class would make later appends raise BufferError, so hand
            # out compacted copies instead.
            mask = np.ones(len(cols), dtype=bool)
        return cols.select(mask)

    def _view(self) -> np.ndarray:
        """Every captured packet as one zero-copy structured array.

        Internal use only: the view aliases the append-mode buffer and must
        not outlive the calling method (appending while a view is alive is a
        BufferError).  Everything returned to callers is a compacted copy.
        """
        # np.frombuffer on an empty buffer is fine (length 0).
        return np.frombuffer(self._rows, dtype=_ROW_DTYPE)

    def _all_columns(self) -> CaptureColumns:
        """:meth:`_view` by field; the same aliasing rule applies."""
        rows = self._view()
        return CaptureColumns(*(rows[name] for name in _ROW_DTYPE.names))

    @property
    def records(self) -> Tuple[CaptureRecord, ...]:
        """Record-oriented view, materialised lazily and cached.

        A read-only tuple: the rows are the storage, so mutating a record
        list could never feed back into ``len``/``filter``/binning.
        """
        cached = self._record_cache
        if cached is None:
            cached = tuple(self._materialize(self._view()))
            self._record_cache = cached
        return cached

    @staticmethod
    def _materialize(rows: np.ndarray) -> List[CaptureRecord]:
        return [
            CaptureRecord(
                time=time_,
                size=size,
                payload_len=payload,
                tag=None if tag == _NO_TAG else tag,
                flow_id=flow,
                subflow_id=subflow,
                is_ack=bool(flags & _FLAG_ACK),
                seq=seq,
                dsn=dsn,
                is_retransmission=bool(flags & _FLAG_RETX),
            )
            for time_, size, payload, tag, flow, subflow, flags, seq, dsn in rows.tolist()
        ]

    # ------------------------------------------------------------------
    def filter(
        self,
        *,
        tag: Optional[int] = None,
        subflow_id: Optional[int] = None,
        flow_id: Optional[int] = None,
        data_only: bool = True,
        predicate: Optional[Callable[[CaptureRecord], bool]] = None,
    ) -> List[CaptureRecord]:
        """Return records matching the given filters (tshark display filter)."""
        if not self._rows:
            return []
        rows = self._view()
        mask = np.ones(len(rows), dtype=bool)
        if data_only:
            mask &= (rows["flags"] & _FLAG_ACK) == 0
        if tag is not None:
            mask &= rows["tag"] == tag
        if subflow_id is not None:
            mask &= rows["subflow_id"] == subflow_id
        if flow_id is not None:
            mask &= rows["flow_id"] == flow_id
        selected = self._materialize(rows[mask])
        if predicate is not None:
            selected = [record for record in selected if predicate(record)]
        return selected

    def tags(self) -> List[int]:
        """Distinct tags seen on captured data packets, sorted."""
        cols = self._all_columns()
        data_tags = cols.tag[((cols.flags & _FLAG_ACK) == 0) & (cols.tag != _NO_TAG)]
        return [int(t) for t in np.unique(data_tags)]
