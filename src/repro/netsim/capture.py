"""Receiver-side packet capture (the tshark substitute).

The paper captures the data stream with tshark at the destination node and
filters the captured packets by tag to determine how MPTCP split the traffic
among subflows.  :class:`PacketCapture` records one packet per delivery and
offers the same filter-then-bin workflow.

Storage is columnar: instead of one :class:`CaptureRecord` object per packet,
the capture appends to nine typed columns (time, size, payload_len, tag,
flow_id, subflow_id, flags, seq, dsn) backed by :mod:`array` buffers that
numpy can view zero-copy.  The record-oriented API (``records``, ``filter``)
is kept as a lazy view materialised on demand, so existing callers keep
working, while the measurement layer bins throughput directly from the
columns via :meth:`PacketCapture.columns`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .packet import Packet

#: Sentinel stored in the tag column for untagged (default-route) packets.
_NO_TAG = -1

#: Bit layout of the flags column.
_FLAG_ACK = 1
_FLAG_RETX = 2


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

    @property
    def is_ack(self) -> np.ndarray:
        return (self.flags & _FLAG_ACK) != 0

    @property
    def is_retransmission(self) -> np.ndarray:
        return (self.flags & _FLAG_RETX) != 0

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


class PacketCapture:
    """Collects per-packet records at a host, stored column-wise.

    Attach it with ``host.add_capture(capture.on_packet)`` or via
    :meth:`repro.netsim.network.Network.attach_capture`.
    """

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
        self._time = array("d")
        self._size = array("q")
        self._payload = array("q")
        self._tag = array("q")
        self._flow = array("q")
        self._subflow = array("q")
        self._flags = array("b")
        self._seq = array("q")
        self._dsn = array("q")
        # Bound append methods, hoisted once: on_packet runs per delivered
        # packet and must not pay nine attribute lookups each time.
        self._appenders = (
            self._time.append,
            self._size.append,
            self._payload.append,
            self._tag.append,
            self._flow.append,
            self._subflow.append,
            self._flags.append,
            self._seq.append,
            self._dsn.append,
        )
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
            # Before the first append: a row is nine columns or none.
            raise ValueError(f"negative path tags are reserved by the capture, got {tag}")
        a = self._appenders
        a[0](now)
        a[1](packet.size)
        a[2](packet.payload_len)
        a[3](tag)
        a[4](packet.flow_id)
        a[5](packet.subflow_id)
        a[6]((_FLAG_ACK if is_ack else 0) | (_FLAG_RETX if packet.is_retransmission else 0))
        a[7](packet.seq)
        a[8](packet.dsn)
        self._record_cache = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._time)

    def clear(self) -> None:
        for column in (
            self._time,
            self._size,
            self._payload,
            self._tag,
            self._flow,
            self._subflow,
            self._flags,
            self._seq,
            self._dsn,
        ):
            del column[:]
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

    def _all_columns(self) -> CaptureColumns:
        """Zero-copy numpy views over every captured packet.

        Internal use only: the views alias the append-mode buffers and must
        not outlive the calling method (appending while a view is alive is a
        BufferError).  Everything returned to callers is a compacted copy.
        """
        # np.frombuffer on an empty array buffer is fine (length 0).
        return CaptureColumns(
            time=np.frombuffer(self._time, dtype=np.float64),
            size=np.frombuffer(self._size, dtype=np.int64),
            payload_len=np.frombuffer(self._payload, dtype=np.int64),
            tag=np.frombuffer(self._tag, dtype=np.int64),
            flow_id=np.frombuffer(self._flow, dtype=np.int64),
            subflow_id=np.frombuffer(self._subflow, dtype=np.int64),
            flags=np.frombuffer(self._flags, dtype=np.int8),
            seq=np.frombuffer(self._seq, dtype=np.int64),
            dsn=np.frombuffer(self._dsn, dtype=np.int64),
        )

    @property
    def records(self) -> Tuple[CaptureRecord, ...]:
        """Record-oriented view, materialised lazily and cached.

        A read-only tuple: the columns are the storage, so mutating a record
        list could never feed back into ``len``/``filter``/binning.
        """
        cached = self._record_cache
        if cached is None:
            cached = tuple(self._materialize(range(len(self._time))))
            self._record_cache = cached
        return cached

    def _materialize(self, indices: Iterable[int]) -> List[CaptureRecord]:
        time_, size, payload = self._time, self._size, self._payload
        tag, flow, subflow = self._tag, self._flow, self._subflow
        flags, seq, dsn = self._flags, self._seq, self._dsn
        out = []
        for i in indices:
            t = tag[i]
            f = flags[i]
            out.append(
                CaptureRecord(
                    time=time_[i],
                    size=size[i],
                    payload_len=payload[i],
                    tag=None if t == _NO_TAG else t,
                    flow_id=flow[i],
                    subflow_id=subflow[i],
                    is_ack=bool(f & _FLAG_ACK),
                    seq=seq[i],
                    dsn=dsn[i],
                    is_retransmission=bool(f & _FLAG_RETX),
                )
            )
        return out

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
        if not len(self._time):
            return []
        cols = self._all_columns()
        mask = np.ones(len(cols), dtype=bool)
        if data_only:
            mask &= (cols.flags & _FLAG_ACK) == 0
        if tag is not None:
            mask &= cols.tag == tag
        if subflow_id is not None:
            mask &= cols.subflow_id == subflow_id
        if flow_id is not None:
            mask &= cols.flow_id == flow_id
        selected = self._materialize(np.flatnonzero(mask).tolist())
        if predicate is not None:
            selected = [record for record in selected if predicate(record)]
        return selected

    def tags(self) -> List[int]:
        """Distinct tags seen on captured data packets, sorted."""
        cols = self._all_columns()
        data_tags = cols.tag[((cols.flags & _FLAG_ACK) == 0) & (cols.tag != _NO_TAG)]
        return [int(t) for t in np.unique(data_tags)]

    def subflow_ids(self) -> List[int]:
        """Distinct subflow identifiers seen on captured data packets, sorted."""
        cols = self._all_columns()
        data_subflows = cols.subflow_id[(cols.flags & _FLAG_ACK) == 0]
        return [int(s) for s in np.unique(data_subflows)]

    def bytes_captured(self, *, data_only: bool = True) -> int:
        """Total wire bytes captured (data packets only by default)."""
        cols = self._all_columns()
        if data_only:
            return int(cols.size[(cols.flags & _FLAG_ACK) == 0].sum())
        return int(cols.size.sum())

    def payload_bytes(self, records: Optional[Iterable[CaptureRecord]] = None) -> int:
        """Total payload bytes across ``records`` (defaults to every record)."""
        if records is None:
            return int(self._all_columns().payload_len.sum())
        return sum(r.payload_len for r in records)

    def first_time(self) -> float:
        return self._time[0] if len(self._time) else 0.0

    def last_time(self) -> float:
        return self._time[-1] if len(self._time) else 0.0
