"""Per-subflow and per-connection statistics extracted from a finished run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.connection import MptcpConnection
from ..core.subflow import Subflow
from ..units import to_milliseconds


@dataclass
class SubflowStats:
    """Summary of one subflow after a run."""

    subflow_id: int
    name: str
    tag: Optional[int]
    is_default: bool
    bytes_acked: int
    mean_throughput_mbps: float
    retransmissions: int
    timeouts: int
    fast_retransmits: int
    final_cwnd_segments: float
    srtt_ms: Optional[float]


@dataclass
class ConnectionStats:
    """Summary of an MPTCP connection after a run."""

    congestion_control: str
    scheduler: str
    duration: float
    bytes_delivered: int
    total_throughput_mbps: float
    retransmissions: int
    duplicate_bytes: int
    subflows: List[SubflowStats]


def subflow_stats(subflow: Subflow, now: float) -> SubflowStats:
    """Extract a :class:`SubflowStats` snapshot from a live subflow."""
    sender = subflow.sender
    return SubflowStats(
        subflow_id=subflow.subflow_id,
        name=subflow.name,
        tag=subflow.tag,
        is_default=subflow.is_default,
        bytes_acked=subflow.acked_bytes,
        mean_throughput_mbps=subflow.mean_throughput_mbps(now),
        retransmissions=sender.stats.retransmissions if sender else 0,
        timeouts=sender.stats.timeouts if sender else 0,
        fast_retransmits=sender.stats.fast_retransmits if sender else 0,
        final_cwnd_segments=subflow.cwnd_segments,
        srtt_ms=None if subflow.srtt is None else to_milliseconds(subflow.srtt),
    )


def connection_stats(connection: MptcpConnection, duration: float) -> ConnectionStats:
    """Extract a :class:`ConnectionStats` summary from a finished connection."""
    now = connection.network.sim.now
    return ConnectionStats(
        congestion_control=connection.congestion_control_name,
        scheduler=connection.scheduler.name,
        duration=duration,
        bytes_delivered=connection.bytes_delivered,
        total_throughput_mbps=connection.total_throughput_mbps(duration),
        retransmissions=connection.total_retransmissions(),
        duplicate_bytes=connection.reassembler.duplicate_bytes,
        subflows=[subflow_stats(sf, now) for sf in connection.subflows],
    )
