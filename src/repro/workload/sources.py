"""Packet-level traffic sources: CBR UDP and on-off bursts.

These are the *open-ended* traffic generators -- rate configured outright --
as opposed to the greedy (MP)TCP bulk transfers of the experiment harness and
the sized request/response transfers the rest of this package compiles from a
:class:`~repro.workload.spec.WorkloadSpec`:

* :class:`UdpConstantBitRate` / :class:`UdpSink` -- non-responsive
  cross-traffic at a fixed rate;
* :class:`OnOffSource` -- deterministic bursty cross-traffic built on the
  CBR source.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import ConfigurationError
from ..netsim.network import Network
from ..netsim.packet import Packet, acquire as _acquire_packet
from ..units import DEFAULT_MSS, HEADER_SIZE, mbps, throughput_mbps

_udp_flow_ids = itertools.count(50000)


# ------------------------------------------------------------------------ udp
class UdpSink:
    """Counts the datagrams delivered to it."""

    def __init__(self) -> None:
        self.packets_received = 0
        self.bytes_received = 0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None

    def handle_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.payload_len
        if self.first_arrival is None:
            self.first_arrival = packet.created_at
        self.last_arrival = packet.created_at
        packet.release()

    def throughput_mbps(self) -> float:
        if self.first_arrival is None or self.last_arrival is None:
            return 0.0
        duration = max(self.last_arrival - self.first_arrival, 1e-9)
        return throughput_mbps(self.bytes_received, duration)


class UdpConstantBitRate:
    """A CBR source sending ``rate_mbps`` towards a destination host.

    Packets are paced at a fixed inter-departure time; losses are ignored
    (there is no feedback), which is exactly the non-responsive cross-traffic
    used to stress congestion-control experiments.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rate_mbps: float,
        *,
        tag: Optional[int] = None,
        packet_size: int = DEFAULT_MSS,
        flow_id: Optional[int] = None,
    ) -> None:
        if rate_mbps <= 0:
            raise ConfigurationError("UDP rate must be positive")
        self.network = network
        self.src_host = network.host(src)
        self.dst = dst
        self.rate_bps = mbps(rate_mbps)
        self.tag = tag
        self.packet_size = packet_size
        self.flow_id = flow_id if flow_id is not None else next(_udp_flow_ids)
        self.sink = UdpSink()
        network.host(dst).register_agent(self.flow_id, 0, self.sink)
        self.packets_sent = 0
        self._stop_at: Optional[float] = None
        self._interval = (packet_size + HEADER_SIZE) * 8.0 / self.rate_bps

    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Begin sending at time ``at``; optionally stop at ``stop_at``."""
        self._stop_at = stop_at
        self.network.sim.schedule_at(at, self._send_next)

    def _send_next(self) -> None:
        now = self.network.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return
        packet = _acquire_packet(
            self.src_host.name,
            self.dst,
            self.packet_size + HEADER_SIZE,
            self.tag,
            self.flow_id,
            0,  # subflow_id
            "udp",
            self.packets_sent,
            self.packet_size,
            False,  # is_ack
            0,  # ack
            0,  # dsn
            0,  # dack
            False,  # is_retransmission
            (),  # sack_blocks
            -1.0,  # ts_echo
            now,
        )
        self.packets_sent += 1
        self.src_host.send(packet)
        self.network.sim.schedule(self._interval, self._send_next)


# --------------------------------------------------------------------- on-off
class OnOffSource:
    """Deterministic on-off UDP traffic.

    Alternates deterministic ON periods (sending at a configured rate) and
    OFF periods (silent); used to study how bursty cross-traffic on a shared
    bottleneck perturbs MPTCP's search for the optimal rate split.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rate_mbps: float,
        *,
        on_duration: float = 0.5,
        off_duration: float = 0.5,
        tag: Optional[int] = None,
        packet_size: int = 1400,
        flow_id: Optional[int] = None,
    ) -> None:
        if on_duration <= 0 or off_duration < 0:
            raise ConfigurationError("on_duration must be positive and off_duration non-negative")
        self.network = network
        self.on_duration = on_duration
        self.off_duration = off_duration
        self._cbr = UdpConstantBitRate(
            network, src, dst, rate_mbps, tag=tag, packet_size=packet_size, flow_id=flow_id
        )
        self._stop_at: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def sink(self) -> UdpSink:
        return self._cbr.sink

    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Begin the on-off pattern at ``at``; stop entirely at ``stop_at``."""
        self._stop_at = stop_at
        self.network.sim.schedule_at(at, self._begin_on_period)

    def _begin_on_period(self) -> None:
        now = self.network.sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return
        burst_end = now + self.on_duration
        if self._stop_at is not None:
            burst_end = min(burst_end, self._stop_at)
        self._cbr.start(at=now, stop_at=burst_end)
        self.network.sim.schedule(self.on_duration + self.off_duration, self._begin_on_period)
