"""Unit conversions and protocol constants used throughout the library.

All internal quantities use SI base units:

* time       -- seconds (float)
* data size  -- bytes (int)
* data rate  -- bits per second (float)

The helpers below convert the human-friendly units that appear in the paper
(Mbps link capacities and throughputs, milliseconds in reports) into those
base units and back.
"""

from __future__ import annotations

BITS_PER_BYTE = 8

#: Maximum segment size (TCP payload bytes per segment).
DEFAULT_MSS = 1400

#: Bytes of overhead per data packet (Ethernet + IP + TCP + MPTCP DSS option).
HEADER_SIZE = 60

#: Size in bytes of a pure acknowledgement packet.
ACK_SIZE = 60

#: Default one-way propagation delay per link, in seconds (1 ms).
DEFAULT_LINK_DELAY = 0.001

#: Default drop-tail queue size, in packets.
DEFAULT_QUEUE_PACKETS = 100

#: Default link capacity in Mbps when a topology does not specify one
#: (the paper: "the capacities are written next to the links unless they are
#: the default 100").
DEFAULT_CAPACITY_MBPS = 100.0

#: Simulation fidelities a configuration's ``backend`` can select: per-packet
#: ground truth, or the flow-level engine of :mod:`repro.flowsim`.
BACKENDS = ("packet", "flowlevel")


def mbps(value: float) -> float:
    """Convert megabits per second to bits per second."""
    return float(value) * 1_000_000.0


def to_mbps(bits_per_second: float) -> float:
    """Convert bits per second to megabits per second."""
    return float(bits_per_second) / 1_000_000.0


def to_milliseconds(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return float(seconds) * 1_000.0


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a byte count to bits."""
    return float(num_bytes) * BITS_PER_BYTE


def transmission_time(size_bytes: float, rate_bps: float) -> float:
    """Serialisation delay of ``size_bytes`` on a link of ``rate_bps``."""
    if rate_bps <= 0:
        raise ValueError("link rate must be positive, got %r" % rate_bps)
    return bytes_to_bits(size_bytes) / float(rate_bps)


def throughput_mbps(num_bytes: float, duration: float) -> float:
    """Average throughput in Mbps of ``num_bytes`` delivered over ``duration`` seconds."""
    if duration <= 0:
        return 0.0
    return to_mbps(bytes_to_bits(num_bytes) / duration)
