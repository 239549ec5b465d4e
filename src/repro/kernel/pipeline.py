"""Native-scene bypass for :meth:`repro.netsim.network.Network.run`.

Every scene on a ``KernelSim`` already runs its link events and its TCP
agents in C, calling Python per event for congestion control, data providers,
taps and queue policy (``_ckernel.c``, "native links" and "native
transport").  This module is the step beyond that for the scenes that need no
Python at all: the whole simulation window is handed to the C extension --
the network's current state (clock, pending events, links, queues, TCP
agents, captures) is imported into a native ``Scene``, the window runs
entirely in C, and the final state is copied back onto the Python objects.
It only understands static links with drop-tail queues, single-path TCP
senders over bulk transfers, Reno or Cubic, no ECN, tag/static routing, on
the ``KernelSim`` that :class:`Network` builds when the compiled kernel is
active -- and it is frozen at that: MPTCP, AQM/ECN and dynamics scenes get
their speed from the native links and agents, not from a larger ``Scene``.
The Scene has no transport of its own: its senders and receivers run the
same C bodies as the native agents (``_transport.h``), over structs instead
of slots, so the state tables below name each window, estimator and counter
field as the Python attribute it mirrors.

The contract is **observable state**.  After a native window these match
the pure-Python run bit for bit: result JSON, capture rows,
link/queue/node/agent stats, RTT/CC/SACK/recovery state, the fields of
in-flight and queued packets, pending events with their ``(time, seq)``,
and the simulator's ``now``/``_seq``/``events_processed``.  Not preserved,
because no result can see them: hop caches and agents' route memos (later
windows refill them lazily), packet ids (rebuilt packets take fresh ids
from the counter and are never pooled) and allocator pools.

Anything else -- dynamic links, UDP or MPTCP agents, custom callbacks in
the event heap, mid-flight state from an earlier window, a pinned Python
``Simulator`` -- makes the scene ineligible: :func:`run_network` returns
``None``, the caller falls back to the event loop, and
``network.bypass_outcome`` says why (``"native"`` after a native window).
Pending link events cross the boundary as what they are on either kernel,
``link._deliver`` / ``link._serve_queue``: ``_export_entries`` shows a
native heap entry as that bound method and ``_push_entry`` turns it back
into a native entry, so the window after a native one delivers the rebuilt
in-flight packets without a Python frame.
Eligibility is checked conservatively with exact type tests
(``sim.link_type``, ``sim.sender_type``, ``sim.receiver_type``: what the
stock constructors build on this simulator), so a subclass with changed
behaviour can never be captured by the native fast path.
"""

from __future__ import annotations

import math
from collections import deque
from operator import attrgetter
from typing import Optional

from ..netsim.capture import PacketCapture
from ..netsim.node import Host, Router
from ..netsim.packet import Packet
from ..netsim.queues import DropTailQueue
from ..netsim.routing import StaticRoutingTable, TagRoutingTable
from ..tcp.connection import BulkDataAdapter
from ..tcp.cc.cubic import CubicCongestionControl
from ..tcp.cc.reno import RenoCongestionControl
from ..tcp.rtt import RttEstimator
from ..tcp.sender import TcpSender, _SegmentInfo
from . import _mode

#: ``tag`` is Optional[int] on the Python side; the native scene stores
#: int64, so None maps to a sentinel no real tag can collide with.
_NO_TAG = -(1 << 60)


def _tag_c(tag) -> Optional[int]:
    """Python tag -> C tag, or None when the tag is not representable."""
    if tag is None:
        return _NO_TAG
    if type(tag) is not int or not (-(1 << 59) < tag < (1 << 59)):
        return None
    return tag


def _tag_py(tag: int):
    return None if tag == _NO_TAG else tag


# ---------------------------------------------------------------- state tables
# One row per scene key: (key, owner path from the record's Python object,
# attribute[, (to_scene, from_scene)]).  The same rows drive the import in
# _build_scene and the copy in _write_back; the C side has the matching
# table beside each struct (_ckernel.c "state tables").  *_CONFIG rows are
# imported only: the scene never changes them.

#: Optional[float] travels as NaN (the scene tests isnan where Python tests None).
_OPT = (lambda v: math.nan if v is None else v, lambda v: None if v != v else v)
#: BulkDataAdapter.total_bytes: None (unbounded) is -1 in the scene.
_UNBOUNDED = (lambda v: -1 if v is None else v, None)


def _table(*rows):
    return tuple(
        (key, attrgetter(owner) if owner else None, attr, codec[0] if codec else None)
        for key, owner, attr, *codec in rows
    )


def _read(obj, *tables, **state) -> dict:
    """Scene state dict of ``obj``: the tables' rows on top of ``state``."""
    for table in tables:
        for key, owner, attr, codec in table:
            value = getattr(owner(obj) if owner else obj, attr)
            state[key] = codec[0](value) if codec else value
    return state


def _write(obj, table, state: dict) -> None:
    for key, owner, attr, codec in table:
        value = state[key]
        setattr(owner(obj) if owner else obj, attr, codec[1](value) if codec else value)


_NODE_STATE = _table(
    ("received", "stats", "received"),
    ("forwarded", "stats", "forwarded"),
    ("delivered", "stats", "delivered"),
    ("routing_drops", "stats", "routing_drops"),
)

_LINK_CONFIG = _table(
    ("rate_bps", "", "rate_bps"),
    ("delay", "", "delay"),
    ("qcap", "queue", "capacity_packets"),
)
_LINK_STATE = _table(
    ("busy_until", "", "_busy_until"),
    ("serving", "", "_serving"),
    ("serve_at", "", "_serve_at"),
    ("pkts_sent", "stats", "packets_sent"),
    ("bytes_sent", "stats", "bytes_sent"),
    ("pkts_dropped", "stats", "packets_dropped"),
    ("busy_time", "stats", "busy_time"),
    ("q_enqueued", "queue.stats", "enqueued"),
    ("q_dequeued", "queue.stats", "dequeued"),
    ("q_dropped", "queue.stats", "dropped"),
    ("q_bytes_enqueued", "queue.stats", "bytes_enqueued"),
    ("q_bytes_dropped", "queue.stats", "bytes_dropped"),
    ("q_max_depth", "queue.stats", "max_depth"),
    ("qbytes", "queue", "_bytes"),
)

_SENDER_CONFIG = _table(
    ("flow", "", "flow_id"),
    ("subflow", "", "subflow_id"),
    ("mss", "", "mss"),
    ("total_bytes", "data_provider", "total_bytes", _UNBOUNDED),
    ("alpha", "rtt", "alpha"),
    ("beta", "rtt", "beta"),
    ("min_rto", "rtt", "min_rto"),
    ("max_rto", "rtt", "max_rto"),
    ("cc_mss", "cc", "mss"),
    ("closed", "", "closed"),
)
_SENDER_STATE = _table(
    ("offset", "data_provider", "offset"),
    ("prov_acked", "data_provider", "acked_bytes"),
    ("prov_last_ack", "data_provider", "last_ack_time"),
    ("srtt", "rtt", "srtt", _OPT),
    ("rttvar", "rtt", "rttvar", _OPT),
    ("min_rtt", "rtt", "min_rtt", _OPT),
    ("latest_rtt", "rtt", "latest_rtt", _OPT),
    ("samples", "rtt", "samples"),
    ("_rto", "rtt", "_rto"),
    ("cwnd", "cc", "cwnd"),
    ("ssthresh", "cc", "ssthresh"),
    ("cc_srtt", "cc", "srtt"),
    ("losses", "cc", "losses"),
    ("cc_timeouts", "cc", "timeouts"),
    ("acked_total", "cc", "acked_bytes_total"),
    ("snd_una", "", "snd_una"),
    ("snd_nxt", "", "snd_nxt"),
    ("_sacked_bytes", "", "_sacked_bytes"),
    ("_lost_pending_bytes", "", "_lost_pending_bytes"),
    ("_dupacks", "", "_dupacks"),
    ("_in_fast_recovery", "", "_in_fast_recovery"),
    ("_recover", "", "_recover"),
    ("_rto_deadline", "", "_rto_deadline"),
    ("_rto_fire_at", "", "_rto_fire_at"),
    ("_rto_backoff", "", "_rto_backoff"),
    ("_started", "", "_started"),
    ("st_segments_sent", "stats", "segments_sent"),
    ("st_bytes_sent", "stats", "bytes_sent"),
    ("st_bytes_acked", "stats", "bytes_acked"),
    ("st_retransmissions", "stats", "retransmissions"),
    ("st_fast_retransmits", "stats", "fast_retransmits"),
    ("st_timeouts", "stats", "timeouts"),
    ("st_dupacks", "stats", "dupacks"),
)
#: Reno senders import these as zeros and never copy them back.
_CUBIC_CONFIG = _table(
    ("fast_conv", "cc", "fast_convergence"),
    ("tcp_friendly", "cc", "tcp_friendliness"),
    ("hystart", "cc", "hystart"),
)
_CUBIC_STATE = _table(
    ("w_max", "cc", "_w_max"),
    ("k", "cc", "_k"),
    ("epoch_start", "cc", "_epoch_start", _OPT),
    ("w_est", "cc", "_w_est"),
    ("acks_in_epoch", "cc", "_acks_in_epoch"),
    ("cc_min_rtt", "cc", "_min_rtt", _OPT),
)

_RECEIVER_CONFIG = _table(
    ("flow", "", "flow_id"),
    ("subflow", "", "subflow_id"),
    ("ack_size", "", "ack_size"),
)
_RECEIVER_STATE = _table(
    ("rcv_nxt", "", "rcv_nxt"),
    ("_last_dack", "", "_last_dack"),
    ("st_segments_received", "stats", "segments_received"),
    ("st_bytes_received", "stats", "bytes_received"),
    ("st_duplicates", "stats", "duplicates"),
    ("st_out_of_order", "stats", "out_of_order"),
    ("st_acks_sent", "stats", "acks_sent"),
)


# ----------------------------------------------------------------- eligibility
class _Ineligible(Exception):
    """Internal control flow: scene cannot be represented natively."""


def _require(cond, who: str, why: str) -> None:
    if not cond:
        raise _Ineligible(f"{who}: {why}")


def _int64(value, who: str, what: str) -> None:
    _require(type(value) is int and -(1 << 62) < value < (1 << 62), who, f"{what} is not an int64")


def _probe_route(network, routing, who: str, src_name: str, dst_name: str, tag):
    """Resolve the full hop sequence ``src -> dst`` for ``(dst, tag)``.

    Returns a list of ``(node_name, link)`` pairs (the link taken *from*
    each node).  The probe packet only carries the fields the eligible
    routing tables consult (``dst``/``tag``), so no packet id is consumed.
    """
    probe = Packet.__new__(Packet)
    probe.dst = dst_name
    probe.tag = tag
    hops = []
    current = src_name
    for _ in range(len(network.nodes) + 1):
        if current == dst_name:
            _require(hops, who, "peer is its own host")
            return hops
        next_hop = routing.next_hop(current, probe)
        link = None if next_hop is None else network.nodes[current].links.get(next_hop)
        _require(link is not None, who, f"no route from {current} to {dst_name}")
        hops.append((current, link))
        current = next_hop
    raise _Ineligible(f"{who}: routing loop towards {dst_name}")


class _Plan:
    """Everything resolved during the eligibility walk, for the write-back."""

    def __init__(self) -> None:
        self.node_list = []
        self.node_idx = {}
        self.hosts = []
        self.link_list = []
        self.link_idx = {}
        self.senders = []  # (sender, hops)
        self.receivers = []  # (receiver, hops)
        self.captures = []  # PacketCapture, aligned with scene capture index
        self.start_events = []  # (t, seq, sender index)
        self.cancelled = []  # (t, seq)


def _plan_scene(network, sim, entries) -> _Plan:
    """Validate eligibility and collect the import plan (raises _Ineligible)."""
    plan = _Plan()
    routing = network.routing
    _require(
        type(routing) in (TagRoutingTable, StaticRoutingTable) and routing.hop_cache_safe(),
        "routing",
        f"{type(routing).__name__} is not a stock tag/static table",
    )

    now = sim.now
    for name, node in network.nodes.items():
        who = f"node {name}"
        _require(type(node) in (Host, Router), who, f"is a {type(node).__name__}")
        _require(node.routing is routing and node.sim is sim, who, "foreign routing or simulator")
        _require(node._hop_cache is not None, who, "hop cache disabled")
        plan.node_idx[name] = len(plan.node_list)
        plan.node_list.append(node)

    for link in network.links.values():
        who = f"link {link.src.name}->{link.dst.name}"
        stock = type(link) is sim.link_type and link.sim is sim
        _require(stock, who, "not a stock Link on this simulator")
        static = link.up and not link._impaired and not link._dynamic
        _require(static, who, "down, impaired or dynamic")
        _require(not link._deadlines, who, "impairment deadlines pending")
        _require(not link._serving and link._busy_until <= now, who, "transmitter busy")
        _require(not link._in_flight, who, "packets in flight")
        _require(type(link.queue) is DropTailQueue, who, f"queue is {type(link.queue).__name__}")
        _require(not link.queue._queue, who, "packets queued")
        _require(
            link.src.name in plan.node_idx and link.dst.name in plan.node_idx,
            who,
            "endpoint outside the network",
        )
        plan.link_idx[id(link)] = len(plan.link_list)
        plan.link_list.append(link)

    # Transport agents: quiescent single-path TCP endpoints only.
    sender_idx = {}
    plan.hosts = hosts = [node for node in plan.node_list if isinstance(node, Host)]
    for node in hosts:
        for agent in node._agents.values():
            atype = type(agent)
            is_tcp = atype in (sim.sender_type, sim.receiver_type)
            _require(is_tcp, f"agent on {node.name}", f"is not a stock {atype.__name__}")
            is_sender = atype is sim.sender_type
            who = f"{'sender' if is_sender else 'receiver'} {node.name}#{agent.flow_id}"
            _require(agent.host is node and agent.sim is sim, who, "foreign host or simulator")
            _require(agent._route_enabled, who, "route memo disabled")
            _require(_tag_c(agent.tag) is not None, who, "tag is not an int64")
            _int64(agent.flow_id, who, "flow_id")
            _int64(agent.subflow_id, who, "subflow_id")
            if is_sender:
                bulk = type(agent.data_provider) is BulkDataAdapter
                _require(bulk, who, "data provider is not a bulk transfer")
                _require(type(agent.rtt) is RttEstimator, who, "custom RTT estimator")
                _require(
                    type(agent.cc) in (RenoCongestionControl, CubicCongestionControl),
                    who,
                    f"congestion control is {type(agent.cc).__name__}",
                )
                _require(
                    agent.snd_una == agent.snd_nxt and not agent._segments and not agent._seg_queue,
                    who,
                    "segments in flight",
                )
                _require(agent._rto_event is None, who, "retransmission timer armed")
                _require(
                    not agent._in_fast_recovery
                    and agent._sacked_bytes == 0
                    and agent._lost_pending_bytes == 0,
                    who,
                    "loss recovery in progress",
                )
                _require(agent.on_idle is None, who, "on_idle callback set")
                _require(not agent.ecn, who, "ECN-capable (the scene's packets carry no ECT)")
                _require(not agent.closed and not agent.path_down, who, "closed or path down")
                _require(agent.dst in plan.node_idx, who, f"unknown destination {agent.dst}")
                total = agent.data_provider.total_bytes
                _require(total is None or type(total) is int, who, "total_bytes is not an int")
                sender_idx[id(agent)] = len(plan.senders)
                hops = _probe_route(network, routing, who, node.name, agent.dst, agent.tag)
                plan.senders.append((agent, hops))
            else:
                _require(agent.connection_sink is None, who, "feeds a connection-level sink")
                _require(agent.peer in plan.node_idx, who, f"unknown peer {agent.peer}")
                for seq, (length, dsn) in agent._out_of_order.items():
                    for value in (seq, length, dsn):
                        _int64(value, who, "out-of-order entry")
                hops = _probe_route(network, routing, who, node.name, agent.peer, agent.tag)
                plan.receivers.append((agent, hops))

    # Captures: stock PacketCapture taps only.
    for node in hosts:
        for cb in node._captures:
            who = f"capture on {node.name}"
            _require(
                getattr(cb, "__func__", None) is PacketCapture.on_packet
                and type(cb.__self__) is PacketCapture,
                who,
                "not a stock PacketCapture tap",
            )
            flow_id = cb.__self__.flow_id
            _require(flow_id is None or type(flow_id) is int, who, "flow filter is not an int")

    # Pending events: only cancelled entries and TcpSender.start handles.
    for t, seq, cb, cb_args in entries:
        if cb is None:
            plan.cancelled.append((t, seq))
            continue
        _require(
            getattr(cb, "__func__", None) is TcpSender.start
            and cb_args == ()
            and id(cb.__self__) in sender_idx,
            f"event at t={t}",
            f"pending {getattr(cb, '__qualname__', cb)!s} is not a sender start",
        )
        plan.start_events.append((t, seq, sender_idx[id(cb.__self__)]))

    return plan


# ---------------------------------------------------------------- import / run
def _build_scene(ext, plan):
    from ..units import HEADER_SIZE

    scene = ext.Scene(header_size=HEADER_SIZE)
    node_idx, link_idx = plan.node_idx, plan.link_idx
    for node in plan.node_list:
        scene.add_node(_read(node, _NODE_STATE))
    for link in plan.link_list:
        scene.add_link(_read(link, _LINK_CONFIG, _LINK_STATE, dst=node_idx[link.dst.name]))

    # Forwarding entries: every intermediate hop of every probed route.
    # The packet's destination terminates the walk; every node before it
    # (except the origin, which sends via its own first hop) forwards
    # through its probed link.
    fwd_seen = set()
    for agent, hops in plan.senders + plan.receivers:
        dst_idx = node_idx[agent.dst if isinstance(agent, TcpSender) else agent.peer]
        tag_c = _tag_c(agent.tag)
        for node_name, link in hops[1:]:
            key = (node_idx[node_name], dst_idx, tag_c)
            if key not in fwd_seen:
                fwd_seen.add(key)
                scene.add_fwd(key[0], dst_idx, tag_c, link_idx[id(link)])

    # Captures (deduped: one scene capture per PacketCapture object).
    cap_idx_by_id = {}
    for node in plan.hosts:
        for cb in node._captures:
            cap = cb.__self__
            idx = cap_idx_by_id.get(id(cap))
            if idx is None:
                idx = scene.add_capture(
                    cap.data_only,
                    cap.flow_id is not None,
                    -1 if cap.flow_id is None else cap.flow_id,
                )
                cap_idx_by_id[id(cap)] = idx
                plan.captures.append(cap)
            scene.attach_capture(node_idx[node.name], idx)

    cubic_rows = _CUBIC_CONFIG + _CUBIC_STATE
    for snd, hops in plan.senders:
        cubic = type(snd.cc) is CubicCongestionControl
        state = _read(
            snd,
            _SENDER_CONFIG,
            _SENDER_STATE,
            cubic_rows if cubic else (),
            host=node_idx[snd.host.name],
            dst=node_idx[snd.dst],
            tag=_tag_c(snd.tag),
            route_link=link_idx[id(hops[0][1])],
            cc_kind=ext.CC_CUBIC if cubic else ext.CC_RENO,
        )
        if not cubic:
            state.update(dict.fromkeys((row[0] for row in cubic_rows), 0))
        scene.add_sender(state)

    for rcv, hops in plan.receivers:
        state = _read(
            rcv,
            _RECEIVER_CONFIG,
            _RECEIVER_STATE,
            host=node_idx[rcv.host.name],
            peer=node_idx[rcv.peer],
            tag=_tag_c(rcv.tag),
            route_link=link_idx[id(hops[0][1])],
        )
        ooo = [(seq, length, dsn) for seq, (length, dsn) in sorted(rcv._out_of_order.items())]
        scene.add_receiver(state, ooo)

    for t, seq in plan.cancelled:
        scene.add_event(ext.EV_CANCELLED, t, seq, 0)
    for t, seq, sender in plan.start_events:
        scene.add_event(ext.EV_START, t, seq, sender)
    return scene


def _mk_packet(d: dict, node_list) -> Packet:
    # Rebuilt wire/queue packets were pool-acquired in the Python run, but
    # re-pooling them here could alias a live object if the caller keeps a
    # reference; the plain constructor (never pooled) is the safe subset.
    p = Packet(
        node_list[d["src"]].name,
        node_list[d["dst"]].name,
        d["size"],
        tag=_tag_py(d["tag"]),
        flow_id=d["flow"],
        subflow_id=d["subflow"],
        seq=d["seq"],
        payload_len=d["payload"],
        is_ack=bool(d["is_ack"]),
        ack=d["ack"],
        dsn=d["dsn"],
        dack=d["dack"],
        is_retransmission=bool(d["is_retx"]),
        sack_blocks=d["sack"],
        ts_echo=d["ts_echo"],
        created_at=d["created_at"],
    )
    p.enqueued_at = d["enqueued_at"]
    p.hops = d["hops"]
    return p


def _write_back(ext, sim, plan, scene, clock) -> float:
    for i, (snd, _hops) in enumerate(plan.senders):
        st = scene.export_sender(i)
        _write(snd, _SENDER_STATE, st)
        if type(snd.cc) is CubicCongestionControl:
            _write(snd, _CUBIC_STATE, st)
        segments = {}
        for sseq, length, dsn, sent_at, retx, sacked, lost, lostp, rir in st["segments"]:
            info = _SegmentInfo(sseq, length, dsn, sent_at)
            info.retransmitted = bool(retx)
            info.sacked = bool(sacked)
            info.lost = bool(lost)
            info.lost_pending = bool(lostp)
            info.retx_in_recovery = bool(rir)
            segments[sseq] = info
        snd._segments = segments
        snd._seg_queue = deque(segments.values())
        snd._rto_event = None  # a live RTO re-attaches its handle below

    for i, (rcv, _hops) in enumerate(plan.receivers):
        st = scene.export_receiver(i)
        _write(rcv, _RECEIVER_STATE, st)
        rcv._out_of_order = {seq: (length, dsn) for seq, length, dsn in st["ooo"]}

    node_list = plan.node_list
    for i, node in enumerate(node_list):
        _write(node, _NODE_STATE, scene.export_node(i))

    for i, link in enumerate(plan.link_list):
        st = scene.export_link(i)
        _write(link, _LINK_STATE, st)
        queue = link.queue._queue
        queue.clear()
        queue.extend(_mk_packet(d, node_list) for d in st["queue"])
        link._in_flight.clear()
        link._in_flight.extend(_mk_packet(d, node_list) for d in st["in_flight"])

    # Captures: append-only rows; the scene's are this window's packets.
    for idx, cap in enumerate(plan.captures):
        rows = scene.export_capture(idx)
        if rows:
            cap._rows += rows
            cap._record_cache = None

    # Clock and pending events.
    senders = [snd for snd, _hops in plan.senders]
    callbacks = {
        ext.EV_DELIVER: lambda idx: plan.link_list[idx]._deliver,
        ext.EV_SERVE: lambda idx: plan.link_list[idx]._serve_queue,
        ext.EV_RTO: lambda idx: senders[idx]._fire_rto,
        ext.EV_START: lambda idx: senders[idx].start,
        ext.EV_CANCELLED: lambda idx: None,
    }
    sim._clear_pending()
    for kind, t, seq, idx in scene.export_events():
        handle = sim._push_entry(t, seq, callbacks[kind](idx), ())
        if kind == ext.EV_RTO:
            senders[idx]._rto_event = handle
    sim._advance(*clock)
    return clock[0]


def _decline(network, reason: str) -> None:
    network.bypass_outcome = reason
    return None


def run_network(network, until: float, ext) -> Optional[float]:
    """Run ``network`` up to ``until`` natively; None means "fall back".

    On success the network's observable state (module docstring) is what
    the Python event loop would have produced and the final simulation time
    is returned.  On a decline nothing has been touched.  Either way the
    outcome is left on ``network.bypass_outcome``.
    """
    sim = network.sim
    if type(sim) is not ext.KernelSim:
        return _decline(network, "simulator is not KernelSim")
    if sim._running:
        return _decline(network, "simulator is already running")
    if not math.isfinite(until):
        return _decline(network, "horizon is not finite")

    try:
        plan = _plan_scene(network, sim, sim._export_entries())
        scene = _build_scene(ext, plan)
    except _Ineligible as exc:
        return _decline(network, str(exc))

    # A failing scene.run is a bug in the C kernel.  The scene owns all
    # mutated state, so the Python network is untouched and falling back is
    # safe -- but a hard-pinned compiled kernel must not hide the bug.
    try:
        clock = scene.run(sim.now, sim._seq, until)
    except Exception as exc:
        if _mode() == "compiled":
            raise
        return _decline(network, f"native run failed: {exc!r}")

    network.bypass_outcome = "native"
    return _write_back(ext, sim, plan, scene, clock)
