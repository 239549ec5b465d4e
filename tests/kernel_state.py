"""Observable state of a packet-level network, for kernel-equivalence tests.

"Byte-identical under both kernels" means :func:`snapshot` compares equal:
clock and event accounting, pending events with their ``(time, seq)``,
the retransmission timer's handle as it reads (:func:`handle_state`),
transport state (window, segments, RTT, congestion control, recovery,
receiver buffer), link/queue/node stats, a link's dynamics state (up,
impaired, dynamic mode, delivery deadlines), the fields of queued and
in-flight packets, and capture rows.  Caches (hop caches, the compiled
agents' route memos), packet ids and the packet pool are deliberately
absent: no result can see them and the two kernels do not keep them alike.
"""

from __future__ import annotations


def packet_fields(p) -> list:
    return [p.src, p.dst, p.size, p.tag, p.flow_id, p.subflow_id, p.seq,
            p.payload_len, p.is_ack, p.ack, p.dsn, p.dack,
            p.is_retransmission, list(map(list, p.sack_blocks)), p.ts_echo,
            p.created_at, p.enqueued_at, p.hops, int(p.ecn)]


def handle_state(event):
    """What an event handle reads, ``[time, seq, cancelled]``; None for none."""
    return None if event is None else [event.time, event.seq, event.cancelled]


def sender_state(snd) -> dict:
    cc = snd.cc
    return {
        "snd_una": snd.snd_una, "snd_nxt": snd.snd_nxt,
        "segments": [[g.seq, g.length, g.dsn, g.sent_at, g.retransmitted,
                      g.sacked, g.lost, g.lost_pending, g.retx_in_recovery]
                     for g in snd._seg_queue],
        "segment_index": sorted(snd._segments),
        "sacked": snd._sacked_bytes, "lostp": snd._lost_pending_bytes,
        "dupacks": snd._dupacks, "in_rec": snd._in_fast_recovery,
        "recover": snd._recover, "backoff": snd._rto_backoff,
        "rto_deadline": snd._rto_deadline, "rto_fire_at": snd._rto_fire_at,
        "rto_event": handle_state(snd._rto_event),
        "started": snd._started, "closed": snd.closed,
        "path_down": snd.path_down, "ecn_recover": snd._ecn_recover,
        "stats": [snd.stats.segments_sent, snd.stats.bytes_sent,
                  snd.stats.bytes_acked, snd.stats.retransmissions,
                  snd.stats.fast_retransmits, snd.stats.timeouts,
                  snd.stats.dupacks, snd.stats.ecn_echoes],
        "rtt": [snd.rtt.srtt, snd.rtt.rttvar, snd.rtt.min_rtt,
                snd.rtt.latest_rtt, snd.rtt.samples, snd.rtt._rto],
        "cc": [cc.cwnd, repr(cc.ssthresh), cc.srtt, cc.losses, cc.timeouts,
               cc.ecn_signals, cc.acked_bytes_total],
        "cubic": ([cc._w_max, cc._k, cc._epoch_start, cc._w_est,
                   cc._acks_in_epoch, cc._min_rtt]
                  if hasattr(cc, "_w_max") else None),
        # A bulk/transfer-queue adapter; an MPTCP connection (the provider
        # of its subflows) keeps none of these and reads None.
        "prov": [getattr(snd.data_provider, name, None)
                 for name in ("offset", "acked_bytes", "last_ack_time")],
    }


def receiver_state(rcv) -> dict:
    return {
        "rcv_nxt": rcv.rcv_nxt, "last_dack": rcv._last_dack,
        "ooo": sorted([k, v[0], v[1]] for k, v in rcv._out_of_order.items()),
        "stats": [rcv.stats.segments_received, rcv.stats.bytes_received,
                  rcv.stats.duplicates, rcv.stats.out_of_order,
                  rcv.stats.acks_sent, rcv.stats.ce_received],
    }


def network_snapshot(network) -> dict:
    """:func:`snapshot` of every TCP agent and capture registered on the
    network's hosts, found by walking them (scenes built by an experiment
    runner hand out no connection objects)."""
    from repro.netsim.capture import PacketCapture
    from repro.netsim.node import Host
    from repro.tcp.receiver import TcpReceiver
    from repro.tcp.sender import TcpSender

    senders, receivers, captures = [], [], []
    for name in sorted(network.nodes):
        host = network.nodes[name]
        if not isinstance(host, Host):
            continue
        for key in sorted(host._agents):
            agent = host._agents[key]
            if isinstance(agent, TcpSender):
                senders.append(agent)
            elif isinstance(agent, TcpReceiver):
                receivers.append(agent)
        for tap in host._captures:
            owner = getattr(tap, "__self__", None)
            if isinstance(owner, PacketCapture) and owner not in captures:
                captures.append(owner)
    return snapshot(network, (), captures, senders=senders, receivers=receivers)


def snapshot(network, connections, captures, *, senders=(), receivers=()) -> dict:
    """Every observable of ``network`` after a run (module docstring)."""
    sim = network.sim
    senders = [c.sender for c in connections] + list(senders)
    receivers = [c.receiver for c in connections] + list(receivers)
    entries = (sim._export_entries() if hasattr(sim, "_export_entries")
               else sim._heap)
    return {
        "sim": {
            "now": sim.now,
            "seq": sim._seq,
            "processed": sim.events_processed,
            "pending": sim.pending_events,
        },
        # Callbacks are identified by method and owner (links have names,
        # agents flow ids); a cancelled entry has neither.
        "heap": sorted(
            [t, s, getattr(cb, "__qualname__", None),
             getattr(getattr(cb, "__self__", None), "name", None),
             getattr(getattr(cb, "__self__", None), "flow_id", None)]
            for t, s, cb, _args in entries
        ),
        "senders": [sender_state(snd) for snd in senders],
        "receivers": [receiver_state(rcv) for rcv in receivers],
        "links": {
            f"{a}->{b}": {
                "busy_until": link._busy_until, "serving": link._serving,
                "serve_at": link._serve_at,
                "dynamics": [link.up, link._impaired, link._dynamic,
                             list(link._deadlines)],
                "stats": [link.stats.packets_sent, link.stats.bytes_sent,
                          link.stats.packets_dropped, link.stats.busy_time],
                "qstats": link.queue.stats.as_dict(),
                "qbytes": link.queue._bytes,
                "queue": [packet_fields(p) for p in link.queue._queue],
                "in_flight": [packet_fields(p) for p in link._in_flight],
            }
            for (a, b), link in network.links.items()
        },
        "nodes": {
            name: [node.stats.received, node.stats.forwarded,
                   node.stats.delivered, node.stats.routing_drops]
            for name, node in network.nodes.items()
        },
        # The stored bytes themselves (struct.pack, the native tap and the
        # Scene each write them), then what the readers make of them.
        "capture_rows": [bytes(capture._rows) for capture in captures],
        "captures": [
            [[r.time, r.size, r.payload_len, r.tag, r.flow_id, r.subflow_id,
              r.is_ack, r.is_retransmission, r.seq, r.dsn]
             for r in capture.records]
            for capture in captures
        ],
    }


def conservation_problems(network) -> list:
    """What breaks the network's packet conservation laws; empty when none.

    * every node: ``received == delivered + forwarded`` (``Node.receive``
      counts each arrival once, as one or the other);
    * every node: ``received`` equals the sum, over the links into it, of
      ``packets_sent - len(_in_flight)``.  A packet counts as sent when it
      starts serialising and leaves ``_in_flight`` only when it is handed to
      the downstream node, and a dynamic link (rate or delay change, outage,
      loss burst) drops at admission or from its queue, never on the wire, so
      the law needs no drop term and covers static and dynamic links alike;
    * every drop-tail queue: ``enqueued - dequeued == len(queue)`` (an
      outage flush dequeues what it drops).
    """
    from repro.netsim.queues import DropTailQueue

    problems = []
    arrived = dict.fromkeys(network.nodes, 0)
    for (a, b), link in network.links.items():
        arrived[b] += link.stats.packets_sent - len(link._in_flight)
        queue = link.queue
        if type(queue) is DropTailQueue:
            held = queue.stats.enqueued - queue.stats.dequeued
            if held != len(queue._queue):
                problems.append(f"queue {a}->{b}: enqueued - dequeued = {held}, "
                                f"{len(queue._queue)} queued")
    for name, node in network.nodes.items():
        stats = node.stats
        if stats.received != stats.delivered + stats.forwarded:
            problems.append(f"node {name}: received {stats.received} != delivered "
                            f"{stats.delivered} + forwarded {stats.forwarded}")
        if stats.received != arrived[name]:
            problems.append(f"node {name}: received {stats.received}, "
                            f"links into it handed over {arrived[name]}")
    return problems
