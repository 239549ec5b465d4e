/* The TCP transport bodies of the compiled kernel, written once.
 *
 * This file is a template, not a header: _ckernel.c includes it twice, each
 * time behind a different accessor layer, and every function below is
 * instantiated once per layer (the TP() prefix):
 *
 *   slot_*  -- the agents of every scene on a KernelSim.  State is read and
 *              written in place in the __slots__ of the Python TcpSender /
 *              TcpReceiver / _SegmentInfo / RttEstimator objects, the C
 *              fields of the native SenderStats / ReceiverStats and of the
 *              native packets (a foreign packet never reaches these
 *              bodies: it runs the Python ones); the congestion controller, the
 *              data provider, the connection sink, on_idle and a non-stock
 *              RTT estimator are Python calls made where the Python body
 *              makes them.
 *   scn_*   -- the agents of the whole-window Scene.  State is the CSender /
 *              CRecv / CSeg / CPkt structs; the controller is the Scene's C
 *              Reno/CUBIC and the provider its inlined bulk transfer.
 *
 * The bodies mirror repro/tcp/sender.py, receiver.py and rtt.py statement by
 * statement (keep in sync: those modules are the reference every test
 * compares against).  What a body may touch is the accessor layer's
 * contract, defined by each backend just before the #include:
 *
 *   types      TP_CTX (simulator / scene), TP_SND, TP_RCV, TP_SEG, TP_PKT
 *   clock      TP_NOW(c)
 *   state      SND_I64 / SND_F64 / SND_FLAG (var, S, name) declare `var`
 *              from a sender field named as in sender.py, SND_MSS(var, S)
 *              from its mss; SND_SET_*(S, name, v) write it; SND_STAT_ADD(S,
 *              name, d).  RCV_* likewise for receiver.py; SEG_* for one
 *              _SegmentInfo; PKT_* for the fields of a delivered packet.  On
 *              the slot backend the numbers are C fields of the native
 *              types, and the accessors that read a slot (flags, mss, SEG_*)
 *              return -1 from the enclosing function on an unset slot or a
 *              value of the wrong type; on the struct backend none can fail.
 *   gates      TP_ECN, defined when packets can carry ECT/CE/ECE (the Scene's
 *              drop-tail lines never mark, and its eligibility excludes
 *              ECN-capable senders); SND_PATH_DOWN, constant 0 in the Scene.
 *   segments   SEGQ_LEN(n, S), SEGQ_AT(g, S, j), SEGQ_FIND(g, S, seq) (NULL
 *              when absent), TP(segq_push), TP(segq_popleft): _seg_queue and
 *              _segments as one ordered, seq-indexed collection.
 *   reorder    TP(ooo_nonempty), TP(ooo_setdefault), TP(ooo_pop): the
 *              receiver's _out_of_order buffer (the ACK's SACK blocks are
 *              merged from it by sack_blocks() in _ckernel.c).
 *   estimator  RTT_OPEN / RTT(field) / RTT_CLOSE around RttEstimator.update,
 *              RTT_RTO, RTT_SAMPLES, RTT_SRTT.
 *   timer      RTO_LIVE, TP(rto_schedule), TP(rto_cancel), TP(rto_clear),
 *              TP(rto_forget): the _rto_event handle.
 *   hooks      TP(cc_*), TP(request_data), TP(data_acked), TP(idle),
 *              TP(sink_deliver).
 *   packets    TP(send_data), TP(send_ack): build a segment / an ACK and hand
 *              it to the egress link; TP(pkt_sack), TP(pkt_recycle) on a
 *              delivered one.
 *
 * Every function returns 0, or -1 with a Python exception set.  Heap
 * sequence numbers are consumed where the Python bodies consume them: one
 * per link event inside send, one per (re)scheduled retransmission timer.
 */

static int TP(try_send)(TP_CTX c, TP_SND S);
static int TP(arm_rto)(TP_CTX c, TP_SND S, int restart);

/* ---- RttEstimator.update (tcp/rtt.py) ---- */

static int
TP(rtt_update)(TP_SND S, double sample)
{
    RTT_OPEN(S, sample);
    RTT(latest_rtt) = sample;
    RTT(samples) += 1;
    if (isnan(RTT(min_rtt)) || sample < RTT(min_rtt))
        RTT(min_rtt) = sample;
    double srtt, rttvar;
    if (isnan(RTT(srtt))) {
        RTT(srtt) = srtt = sample;
        RTT(rttvar) = rttvar = sample / 2.0;
    }
    else {
        double diff = RTT(srtt) - sample;
        if (diff < 0)
            diff = -diff;
        RTT(rttvar) = rttvar = (1.0 - RTT(beta)) * RTT(rttvar) + RTT(beta) * diff;
        RTT(srtt) = srtt = (1.0 - RTT(alpha)) * RTT(srtt) + RTT(alpha) * sample;
    }
    double dev = 4.0 * rttvar;
    double rto = srtt + (dev > 0.0001 ? dev : 0.0001);
    double floor = rto > RTT(min_rto) ? rto : RTT(min_rto);
    RTT(_rto) = floor < RTT(max_rto) ? floor : RTT(max_rto);
    RTT_CLOSE(S);
    return 0;
}

/* ---- sender (tcp/sender.py) ---- */

/* The transmit tail of a new segment and of a retransmission: counters, the
 * packet built and put on the wire, the timer armed if none is pending. */
static int
TP(emit)(TP_CTX c, TP_SND S, int64_t seq, int64_t length, int64_t dsn,
         int is_retransmission, double now)
{
    SND_STAT_ADD(S, segments_sent, 1);
    SND_STAT_ADD(S, bytes_sent, length);
    if (TP(send_data)(c, S, seq, length, dsn, is_retransmission, now) < 0)
        return -1;
    RTO_LIVE(live, S);
    return live ? 0 : TP(arm_rto)(c, S, 0);
}

/* _transmit_segment for a retransmission: the segment record exists and is
 * re-stamped (new segments take the inlined path in try_send). */
static int
TP(retransmit)(TP_CTX c, TP_SND S, TP_SEG g, int64_t seq, int64_t length, int64_t dsn)
{
    double now = TP_NOW(c);
    SEG_SET_F64(g, sent_at, now);
    SEG_SET_FLAG(g, retransmitted, 1);
    SND_STAT_ADD(S, retransmissions, 1);
    return TP(emit)(c, S, seq, length, dsn, 1, now);
}

/* _retransmit_next_hole: the lowest unSACKed lost segment of the recovery
 * window that this episode has not retransmitted yet; *did says whether
 * there was one. */
static int
TP(retransmit_next_hole)(TP_CTX c, TP_SND S, int *did)
{
    *did = 0;
    SND_I64(recover, S, _recover);
    SEGQ_LEN(n, S);
    for (Py_ssize_t j = 0; j < n; j++) {
        SEGQ_AT(g, S, j);
        SEG_I64(seq, g, seq);
        if (seq >= recover)
            break;
        SEG_FLAG(sacked, g, sacked);
        SEG_FLAG(lost, g, lost);
        SEG_FLAG(retx, g, retx_in_recovery);
        if (sacked || !lost || retx)
            continue;
        SEG_I64(length, g, length);
        SEG_I64(dsn, g, dsn);
        SEG_SET_FLAG(g, retx_in_recovery, 1);
        SEG_FLAG(lost_pending, g, lost_pending);
        if (lost_pending) {
            SEG_SET_FLAG(g, lost_pending, 0);
            SND_I64(pending, S, _lost_pending_bytes);
            SND_SET_I64(S, _lost_pending_bytes, pending - length);
        }
        *did = 1;
        return TP(retransmit)(c, S, g, seq, length, dsn);
    }
    return 0;
}

/* _arm_rto: lazy -- the pending event is kept and only the deadline moves;
 * it is re-scheduled only when the new deadline is earlier than its fire
 * time. */
static int
TP(arm_rto)(TP_CTX c, TP_SND S, int restart)
{
    RTO_LIVE(live, S);
    if (live && !restart)
        return 0;
    RTT_RTO(rto, S);
    SND_F64(backoff, S, _rto_backoff);
    double deadline = TP_NOW(c) + rto * backoff;
    SND_SET_F64(S, _rto_deadline, deadline);
    if (live) {
        SND_F64(fire_at, S, _rto_fire_at);
        if (fire_at <= deadline)
            return 0;
        if (TP(rto_cancel)(S) < 0)
            return -1;
    }
    if (TP(rto_schedule)(c, S, deadline) < 0)
        return -1;
    SND_SET_F64(S, _rto_fire_at, deadline);
    return 0;
}

static int
TP(try_send)(TP_CTX c, TP_SND S)
{
    /* As in the Python loop, the window bound is read once (it only moves
     * on ACK and loss events) and the sequence state on every turn. */
    SND_MSS(mss, S);
    double cwnd_bytes;
    if (TP(cc_cwnd_bytes)(S, &cwnd_bytes) < 0)
        return -1;
    for (;;) {
        SND_I64(snd_nxt, S, snd_nxt);
        SND_I64(snd_una, S, snd_una);
        SND_I64(sacked, S, _sacked_bytes);
        SND_I64(lost_pending, S, _lost_pending_bytes);
        int64_t pipe = snd_nxt - snd_una - sacked - lost_pending;
        if (pipe < 0)
            pipe = 0;
        if ((double)(pipe + mss) > cwnd_bytes)
            return 0;
        SND_FLAG(in_recovery, S, _in_fast_recovery);
        if (in_recovery) {
            int did;
            if (TP(retransmit_next_hole)(c, S, &did) < 0)
                return -1;
            if (did)
                continue;
        }
        int granted;
        int64_t dsn = 0, length = 0;
        if (TP(request_data)(c, S, mss, &granted, &dsn, &length) < 0)
            return -1;
        if (!granted)
            return TP(idle)(c, S);
        if (length <= 0 || length > mss)
            return raise_protocol_error(PyUnicode_FromFormat(
                "data provider granted invalid length %lld", (long long)length));
        SND_I64(seq, S, snd_nxt);
        double now = TP_NOW(c);
        if (TP(segq_push)(S, seq, length, dsn, now) < 0 ||
            TP(emit)(c, S, seq, length, dsn, 0, now) < 0)
            return -1;
        SND_SET_I64(S, snd_nxt, seq + length);
    }
}

/* _sample_rtt: Karn's fallback for a peer that echoes no timestamps. */
static int
TP(sample_rtt)(TP_SND S, int64_t ack, double now)
{
    int found = 0;
    double best_sent = 0.0;
    SEGQ_LEN(n, S);
    for (Py_ssize_t j = 0; j < n; j++) {
        SEGQ_AT(g, S, j);
        SEG_I64(seq, g, seq);
        SEG_I64(length, g, length);
        SEG_FLAG(retransmitted, g, retransmitted);
        if (seq + length <= ack && !retransmitted) {
            SEG_F64(sent_at, g, sent_at);
            if (!found || sent_at > best_sent) {
                found = 1;
                best_sent = sent_at;
            }
        }
    }
    if (found && now - best_sent > 0)
        return TP(rtt_update)(S, now - best_sent);
    return 0;
}

/* _apply_sack: one pass in ascending seq -- SACKed inside a block, else
 * FACK-style lost when wholly below the highest SACKed end.  blocks holds
 * nblocks (start, end) pairs. */
static int
TP(apply_sack)(TP_SND S, const int64_t *blocks, Py_ssize_t nblocks)
{
    int64_t highest = blocks[1];
    for (Py_ssize_t b = 1; b < nblocks; b++) {
        if (blocks[2 * b + 1] > highest)
            highest = blocks[2 * b + 1];
    }
    SEGQ_LEN(n, S);
    for (Py_ssize_t j = 0; j < n; j++) {
        SEGQ_AT(g, S, j);
        SEG_I64(seq, g, seq);
        if (seq > highest)
            break;
        SEG_FLAG(sacked, g, sacked);
        if (sacked)
            continue;
        SEG_I64(length, g, length);
        int64_t seg_end = seq + length;
        Py_ssize_t b = 0;
        while (b < nblocks && !(seq >= blocks[2 * b] && seg_end <= blocks[2 * b + 1]))
            b++;
        if (b < nblocks) {
            SEG_SET_FLAG(g, sacked, 1);
            SND_I64(total, S, _sacked_bytes);
            SND_SET_I64(S, _sacked_bytes, total + length);
            SEG_FLAG(lost_pending, g, lost_pending);
            if (lost_pending) {
                SEG_SET_FLAG(g, lost_pending, 0);
                SND_I64(pending, S, _lost_pending_bytes);
                SND_SET_I64(S, _lost_pending_bytes, pending - length);
            }
        }
        else if (seg_end <= highest) {
            SEG_FLAG(lost, g, lost);
            if (!lost) {
                SEG_SET_FLAG(g, lost, 1);
                SEG_SET_FLAG(g, lost_pending, 1);
                SND_I64(pending, S, _lost_pending_bytes);
                SND_SET_I64(S, _lost_pending_bytes, pending + length);
            }
        }
    }
    return 0;
}

static int
TP(exit_fast_recovery)(TP_SND S)
{
    SND_SET_FLAG(S, _in_fast_recovery, 0);
    SEGQ_LEN(n, S);
    for (Py_ssize_t j = 0; j < n; j++) {
        SEGQ_AT(g, S, j);
        SEG_SET_FLAG(g, retx_in_recovery, 0);
    }
    return 0;
}

static int
TP(enter_fast_recovery)(TP_CTX c, TP_SND S, double now)
{
    SND_SET_FLAG(S, _in_fast_recovery, 1);
    SND_I64(snd_nxt, S, snd_nxt);
    SND_SET_I64(S, _recover, snd_nxt);
    SND_STAT_ADD(S, fast_retransmits, 1);
    if (TP(cc_on_loss)(S, now) < 0)
        return -1;
    /* The first unacknowledged segment is the hole the duplicate ACKs and
     * SACK blocks point at. */
    SND_I64(snd_una, S, snd_una);
    SEGQ_FIND(front, S, snd_una);
    if (front != NULL) {
        SEG_FLAG(sacked, front, sacked);
        SEG_FLAG(lost, front, lost);
        if (!sacked && !lost) {
            SEG_I64(length, front, length);
            SEG_SET_FLAG(front, lost, 1);
            SEG_SET_FLAG(front, lost_pending, 1);
            SND_I64(pending, S, _lost_pending_bytes);
            SND_SET_I64(S, _lost_pending_bytes, pending + length);
        }
    }
    int did;
    return TP(retransmit_next_hole)(c, S, &did);
}

static int
TP(on_new_ack)(TP_CTX c, TP_SND S, int64_t ack, double now)
{
    SND_I64(snd_una, S, snd_una);
    int64_t newly_acked = ack - snd_una;
    SND_STAT_ADD(S, bytes_acked, newly_acked);
    RTT_SAMPLES(samples, S);
    if (samples == 0 && TP(sample_rtt)(S, ack, now) < 0)
        return -1;
    /* The ACKed prefix retires from the left of the seq-ordered queue. */
    for (;;) {
        SEGQ_LEN(n, S);
        if (n == 0)
            break;
        SEGQ_AT(g, S, 0);
        SEG_I64(seq, g, seq);
        SEG_I64(length, g, length);
        if (seq + length > ack)
            break;
        SEG_I64(dsn, g, dsn);
        SEG_FLAG(sacked, g, sacked);
        SEG_FLAG(lost_pending, g, lost_pending);
        if (TP(segq_popleft)(S) < 0)
            return -1;
        if (sacked) {
            SND_I64(total, S, _sacked_bytes);
            SND_SET_I64(S, _sacked_bytes, total - length);
        }
        if (lost_pending) {
            SND_I64(pending, S, _lost_pending_bytes);
            SND_SET_I64(S, _lost_pending_bytes, pending - length);
        }
        if (TP(data_acked)(c, S, dsn, length, now) < 0)
            return -1;
    }
    SND_SET_I64(S, snd_una, ack);
    SND_SET_I64(S, _dupacks, 0);
    SND_SET_F64(S, _rto_backoff, 1.0);

    RTT_SRTT(srtt, S, 0.01);
    SND_FLAG(in_recovery, S, _in_fast_recovery);
    if (in_recovery) {
        SND_I64(recover, S, _recover);
        if (ack >= recover) {
            if (TP(exit_fast_recovery)(S) < 0)
                return -1;
        }
        else {
            /* Post-timeout recovery: slow start clocks out the
             * retransmissions, so the window grows on partial ACKs. */
            int slow_start;
            if (TP(cc_in_slow_start)(S, &slow_start) < 0 ||
                (slow_start && TP(cc_on_ack)(S, newly_acked, srtt, now) < 0))
                return -1;
        }
    }
    else if (TP(cc_on_ack)(S, newly_acked, srtt, now) < 0)
        return -1;

    SND_I64(snd_nxt, S, snd_nxt);
    if (snd_nxt == ack)
        return TP(rto_clear)(S);
    return TP(arm_rto)(c, S, 1);
}

static int
TP(on_dupack)(TP_CTX c, TP_SND S, double now)
{
    SND_I64(dupacks, S, _dupacks);
    dupacks += 1;
    SND_SET_I64(S, _dupacks, dupacks);
    SND_STAT_ADD(S, dupacks, 1);
    SND_FLAG(in_recovery, S, _in_fast_recovery);
    if (in_recovery)
        return 0;
    SND_I64(sacked, S, _sacked_bytes);
    SND_MSS(mss, S);
    if (dupacks >= 3 || sacked >= 3 * mss)     /* DUPACK_THRESHOLD */
        return TP(enter_fast_recovery)(c, S, now);
    return 0;
}

/* handle_packet: the whole per-ACK reaction. */
static int
TP(sender_handle)(TP_CTX c, TP_SND S, TP_PKT packet)
{
    PKT_FLAG(is_ack, c, packet, is_ack);
    if (!is_ack)
        return 0;
    PKT_I64(ack, c, packet, ack);
    double now = TP_NOW(c);
    SND_I64(limit, S, snd_nxt);
    if (ack > limit)
        return raise_protocol_error(PyUnicode_FromFormat(
            "ACK %lld beyond snd_nxt %lld", (long long)ack, (long long)limit));
    /* RFC 7323: the ACK echoes the send time of the segment that caused it. */
    PKT_F64(ts_echo, c, packet, ts_echo);
    if (ts_echo >= 0 && now - ts_echo > 0 && TP(rtt_update)(S, now - ts_echo) < 0)
        return -1;
    if (TP(pkt_sack)(c, S, packet) < 0)    /* _apply_sack when it carries blocks */
        return -1;
#ifdef TP_ECN
    PKT_FLAG(ece, c, packet, ecn);
    if (ece) {
        /* RFC 3168: react once per window of data; nothing was lost. */
        SND_I64(ecn_recover, S, _ecn_recover);
        if (ack > ecn_recover) {
            SND_I64(snd_nxt, S, snd_nxt);
            SND_SET_I64(S, _ecn_recover, snd_nxt);
            SND_STAT_ADD(S, ecn_echoes, 1);
            if (TP(cc_on_ecn)(S, now) < 0)
                return -1;
        }
    }
#endif
    SND_I64(snd_una, S, snd_una);
    if (ack > snd_una) {
        if (TP(on_new_ack)(c, S, ack, now) < 0)
            return -1;
    }
    else if (ack == snd_una) {
        SND_I64(snd_nxt, S, snd_nxt);
        if (snd_nxt > snd_una && TP(on_dupack)(c, S, now) < 0)
            return -1;
    }
    /* The ACK's life ends here, before the segments it clocks out. */
    if (TP(pkt_recycle)(c, packet) < 0)
        return -1;
    return TP(try_send)(c, S);
}

/* self._rto_backoff = min(self._rto_backoff * 2.0, 64.0) */
static int
TP(back_off)(TP_SND S)
{
    SND_F64(backoff, S, _rto_backoff);
    SND_SET_F64(S, _rto_backoff, backoff * 2.0 < 64.0 ? backoff * 2.0 : 64.0);
    return 0;
}

static int
TP(on_rto)(TP_CTX c, TP_SND S)
{
    TP(rto_forget)(S);
    SND_I64(snd_nxt, S, snd_nxt);
    SND_I64(snd_una, S, snd_una);
    SND_FLAG(closed, S, closed);
    if (snd_nxt - snd_una == 0 || closed)
        return 0;
    SND_PATH_DOWN(path_down, S);
    if (path_down) {
        /* The connection knows the path is failed: freeze the window and
         * keep a backed-off timer running as a liveness probe. */
        if (TP(back_off)(S) < 0)
            return -1;
        return TP(arm_rto)(c, S, 1);
    }
    SND_STAT_ADD(S, timeouts, 1);
    if (TP(cc_on_timeout)(S, TP_NOW(c)) < 0)
        return -1;
    SND_SET_I64(S, _dupacks, 0);
    if (TP(exit_fast_recovery)(S) < 0)
        return -1;
    /* SACK information is stale after a timeout (RFC 6675) and every
     * outstanding segment is presumed lost. */
    int64_t pending = 0;
    SND_SET_I64(S, _sacked_bytes, 0);
    SEGQ_LEN(n, S);
    for (Py_ssize_t j = 0; j < n; j++) {
        SEGQ_AT(g, S, j);
        SEG_I64(length, g, length);
        SEG_SET_FLAG(g, sacked, 0);
        SEG_SET_FLAG(g, lost, 1);
        SEG_SET_FLAG(g, lost_pending, 1);
        pending += length;
    }
    SND_SET_I64(S, _lost_pending_bytes, pending);
    SND_SET_FLAG(S, _in_fast_recovery, 1);
    SND_I64(recover, S, snd_nxt);
    SND_SET_I64(S, _recover, recover);
    int did;
    if (TP(back_off)(S) < 0 || TP(retransmit_next_hole)(c, S, &did) < 0)
        return -1;
    return TP(arm_rto)(c, S, 1);
}

/* _fire_rto: the lazy deadline check of a timer event. */
static int
TP(fire_rto)(TP_CTX c, TP_SND S)
{
    SND_F64(deadline, S, _rto_deadline);
    if (TP_NOW(c) < deadline) {
        /* ACKs pushed the deadline since this event was armed. */
        if (TP(rto_schedule)(c, S, deadline) < 0)
            return -1;
        SND_SET_F64(S, _rto_fire_at, deadline);
        return 0;
    }
    return TP(on_rto)(c, S);
}

/* ---- receiver (tcp/receiver.py) ---- */

static int
TP(deliver)(TP_CTX c, TP_RCV R, int64_t seq, int64_t length, int64_t dsn, double now)
{
    if (length <= 0)
        return 0;
    RCV_SET_I64(R, rcv_nxt, seq + length);
    RCV_STAT_ADD(R, bytes_received, length);
    return TP(sink_deliver)(c, R, dsn, length, now);
}

/* `while rcv_nxt in buffer`: stale entries below rcv_nxt stay put and keep
 * appearing in SACK blocks. */
static int
TP(drain_buffer)(TP_CTX c, TP_RCV R, double now)
{
    for (;;) {
        RCV_I64(rcv_nxt, R, rcv_nxt);
        int found;
        int64_t length = 0, dsn = 0;
        if (TP(ooo_pop)(R, rcv_nxt, &found, &length, &dsn) < 0)
            return -1;
        if (!found)
            return 0;
        if (TP(deliver)(c, R, rcv_nxt, length, dsn, now) < 0)
            return -1;
    }
}

/* handle_packet: every data segment is acknowledged at once. */
static int
TP(receiver_handle)(TP_CTX c, TP_RCV R, TP_PKT packet)
{
    PKT_FLAG(is_ack, c, packet, is_ack);
    if (is_ack)
        return 0;
    double now = TP_NOW(c);
    RCV_STAT_ADD(R, segments_received, 1);
    PKT_I64(seq, c, packet, seq);
    PKT_I64(length, c, packet, payload_len);
    PKT_I64(dsn, c, packet, dsn);
    RCV_I64(rcv_nxt, R, rcv_nxt);
    if (seq == rcv_nxt) {
        if (TP(deliver)(c, R, seq, length, dsn, now) < 0)
            return -1;
        int buffered;
        if (TP(ooo_nonempty)(R, &buffered) < 0 ||
            (buffered && TP(drain_buffer)(c, R, now) < 0))
            return -1;
    }
    else if (seq > rcv_nxt) {
        RCV_STAT_ADD(R, out_of_order, 1);
        if (TP(ooo_setdefault)(R, seq, length, dsn) < 0)
            return -1;
    }
    else {
        /* Fully or partially old data (a spurious retransmission). */
        RCV_STAT_ADD(R, duplicates, 1);
        if (seq + length > rcv_nxt) {
            int64_t overlap = rcv_nxt - seq;
            if (TP(deliver)(c, R, rcv_nxt, length - overlap, dsn + overlap, now) < 0 ||
                TP(drain_buffer)(c, R, now) < 0)
                return -1;
        }
    }
    PKT_F64(ts_echo, c, packet, created_at);
#ifdef TP_ECN
    PKT_CE(ece, c, packet);     /* RFC 3168: a CE mark raises ECE on the ACK */
#else
    int ece = 0;
#endif
    /* The segment's life ends here, before the ACK is built. */
    if (TP(pkt_recycle)(c, packet) < 0)
        return -1;
#ifdef TP_ECN
    if (ece)
        RCV_STAT_ADD(R, ce_received, 1);
#endif
    RCV_STAT_ADD(R, acks_sent, 1);
    return TP(send_ack)(c, R, ts_echo, now, ece);
}

#undef TP
#undef TP_CTX
#undef TP_SND
#undef TP_RCV
#undef TP_SEG
#undef TP_PKT
#undef TP_NOW
#undef TP_ECN
#undef SND_I64
#undef SND_F64
#undef SND_MSS
#undef SND_FLAG
#undef SND_SET_I64
#undef SND_SET_F64
#undef SND_SET_FLAG
#undef SND_STAT_ADD
#undef SND_PATH_DOWN
#undef RCV_I64
#undef RCV_SET_I64
#undef RCV_STAT_ADD
#undef SEG_I64
#undef SEG_F64
#undef SEG_FLAG
#undef SEG_SET_F64
#undef SEG_SET_FLAG
#undef SEGQ_LEN
#undef SEGQ_AT
#undef SEGQ_FIND
#undef PKT_I64
#undef PKT_F64
#undef PKT_FLAG
#undef PKT_CE
#undef RTT_OPEN
#undef RTT
#undef RTT_CLOSE
#undef RTT_RTO
#undef RTT_SAMPLES
#undef RTT_SRTT
#undef RTO_LIVE
