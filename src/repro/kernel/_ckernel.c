/* Compiled kernel for the repro packet-level simulator.
 *
 * Four layers live in this extension (and one template and one integrator
 * beside it):
 *
 *   KernelSim   -- a drop-in replacement for repro.netsim.engine.Simulator:
 *                  the (time, seq) calendar heap, the schedule/schedule_fast
 *                  APIs and the run loop in C, callbacks dispatched through
 *                  the vectorcall protocol.  Semantics (event ordering,
 *                  events_processed counting, cancellation, GC pause, error
 *                  messages) mirror the pure-Python engine exactly.
 *
 *   native links -- the link type every scene on a KernelSim runs on: a
 *                  slot-compatible subclass of repro.netsim.link.Link whose
 *                  send / _serve_queue / _deliver are C functions, fired
 *                  from heap entries that carry the link and no callable.
 *                  Forwarding, drop-tail queueing, host dispatch and the
 *                  stock capture tap (PacketCapture.on_packet of an exact
 *                  PacketCapture: one packed row appended to its bytearray)
 *                  execute no Python frame; policy (any other tap, AQM
 *                  verdicts, impairment, overrides, routing misses, agents
 *                  that are not the native ones) is called from C at the
 *                  step where it occurs, and a packet that is not the
 *                  native one runs the Python bodies.  State lives in the
 *                  Python objects' __slots__ and the C fields of their
 *                  native subclasses, once.
 *
 *   native transport -- the agent types every scene on a KernelSim runs on:
 *                  slot-compatible subclasses of repro.tcp.sender.TcpSender
 *                  and repro.tcp.receiver.TcpReceiver whose handle_packet /
 *                  _try_send / _fire_rto / _on_rto are C, with the
 *                  retransmission timer a heap entry that carries the sender
 *                  and no callable.  ACK clocking, the SACK scoreboard,
 *                  recovery, RTT estimation and packet build/recycle execute
 *                  no Python frame; policy (the congestion controller, the
 *                  data provider, the connection sink, on_idle, a non-stock
 *                  estimator) is called from C where the Python body calls
 *                  it.  State lives in the Python objects' __slots__.
 *
 *   Scene       -- a fully native single-path-TCP pipeline: links, queues,
 *                  hosts/routers, TCP senders/receivers (CUBIC/Reno) and
 *                  packet captures, driven by an internal calendar without
 *                  touching a single Python object per event.  The calendar
 *                  is a (time, seq) heap over per-link lanes: a link's
 *                  in-flight ring holds its deliveries in firing order and
 *                  only the ring's head is in the heap, so the heap is
 *                  O(links), not O(packets in flight), and pops in the
 *                  Python engine's exact order ("event heap" below).
 *                  repro.kernel.pipeline imports eligible network states
 *                  into a Scene, runs it, and copies the observable state
 *                  back (stats, transport state, packet fields, pending
 *                  events -- not caches, packet ids or allocator pools; the
 *                  contract is in pipeline.py).
 *
 *   _transport.h -- the TCP transport itself, written once: every sender
 *                  and receiver body (rtt_update, emit, retransmit,
 *                  retransmit_next_hole, arm_rto, try_send, sample_rtt,
 *                  apply_sack, enter/exit_fast_recovery, on_new_ack,
 *                  on_dupack, sender_handle, back_off, on_rto, fire_rto,
 *                  deliver, drain_buffer, receiver_handle) is shared.  This
 *                  file includes it twice: as slot_* behind the native
 *                  transport's accessor layer (state in Python slots) and as
 *                  scn_* behind the Scene's (state in CSender / CRecv).
 *                  Only sack_blocks(), which both layers call to build an
 *                  ACK, and the accessor layers themselves live here.
 *
 *   _fluid.h     -- the fluid reference model's integrator (module function
 *                  fluid_run): the loop of repro.model.fluid.FluidModel.run,
 *                  no part of the simulator, under the same ground rules.
 *
 * Byte-identity ground rules (keep in sync with the Python modules):
 *   - every float expression copies the Python operation order verbatim;
 *   - ** 3 and ** (1.0/3.0) become libm pow() (CPython float_pow does the
 *     same), never x*x*x or cbrt(); ** 2 too, through a pointer, because the
 *     compiler folds pow(x, 2.0) into x*x (_fluid.h);
 *   - a * b + c is two roundings: build.py passes -ffp-contract=off, so no
 *     target contracts it into a fused multiply-add;
 *   - min()/max() pick the same operand Python would, which is value-equal
 *     for doubles, so plain comparisons suffice;
 *   - sequence numbers are consumed at exactly the same call sites as the
 *     Python bodies (one per schedule* call, link.py's included).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>
#include <stdint.h>

#if PY_VERSION_HEX < 0x030A0000
/* CPython 3.9 lacks these four; same contracts as the 3.10 originals. */
static inline PyObject *
Py_NewRef(PyObject *o)
{
    Py_INCREF(o);
    return o;
}

static int
PyModule_AddObjectRef(PyObject *mod, const char *name, PyObject *value)
{
    Py_INCREF(value);
    if (PyModule_AddObject(mod, name, value) < 0) {
        Py_DECREF(value);
        return -1;
    }
    return 0;
}

static int
gc_call(const char *name)
{
    PyObject *res = NULL;
    PyObject *gc = PyImport_ImportModule("gc");
    if (gc != NULL) {
        res = PyObject_CallMethod(gc, name, NULL);
        Py_DECREF(gc);
    }
    int truth = res != NULL && PyObject_IsTrue(res) > 0;
    Py_XDECREF(res);
    PyErr_Clear();
    return truth;
}
#define PyGC_IsEnabled() gc_call("isenabled")
#define PyGC_Disable() gc_call("disable")
#define PyGC_Enable() gc_call("enable")
#endif

/* ------------------------------------------------------------------ errors */

static PyObject *SimulationErrorType = NULL;
static PyObject *ProtocolErrorType = NULL;

static int
load_error_types(void)
{
    if (ProtocolErrorType != NULL)
        return 0;
    PyObject *mod = PyImport_ImportModule("repro.errors");
    if (mod == NULL)
        return -1;
    Py_XSETREF(SimulationErrorType, PyObject_GetAttrString(mod, "SimulationError"));
    if (SimulationErrorType != NULL)
        ProtocolErrorType = PyObject_GetAttrString(mod, "ProtocolError");
    Py_DECREF(mod);
    return ProtocolErrorType == NULL ? -1 : 0;
}

/* Raise *type (a repro.errors class) with msg, which is stolen. */
static void
raise_error_obj(PyObject **type, PyObject *msg)
{
    if (msg != NULL && load_error_types() == 0)
        PyErr_SetObject(*type, msg);
    Py_XDECREF(msg);
}

static void
raise_sim_error_obj(PyObject *msg)
{
    raise_error_obj(&SimulationErrorType, msg);
}

/* The transport bodies' `raise ProtocolError(...)`; always -1. */
static int
raise_protocol_error(PyObject *msg)
{
    raise_error_obj(&ProtocolErrorType, msg);
    return -1;
}

/* ------------------------------------------------------------- KernelEvent */

typedef struct {
    PyObject_HEAD
    double t;
    int64_t seq;
    char cancelled;
    char fired;
} KernelEventObject;

static PyTypeObject KernelEventType;

static PyObject *
kevent_cancel(KernelEventObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    Py_RETURN_NONE;
}

static PyObject *
kevent_get_time(KernelEventObject *self, void *closure)
{
    return PyFloat_FromDouble(self->t);
}

static PyObject *
kevent_get_seq(KernelEventObject *self, void *closure)
{
    return PyLong_FromLongLong((long long)self->seq);
}

static PyObject *
kevent_get_cancelled(KernelEventObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
kevent_repr(KernelEventObject *self)
{
    char buf[32];
    snprintf(buf, sizeof(buf), "%.6f", self->t);
    return PyUnicode_FromFormat(
        "KernelEvent(t=%s, seq=%lld, %s)", buf, (long long)self->seq,
        self->cancelled ? "cancelled" : (self->fired ? "fired" : "pending"));
}

static PyMethodDef kevent_methods[] = {
    {"cancel", (PyCFunction)kevent_cancel, METH_NOARGS,
     "Mark the event as cancelled; it will not run."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef kevent_getset[] = {
    {"time", (getter)kevent_get_time, NULL,
     "Scheduled fire time, kept once fired or dropped (as Event.time).", NULL},
    {"seq", (getter)kevent_get_seq, NULL, "Sequence number of the underlying entry.", NULL},
    {"cancelled", (getter)kevent_get_cancelled, NULL, "Whether cancel() was called.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject KernelEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._ckernel.KernelEvent",
    .tp_basicsize = sizeof(KernelEventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Cancellation handle returned by KernelSim.schedule/schedule_at.",
    .tp_repr = (reprfunc)kevent_repr,
    .tp_methods = kevent_methods,
    .tp_getset = kevent_getset,
};

static KernelEventObject *
kevent_new(double t, int64_t seq)
{
    KernelEventObject *ev = PyObject_New(KernelEventObject, &KernelEventType);
    if (ev == NULL)
        return NULL;
    ev->t = t;
    ev->seq = seq;
    ev->cancelled = 0;
    ev->fired = 0;
    return ev;
}

/* --------------------------------------------------------------- KernelSim */

#define KSIM_INLINE_ARGS 3

typedef struct {
    double t;
    int64_t seq;
    PyObject *cb;               /* NULL = cancelled at creation */
    PyObject *args;             /* owned tuple when nargs == -1 */
    PyObject *a[KSIM_INLINE_ARGS]; /* owned inline args when nargs >= 0 */
    int nargs;                  /* -1: use args tuple; >= 0: inline count;
                                   KN_*: native entry, cb is the link or
                                   the sender */
    KernelEventObject *handle;  /* owned, may be NULL */
} KEntry;

/* Native entry kinds (the "native links" and "native transport" sections
 * below): a link's _deliver / _serve_queue or a sender's _fire_rto body
 * runs in C, no callable is stored. */
#define KN_DELIVER (-2)
#define KN_SERVE (-3)
#define KN_RTO (-4)

typedef struct {
    PyObject_HEAD
    double now;
    int64_t events_processed;
    int64_t events_native;      /* of those, dispatched without a callable */
    int64_t seq;
    KEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    char running;
    char stopped;
} KernelSimObject;

#define KLESS(x, y) ((x).t < (y).t || ((x).t == (y).t && (x).seq < (y).seq))

static void
kentry_clear(KEntry *e)
{
    Py_XDECREF(e->cb);
    Py_XDECREF(e->args);
    if (e->nargs > 0) {
        for (int i = 0; i < e->nargs; i++)
            Py_XDECREF(e->a[i]);
    }
    if (e->handle != NULL) {
        e->handle->fired = 1;
        Py_DECREF(e->handle);
    }
    e->cb = NULL;
    e->args = NULL;
    e->nargs = 0;
    e->handle = NULL;
}

static int
kheap_reserve(KernelSimObject *self, Py_ssize_t need)
{
    if (need <= self->heap_cap)
        return 0;
    Py_ssize_t cap = self->heap_cap ? self->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    KEntry *heap = (KEntry *)PyMem_Realloc(self->heap, cap * sizeof(KEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->heap_cap = cap;
    return 0;
}

static void
kheap_push(KernelSimObject *self, KEntry entry)
{
    /* Caller must have reserved space. */
    KEntry *h = self->heap;
    Py_ssize_t pos = self->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!KLESS(entry, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = entry;
}

static KEntry
kheap_pop(KernelSimObject *self)
{
    KEntry *h = self->heap;
    KEntry top = h[0];
    Py_ssize_t n = --self->heap_len;
    if (n > 0) {
        KEntry last = h[n];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && KLESS(h[child + 1], h[child]))
                child += 1;
            if (!KLESS(h[child], last))
                break;
            h[pos] = h[child];
            pos = child;
        }
        h[pos] = last;
    }
    return top;
}

/* The simulators alive: the native packet and segment free lists (below)
 * are emptied when the last one goes, so they do not outlive the runs. */
static Py_ssize_t live_sims;
static void free_lists_drain(void);

static PyObject *
ksim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    KernelSimObject *self = (KernelSimObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    live_sims++;
    self->now = 0.0;
    self->events_processed = 0;
    self->events_native = 0;
    self->seq = 0;
    self->heap = NULL;
    self->heap_len = 0;
    self->heap_cap = 0;
    self->running = 0;
    self->stopped = 0;
    return (PyObject *)self;
}

/* Pending entries own bound methods of links and agents that in turn own
 * the simulator, so the heap is the collector's way into that cycle. */
static int
ksim_traverse(KernelSimObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        KEntry *e = &self->heap[i];
        Py_VISIT(e->cb);
        Py_VISIT(e->args);
        for (int j = 0; j < e->nargs; j++)
            Py_VISIT(e->a[j]);
    }
    return 0;
}

/* Entries leave the heap before their references drop: a destructor that
 * schedules on this simulator finds a consistent heap. */
static int
ksim_clear(KernelSimObject *self)
{
    while (self->heap_len > 0) {
        KEntry e = self->heap[--self->heap_len];
        kentry_clear(&e);
    }
    return 0;
}

static void
ksim_dealloc(KernelSimObject *self)
{
    PyObject_GC_UnTrack(self);
    ksim_clear(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
    if (--live_sims == 0)
        free_lists_drain();
}

/* The "native links" and "native transport" sections below. */
static int native_kind(PyObject *cb, PyObject **owner);
static int native_fire(int kind, PyObject *owner);
static const char *native_method(int kind);
/* The link layer's classes, then (from T_SENDER) the transport's: the two
 * halves bind separately, each on the first use of its native type. */
enum { T_LINK, T_LSTATS, T_NODE, T_NSTATS, T_HOST, T_PACKET, T_QUEUE, T_QSTATS,
       T_DROPTAIL, T_CAPTURE, T_ROUTING, T_SENDER, T_SSTATS, T_SEG, T_RTT, T_RECV,
       T_RSTATS, T_CC, T_COUNT };

static PyObject *ksim_get_native(PyObject *self, void *closure);

/* Shared push: builds the entry from (t, seq, callback, args...) and pushes
 * it.  A bound _deliver / _serve_queue of a native link, or _fire_rto of a
 * native sender, becomes a native entry.  make_handle: return a KernelEvent
 * or None. */
static PyObject *
ksim_push_event(KernelSimObject *self, double t, int64_t seq, PyObject *cb,
                PyObject *const *extra, Py_ssize_t nextra, int make_handle)
{
    if (kheap_reserve(self, self->heap_len + 1) < 0)
        return NULL;
    KEntry e;
    e.t = t;
    e.seq = seq;
    e.args = NULL;
    e.handle = NULL;
    PyObject *link;
    int kind = nextra == 0 ? native_kind(cb, &link) : 0;
    e.cb = Py_NewRef(kind ? link : cb);
    if (kind) {
        e.nargs = kind;
    }
    else if (nextra <= KSIM_INLINE_ARGS) {
        e.nargs = (int)nextra;
        for (Py_ssize_t i = 0; i < nextra; i++)
            e.a[i] = Py_NewRef(extra[i]);
    }
    else {
        e.nargs = -1;
        e.args = PyTuple_New(nextra);
        if (e.args == NULL) {
            Py_DECREF(e.cb);
            return NULL;
        }
        for (Py_ssize_t i = 0; i < nextra; i++)
            PyTuple_SET_ITEM(e.args, i, Py_NewRef(extra[i]));
    }
    PyObject *result;
    if (make_handle) {
        KernelEventObject *ev = kevent_new(t, e.seq);
        if (ev == NULL) {
            kentry_clear(&e);
            return NULL;
        }
        e.handle = (KernelEventObject *)Py_NewRef((PyObject *)ev);
        result = (PyObject *)ev;
    }
    else {
        result = Py_NewRef(Py_None);
    }
    kheap_push(self, e);
    return result;
}

static PyObject *
ksim_schedule_common(KernelSimObject *self, PyObject *const *args,
                     Py_ssize_t nargs, int absolute, int make_handle,
                     const char *name)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError, "%s() requires a delay and a callback", name);
        return NULL;
    }
    double value = PyFloat_AsDouble(args[0]);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    double t;
    if (value != value) {
        /* value < now is false for NaN: the heap would fire out of order. */
        raise_sim_error_obj(PyUnicode_FromFormat(
            "cannot schedule an event at a NaN time (got %S)", args[0]));
        return NULL;
    }
    if (absolute) {
        if (value < self->now) {
            PyObject *now_obj = PyFloat_FromDouble(self->now);
            if (now_obj == NULL)
                return NULL;
            PyObject *msg = PyUnicode_FromFormat(
                "cannot schedule an event at t=%S before the current time t=%S",
                args[0], now_obj);
            Py_DECREF(now_obj);
            raise_sim_error_obj(msg);
            return NULL;
        }
        t = value;
    }
    else {
        if (value < 0) {
            PyObject *msg = PyUnicode_FromFormat(
                "cannot schedule an event %S seconds in the past", args[0]);
            raise_sim_error_obj(msg);
            return NULL;
        }
        t = self->now + value;
    }
    PyObject *result = ksim_push_event(self, t, self->seq, args[1], args + 2, nargs - 2,
                                       make_handle);
    if (result != NULL)
        self->seq += 1;
    return result;
}

static PyObject *
ksim_schedule(KernelSimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return ksim_schedule_common(self, args, nargs, 0, 1, "schedule");
}

static PyObject *
ksim_schedule_at(KernelSimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return ksim_schedule_common(self, args, nargs, 1, 1, "schedule_at");
}

static PyObject *
ksim_schedule_fast(KernelSimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return ksim_schedule_common(self, args, nargs, 0, 0, "schedule_fast");
}

static PyObject *
ksim_schedule_fast_at(KernelSimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return ksim_schedule_common(self, args, nargs, 1, 0, "schedule_fast_at");
}

static PyObject *
ksim_cancel(KernelSimObject *self, PyObject *event)
{
    if (event == Py_None)
        Py_RETURN_NONE;
    if (Py_IS_TYPE(event, &KernelEventType)) {
        ((KernelEventObject *)event)->cancelled = 1;
        Py_RETURN_NONE;
    }
    PyObject *res = PyObject_CallMethod(event, "cancel", NULL);
    if (res == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyObject *
ksim_stop(KernelSimObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
ksim_run(KernelSimObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None;
    PyObject *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist, &until_obj, &max_obj))
        return NULL;
    int have_until = until_obj != Py_None;
    int have_max = max_obj != Py_None;
    double until = 0.0;
    long long max_events = 0;
    if (have_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (have_max) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    if (self->running) {
        PyObject *msg = PyUnicode_FromString("Simulator.run() is not reentrant");
        raise_sim_error_obj(msg);
        return NULL;
    }
    self->running = 1;
    self->stopped = 0;
    int gc_was_enabled = PyGC_IsEnabled();
    if (gc_was_enabled)
        PyGC_Disable();
    long long processed = 0, native = 0;
    int ok = 1;
    while (self->heap_len > 0) {
        KEntry *top = &self->heap[0];
        int cancelled = (top->cb == NULL) ||
                        (top->handle != NULL && top->handle->cancelled);
        if (cancelled) {
            KEntry e = kheap_pop(self);
            kentry_clear(&e);
            continue;
        }
        if (have_until && top->t > until)
            break;
        KEntry e = kheap_pop(self);
        self->now = e.t;
        int failed;
        if (e.nargs < -1) {
            failed = native_fire(e.nargs, e.cb) < 0;
            native += !failed;
        }
        else {
            PyObject *res = e.nargs >= 0
                ? PyObject_Vectorcall(e.cb, e.a, (size_t)e.nargs, NULL)
                : PyObject_CallObject(e.cb, e.args);
            failed = res == NULL;
            Py_XDECREF(res);
        }
        if (failed) {
            kentry_clear(&e);
            ok = 0;
            break;
        }
        processed += 1;
        kentry_clear(&e);
        if (self->stopped)
            break;
        if (have_max && processed >= max_events)
            break;
    }
    self->running = 0;
    self->events_processed += processed;
    self->events_native += native;
    if (gc_was_enabled)
        PyGC_Enable();
    if (!ok)
        return NULL;
    if (have_until && !self->stopped && self->now < until)
        self->now = until;
    return PyFloat_FromDouble(self->now);
}

static PyObject *
ksim_get_pending(KernelSimObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->heap_len);
}

static PyObject *
ksim_get_running(KernelSimObject *self, void *closure)
{
    return PyBool_FromLong(self->running);
}

static PyObject *
ksim_get_stopped(KernelSimObject *self, void *closure)
{
    return PyBool_FromLong(self->stopped);
}

static PyObject *
ksim_repr(KernelSimObject *self)
{
    char buf[64];
    snprintf(buf, sizeof(buf), "%.6f", self->now);
    return PyUnicode_FromFormat("KernelSim(now=%s, pending=%zd)", buf, self->heap_len);
}

/* ---- pipeline support: heap import/export on a KernelSim ---- */

static PyObject *
ksim_export_entries(KernelSimObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->heap_len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->heap_len; i++) {
        KEntry *e = &self->heap[i];
        int cancelled = (e->cb == NULL) ||
                        (e->handle != NULL && e->handle->cancelled);
        PyObject *cb;
        PyObject *tup_args;
        if (cancelled) {
            cb = Py_NewRef(Py_None);
            tup_args = PyTuple_New(0);
        }
        else if (e->nargs < -1) {
            /* Native entries read as the bound method they stand for, so
             * pending events compare equal across kernels. */
            cb = PyObject_GetAttrString(e->cb, native_method(e->nargs));
            tup_args = cb == NULL ? NULL : PyTuple_New(0);
        }
        else {
            cb = Py_NewRef(e->cb);
            if (e->nargs >= 0) {
                tup_args = PyTuple_New(e->nargs);
                if (tup_args != NULL) {
                    for (int j = 0; j < e->nargs; j++)
                        PyTuple_SET_ITEM(tup_args, j, Py_NewRef(e->a[j]));
                }
            }
            else {
                tup_args = Py_NewRef(e->args);
            }
        }
        if (tup_args == NULL) {
            Py_XDECREF(cb);
            Py_DECREF(out);
            return NULL;
        }
        PyObject *item = Py_BuildValue("(dLNN)", e->t, (long long)e->seq, cb, tup_args);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyObject *
ksim_clear_pending(KernelSimObject *self, PyObject *Py_UNUSED(ignored))
{
    ksim_clear(self);
    Py_RETURN_NONE;
}

static PyObject *
ksim_push_entry(KernelSimObject *self, PyObject *args)
{
    double t;
    long long seq;
    PyObject *cb;
    PyObject *cb_args;
    if (!PyArg_ParseTuple(args, "dLOO!", &t, &seq, &cb, &PyTuple_Type, &cb_args))
        return NULL;
    if (cb == Py_None) {
        if (kheap_reserve(self, self->heap_len + 1) < 0)
            return NULL;
        KEntry e = {t, (int64_t)seq, NULL, NULL, {NULL, NULL, NULL}, 0, NULL};
        kheap_push(self, e);
        Py_RETURN_NONE;
    }
    return ksim_push_event(self, t, (int64_t)seq, cb, ((PyTupleObject *)cb_args)->ob_item,
                           PyTuple_GET_SIZE(cb_args), 1);
}

static PyObject *
ksim_advance(KernelSimObject *self, PyObject *args)
{
    double now;
    long long seq;
    long long processed;
    if (!PyArg_ParseTuple(args, "dLL", &now, &seq, &processed))
        return NULL;
    self->now = now;
    self->seq = (int64_t)seq;
    self->events_processed += processed;
    Py_RETURN_NONE;
}

static PyMemberDef ksim_members[] = {
    {"now", T_DOUBLE, offsetof(KernelSimObject, now), 0,
     "Current simulation time in seconds."},
    {"events_processed", T_LONGLONG, offsetof(KernelSimObject, events_processed), 0,
     "Number of callbacks executed by completed run() calls."},
    {"events_native", T_LONGLONG, offsetof(KernelSimObject, events_native), READONLY,
     "Of events_processed, those dispatched in C without a Python callable."},
    {"_seq", T_LONGLONG, offsetof(KernelSimObject, seq), 0,
     "Next event sequence number."},
    {NULL, 0, 0, 0, NULL},
};

static PyMethodDef ksim_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))ksim_schedule, METH_FASTCALL,
     "Schedule callback(*args) delay seconds from now; returns a handle."},
    {"schedule_at", (PyCFunction)(void (*)(void))ksim_schedule_at, METH_FASTCALL,
     "Schedule callback(*args) at an absolute time; returns a handle."},
    {"schedule_fast", (PyCFunction)(void (*)(void))ksim_schedule_fast, METH_FASTCALL,
     "Fire-and-forget fast path: no cancellation handle is created."},
    {"schedule_fast_at", (PyCFunction)(void (*)(void))ksim_schedule_fast_at, METH_FASTCALL,
     "Absolute-time variant of schedule_fast()."},
    {"cancel", (PyCFunction)ksim_cancel, METH_O,
     "Cancel event if it is not None and has not yet fired."},
    {"stop", (PyCFunction)ksim_stop, METH_NOARGS,
     "Stop the run loop after the current event finishes."},
    {"run", (PyCFunction)(void (*)(void))ksim_run, METH_VARARGS | METH_KEYWORDS,
     "Run the event loop; returns the simulation time when it stopped."},
    {"_export_entries", (PyCFunction)ksim_export_entries, METH_NOARGS,
     "Pending heap entries as (t, seq, callback_or_None, args) tuples."},
    {"_clear_pending", (PyCFunction)ksim_clear_pending, METH_NOARGS,
     "Drop every pending heap entry: Network.close, and the pipeline's import."},
    {"_push_entry", (PyCFunction)ksim_push_entry, METH_VARARGS,
     "Push an entry with an explicit sequence number; returns its handle."},
    {"_advance", (PyCFunction)ksim_advance, METH_VARARGS,
     "Set (now, seq) and add a processed-events delta (pipeline support)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef ksim_getset[] = {
    {"pending_events", (getter)ksim_get_pending, NULL,
     "Number of events still in the heap (including cancelled ones).", NULL},
#define KSIM_NATIVE(name, T, doc) {name, ksim_get_native, NULL, doc, (void *)(intptr_t)(T)},
    KSIM_NATIVE("link_type", T_LINK,
                "The Link subclass whose handlers run in C; Link(sim, ...) selects it.")
    KSIM_NATIVE("sender_type", T_SENDER,
                "The TcpSender subclass whose ACK clocking runs in C; "
                "TcpSender(host, ...) selects it.")
    KSIM_NATIVE("receiver_type", T_RECV,
                "The TcpReceiver subclass whose handle_packet runs in C; "
                "TcpReceiver(host, ...) selects it.")
    KSIM_NATIVE("link_stats_type", T_LSTATS, "LinkStats with C counters; Link builds it.")
    KSIM_NATIVE("node_stats_type", T_NSTATS, "NodeStats with C counters; Node builds it.")
    KSIM_NATIVE("queue_stats_type", T_QSTATS,
                "QueueStats with C counters; a Link gives its queue one.")
    KSIM_NATIVE("packet_type", T_PACKET,
                "Packet with C numbers; every packet the native agents build is one.")
    KSIM_NATIVE("sender_stats_type", T_SSTATS,
                "SenderStats with C counters; TcpSender builds it.")
    KSIM_NATIVE("receiver_stats_type", T_RSTATS,
                "ReceiverStats with C counters; TcpReceiver builds it.")
#undef KSIM_NATIVE
    {"_running", (getter)ksim_get_running, NULL, NULL, NULL},
    {"_stopped", (getter)ksim_get_stopped, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject KernelSimType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._ckernel.KernelSim",
    .tp_basicsize = sizeof(KernelSimObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled drop-in for repro.netsim.engine.Simulator.",
    .tp_new = ksim_new,
    .tp_dealloc = (destructor)ksim_dealloc,
    .tp_traverse = (traverseproc)ksim_traverse,
    .tp_clear = (inquiry)ksim_clear,
    .tp_repr = (reprfunc)ksim_repr,
    .tp_members = ksim_members,
    .tp_methods = ksim_methods,
    .tp_getset = ksim_getset,
};

/* ------------------------------------------------------------ native links
 *
 * repro.netsim.link.Link's send / _serve_queue / _deliver for links on a
 * KernelSim, with the stock Node.receive, hop-cache forward, Host dispatch
 * and DropTailQueue bodies fused in.  The link type is a subclass of the
 * Python Link created here, so every instance has Link's slots and
 * properties and inherits its dynamics methods; only the three handlers
 * differ, and their heap entries are KN_DELIVER / KN_SERVE.
 *
 * All state is read and written in place, in the __slots__ of the Python
 * Link / Node / Host / Queue / Packet objects, through member offsets
 * resolved once (nl_bind), except for the numbers a packet touches between
 * two policy calls: on a KernelSim, LinkStats / NodeStats / QueueStats /
 * SenderStats / ReceiverStats, the link itself and the packets the native
 * agents build are native subclasses (NC_FIELDS, one helper: nl_subtype)
 * whose counters, _busy_until / _serve_at and packet numbers (id, size,
 * flow and subflow ids, seq, payload_len, ack, dsn, dack, hops, ts_echo,
 * created_at, enqueued_at) are C int64 / double fields under the slot
 * names, added in place.  The replaced base slots stay unset and no C path
 * reads them, so the state exists once; Python sees getsets that take ints
 * only (floats for the double fields), bounded by int64 and not deletable.
 * The packet's strings, tag, flags and SACK tuple stay slots; queue._bytes
 * stays a Python int (a queue is built without its simulator), written from
 * C arithmetic.  Native packets come from a free list (free_pop) and draw
 * their ids from the one sequence Packet() and acquire() draw from
 * (PacketIds); any other packet is foreign and runs the Python body of the
 * step it reaches (Link.send / _transmit / _deliver, Queue.dequeue, the
 * agents' handle_packet), so no C path reads a foreign packet's slots.  A
 * forwarded packet's next link comes from the inbound link's hop memo
 * (HopMemo), checked against the node's hop-cache dict and the routing
 * table's version, and Node.send on any miss; Link._close drops the memo.  Each function keeps its
 * Python twin's operation order (link.py, node.py, queues.py: keep in sync)
 * and calls Python wherever the twin calls something it does not define.
 * nl_deliver fuses what the Python Link._deliver calls -- Node.receive,
 * Host._deliver_locally and Node.send's hop-cache hit (nl_arrive,
 * nl_deliver_locally, nl_forward) -- where the Python tier makes one call
 * per body.
 */

static const char *const NL_TYPE_NAMES[T_COUNT][2] = {
    {"repro.netsim.link", "Link"}, {"repro.netsim.link", "LinkStats"},
    {"repro.netsim.node", "Node"}, {"repro.netsim.node", "NodeStats"},
    {"repro.netsim.node", "Host"}, {"repro.netsim.packet", "Packet"},
    {"repro.netsim.queues", "Queue"}, {"repro.netsim.queues", "QueueStats"},
    {"repro.netsim.queues", "DropTailQueue"},
    {"repro.netsim.capture", "PacketCapture"}, {"repro.netsim.routing", "TagRoutingTable"},
    {"repro.tcp.sender", "TcpSender"}, {"repro.tcp.sender", "SenderStats"},
    {"repro.tcp.sender", "_SegmentInfo"}, {"repro.tcp.rtt", "RttEstimator"},
    {"repro.tcp.receiver", "TcpReceiver"}, {"repro.tcp.receiver", "ReceiverStats"},
    {"repro.tcp.cc.base", "CongestionControl"},
};

#define NL_SLOTS(X)                                                         \
    X(LINK, sim) X(LINK, dst) X(LINK, rate_bps) X(LINK, delay)              \
    X(LINK, queue) X(LINK, _enqueue) X(LINK, stats) X(LINK, _serving)       \
    X(LINK, _dst_receive) X(LINK, _fused_receive) X(LINK, _fused_host)      \
    X(LINK, _in_flight) X(LINK, _impaired) X(LINK, _dynamic)                \
    X(LINK, _deadlines)                                                     \
    X(NODE, name) X(NODE, sim) X(NODE, routing) X(NODE, stats)              \
    X(NODE, _hop_cache) X(NODE, _hop_version)                               \
    X(HOST, _agents_by_flow) X(HOST, _sole_agent) X(HOST, _sole_flow)       \
    X(HOST, _sole_subflow) X(HOST, _captures)                               \
    X(PACKET, src) X(PACKET, dst) X(PACKET, tag) X(PACKET, protocol)        \
    X(PACKET, is_ack) X(PACKET, is_retransmission) X(PACKET, sack_blocks)   \
    X(PACKET, ecn) X(PACKET, _poolable)                                     \
    X(QUEUE, capacity_packets) X(QUEUE, stats) X(QUEUE, _queue)             \
    X(QUEUE, _bytes)                                                        \
    X(CAPTURE, data_only) X(CAPTURE, flow_id) X(CAPTURE, _rows)             \
    X(CAPTURE, _record_cache) X(ROUTING, version)

/* What the transport reads on top of that ("native transport" below). */
#define NT_SLOTS(X)                                                         \
    X(SENDER, host) X(SENDER, sim) X(SENDER, _host_send)                    \
    X(SENDER, _route_enabled) X(SENDER, _route_key) X(SENDER, _route_link)  \
    X(SENDER, _route_version) X(SENDER, dst) X(SENDER, flow_id)             \
    X(SENDER, subflow_id) X(SENDER, cc) X(SENDER, data_provider)            \
    X(SENDER, tag) X(SENDER, mss) X(SENDER, ecn) X(SENDER, rtt)             \
    X(SENDER, stats) X(SENDER, _segments) X(SENDER, _seg_queue)             \
    X(SENDER, _in_fast_recovery) X(SENDER, _rto_event) X(SENDER, closed)    \
    X(SENDER, path_down) X(SENDER, on_idle)                                 \
    X(SEG, seq) X(SEG, length) X(SEG, dsn) X(SEG, sent_at)                  \
    X(SEG, retransmitted) X(SEG, sacked) X(SEG, lost) X(SEG, lost_pending)  \
    X(SEG, retx_in_recovery)                                                \
    X(RTT, alpha) X(RTT, beta) X(RTT, min_rto) X(RTT, max_rto) X(RTT, srtt) \
    X(RTT, rttvar) X(RTT, min_rtt) X(RTT, latest_rtt) X(RTT, samples)       \
    X(RTT, _rto)                                                            \
    X(RECV, host) X(RECV, sim) X(RECV, _host_send) X(RECV, _route_enabled)  \
    X(RECV, _route_key) X(RECV, _route_link) X(RECV, _route_version)        \
    X(RECV, peer) X(RECV, flow_id) X(RECV, subflow_id) X(RECV, tag)         \
    X(RECV, connection_sink) X(RECV, stats) X(RECV, _out_of_order)          \
    X(CC, mss) X(CC, cwnd) X(CC, ssthresh)

#define NL_ENUM(T, name) O_##T##_##name,
#define NL_ROW(T, name) {T_##T, #name},
enum { NL_SLOTS(NL_ENUM) O_LINK_COUNT, O_LINK_LAST = O_LINK_COUNT - 1,
       NT_SLOTS(NL_ENUM) O_COUNT };
static const struct { int type; const char *name; } NL_SLOT_TABLE[O_COUNT] = {
    NL_SLOTS(NL_ROW) NT_SLOTS(NL_ROW)
};

/* The C numbers of the native subclasses: Python class, slot name, member
 * type.  A class's rows follow its instance layout in this order.  A
 * T_OBJECT_EX row is no number but a reference C keeps: a member, visited
 * and cleared with the instance's slots (CPython clears no read-only one),
 * whose type C checks before it reads it. */
#define NC_FIELDS(X)                                                        \
    X(LINK, _busy_until, T_DOUBLE) X(LINK, _serve_at, T_DOUBLE)             \
    X(LINK, _hop_memo, T_OBJECT_EX)                                         \
    X(PACKET, packet_id, T_LONGLONG) X(PACKET, size, T_LONGLONG)            \
    X(PACKET, flow_id, T_LONGLONG) X(PACKET, subflow_id, T_LONGLONG)        \
    X(PACKET, seq, T_LONGLONG) X(PACKET, payload_len, T_LONGLONG)           \
    X(PACKET, ack, T_LONGLONG) X(PACKET, dsn, T_LONGLONG)                   \
    X(PACKET, dack, T_LONGLONG) X(PACKET, hops, T_LONGLONG)                 \
    X(PACKET, ts_echo, T_DOUBLE) X(PACKET, created_at, T_DOUBLE)            \
    X(PACKET, enqueued_at, T_DOUBLE)                                        \
    X(QSTATS, enqueued, T_LONGLONG) X(QSTATS, dequeued, T_LONGLONG)         \
    X(QSTATS, dropped, T_LONGLONG) X(QSTATS, bytes_enqueued, T_LONGLONG)    \
    X(QSTATS, bytes_dropped, T_LONGLONG) X(QSTATS, max_depth, T_LONGLONG)   \
    X(QSTATS, early_drops, T_LONGLONG) X(QSTATS, ecn_marks, T_LONGLONG)     \
    X(QSTATS, queue_delay_sum, T_DOUBLE)                                    \
    X(LSTATS, packets_sent, T_LONGLONG) X(LSTATS, bytes_sent, T_LONGLONG)   \
    X(LSTATS, packets_dropped, T_LONGLONG) X(LSTATS, busy_time, T_DOUBLE)   \
    X(NSTATS, received, T_LONGLONG) X(NSTATS, forwarded, T_LONGLONG)        \
    X(NSTATS, delivered, T_LONGLONG) X(NSTATS, routing_drops, T_LONGLONG)   \
    X(SSTATS, segments_sent, T_LONGLONG) X(SSTATS, bytes_sent, T_LONGLONG)  \
    X(SSTATS, bytes_acked, T_LONGLONG) X(SSTATS, retransmissions, T_LONGLONG) \
    X(SSTATS, fast_retransmits, T_LONGLONG) X(SSTATS, timeouts, T_LONGLONG) \
    X(SSTATS, dupacks, T_LONGLONG) X(SSTATS, ecn_echoes, T_LONGLONG)        \
    X(RSTATS, segments_received, T_LONGLONG)                                \
    X(RSTATS, bytes_received, T_LONGLONG) X(RSTATS, duplicates, T_LONGLONG) \
    X(RSTATS, out_of_order, T_LONGLONG) X(RSTATS, acks_sent, T_LONGLONG)    \
    X(RSTATS, ce_received, T_LONGLONG)                                      \
    X(SENDER, snd_una, T_LONGLONG) X(SENDER, snd_nxt, T_LONGLONG)           \
    X(SENDER, _sacked_bytes, T_LONGLONG)                                    \
    X(SENDER, _lost_pending_bytes, T_LONGLONG)                              \
    X(SENDER, _dupacks, T_LONGLONG) X(SENDER, _recover, T_LONGLONG)         \
    X(SENDER, _ecn_recover, T_LONGLONG) X(SENDER, _rto_deadline, T_DOUBLE)  \
    X(SENDER, _rto_fire_at, T_DOUBLE) X(SENDER, _rto_backoff, T_DOUBLE)     \
    X(RECV, ack_size, T_LONGLONG) X(RECV, rcv_nxt, T_LONGLONG)              \
    X(RECV, _last_dack, T_LONGLONG)

#define NC_ENUM(T, name, kind) F_##T##_##name,
#define NC_ROW(T, name, kind) {T_##T, #name, kind},
enum { NC_FIELDS(NC_ENUM) F_COUNT };
static const struct { int type; const char *name; int kind; } NC_TABLE[F_COUNT] = {
    NC_FIELDS(NC_ROW)
};

#define NL_NAMES(X)                                                         \
    X(append) X(popleft) X(send) X(dequeue) X(version) X(now) X(_queue)     \
    X(_admit_impaired) X(_deliver_locally) X(__slots__) X(_packet_counter)  \
    /* the transport's */                                                   \
    X(cwnd) X(mss) X(in_slow_start) X(on_ack) X(on_loss) X(on_ecn)          \
    X(on_timeout) X(request_data) X(on_data_acked) X(on_subflow_data)       \
    X(update) X(samples) X(srtt) X(_rto) X(cancel) X(get) X(tcp)            \
    X(handle_packet)

#define NL_NAME_MEMBER(name) PyObject *s_##name;
static struct {
    PyTypeObject *type[T_COUNT];    /* the Python classes */
    Py_ssize_t off[O_COUNT];        /* slot offsets inside their instances */
    PyTypeObject *native[T_COUNT];  /* the subclasses defined here, by base */
    Py_ssize_t foff[F_COUNT];       /* C field offsets inside their instances */
    PyObject *droptail_enqueue;     /* DropTailQueue.enqueue, the function */
    PyObject *capture_on_packet;    /* PacketCapture.on_packet, the function */
    PyTypeObject *deque_type;       /* collections.deque and its two */
    PyObject *deque_append;         /*   method descriptors every hop uses, */
    PyObject *deque_popleft;
    PyObject *deque_appendleft;
    PyCFunction f_append, f_popleft, f_appendleft;  /* and their C functions */
    PyObject *one;
    PyObject *reconstructor;        /* copyreg._reconstructor (nc_reduce) */
    PyObject *ids;                  /* the PacketIds of packet.py's _packet_counter */
    /* The Python bodies a foreign packet runs: Link.send / ._transmit /
     * ._deliver, TcpSender.handle_packet, TcpReceiver.handle_packet. */
    PyObject *py_send, *py_transmit, *py_deliver, *py_sender_handle, *py_receiver_handle;
    /* native transport */
    int64_t header_size;            /* repro.units.HEADER_SIZE */
    PyObject *cc_in_slow_start;     /* CongestionControl.in_slow_start, the property */
    PyObject *two, *empty;
    NL_NAMES(NL_NAME_MEMBER)
} NL;

#define NL_SLOT(obj, T, name) (*(PyObject **)((char *)(obj) + NL.off[O_##T##_##name]))
/* A C field of an instance of the native subclass of T. */
#define NC_AT(obj, f, ctype) (*(ctype *)((char *)(obj) + NL.foff[f]))
#define NC_I64(obj, T, name) NC_AT(obj, F_##T##_##name, long long)
#define NC_F64(obj, T, name) NC_AT(obj, F_##T##_##name, double)

static int
nl_unset(const char *name)
{
    PyErr_Format(PyExc_AttributeError, "native link: slot %s is unset", name);
    return -1;
}

/* Borrowed slot value into a new local; an unset slot is AttributeError. */
#define NL_GET(var, obj, T, name)                                           \
    PyObject *var = NL_SLOT(obj, T, name);                                  \
    if (var == NULL)                                                        \
        return nl_unset(#name)

/* isinstance(obj, NL.type[type]): the class itself, or one of the last
 * subclasses that passed (held, so their addresses stay theirs), answered by
 * a compare. */
#define NL_SEEN 4
static PyTypeObject *nl_seen[T_COUNT][NL_SEEN];

static inline int
nl_is(PyObject *obj, int type)
{
    PyTypeObject *tp = Py_TYPE(obj);
    if (tp == NL.type[type])
        return 1;
    PyTypeObject **seen = nl_seen[type];
    for (int i = 0; i < NL_SEEN; i++) {
        if (seen[i] == tp)
            return 1;
    }
    if (!PyType_IsSubtype(tp, NL.type[type]))
        return 0;
    Py_XDECREF(seen[NL_SEEN - 1]);
    memmove(seen + 1, seen, (NL_SEEN - 1) * sizeof *seen);
    seen[0] = (PyTypeObject *)Py_NewRef((PyObject *)tp);
    return 1;
}

/* Offsets are only valid inside instances of the class they came from. */
static inline int
nl_expect(PyObject *obj, int type, const char *what)
{
    if (nl_is(obj, type))
        return 0;
    PyErr_Format(PyExc_TypeError, "native link: %s must be a %s, not %s", what,
                 NL.type[type]->tp_name, Py_TYPE(obj)->tp_name);
    return -1;
}

#define NL_GET_AS(var, obj, T, name, AS)                                    \
    NL_GET(var, obj, T, name);                                              \
    if (nl_expect(var, T_##AS, #name) < 0)                                  \
        return -1

/* C fields exist only on the native subclass itself (it has no subclasses). */
static int
nc_expect(PyObject *obj, int type, const char *what)
{
    if (Py_IS_TYPE(obj, NL.native[type]))
        return 0;
    PyErr_Format(PyExc_TypeError, "native kernel: %s must be a %s, not %s", what,
                 NL.native[type]->tp_name, Py_TYPE(obj)->tp_name);
    return -1;
}

#define NL_GET_NATIVE(var, obj, T, name, AS)                                \
    NL_GET(var, obj, T, name);                                              \
    if (nc_expect(var, T_##AS, #name) < 0)                                  \
        return -1

/* *slot = value, which is stolen; NULL passes an error through. */
static int
nl_set(PyObject **slot, PyObject *value)
{
    if (value == NULL)
        return -1;
    PyObject *old = *slot;
    *slot = value;
    Py_XDECREF(old);
    return 0;
}

#define NL_SET(obj, T, name, value) nl_set(&NL_SLOT(obj, T, name), value)

static inline int
nl_true(PyObject *v)
{
    return v == Py_True ? 1 : v == Py_False ? 0 : PyObject_IsTrue(v);
}

/* -1.0 with an exception set on failure, like PyFloat_AsDouble (an exact
 * int converts as float() does, without the intermediate float). */
static inline double
nl_double(PyObject *v)
{
    return PyFloat_CheckExact(v) ? PyFloat_AS_DOUBLE(v)
         : PyLong_CheckExact(v) ? PyLong_AsDouble(v) : PyFloat_AsDouble(v);
}

#define NL_FAILED(x) ((x) == -1.0 && PyErr_Occurred())

static int
nt_type_error(const char *name, const char *want, PyObject *v)
{
    PyErr_Format(PyExc_TypeError, "native kernel: %s must be %s, not %s", name, want,
                 Py_TYPE(v)->tp_name);
    return -1;
}

static inline int
nt_i64(PyObject *v, int64_t *out, const char *name)
{
    if (v == NULL)
        return nl_unset(name);
    if (!PyLong_Check(v))
        return nt_type_error(name, "an int", v);
    long long x = PyLong_AsLongLong(v);
    if (x == -1 && PyErr_Occurred())
        return -1;
    *out = x;
    return 0;
}

/* Discard a call's result; -1 when the call raised. */
static int
nl_done(PyObject *res)
{
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* deque.append / .popleft / .appendleft: on an exact deque the C function
 * behind the method descriptor resolved in nl_bind, called directly (no
 * lookup by name, no vectorcall per hop); any other container gets the
 * call. */
static int
nl_append(PyObject *container, PyObject *item)
{
    if (Py_IS_TYPE(container, NL.deque_type))
        return nl_done(NL.f_append(container, item));
    return nl_done(PyObject_CallMethodOneArg(container, NL.s_append, item));
}

static PyObject *
nl_popleft(PyObject *container)
{
    if (Py_IS_TYPE(container, NL.deque_type))
        return NL.f_popleft(container, NULL);
    return PyObject_CallMethodNoArgs(container, NL.s_popleft);
}

/* The C function of deque.name, which takes the flags given. */
static int
nl_deque_method(PyObject **descr, PyCFunction *fn, const char *name, int flags)
{
    if (*descr == NULL)
        *descr = PyObject_GetAttrString((PyObject *)NL.deque_type, name);
    if (*descr == NULL)
        return -1;
    PyMethodDef *def = Py_IS_TYPE(*descr, &PyMethodDescr_Type)
        ? ((PyMethodDescrObject *)*descr)->d_method : NULL;
    if (def == NULL || (def->ml_flags & ~METH_COEXIST) != flags) {
        PyErr_Format(PyExc_TypeError, "native kernel: deque.%s is not a C method", name);
        return -1;
    }
    *fn = def->ml_meth;
    return 0;
}

static KernelSimObject *
nl_sim(PyObject *link)
{
    PyObject *sim = NL_SLOT(link, LINK, sim);
    if (sim == NULL || !Py_IS_TYPE(sim, &KernelSimType)) {
        PyErr_SetString(PyExc_TypeError, "native link: sim must be the link's KernelSim");
        return NULL;
    }
    return (KernelSimObject *)sim;
}

/* link.py's schedule_fast_at pushes: one seq consumed, and no past-time
 * check, since a link never schedules before now (tx > 0, delay >= 0). */
static int
nl_push(KernelSimObject *sim, double t, PyObject *link, int kind)
{
    if (kheap_reserve(sim, sim->heap_len + 1) < 0)
        return -1;
    KEntry e;
    e.t = t;
    e.seq = sim->seq++;
    e.cb = Py_NewRef(link);
    e.args = NULL;
    e.nargs = kind;
    e.handle = NULL;
    kheap_push(sim, e);
    return 0;
}

/* An exact int that fits int64_t; 0 leaves any other value to Python. */
static int
nl_int64(PyObject *v, int64_t *out)
{
    if (v == NULL || !PyLong_CheckExact(v))
        return 0;
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(v, &overflow);
    return !overflow;
}

/* ---- native packets, their free list and id sequence ----
 *
 * Every packet the kernel makes is the native Packet (sim.packet_type): its
 * numbers are C fields (NC_FIELDS), the strings, tag, flags and SACK tuple
 * stay slots.  Any other packet -- a test's Packet(...), one a Python
 * TcpSender subclass or a UDP source acquired -- is foreign: the step it
 * reaches runs its Python body (Link.send / _transmit / _deliver,
 * Queue.dequeue, TcpSender / TcpReceiver.handle_packet), so no C path reads
 * a foreign packet's slots. */

static inline int
nl_native_packet(PyObject *p)
{
    return Py_IS_TYPE(p, NL.native[T_PACKET]);
}

/* A Python body C gives way to: func(*argv); -1 when it raised, else the
 * truth of its result when want_truth, else 0. */
static int
nl_py_call(PyObject *func, PyObject *const *argv, size_t nargs, int want_truth)
{
    PyObject *res = PyObject_Vectorcall(func, argv, nargs, NULL);
    if (res == NULL)
        return -1;
    int rc = want_truth ? PyObject_IsTrue(res) : 0;
    Py_DECREF(res);
    return rc;
}

/* Recycled native packets and segment records.  An object enters when its
 * life ends (Packet.release, a retired segment) and is reused only once the
 * list holds its last reference, so a holder never sees it change.  The
 * packet an ACK or a segment just released is still held by the delivery
 * that is running, so a pop looks a few entries deep for a free one.  Both
 * lists empty when the last KernelSim goes. */
#define FREE_LIMIT 256
typedef struct {
    PyObject *item[FREE_LIMIT];
    int n;
} FreeList;
static FreeList free_packets, free_segments;

static void
free_push(FreeList *fl, PyObject *obj)
{
    if (fl->n < FREE_LIMIT)
        fl->item[fl->n++] = Py_NewRef(obj);
}

static void
free_lists_drain(void)
{
    while (free_packets.n > 0)
        Py_DECREF(free_packets.item[--free_packets.n]);
    while (free_segments.n > 0)
        Py_DECREF(free_segments.item[--free_segments.n]);
}

#define FREE_SCAN 8

/* A recycled object of fl (new reference), or a fresh instance of tp. */
static PyObject *
free_pop(FreeList *fl, PyTypeObject *tp)
{
    for (int i = fl->n - 1; i >= 0 && i >= fl->n - FREE_SCAN; i--) {
        PyObject *obj = fl->item[i];
        if (Py_REFCNT(obj) == 1) {
            fl->item[i] = fl->item[--fl->n];
            return obj;
        }
    }
    return tp->tp_alloc(tp, 0);
}

/* The packet id sequence, one for the process: bound with the packet type,
 * it takes over packet.py's _packet_counter where that one stood, so
 * Packet(), acquire() and the native packets draw from one int64. */
typedef struct {
    PyObject_HEAD
    int64_t next;
} PacketIdsObject;

static PyObject *
pids_next(PacketIdsObject *self)
{
    return PyLong_FromLongLong((long long)self->next++);
}

static PyTypeObject PacketIdsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._ckernel.PacketIds",
    .tp_basicsize = sizeof(PacketIdsObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The packet id sequence of Packet(), acquire() and the native packets.",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)pids_next,
};

/* Packet.release on a native packet: into the free list, once. */
static int
np_release(PyObject *packet)
{
    PyObject **poolable = &NL_SLOT(packet, PACKET, _poolable);
    int yes = *poolable == NULL ? nl_unset("_poolable") : nl_true(*poolable);
    if (yes <= 0)
        return yes;
    if (nl_set(poolable, Py_NewRef(Py_False)) < 0)
        return -1;
    free_push(&free_packets, packet);
    return 0;
}

/* The head of the exact deque q, popped when it is a native packet (a new
 * reference); a foreign one is put back and *head is NULL.  -1 raised. */
static int
nl_pop_native(PyObject *q, PyObject **head)
{
    *head = NL.f_popleft(q, NULL);
    if (*head == NULL)
        return -1;
    if (nl_native_packet(*head))
        return 0;
    int rc = nl_done(NL.f_appendleft(q, *head));
    Py_CLEAR(*head);
    return rc;
}

/* ---- DropTailQueue.enqueue / Queue.dequeue (queues.py) ----
 *
 * On the native packet, with the queue's counters the native QueueStats
 * (sim.queue_stats_type) and its deque, capacity and _bytes plain: anything
 * else runs the Python body. */

static int
nl_queue_plain(PyObject *q, int64_t *capacity, int64_t *queued)
{
    PyObject *queue = NL_SLOT(q, QUEUE, _queue), *stats = NL_SLOT(q, QUEUE, stats);
    return queue != NULL && Py_IS_TYPE(queue, NL.deque_type) && stats != NULL &&
           Py_IS_TYPE(stats, NL.native[T_QSTATS]) &&
           nl_int64(NL_SLOT(q, QUEUE, capacity_packets), capacity) &&
           nl_int64(NL_SLOT(q, QUEUE, _bytes), queued);
}

/* 1 accepted, 0 dropped, -1 raised. */
static int
nl_droptail_enqueue(PyObject *q, PyObject *packet, double now)
{
    int64_t capacity, queued;
    if (!nl_queue_plain(q, &capacity, &queued)) {
        PyObject *now_obj = PyFloat_FromDouble(now);
        if (now_obj == NULL)
            return -1;
        PyObject *argv[3] = {q, packet, now_obj};
        int rc = nl_py_call(NL.droptail_enqueue, argv, 3, 1);
        Py_DECREF(now_obj);
        return rc;
    }
    PyObject *queue = NL_SLOT(q, QUEUE, _queue), *stats = NL_SLOT(q, QUEUE, stats);
    int64_t size = NC_I64(packet, PACKET, size);
    Py_ssize_t depth = Py_SIZE(queue);
    if (depth >= capacity) {
        NC_I64(stats, QSTATS, dropped) += 1;
        NC_I64(stats, QSTATS, bytes_dropped) += size;
        return 0;
    }
    NC_F64(packet, PACKET, enqueued_at) = now;
    if (nl_append(queue, packet) < 0 ||
        NL_SET(q, QUEUE, _bytes, PyLong_FromLongLong(queued + size)) < 0)
        return -1;
    NC_I64(stats, QSTATS, enqueued) += 1;
    NC_I64(stats, QSTATS, bytes_enqueued) += size;
    if (depth + 1 > NC_I64(stats, QSTATS, max_depth))
        NC_I64(stats, QSTATS, max_depth) = depth + 1;
    return 1;
}

/* *packet is a new reference, or NULL for an empty queue (Python's None). */
static int
nl_droptail_dequeue(PyObject *q, double now, PyObject **packet)
{
    *packet = NULL;
    int64_t capacity, queued;
    int plain = nl_queue_plain(q, &capacity, &queued);
    PyObject *queue = NL_SLOT(q, QUEUE, _queue), *head = NULL;
    if (plain && Py_SIZE(queue) == 0)
        return 0;
    if (plain && nl_pop_native(queue, &head) < 0)
        return -1;
    if (head == NULL) {
        PyObject *now_obj = PyFloat_FromDouble(now);
        if (now_obj == NULL)
            return -1;
        PyObject *dequeued = PyObject_CallMethodOneArg(q, NL.s_dequeue, now_obj);
        Py_DECREF(now_obj);
        if (dequeued == NULL)
            return -1;
        if (dequeued == Py_None)
            Py_DECREF(dequeued);
        else
            *packet = dequeued;
        return 0;
    }
    if (NL_SET(q, QUEUE, _bytes, PyLong_FromLongLong(queued - NC_I64(head, PACKET, size))) < 0) {
        Py_DECREF(head);
        return -1;
    }
    NC_I64(NL_SLOT(q, QUEUE, stats), QSTATS, dequeued) += 1;
    *packet = head;
    return 0;
}

/* ---- Link (link.py) ---- */

/* The transmit body shared by send() (idle transmitter) and _serve_queue():
 * serialisation accounting, the in-flight append and the single merged
 * delivery event.  *tx_end is the new _busy_until. */
static int
nl_transmit(KernelSimObject *sim, PyObject *link, PyObject *packet, double now,
            double *tx_end)
{
    NL_GET(rate_obj, link, LINK, rate_bps);
    NL_GET(delay_obj, link, LINK, delay);
    NL_GET_NATIVE(stats, link, LINK, stats, LSTATS);
    NL_GET(in_flight, link, LINK, _in_flight);
    NL_GET(dynamic, link, LINK, _dynamic);
    int64_t bytes = NC_I64(packet, PACKET, size);
    double rate = nl_double(rate_obj), delay = nl_double(delay_obj);
    if (NL_FAILED(rate) || NL_FAILED(delay))
        return -1;
    if (rate == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double tx_time = (double)bytes * 8.0 / rate;
    *tx_end = now + tx_time;
    NC_F64(link, LINK, _busy_until) = *tx_end;
    NC_F64(stats, LSTATS, busy_time) += tx_time;
    NC_I64(stats, LSTATS, packets_sent) += 1;
    NC_I64(stats, LSTATS, bytes_sent) += bytes;
    if (nl_append(in_flight, packet) < 0)
        return -1;
    double deliver_at = *tx_end + delay;
    int dyn = nl_true(dynamic);
    if (dyn < 0)
        return -1;
    if (dyn) {
        /* Non-decreasing deadline clamp: the link never reorders. */
        NL_GET(deadlines, link, LINK, _deadlines);
        Py_ssize_t n = PyObject_Size(deadlines);
        if (n < 0)
            return -1;
        if (n > 0) {
            PyObject *last_obj = PySequence_GetItem(deadlines, n - 1);
            if (last_obj == NULL)
                return -1;
            double last = nl_double(last_obj);
            Py_DECREF(last_obj);
            if (NL_FAILED(last))
                return -1;
            if (deliver_at < last)
                deliver_at = last;
        }
        PyObject *deadline = PyFloat_FromDouble(deliver_at);
        if (deadline == NULL)
            return -1;
        int appended = nl_append(deadlines, deadline);
        Py_DECREF(deadline);
        if (appended < 0)
            return -1;
    }
    return nl_push(sim, deliver_at, link, KN_DELIVER);
}

/* Link._transmit's Python body, for a foreign packet. */
static int
nl_py_transmit(PyObject *link, PyObject *packet, double *tx_end)
{
    PyObject *argv[2] = {link, packet};
    PyObject *res = PyObject_Vectorcall(NL.py_transmit, argv, 2, NULL);
    if (res == NULL)
        return -1;
    *tx_end = nl_double(res);
    Py_DECREF(res);
    return NL_FAILED(*tx_end) ? -1 : 0;
}

/* send() on a busy transmitter: the queue's verdict, and the serve event
 * armed behind the first queued packet for the instant the transmitter
 * frees.  The drop-tail enqueue bound at construction runs here. */
static int
nl_enqueue(KernelSimObject *sim, PyObject *link, PyObject *packet, double now)
{
    NL_GET(enqueue, link, LINK, _enqueue);
    int accepted;
    if (PyMethod_Check(enqueue) && PyMethod_GET_FUNCTION(enqueue) == NL.droptail_enqueue &&
        Py_IS_TYPE(PyMethod_GET_SELF(enqueue), NL.type[T_DROPTAIL])) {
        accepted = nl_droptail_enqueue(PyMethod_GET_SELF(enqueue), packet, now);
    }
    else {
        PyObject *now_obj = PyFloat_FromDouble(now);
        if (now_obj == NULL)
            return -1;
        PyObject *argv[2] = {packet, now_obj};
        accepted = nl_py_call(enqueue, argv, 2, 1);
        Py_DECREF(now_obj);
    }
    if (accepted <= 0)
        return accepted;
    NL_GET(serving_obj, link, LINK, _serving);
    int serving = nl_true(serving_obj);
    if (serving < 0)
        return -1;
    if (!serving) {
        double free_at = NC_F64(link, LINK, _busy_until);
        if (NL_SET(link, LINK, _serving, Py_NewRef(Py_True)) < 0)
            return -1;
        NC_F64(link, LINK, _serve_at) = free_at;
        if (nl_push(sim, free_at, link, KN_SERVE) < 0)
            return -1;
    }
    return 1;
}

/* Link.send: 1 accepted, 0 dropped (queue, outage or loss burst), -1 raised. */
static int
nl_send(PyObject *link, PyObject *packet)
{
    if (!nl_native_packet(packet)) {
        PyObject *argv[2] = {link, packet};
        return nl_py_call(NL.py_send, argv, 2, 1);
    }
    NL_GET(impaired, link, LINK, _impaired);
    int imp = nl_true(impaired);
    if (imp < 0)
        return -1;
    if (imp) {
        PyObject *admit = PyObject_CallMethodOneArg(link, NL.s__admit_impaired, packet);
        int admitted = admit == NULL ? -1 : PyObject_IsTrue(admit);
        Py_XDECREF(admit);
        if (admitted <= 0)
            return admitted;
    }
    KernelSimObject *sim = nl_sim(link);
    if (sim == NULL)
        return -1;
    double now = sim->now, tx_end;
    NL_GET(serving_obj, link, LINK, _serving);
    int serving = nl_true(serving_obj);
    if (serving < 0)
        return -1;
    if (now < NC_F64(link, LINK, _busy_until) || serving)
        return nl_enqueue(sim, link, packet, now);
    return nl_transmit(sim, link, packet, now, &tx_end) < 0 ? -1 : 1;
}

/* Link._serve_queue: the transmitter frees while packets are queued. */
static int
nl_serve(PyObject *link)
{
    KernelSimObject *sim = nl_sim(link);
    if (sim == NULL)
        return -1;
    double now = sim->now;
    NL_GET(dynamic, link, LINK, _dynamic);
    int dyn = nl_true(dynamic);
    if (dyn < 0)
        return -1;
    if (dyn) {
        /* Only the event armed for _serve_at is live; a rate reduction may
         * have moved the transmitter-free time past it. */
        double busy_until = NC_F64(link, LINK, _busy_until);
        if (now != NC_F64(link, LINK, _serve_at))
            return 0;
        if (now < busy_until) {
            NC_F64(link, LINK, _serve_at) = busy_until;
            return nl_push(sim, busy_until, link, KN_SERVE);
        }
    }
    NL_GET(queue, link, LINK, queue);
    Py_INCREF(queue);
    int stock = Py_IS_TYPE(queue, NL.type[T_DROPTAIL]);
    PyObject *packet = NULL;
    int rc = 0;
    if (stock)
        rc = nl_droptail_dequeue(queue, now, &packet);
    else {
        PyObject *now_obj = PyFloat_FromDouble(now);
        packet = now_obj == NULL ? NULL : PyObject_CallMethodOneArg(queue, NL.s_dequeue, now_obj);
        Py_XDECREF(now_obj);
        if (packet == NULL)
            rc = -1;
        else if (packet == Py_None)
            Py_CLEAR(packet);
    }
    if (rc == 0 && packet == NULL)  /* drained elsewhere, or shed by the AQM law */
        rc = NL_SET(link, LINK, _serving, Py_NewRef(Py_False));
    else if (rc == 0) {
        double tx_end;
        rc = nl_native_packet(packet) ? nl_transmit(sim, link, packet, now, &tx_end)
                                      : nl_py_transmit(link, packet, &tx_end);
        Py_CLEAR(packet);
        int empty = -1;
        if (rc == 0) {
            /* `not queue._queue`: friend access to the backing deque. */
            PyObject *backing = stock ? NL_SLOT(queue, QUEUE, _queue) : NULL;
            if (backing != NULL && Py_IS_TYPE(backing, NL.deque_type))
                empty = Py_SIZE(backing) == 0;
            else {
                backing = PyObject_GetAttr(queue, NL.s__queue);
                empty = backing == NULL ? -1 : PyObject_Not(backing);
                Py_XDECREF(backing);
            }
        }
        if (rc < 0 || empty < 0)
            rc = -1;
        else if (empty)
            rc = NL_SET(link, LINK, _serving, Py_NewRef(Py_False));
        else {
            NC_F64(link, LINK, _serve_at) = tx_end;
            rc = nl_push(sim, tx_end, link, KN_SERVE);
        }
    }
    Py_DECREF(queue);
    return rc;
}

/* ---- PacketCapture.on_packet (capture.py) ---- */

/* One captured packet: capture.py's _ROW ("=d5qb7x2q"), the layout written
 * once more for C (keep in sync; a test holds CAPTURE_ROW_SIZE to
 * _ROW.size).  Explicit padding, so a row built by initialiser has none
 * that is undefined. */
typedef struct {
    double time;
    int64_t size, payload_len, tag, flow_id, subflow_id;
    int8_t flags, pad[7];
    int64_t seq, dsn;
} CapRow;

/* A tap that is the stock bound on_packet of an exact PacketCapture. */
static inline int
nl_stock_tap(PyObject *tap)
{
    return PyMethod_Check(tap) && PyMethod_GET_FUNCTION(tap) == NL.capture_on_packet &&
           Py_IS_TYPE(PyMethod_GET_SELF(tap), NL.type[T_CAPTURE]);
}

/* v == x, Python's comparison of the slot value v with the C number x. */
static int
nl_int_eq(PyObject *v, int64_t x)
{
    int64_t y;
    if (nl_int64(v, &y))
        return y == x;
    PyObject *boxed = PyLong_FromLongLong((long long)x);
    int eq = boxed == NULL ? -1 : PyObject_RichCompareBool(boxed, v, Py_EQ);
    Py_XDECREF(boxed);
    return eq;
}

/* PacketCapture.on_packet(packet, now) for a stock tap, the native packet
 * and `now` an exact float.  A tag struct.pack would have to convert or
 * refuse (not an exact int in int64 range) and rows that are not a
 * bytearray go to the Python body before anything is written, so every
 * such outcome is Python's own. */
static int
nl_capture(PyObject *cap, PyObject *packet, PyObject *now)
{
    NL_GET(is_ack_obj, packet, PACKET, is_ack);
    NL_GET(data_only, cap, CAPTURE, data_only);
    int is_ack = nl_true(is_ack_obj);
    if (is_ack < 0)
        return -1;
    if (is_ack) {
        int only = nl_true(data_only);
        if (only)
            return only < 0 ? -1 : 0;
    }
    NL_GET(filter, cap, CAPTURE, flow_id);
    if (filter != Py_None) {
        int same = nl_int_eq(filter, NC_I64(packet, PACKET, flow_id));
        if (same <= 0)
            return same;
    }
    NL_GET(tag, packet, PACKET, tag);
    NL_GET(retx_obj, packet, PACKET, is_retransmission);
    NL_GET(rows, cap, CAPTURE, _rows);
    CapRow row = {.time = PyFloat_AS_DOUBLE(now), .tag = -1};   /* _NO_TAG */
    if (tag != Py_None) {
        if (!nl_int64(tag, &row.tag))
            goto python;
        if (row.tag < 0) {
            PyErr_Format(PyExc_ValueError,
                         "negative path tags are reserved by the capture, got %S", tag);
            return -1;
        }
    }
    int retx = nl_true(retx_obj);
    if (retx < 0)
        return -1;
    if (!PyByteArray_CheckExact(rows))
        goto python;
    row.flags = (int8_t)((is_ack ? 1 : 0) | (retx ? 2 : 0));
    row.size = NC_I64(packet, PACKET, size);
    row.payload_len = NC_I64(packet, PACKET, payload_len);
    row.flow_id = NC_I64(packet, PACKET, flow_id);
    row.subflow_id = NC_I64(packet, PACKET, subflow_id);
    row.seq = NC_I64(packet, PACKET, seq);
    row.dsn = NC_I64(packet, PACKET, dsn);
    Py_ssize_t used = PyByteArray_GET_SIZE(rows);
    if (PyByteArray_Resize(rows, used + (Py_ssize_t)sizeof(CapRow)) < 0)
        return -1;      /* BufferError under a live view, as `+=` raises it */
    memcpy(PyByteArray_AS_STRING(rows) + used, &row, sizeof(CapRow));
    return NL_SET(cap, CAPTURE, _record_cache, Py_NewRef(Py_None));
python:
    return nl_done(PyObject_CallFunctionObjArgs(NL.capture_on_packet, cap, packet, now, NULL));
}

/* ---- hop resolution and local dispatch ----
 *
 * A native link's hop memo (its _hop_memo, a HopMemo) remembers what its
 * downstream node resolved, so a hop costs pointer and integer compares,
 * not a tuple key, dict probes and an attribute read:
 *   - for a router or a forwarding host, the outgoing link its hop cache
 *     holds for a packet's (dst, tag), keyed by the identity of those two
 *     objects.  An entry is valid while the node still holds the cache dict
 *     it was read from and the routing table still reads the version it was
 *     read under (routing.version: the slot of an exact TagRoutingTable,
 *     which install_path moves).  Any miss runs Node.send, as without a
 *     memo, and adopts what the hop cache then holds;
 *   - for a host with several agents, the agent its _agents_by_flow holds
 *     for a (flow_id, subflow_id), valid while the host still holds that
 *     table.  A miss reads the table.
 * An entry owns what it names, so a stale entry is a miss, never a dangling
 * pointer.  Those references run link -> agent -> (egress memo) link, a
 * cycle Network.close cuts through each link's _close. */

#define HOP_MEMO_SIZE 8

typedef struct {
    PyObject *dst, *tag, *cache, *routing, *link;
    int64_t version;
} HopEntry;

typedef struct {
    PyObject *table, *agent;                /* the host's _agents_by_flow */
    int64_t flow_id, subflow_id;
} AgentEntry;

typedef struct {
    PyObject_HEAD
    int n, next, na, anext;
    HopEntry e[HOP_MEMO_SIZE];
    AgentEntry a[HOP_MEMO_SIZE];
} HopMemoObject;

static void
hentry_clear(HopEntry *e)
{
    Py_CLEAR(e->dst);
    Py_CLEAR(e->tag);
    Py_CLEAR(e->cache);
    Py_CLEAR(e->routing);
    Py_CLEAR(e->link);
}

static void
aentry_clear(AgentEntry *e)
{
    Py_CLEAR(e->table);
    Py_CLEAR(e->agent);
}

static int
hmemo_traverse(HopMemoObject *self, visitproc visit, void *arg)
{
    for (int i = 0; i < self->n; i++) {
        Py_VISIT(self->e[i].dst);
        Py_VISIT(self->e[i].tag);
        Py_VISIT(self->e[i].cache);
        Py_VISIT(self->e[i].routing);
        Py_VISIT(self->e[i].link);
    }
    for (int i = 0; i < self->na; i++) {
        Py_VISIT(self->a[i].table);
        Py_VISIT(self->a[i].agent);
    }
    return 0;
}

/* Entries leave the memo before their references drop. */
static int
hmemo_clear(HopMemoObject *self)
{
    HopEntry gone[HOP_MEMO_SIZE];
    AgentEntry gone_a[HOP_MEMO_SIZE];
    int n = self->n, na = self->na;
    memcpy(gone, self->e, sizeof gone);
    memcpy(gone_a, self->a, sizeof gone_a);
    memset(self->e, 0, sizeof self->e);
    memset(self->a, 0, sizeof self->a);
    self->n = self->next = self->na = self->anext = 0;
    for (int i = 0; i < n; i++)
        hentry_clear(&gone[i]);
    for (int i = 0; i < na; i++)
        aentry_clear(&gone_a[i]);
    return 0;
}

static void
hmemo_dealloc(HopMemoObject *self)
{
    PyObject_GC_UnTrack(self);
    hmemo_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject HopMemoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._ckernel.HopMemo",
    .tp_basicsize = sizeof(HopMemoObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The outgoing links a native link's downstream node resolved.",
    .tp_dealloc = (destructor)hmemo_dealloc,
    .tp_traverse = (traverseproc)hmemo_traverse,
    .tp_clear = (inquiry)hmemo_clear,
};

/* The link's memo, made on first use (anything else in _hop_memo is
 * replaced); borrowed, NULL with an exception set. */
static HopMemoObject *
nl_memo(PyObject *link)
{
    PyObject **slot = &NC_AT(link, F_LINK__hop_memo, PyObject *);
    if (*slot == NULL || !Py_IS_TYPE(*slot, &HopMemoType)) {
        HopMemoObject *memo = PyObject_GC_New(HopMemoObject, &HopMemoType);
        if (memo == NULL)
            return NULL;
        memo->n = memo->next = memo->na = memo->anext = 0;
        memset(memo->e, 0, sizeof memo->e);
        memset(memo->a, 0, sizeof memo->a);
        PyObject_GC_Track(memo);
        Py_XSETREF(*slot, (PyObject *)memo);
    }
    return (HopMemoObject *)*slot;
}

/* The slot a new entry takes among n of HOP_MEMO_SIZE (round robin once
 * full). */
static int
hmemo_take(int *n, int *next)
{
    if (*n < HOP_MEMO_SIZE)
        return (*n)++;
    int i = *next;
    *next = (i + 1) % HOP_MEMO_SIZE;
    return i;
}

/* ---- Node.receive / Host._deliver_locally / Node.send (node.py), fused ---- */

/* handle_packet of the native agents ("native transport" below). */
static int nt_sender_receive(PyObject *sender, PyObject *packet);
static int nt_receiver_receive(PyObject *receiver, PyObject *packet);

/* _agents_by_flow[flow_id][subflow_id] (borrowed, NULL when absent):
 * through the memo of the link the packet arrived on. */
static int
nl_agent(PyObject *link, PyObject *by_flow, int64_t flow_id, int64_t subflow_id,
         PyObject **agent)
{
    *agent = NULL;
    PyObject *memo = NC_AT(link, F_LINK__hop_memo, PyObject *);
    if (memo != NULL && Py_IS_TYPE(memo, &HopMemoType)) {
        HopMemoObject *m = (HopMemoObject *)memo;
        for (int i = 0; i < m->na; i++) {
            AgentEntry *e = &m->a[i];
            if (e->table == by_flow && e->flow_id == flow_id && e->subflow_id == subflow_id) {
                *agent = e->agent;
                return 0;
            }
        }
    }
    if (!PyDict_CheckExact(by_flow)) {
        PyErr_SetString(PyExc_TypeError, "native link: agent tables must be dicts");
        return -1;
    }
    PyObject *key = PyLong_FromLongLong((long long)flow_id);
    PyObject *per_flow = key == NULL ? NULL : PyDict_GetItemWithError(by_flow, key);
    Py_XDECREF(key);
    if (per_flow != NULL && per_flow != Py_None) {
        if (!PyDict_CheckExact(per_flow)) {
            PyErr_SetString(PyExc_TypeError, "native link: agent tables must be dicts");
            return -1;
        }
        key = PyLong_FromLongLong((long long)subflow_id);
        *agent = key == NULL ? NULL : PyDict_GetItemWithError(per_flow, key);
        Py_XDECREF(key);
    }
    if (*agent == NULL)
        return PyErr_Occurred() ? -1 : 0;
    HopMemoObject *m = nl_memo(link);
    if (m == NULL)
        return -1;
    int i = hmemo_take(&m->na, &m->anext);
    AgentEntry gone = m->a[i];
    m->a[i] = (AgentEntry){Py_NewRef(by_flow), Py_NewRef(*agent), flow_id, subflow_id};
    aentry_clear(&gone);
    return 0;
}

/* Host._deliver_locally for a packet that arrived over link: capture
 * fan-out (the stock tap runs here, any other callable is called), then
 * sole-agent or per-flow dispatch.  Unknown flows are delivered but
 * ignored. */
static int
nl_deliver_locally(PyObject *link, PyObject *host, PyObject *packet)
{
    NL_GET(captures, host, HOST, _captures);
    if (!PyList_CheckExact(captures))
        return nl_done(PyObject_CallMethodOneArg(host, NL.s__deliver_locally, packet));
    if (PyList_GET_SIZE(captures) > 0) {
        NL_GET(node_sim, host, NODE, sim);
        PyObject *now = Py_IS_TYPE(node_sim, &KernelSimType)
            ? PyFloat_FromDouble(((KernelSimObject *)node_sim)->now)
            : PyObject_GetAttr(node_sim, NL.s_now);
        if (now == NULL)
            return -1;
        PyObject *argv[2] = {packet, now};
        Py_INCREF(captures);
        int rc = 0;
        for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(captures); i++) {
            PyObject *tap = Py_NewRef(PyList_GET_ITEM(captures, i));
            rc = nl_stock_tap(tap) && PyFloat_CheckExact(now)
                ? nl_capture(PyMethod_GET_SELF(tap), packet, now)
                : nl_done(PyObject_Vectorcall(tap, argv, 2, NULL));
            Py_DECREF(tap);
        }
        Py_DECREF(captures);
        Py_DECREF(now);
        if (rc < 0)
            return -1;
    }
    NL_GET(sole, host, HOST, _sole_agent);
    int64_t flow_id = NC_I64(packet, PACKET, flow_id);
    int64_t subflow_id = NC_I64(packet, PACKET, subflow_id);
    PyObject *agent = NULL;
    if (sole != Py_None) {
        NL_GET(sole_flow, host, HOST, _sole_flow);
        NL_GET(sole_subflow, host, HOST, _sole_subflow);
        int match = nl_int_eq(sole_flow, flow_id);
        if (match > 0)
            match = nl_int_eq(sole_subflow, subflow_id);
        if (match < 0)
            return -1;
        if (match)
            agent = sole;
    }
    else {
        NL_GET(by_flow, host, HOST, _agents_by_flow);
        if (nl_agent(link, by_flow, flow_id, subflow_id, &agent) < 0)
            return -1;
    }
    if (agent == NULL || agent == Py_None)
        return 0;
    Py_INCREF(agent);
    int rc = Py_IS_TYPE(agent, NL.native[T_SENDER]) ? nt_sender_receive(agent, packet)
           : Py_IS_TYPE(agent, NL.native[T_RECV]) ? nt_receiver_receive(agent, packet)
           : nl_done(PyObject_CallMethodOneArg(agent, NL.s_handle_packet, packet));
    Py_DECREF(agent);
    return rc;
}

/* routing.version into *out: 0, or 1 when it is no int (no memo), -1. */
static int
nl_routing_version(PyObject *routing, int64_t *out)
{
    if (Py_IS_TYPE(routing, NL.type[T_ROUTING])) {
        PyObject *version = NL_SLOT(routing, ROUTING, version);
        if (version == NULL)
            return nl_unset("version");
        return nl_int64(version, out) ? 0 : 1;
    }
    PyObject *version = PyObject_GetAttr(routing, NL.s_version);
    if (version == NULL)
        return -1;
    int rc = nl_int64(version, out) ? 0 : 1;
    Py_DECREF(version);
    return rc;
}

/* After Node.send: remember the link node's hop cache holds for (dst, tag). */
static int
nl_memo_adopt(PyObject *link, PyObject *node, PyObject *dst, PyObject *tag)
{
    PyObject *cache = NL_SLOT(node, NODE, _hop_cache), *routing = NL_SLOT(node, NODE, routing);
    if (cache == NULL || routing == NULL || !PyDict_CheckExact(cache))
        return 0;
    int64_t version;
    int usable = nl_routing_version(routing, &version);
    if (usable != 0)
        return usable < 0 ? -1 : 0;
    PyObject *key = PyTuple_Pack(2, dst, tag);
    if (key == NULL)
        return -1;
    PyObject *next = PyDict_GetItemWithError(cache, key);
    Py_DECREF(key);
    if (next == NULL)
        return PyErr_Occurred() ? -1 : 0;
    HopMemoObject *memo = nl_memo(link);
    if (memo == NULL)
        return -1;
    int i = 0;
    while (i < memo->n && !(memo->e[i].dst == dst && memo->e[i].tag == tag))
        i++;
    if (i == memo->n)
        i = hmemo_take(&memo->n, &memo->next);
    HopEntry gone = memo->e[i];
    memo->e[i] = (HopEntry){Py_NewRef(dst), Py_NewRef(tag), Py_NewRef(cache),
                            Py_NewRef(routing), Py_NewRef(next), version};
    hentry_clear(&gone);
    return 0;
}

/* Node.receive on a packet that is not for this node, arrived over link:
 * the memo's link, or Node.send. */
static int
nl_forward(PyObject *link, PyObject *node, PyObject *packet)
{
    NL_GET(dst, packet, PACKET, dst);
    NL_GET(tag, packet, PACKET, tag);
    PyObject *cache = NL_SLOT(node, NODE, _hop_cache), *routing = NL_SLOT(node, NODE, routing);
    PyObject *memo = NC_AT(link, F_LINK__hop_memo, PyObject *);
    if (memo != NULL && Py_IS_TYPE(memo, &HopMemoType) && cache != NULL && routing != NULL) {
        int64_t version;
        int usable = nl_routing_version(routing, &version);
        if (usable < 0)
            return -1;
        HopMemoObject *m = (HopMemoObject *)memo;
        for (int i = 0; usable == 0 && i < m->n; i++) {
            HopEntry *e = &m->e[i];
            if (e->dst == dst && e->tag == tag && e->cache == cache && e->routing == routing &&
                e->version == version) {
                PyObject *next = Py_NewRef(e->link);
                int rc = Py_IS_TYPE(next, NL.native[T_LINK])
                    ? nl_send(next, packet)
                    : nl_done(PyObject_CallMethodOneArg(next, NL.s_send, packet));
                Py_DECREF(next);
                return rc < 0 ? -1 : 0;
            }
        }
    }
    Py_INCREF(dst);
    Py_INCREF(tag);
    int rc = nl_done(PyObject_CallMethodOneArg(node, NL.s_send, packet));
    if (rc == 0)
        rc = nl_memo_adopt(link, node, dst, tag);
    Py_DECREF(dst);
    Py_DECREF(tag);
    return rc;
}

/* a == b for node names: two distinct interned strings differ. */
static inline int
nl_str_eq(PyObject *a, PyObject *b)
{
    if (a == b)
        return 1;
    if (PyUnicode_CheckExact(a) && PyUnicode_CheckExact(b) &&
        PyUnicode_CHECK_INTERNED(a) && PyUnicode_CHECK_INTERNED(b))
        return 0;
    return PyObject_RichCompareBool(a, b, Py_EQ);
}

/* _deliver from `packet.hops += 1` on, for the native packet: the virtual
 * receive, or the stock Node.receive fused in. */
static int
nl_arrive(PyObject *link, PyObject *packet)
{
    NC_I64(packet, PACKET, hops) += 1;
    NL_GET(fused_obj, link, LINK, _fused_receive);
    NL_GET(fused_host_obj, link, LINK, _fused_host);
    int fused = nl_true(fused_obj), fused_host = nl_true(fused_host_obj);
    if (fused < 0 || fused_host < 0)
        return -1;
    if (!fused) {
        NL_GET(receive, link, LINK, _dst_receive);
        return nl_done(PyObject_CallFunctionObjArgs(receive, packet, link, NULL));
    }
    NL_GET_AS(node, link, LINK, dst, NODE);
    NL_GET_NATIVE(stats, node, NODE, stats, NSTATS);
    NL_GET(dst, packet, PACKET, dst);
    NL_GET(name, node, NODE, name);
    NC_I64(stats, NSTATS, received) += 1;
    int local = nl_str_eq(dst, name);
    if (local < 0)
        return -1;
    if (local)
        NC_I64(stats, NSTATS, delivered) += 1;
    else
        NC_I64(stats, NSTATS, forwarded) += 1;
    Py_INCREF(node);    /* a handler may drop the link's reference */
    int rc;
    if (!local)
        rc = nl_forward(link, node, packet);
    else if (fused_host && nl_is(node, T_HOST))
        rc = nl_deliver_locally(link, node, packet);
    else
        rc = nl_done(PyObject_CallMethodOneArg(node, NL.s__deliver_locally, packet));
    Py_DECREF(node);
    return rc;
}

/* Link._deliver.  A foreign packet at the head runs the Python body. */
static int
nl_deliver(PyObject *link)
{
    KernelSimObject *sim = nl_sim(link);
    if (sim == NULL)
        return -1;
    NL_GET(dynamic, link, LINK, _dynamic);
    NL_GET(in_flight, link, LINK, _in_flight);
    if (!Py_IS_TYPE(in_flight, NL.deque_type))
        goto python;
    int dyn = nl_true(dynamic);
    if (dyn < 0)
        return -1;
    if (dyn) {
        /* Deadline-driven: an extra event is swallowed when nothing is in
         * flight and bounced until the head packet is actually due. */
        NL_GET(deadlines, link, LINK, _deadlines);
        if (Py_SIZE(in_flight) == 0)
            return 0;
        PyObject *head = PySequence_GetItem(deadlines, 0);
        if (head == NULL)
            return -1;
        double deadline = nl_double(head);
        Py_DECREF(head);
        if (NL_FAILED(deadline))
            return -1;
        if (sim->now < deadline)
            return nl_push(sim, deadline, link, KN_DELIVER);
    }
    PyObject *packet;
    if (nl_pop_native(in_flight, &packet) < 0)
        return -1;
    if (packet == NULL)
        goto python;
    if (dyn && nl_done(nl_popleft(NL_SLOT(link, LINK, _deadlines))) < 0) {
        Py_DECREF(packet);
        return -1;
    }
    int rc = nl_arrive(link, packet);
    Py_DECREF(packet);
    return rc;
python: {
        PyObject *argv[1] = {link};
        return nl_py_call(NL.py_deliver, argv, 1, 0);
    }
}

/* ---- the link type and its binding ---- */

static PyObject *
nlink_send(PyObject *self, PyObject *packet)
{
    int accepted = nl_send(self, packet);
    return accepted < 0 ? NULL : PyBool_FromLong(accepted);
}

static PyObject *
nlink_serve_queue(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    if (nl_serve(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
nlink_deliver(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    if (nl_deliver(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
nlink_close(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_CLEAR(NC_AT(self, F_LINK__hop_memo, PyObject *));
    Py_RETURN_NONE;
}

static PyMethodDef nlink_methods[] = {
    {"send", (PyCFunction)nlink_send, METH_O,
     "Offer packet to the link; False if it was dropped."},
    {"_serve_queue", (PyCFunction)nlink_serve_queue, METH_NOARGS,
     "Runs at the instant the transmitter frees while packets are queued."},
    {"_deliver", (PyCFunction)nlink_deliver, METH_NOARGS,
     "Hand the head in-flight packet to the downstream node."},
    {"_close", (PyCFunction)nlink_close, METH_NOARGS,
     "Drop the hop memo, whose entries own links and agents downstream."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot nlink_slots[] = {
    {Py_tp_doc, "repro.netsim.link.Link with send/_serve_queue/_deliver/_close in C."},
    {Py_tp_methods, nlink_methods},
    {0, NULL},
};

/* Named Link so bound handlers read `Link._deliver` on either kernel. */
static PyType_Spec nlink_spec = {
    .name = "repro.kernel._ckernel.Link",
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = nlink_slots,
};

/* Resolve the Python classes [t0, t1) and the slot offsets [o0, o1). */
static int
nl_resolve(int t0, int t1, int o0, int o1)
{
    for (int t = t0; t < t1; t++) {
        PyObject *mod = PyImport_ImportModule(NL_TYPE_NAMES[t][0]);
        PyObject *cls = mod == NULL ? NULL : PyObject_GetAttrString(mod, NL_TYPE_NAMES[t][1]);
        Py_XDECREF(mod);
        if (cls == NULL)
            return -1;
        Py_XSETREF(NL.type[t], (PyTypeObject *)cls);
        if (!PyType_Check(cls)) {
            PyErr_Format(PyExc_TypeError, "%s is not a class", NL_TYPE_NAMES[t][1]);
            return -1;
        }
    }
    for (int o = o0; o < o1; o++) {
        PyTypeObject *owner = NL.type[NL_SLOT_TABLE[o].type];
        PyObject *descr = PyObject_GetAttrString((PyObject *)owner, NL_SLOT_TABLE[o].name);
        if (descr == NULL)
            return -1;
        int is_slot = Py_IS_TYPE(descr, &PyMemberDescr_Type) &&
                      ((PyMemberDescrObject *)descr)->d_member->type == T_OBJECT_EX;
        if (is_slot)
            NL.off[o] = ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
        if (!is_slot) {
            PyErr_Format(PyExc_TypeError, "native kernel: %s.%s is not a __slots__ member",
                         owner->tp_name, NL_SLOT_TABLE[o].name);
            return -1;
        }
    }
    return 0;
}

/* *slot = module.name, once. */
static int
nl_import(PyObject **slot, const char *module, const char *name)
{
    if (*slot != NULL)
        return 0;
    PyObject *mod = PyImport_ImportModule(module);
    if (mod != NULL) {
        *slot = PyObject_GetAttrString(mod, name);
        Py_DECREF(mod);
    }
    return *slot == NULL ? -1 : 0;
}

/* Python's view of a C field (closure: its NC_TABLE row).  Unlike CPython's
 * member setters, which store before they check, a refused value leaves the
 * field as it was, and an int field takes ints only on every version. */
static PyObject *
nc_get(PyObject *self, void *closure)
{
    int f = (int)(intptr_t)closure;
    return NC_TABLE[f].kind == T_DOUBLE ? PyFloat_FromDouble(NC_AT(self, f, double))
                                        : PyLong_FromLongLong(NC_AT(self, f, long long));
}

static int
nc_set(PyObject *self, PyObject *value, void *closure)
{
    int f = (int)(intptr_t)closure;
    if (value == NULL) {
        PyErr_Format(PyExc_TypeError, "cannot delete %s", NC_TABLE[f].name);
        return -1;
    }
    if (NC_TABLE[f].kind == T_DOUBLE) {
        double d = PyFloat_AsDouble(value);
        if (NL_FAILED(d))
            return -1;
        NC_AT(self, f, double) = d;
        return 0;
    }
    int64_t i;
    if (nt_i64(value, &i, NC_TABLE[f].name) < 0)
        return -1;
    NC_AT(self, f, long long) = i;
    return 0;
}

/* NL.native[base]: the subclass of NL.type[base] that spec describes, with
 * base's rows of NC_FIELDS after base's instance layout: C numbers behind
 * getsets, and T_OBJECT_EX rows as read-only members. */
static int
nl_subtype(PyType_Spec *spec, int base)
{
    /* Each type's rows, then a zeroed sentinel, packed one type after the
     * other (types keep pointers into these). */
    static PyGetSetDef getsets[F_COUNT + T_COUNT];
    static PyMemberDef members[F_COUNT + T_COUNT];
    static int getsets_used, members_used;
    Py_BUILD_ASSERT(sizeof(long long) == 8 && sizeof(double) == 8 &&
                    sizeof(PyObject *) <= 8);
    if (NL.native[base] != NULL)
        return 0;
    PyGetSetDef *gs = &getsets[getsets_used];
    PyMemberDef *ms = &members[members_used];
    Py_ssize_t size = (NL.type[base]->tp_basicsize + 7) & ~(Py_ssize_t)7;
    int n = 0, m = 0;
    for (int f = 0; f < F_COUNT; f++) {
        if (NC_TABLE[f].type != base)
            continue;
        NL.foff[f] = size;
        if (NC_TABLE[f].kind == T_OBJECT_EX)
            ms[m++] = (PyMemberDef){NC_TABLE[f].name, T_OBJECT_EX, size, 0, NULL};
        else
            gs[n++] = (PyGetSetDef){NC_TABLE[f].name, nc_get, nc_set, NULL, (void *)(intptr_t)f};
        size += 8;
    }
    getsets_used += n + 1;
    members_used += m + 1;
    PyType_Slot slots[8] = {{Py_tp_getset, gs}, {Py_tp_members, ms}};
    for (int k = 0; spec->slots[k].slot != 0; k++)
        slots[k + 2] = spec->slots[k];
    PyType_Spec sized = {spec->name, (int)size, 0, spec->flags, slots};
    PyObject *bases = PyTuple_Pack(1, NL.type[base]);
    if (bases == NULL)
        return -1;
    NL.native[base] = (PyTypeObject *)PyType_FromSpecWithBases(&sized, bases);
    Py_DECREF(bases);
    return NL.native[base] == NULL ? -1 : 0;
}

/* copy / pickle of a native object: its Python base class, with every set
 * slot of the base (C fields included) as that class's slot state. */
static PyObject *
nc_reduce(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *base = (PyObject *)Py_TYPE(self)->tp_base;
    PyObject *names = PyObject_GetAttr(base, NL.s___slots__);
    PyObject *slots = names == NULL ? NULL : PySequence_Fast(names, "__slots__");
    PyObject *state = slots == NULL ? NULL : PyDict_New();
    Py_XDECREF(names);
    for (Py_ssize_t i = 0; state != NULL && i < PySequence_Fast_GET_SIZE(slots); i++) {
        PyObject *name = PySequence_Fast_GET_ITEM(slots, i);
        PyObject *value = PyObject_GetAttr(self, name);
        if (value == NULL && PyErr_ExceptionMatches(PyExc_AttributeError))
            PyErr_Clear();      /* an unset slot stays unset */
        else if (value == NULL || PyDict_SetItem(state, name, value) < 0)
            Py_CLEAR(state);
        Py_XDECREF(value);
    }
    Py_XDECREF(slots);
    return state == NULL ? NULL : Py_BuildValue("O(OOO)(ON)", NL.reconstructor, base,
                                                &PyBaseObject_Type, Py_None, Py_None, state);
}

static PyMethodDef nc_stats_methods[] = {
    {"__reduce__", nc_reduce, METH_NOARGS, "Copy and pickle as the Python base class."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot nc_stats_slots[] = {
    {Py_tp_doc, "A stats class whose counters are C int64 / double fields."},
    {Py_tp_methods, nc_stats_methods},
    {0, NULL},
};

#define NC_STATS_SPEC(T, name)                                              \
    [T] = {"repro.kernel._ckernel." name, 0, 0, Py_TPFLAGS_DEFAULT, nc_stats_slots},
static PyType_Spec nc_stats_specs[T_COUNT] = {
    NC_STATS_SPEC(T_LSTATS, "LinkStats") NC_STATS_SPEC(T_NSTATS, "NodeStats")
    NC_STATS_SPEC(T_QSTATS, "QueueStats")
    NC_STATS_SPEC(T_SSTATS, "SenderStats") NC_STATS_SPEC(T_RSTATS, "ReceiverStats")
};

static PyObject *
npacket_release(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    if (np_release(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef npacket_methods[] = {
    {"release", npacket_release, METH_NOARGS,
     "Return a pool-acquired packet to the kernel's free list, once."},
    {"__reduce__", nc_reduce, METH_NOARGS, "Copy and pickle as the Python Packet."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot npacket_slots[] = {
    {Py_tp_doc, "repro.netsim.packet.Packet with its numbers as C int64 / double fields."},
    {Py_tp_methods, npacket_methods},
    {0, NULL},
};

static PyType_Spec npacket_spec = {
    .name = "repro.kernel._ckernel.Packet",
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = npacket_slots,
};

/* The packet id sequence: packet.py's _packet_counter becomes a PacketIds
 * that goes on from its next value; once. */
static int
nl_bind_ids(void)
{
    if (NL.ids != NULL)
        return 0;
    PyObject *mod = PyImport_ImportModule("repro.netsim.packet");
    PyObject *counter = mod == NULL ? NULL : PyObject_GetAttr(mod, NL.s__packet_counter);
    PyObject *ids = NULL;
    if (counter != NULL && Py_IS_TYPE(counter, &PacketIdsType))
        ids = Py_NewRef(counter);
    else if (counter != NULL) {
        PyObject *first = PyIter_Next(counter);
        long long next = first == NULL ? -1 : PyLong_AsLongLong(first);
        if (first == NULL && !PyErr_Occurred())
            PyErr_SetString(PyExc_RuntimeError, "the packet id counter is exhausted");
        else if (first != NULL && !(next == -1 && PyErr_Occurred()) &&
                 (ids = (PyObject *)PyObject_New(PacketIdsObject, &PacketIdsType)) != NULL) {
            ((PacketIdsObject *)ids)->next = next;
            if (PyObject_SetAttr(mod, NL.s__packet_counter, ids) < 0)
                Py_CLEAR(ids);
        }
        Py_XDECREF(first);
    }
    Py_XDECREF(counter);
    Py_XDECREF(mod);
    NL.ids = ids;
    return ids == NULL ? -1 : 0;
}

/* *slot = the plain function cls.name, once. */
static int
nl_function(PyObject **slot, int cls, const char *name)
{
    if (*slot == NULL)
        *slot = PyObject_GetAttrString((PyObject *)NL.type[cls], name);
    return *slot == NULL ? -1 : 0;
}

/* Resolve the link layer's classes, their slot offsets, the link type, the
 * packet type and the stats types of links, nodes and queues; once. */
static int
nl_bind(void)
{
    if (NL.native[T_LINK] != NULL)
        return 0;
    if (nl_resolve(0, T_SENDER, 0, O_LINK_COUNT) < 0)
        return -1;
#define NL_NAME_INTERN(name)                                                \
    if (NL.s_##name == NULL &&                                              \
        (NL.s_##name = PyUnicode_InternFromString(#name)) == NULL)          \
        return -1;
    NL_NAMES(NL_NAME_INTERN)
#undef NL_NAME_INTERN
    if (NL.one == NULL && (NL.one = PyLong_FromLong(1)) == NULL)
        return -1;
    Py_XSETREF(NL.droptail_enqueue,
               PyObject_GetAttrString((PyObject *)NL.type[T_DROPTAIL], "enqueue"));
    Py_XSETREF(NL.capture_on_packet,
               PyObject_GetAttrString((PyObject *)NL.type[T_CAPTURE], "on_packet"));
    if (NL.droptail_enqueue == NULL || NL.capture_on_packet == NULL ||
        nl_import((PyObject **)&NL.deque_type, "collections", "deque") < 0 ||
        nl_import(&NL.reconstructor, "copyreg", "_reconstructor") < 0 ||
        nl_function(&NL.py_send, T_LINK, "send") < 0 ||
        nl_function(&NL.py_transmit, T_LINK, "_transmit") < 0 ||
        nl_function(&NL.py_deliver, T_LINK, "_deliver") < 0)
        return -1;
    if (nl_deque_method(&NL.deque_append, &NL.f_append, "append", METH_O) < 0 ||
        nl_deque_method(&NL.deque_popleft, &NL.f_popleft, "popleft", METH_NOARGS) < 0 ||
        nl_deque_method(&NL.deque_appendleft, &NL.f_appendleft, "appendleft", METH_O) < 0)
        return -1;
    if (nl_subtype(&nc_stats_specs[T_LSTATS], T_LSTATS) < 0 ||
        nl_subtype(&nc_stats_specs[T_NSTATS], T_NSTATS) < 0 ||
        nl_subtype(&nc_stats_specs[T_QSTATS], T_QSTATS) < 0 ||
        nl_subtype(&npacket_spec, T_PACKET) < 0 || nl_bind_ids() < 0)
        return -1;
    return nl_subtype(&nlink_spec, T_LINK);
}

/* -------------------------------------------------------- native transport
 *
 * repro.tcp.sender.TcpSender / repro.tcp.receiver.TcpReceiver for the agents
 * of a KernelSim: subclasses of the Python classes created here (same slots,
 * no dict; TcpSender.__new__ / TcpReceiver.__new__ select them for the exact
 * classes only, so a Python subclass keeps its Python bodies) whose
 * handle_packet, _try_send, _fire_rto and _on_rto are C.  The bodies are the
 * shared ones of _transport.h, instantiated here over the *slot* accessor
 * layer: every read and write goes to the __slots__ of the Python objects
 * (offsets resolved once in nt_bind, NULL- and type-checked like the native
 * links') or, for the counters, to the C fields of the native SenderStats /
 * ReceiverStats (NC_FIELDS), so Python code -- the MPTCP scheduler,
 * close_subflow, the inherited start/resume/close/on_path_restored, a test
 * -- sees and may change the same state between any two events.  The
 * packets they build are native (sim.packet_type, from a free list) and a
 * foreign packet handed to handle_packet runs the Python body.  Python is
 * called exactly where the Python body calls something it does not define:
 * cc.* (whose cwnd, mss and ssthresh are read as slots while the class's
 * in_slow_start is the stock one), data_provider.*,
 * connection_sink.on_subflow_data, on_idle, a non-stock rtt, a link that is
 * not native, host.send on a route-memo miss.
 *
 * The retransmission timer is a native heap entry (KN_RTO, cb = the sender)
 * whose cancellation handle sits in _rto_event, so the inherited Python
 * _cancel_rto works on it unchanged.
 */

typedef struct { int64_t seq, length, dsn; } OooEnt;

/* TcpReceiver._sack_blocks: RFC 2018 merge over the seq-sorted reorder
 * buffer, truncated to four blocks; returns the block count, blocks holds
 * (start, end) pairs. */
static int
sack_blocks(const OooEnt *ooo, Py_ssize_t n, int64_t blocks[8])
{
    int nb = 0;
    int64_t start = ooo[0].seq;
    int64_t end = start + ooo[0].length;
    for (Py_ssize_t j = 1; j < n; j++) {
        int64_t seq = ooo[j].seq;
        if (seq != end) {
            if (nb < 4) {
                blocks[2 * nb] = start;
                blocks[2 * nb + 1] = end;
                nb++;
            }
            start = seq;
        }
        end = seq + ooo[j].length;
    }
    if (nb < 4) {
        blocks[2 * nb] = start;
        blocks[2 * nb + 1] = end;
        nb++;
    }
    return nb;
}

/* ---- slot values ---- */

static inline int
nt_f64(PyObject *v, double *out, const char *name)
{
    if (v == NULL)
        return nl_unset(name);
    *out = nl_double(v);
    return NL_FAILED(*out) ? -1 : 0;
}

/* Optional[float]: None reads as NaN, as in the Scene's state tables. */
static inline int
nt_opt_f64(PyObject *v, double *out, const char *name)
{
    if (v == Py_None) {
        *out = Py_NAN;
        return 0;
    }
    return nt_f64(v, out, name);
}

static inline int
nt_flag(PyObject *v, const char *name)
{
    return v == NULL ? nl_unset(name) : nl_true(v);
}

/* Writes keep the stored object when the value does not move: most fields
 * of most ACKs (_dupacks 0, _rto_backoff 1.0, min_rtt, a clamped _rto).  A
 * float the slot holds the only reference to takes the new value in place:
 * whoever could tell it apart from a fresh float would hold a reference. */
static inline int
nt_set_i64(PyObject **slot, int64_t v)
{
    PyObject *old = *slot;
    if (old != NULL && PyLong_CheckExact(old)) {
        int overflow;
        long long cur = PyLong_AsLongLongAndOverflow(old, &overflow);
        if (!overflow && cur == v)
            return 0;
    }
    return nl_set(slot, PyLong_FromLongLong(v));
}

static inline int
nt_set_f64(PyObject **slot, double v)
{
    PyObject *old = *slot;
    if (old != NULL && PyFloat_CheckExact(old) &&
        (Py_REFCNT(old) == 1 || memcmp(&((PyFloatObject *)old)->ob_fval, &v, sizeof v) == 0)) {
        ((PyFloatObject *)old)->ob_fval = v;
        return 0;
    }
    return nl_set(slot, PyFloat_FromDouble(v));
}

static inline int
nt_set_opt_f64(PyObject **slot, double v)
{
    if (v != v)
        return *slot == Py_None ? 0 : nl_set(slot, Py_NewRef(Py_None));
    return nt_set_f64(slot, v);
}

static inline int
nt_set_flag(PyObject **slot, int v)
{
    PyObject *value = v ? Py_True : Py_False;
    return *slot == value ? 0 : nl_set(slot, Py_NewRef(value));
}

/* counter += delta on the native stats object in the agent's `stats` slot. */
static int
nt_stat_add(PyObject *agent, int stats_slot, int stats_type, int field, int64_t delta)
{
    PyObject *stats = *(PyObject **)((char *)agent + NL.off[stats_slot]);
    if (stats == NULL)
        return nl_unset("stats");
    if (nc_expect(stats, stats_type, "stats") < 0)
        return -1;
    NC_AT(stats, field, long long) += delta;
    return 0;
}

#define NT_I64(var, obj, T, name)                                           \
    int64_t var;                                                            \
    if (nt_i64(NL_SLOT(obj, T, name), &var, #name) < 0)                     \
        return -1
#define NT_F64(var, obj, T, name)                                           \
    double var;                                                             \
    if (nt_f64(NL_SLOT(obj, T, name), &var, #name) < 0)                     \
        return -1
#define NT_FLAG(var, obj, T, name)                                          \
    int var = nt_flag(NL_SLOT(obj, T, name), #name);                        \
    if (var < 0)                                                            \
        return -1
#define NT_CHECKED(call)                                                    \
    do {                                                                    \
        if ((call) < 0)                                                     \
            return -1;                                                      \
    } while (0)

/* ---- packets (netsim/packet.py acquire_data / acquire_ack / release) ---- */

#define NT_PSET(packet, name, value) NL_SET(packet, PACKET, name, Py_NewRef(value))

/* A recycled or fresh native packet with the fields acquire_data and
 * acquire_ack set alike (flow ids from the agent's slots, ints only); the
 * caller sets the rest.  New reference. */
static PyObject *
nt_packet_acquire(PyObject *host, PyObject *dst, PyObject *tag, PyObject *flow_obj,
                  PyObject *subflow_obj, double now)
{
    int64_t flow_id, subflow_id;
    PyObject *src = NL_SLOT(host, NODE, name);
    if (src == NULL) {
        nl_unset("name");
        return NULL;
    }
    if (nt_i64(flow_obj, &flow_id, "flow_id") < 0 ||
        nt_i64(subflow_obj, &subflow_id, "subflow_id") < 0)
        return NULL;
    PyObject *packet = free_pop(&free_packets, NL.native[T_PACKET]);
    if (packet == NULL)
        return NULL;
    NC_I64(packet, PACKET, packet_id) = ((PacketIdsObject *)NL.ids)->next++;
    NC_I64(packet, PACKET, flow_id) = flow_id;
    NC_I64(packet, PACKET, subflow_id) = subflow_id;
    NC_F64(packet, PACKET, created_at) = now;
    NC_F64(packet, PACKET, enqueued_at) = 0.0;
    NC_I64(packet, PACKET, hops) = 0;
    if (NT_PSET(packet, src, src) < 0 || NT_PSET(packet, dst, dst) < 0 ||
        NT_PSET(packet, tag, tag) < 0 || NT_PSET(packet, protocol, NL.s_tcp) < 0 ||
        NT_PSET(packet, ecn, Py_False) < 0 || NT_PSET(packet, _poolable, Py_True) < 0)
        Py_CLEAR(packet);
    return packet;
}

/* Packet.release, which both handle_packet bodies call. */
static int
slot_pkt_recycle(KernelSimObject *sim, PyObject *packet)
{
    return np_release(packet);
}

/* host.send for either agent, through an egress memo the Python bodies do
 * not keep: the link the host's hop cache resolved for the agent's
 * (dst, tag), re-validated against the routing table's mutation version
 * only (the _route_* slots). */
typedef struct { int host, host_send, enabled, key, link, version; } RouteSlots;
static const RouteSlots SENDER_ROUTE = {
    O_SENDER_host, O_SENDER__host_send, O_SENDER__route_enabled,
    O_SENDER__route_key, O_SENDER__route_link, O_SENDER__route_version,
};
static const RouteSlots RECV_ROUTE = {
    O_RECV_host, O_RECV__host_send, O_RECV__route_enabled,
    O_RECV__route_key, O_RECV__route_link, O_RECV__route_version,
};
#define NT_AT(obj, o) (*(PyObject **)((char *)(obj) + NL.off[o]))

static int
nt_egress(PyObject *agent, const RouteSlots *r, PyObject *packet)
{
    PyObject *enabled = NT_AT(agent, r->enabled), *host_send = NT_AT(agent, r->host_send);
    PyObject *host = NT_AT(agent, r->host), *link = NT_AT(agent, r->link);
    PyObject *memo_version = NT_AT(agent, r->version), *key = NT_AT(agent, r->key);
    if (enabled == NULL || host_send == NULL || host == NULL || link == NULL ||
        memo_version == NULL || key == NULL)
        return nl_unset("_route_*");
    int memo = nl_true(enabled);
    if (memo < 0)
        return -1;
    if (!memo)
        return nl_done(PyObject_CallOneArg(host_send, packet));
    if (nl_expect(host, T_NODE, "host") < 0)
        return -1;
    NL_GET(routing, host, NODE, routing);
    int64_t version, memo_at;
    int usable = nl_routing_version(routing, &version);
    if (usable < 0)
        return -1;
    if (usable == 0 && link != Py_None && nl_int64(memo_version, &memo_at) &&
        memo_at == version) {
        Py_INCREF(link);
        int rc = Py_IS_TYPE(link, NL.native[T_LINK])
            ? nl_send(link, packet)
            : nl_done(PyObject_CallMethodOneArg(link, NL.s_send, packet));
        Py_DECREF(link);
        return rc < 0 ? -1 : 0;
    }
    if (nl_done(PyObject_CallOneArg(host_send, packet)) < 0)
        return -1;
    /* Adopt whatever the host's hop cache resolved (None on a routing
     * drop: stays on the slow path and retries), under the version that
     * routing reads now. */
    PyObject *cache = NL_SLOT(host, NODE, _hop_cache);
    if (cache == NULL)
        return nl_unset("_hop_cache");
    routing = NL_SLOT(host, NODE, routing);
    if (routing == NULL)
        return nl_unset("routing");
    if ((usable = nl_routing_version(routing, &version)) != 0)
        return usable < 0 ? -1 : 0;
    PyObject *resolved = PyObject_CallMethodOneArg(cache, NL.s_get, key);
    if (resolved == NULL || nl_set(&NT_AT(agent, r->link), resolved) < 0)
        return -1;
    return nl_set(&NT_AT(agent, r->version), PyLong_FromLongLong((long long)version));
}

/* ---- the slot accessor layer (contract: _transport.h) ---- */

#define TP(name) slot_##name
#define TP_CTX KernelSimObject *
#define TP_SND PyObject *
#define TP_RCV PyObject *
#define TP_SEG PyObject *
#define TP_PKT PyObject *
#define TP_NOW(c) ((c)->now)
#define TP_ECN 1

#define SND_I64(var, S, name) int64_t var = NC_I64(S, SENDER, name)
#define SND_F64(var, S, name) double var = NC_F64(S, SENDER, name)
#define SND_MSS(var, S) NT_I64(var, S, SENDER, mss)
#define SND_FLAG(var, S, name) NT_FLAG(var, S, SENDER, name)
#define SND_SET_I64(S, name, v) (NC_I64(S, SENDER, name) = (v))
#define SND_SET_F64(S, name, v) (NC_F64(S, SENDER, name) = (v))
#define SND_SET_FLAG(S, name, v) NT_CHECKED(nt_set_flag(&NL_SLOT(S, SENDER, name), v))
#define SND_STAT_ADD(S, name, d)                                            \
    NT_CHECKED(nt_stat_add(S, O_SENDER_stats, T_SSTATS, F_SSTATS_##name, d))
#define SND_PATH_DOWN(var, S) NT_FLAG(var, S, SENDER, path_down)
#define RCV_I64(var, R, name) int64_t var = NC_I64(R, RECV, name)
#define RCV_SET_I64(R, name, v) (NC_I64(R, RECV, name) = (v))
#define RCV_STAT_ADD(R, name, d)                                            \
    NT_CHECKED(nt_stat_add(R, O_RECV_stats, T_RSTATS, F_RSTATS_##name, d))
#define SEG_I64(var, g, name) NT_I64(var, g, SEG, name)
#define SEG_F64(var, g, name) NT_F64(var, g, SEG, name)
#define SEG_FLAG(var, g, name) NT_FLAG(var, g, SEG, name)
#define SEG_SET_F64(g, name, v) NT_CHECKED(nt_set_f64(&NL_SLOT(g, SEG, name), v))
#define SEG_SET_FLAG(g, name, v) NT_CHECKED(nt_set_flag(&NL_SLOT(g, SEG, name), v))
#define PKT_I64(var, c, p, name) int64_t var = NC_I64(p, PACKET, name)
#define PKT_F64(var, c, p, name) double var = NC_F64(p, PACKET, name)
#define PKT_FLAG(var, c, p, name) NT_FLAG(var, p, PACKET, name)

/* _seg_queue (a deque, in ascending seq) and _segments (its index by seq).
 * Records are borrowed from the deque, which owns them while they are in
 * it; no body keeps one across a call that can retire it. */
static PyObject *
nt_segq(PyObject *S)
{
    PyObject *queue = NL_SLOT(S, SENDER, _seg_queue);
    if (queue == NULL)
        nl_unset("_seg_queue");
    else if (!PyObject_TypeCheck(queue, NL.deque_type)) {
        nt_type_error("_seg_queue", "a deque", queue);
        queue = NULL;
    }
    return queue;
}

static PyObject *
nt_segments(PyObject *S)
{
    PyObject *segments = NL_SLOT(S, SENDER, _segments);
    if (segments == NULL)
        nl_unset("_segments");
    else if (!PyDict_Check(segments)) {
        nt_type_error("_segments", "a dict", segments);
        segments = NULL;
    }
    return segments;
}

static Py_ssize_t
nt_segq_len(PyObject *S)
{
    PyObject *queue = nt_segq(S);
    return queue == NULL ? -1 : Py_IS_TYPE(queue, NL.deque_type) ? Py_SIZE(queue)
                                                                 : PyObject_Size(queue);
}

static PyObject *
nt_segq_at(PyObject *S, Py_ssize_t j)
{
    PyObject *queue = nt_segq(S);
    PyObject *g = queue == NULL ? NULL : PySequence_GetItem(queue, j);
    if (g == NULL)
        return NULL;
    Py_DECREF(g);
    return nl_expect(g, T_SEG, "_seg_queue item") < 0 ? NULL : g;
}

/* _segments.get(seq) into *g (NULL when absent). */
static int
nt_segq_find(PyObject *S, int64_t seq, PyObject **g)
{
    PyObject *segments = nt_segments(S);
    PyObject *key = segments == NULL ? NULL : PyLong_FromLongLong(seq);
    if (key == NULL)
        return -1;
    *g = PyDict_GetItemWithError(segments, key);
    Py_DECREF(key);
    if (*g == NULL)
        return PyErr_Occurred() ? -1 : 0;
    return nl_expect(*g, T_SEG, "_segments value");
}

#define SEGQ_LEN(n, S)                                                      \
    Py_ssize_t n = nt_segq_len(S);                                          \
    if (n < 0)                                                              \
        return -1
#define SEGQ_AT(g, S, j)                                                    \
    PyObject *g = nt_segq_at(S, j);                                         \
    if (g == NULL)                                                          \
        return -1
#define SEGQ_FIND(g, S, seq)                                                \
    PyObject *g;                                                            \
    if (nt_segq_find(S, seq, &g) < 0)                                       \
        return -1

/* A record appended at snd_nxt: recycled from the records the sender
 * retired (free_segments), or fresh. */
static int
slot_segq_push(PyObject *S, int64_t seq, int64_t length, int64_t dsn, double now)
{
    PyObject *queue = nt_segq(S), *segments = nt_segments(S);
    if (queue == NULL || segments == NULL)
        return -1;
    PyObject *g = free_pop(&free_segments, NL.type[T_SEG]);
    if (g == NULL)
        return -1;
    int rc = -1;
    if (nt_set_i64(&NL_SLOT(g, SEG, seq), seq) == 0 &&
        nt_set_i64(&NL_SLOT(g, SEG, length), length) == 0 &&
        nt_set_i64(&NL_SLOT(g, SEG, dsn), dsn) == 0 &&
        nt_set_f64(&NL_SLOT(g, SEG, sent_at), now) == 0 &&
        NL_SET(g, SEG, retransmitted, Py_NewRef(Py_False)) == 0 &&
        NL_SET(g, SEG, sacked, Py_NewRef(Py_False)) == 0 &&
        NL_SET(g, SEG, lost, Py_NewRef(Py_False)) == 0 &&
        NL_SET(g, SEG, lost_pending, Py_NewRef(Py_False)) == 0 &&
        NL_SET(g, SEG, retx_in_recovery, Py_NewRef(Py_False)) == 0 &&
        PyDict_SetItem(segments, NL_SLOT(g, SEG, seq), g) == 0)
        rc = nl_append(queue, g);
    Py_DECREF(g);
    return rc;
}

/* queue.popleft(); del segments[info.seq] */
static int
slot_segq_popleft(PyObject *S)
{
    PyObject *queue = nt_segq(S), *segments = nt_segments(S);
    PyObject *g = queue == NULL || segments == NULL ? NULL : nl_popleft(queue);
    if (g == NULL)
        return -1;
    PyObject *seq = nl_expect(g, T_SEG, "_seg_queue item") < 0 ? NULL : NL_SLOT(g, SEG, seq);
    int rc = seq == NULL ? (PyErr_Occurred() ? -1 : nl_unset("seq"))
                         : PyDict_DelItem(segments, seq);
    /* Retired: a record of exactly _SegmentInfo is recycled. */
    if (rc == 0 && Py_IS_TYPE(g, NL.type[T_SEG]))
        free_push(&free_segments, g);
    Py_DECREF(g);
    return rc;
}

/* The estimator: the stock RttEstimator's slots, or the attributes and the
 * update() of whatever else sits in `rtt`. */
typedef struct {
    double alpha, beta, min_rto, max_rto, srtt, rttvar, min_rtt, latest_rtt, _rto;
    int64_t samples;
} RttView;

static int
nt_rtt_load(PyObject *rtt, RttView *v)
{
    return nt_f64(NL_SLOT(rtt, RTT, alpha), &v->alpha, "alpha") < 0 ||
           nt_f64(NL_SLOT(rtt, RTT, beta), &v->beta, "beta") < 0 ||
           nt_f64(NL_SLOT(rtt, RTT, min_rto), &v->min_rto, "min_rto") < 0 ||
           nt_f64(NL_SLOT(rtt, RTT, max_rto), &v->max_rto, "max_rto") < 0 ||
           nt_opt_f64(NL_SLOT(rtt, RTT, srtt), &v->srtt, "srtt") < 0 ||
           nt_opt_f64(NL_SLOT(rtt, RTT, rttvar), &v->rttvar, "rttvar") < 0 ||
           nt_opt_f64(NL_SLOT(rtt, RTT, min_rtt), &v->min_rtt, "min_rtt") < 0 ||
           nt_i64(NL_SLOT(rtt, RTT, samples), &v->samples, "samples") < 0 ? -1 : 0;
}

static int
nt_rtt_store(PyObject *rtt, const RttView *v)
{
    return nt_set_f64(&NL_SLOT(rtt, RTT, latest_rtt), v->latest_rtt) < 0 ||
           nt_set_i64(&NL_SLOT(rtt, RTT, samples), v->samples) < 0 ||
           nt_set_opt_f64(&NL_SLOT(rtt, RTT, min_rtt), v->min_rtt) < 0 ||
           nt_set_opt_f64(&NL_SLOT(rtt, RTT, srtt), v->srtt) < 0 ||
           nt_set_opt_f64(&NL_SLOT(rtt, RTT, rttvar), v->rttvar) < 0 ||
           nt_set_f64(&NL_SLOT(rtt, RTT, _rto), v->_rto) < 0 ? -1 : 0;
}

static int
nt_rtt_update_py(PyObject *rtt, double sample)
{
    PyObject *arg = PyFloat_FromDouble(sample);
    if (arg == NULL)
        return -1;
    Py_INCREF(rtt);
    int rc = nl_done(PyObject_CallMethodOneArg(rtt, NL.s_update, arg));
    Py_DECREF(rtt);
    Py_DECREF(arg);
    return rc;
}

/* rtt.<name> as a double: by slot on the stock estimator, by attribute
 * otherwise; None reads as NaN. */
static int
nt_rtt_attr(PyObject *S, int slot, PyObject *name, double *out)
{
    NL_GET(rtt, S, SENDER, rtt);
    if (Py_IS_TYPE(rtt, NL.type[T_RTT]))
        return nt_opt_f64(NT_AT(rtt, slot), out, NL_SLOT_TABLE[slot].name);
    PyObject *value = PyObject_GetAttr(rtt, name);
    if (value == NULL)
        return -1;
    int rc = nt_opt_f64(value, out, NL_SLOT_TABLE[slot].name);
    Py_DECREF(value);
    return rc;
}

#define RTT_OPEN(S, sample)                                                 \
    NL_GET(rtt__, S, SENDER, rtt);                                          \
    if (!Py_IS_TYPE(rtt__, NL.type[T_RTT]))                                 \
        return nt_rtt_update_py(rtt__, sample);                             \
    RttView view__;                                                         \
    if (nt_rtt_load(rtt__, &view__) < 0)                                    \
        return -1
#define RTT(field) (view__.field)
#define RTT_CLOSE(S) NT_CHECKED(nt_rtt_store(rtt__, &view__))
#define RTT_RTO(var, S)                                                     \
    double var;                                                             \
    if (nt_rtt_attr(S, O_RTT__rto, NL.s__rto, &var) < 0)                    \
        return -1
#define RTT_SAMPLES(var, S)                                                 \
    double var;                                                             \
    if (nt_rtt_attr(S, O_RTT_samples, NL.s_samples, &var) < 0)              \
        return -1
#define RTT_SRTT(var, S, unsampled)                                         \
    double var;                                                             \
    if (nt_rtt_attr(S, O_RTT_srtt, NL.s_srtt, &var) < 0)                    \
        return -1;                                                          \
    if (var != var)                                                         \
        var = unsampled

/* The retransmission timer: _rto_event holds the KernelEvent of the live
 * KN_RTO entry, or None. */
#define RTO_LIVE(var, S)                                                    \
    NL_GET(event__##var, S, SENDER, _rto_event);                            \
    int var = event__##var != Py_None

static int
slot_rto_cancel(PyObject *S)
{
    NL_GET(event, S, SENDER, _rto_event);
    if (Py_IS_TYPE(event, &KernelEventType)) {
        ((KernelEventObject *)event)->cancelled = 1;
        return 0;
    }
    return nl_done(PyObject_CallMethodNoArgs(event, NL.s_cancel));
}

static void
slot_rto_forget(PyObject *S)
{
    nl_set(&NL_SLOT(S, SENDER, _rto_event), Py_NewRef(Py_None));
}

/* _cancel_rto */
static int
slot_rto_clear(PyObject *S)
{
    NL_GET(event, S, SENDER, _rto_event);
    if (event != Py_None) {
        if (slot_rto_cancel(S) < 0)
            return -1;
        slot_rto_forget(S);
    }
    return 0;
}

/* self._rto_event = self.sim.schedule_at(deadline, self._fire_rto) */
static int
slot_rto_schedule(KernelSimObject *sim, PyObject *S, double deadline)
{
    if (deadline != deadline || deadline < sim->now) {
        PyObject *when = PyFloat_FromDouble(deadline);
        PyObject *now = PyFloat_FromDouble(sim->now);
        if (when != NULL && now != NULL)
            raise_sim_error_obj(deadline != deadline
                ? PyUnicode_FromFormat("cannot schedule an event at a NaN time (got %S)", when)
                : PyUnicode_FromFormat(
                      "cannot schedule an event at t=%S before the current time t=%S",
                      when, now));
        Py_XDECREF(when);
        Py_XDECREF(now);
        return -1;
    }
    if (kheap_reserve(sim, sim->heap_len + 1) < 0)
        return -1;
    KernelEventObject *handle = kevent_new(deadline, sim->seq);
    if (handle == NULL)
        return -1;
    KEntry e;
    e.t = deadline;
    e.seq = sim->seq++;
    e.cb = Py_NewRef(S);
    e.args = NULL;
    e.nargs = KN_RTO;
    e.handle = (KernelEventObject *)Py_NewRef((PyObject *)handle);
    kheap_push(sim, e);
    return nl_set(&NL_SLOT(S, SENDER, _rto_event), (PyObject *)handle);
}

/* The congestion controller: always Python, called per ACK.
 * cc.<name>(*argv[1..nargs]); the arguments are new references (NULL when
 * their allocation failed), released here; argv[0] is for the controller. */
static int
nt_cc_call(PyObject *S, PyObject *name, PyObject **argv, size_t nargs)
{
    PyObject *cc = NL_SLOT(S, SENDER, cc);
    int rc = cc == NULL ? nl_unset("cc") : 0;
    for (size_t i = 1; i <= nargs; i++) {
        if (argv[i] == NULL)
            rc = -1;
    }
    if (rc == 0) {
        argv[0] = cc;
        Py_INCREF(cc);
        rc = nl_done(PyObject_VectorcallMethod(name, argv, nargs + 1, NULL));
        Py_DECREF(cc);
    }
    for (size_t i = 1; i <= nargs; i++)
        Py_XDECREF(argv[i]);
    return rc;
}

/* A controller whose class keeps the stock in_slow_start (by identity, as
 * nl_stock_tap): its cwnd / mss / ssthresh slots are read in place, the
 * float cwnd (and ssthresh) by value, the int mss exactly. */
static int
nt_stock_cc(PyObject *cc, double *cwnd, int64_t *mss, double *ssthresh)
{
    if (!nl_is(cc, T_CC) ||
        _PyType_Lookup(Py_TYPE(cc), NL.s_in_slow_start) != NL.cc_in_slow_start)
        return 0;
    PyObject *c = NL_SLOT(cc, CC, cwnd), *m = NL_SLOT(cc, CC, mss);
    PyObject *t = NL_SLOT(cc, CC, ssthresh);
    if (c == NULL || m == NULL || t == NULL || !PyFloat_CheckExact(c) ||
        !PyFloat_CheckExact(t) || !nl_int64(m, mss) || *mss > ((int64_t)1 << 53) ||
        *mss < -((int64_t)1 << 53))
        return 0;
    *cwnd = PyFloat_AS_DOUBLE(c);
    *ssthresh = PyFloat_AS_DOUBLE(t);
    return 1;
}

/* cc.cwnd * cc.mss */
static int
slot_cc_cwnd_bytes(PyObject *S, double *out)
{
    NL_GET(cc, S, SENDER, cc);
    double cwnd_f, ssthresh;
    int64_t mss_i;
    if (nt_stock_cc(cc, &cwnd_f, &mss_i, &ssthresh)) {
        *out = cwnd_f * (double)mss_i;
        return 0;
    }
    PyObject *cwnd = PyObject_GetAttr(cc, NL.s_cwnd);
    PyObject *mss = cwnd == NULL ? NULL : PyObject_GetAttr(cc, NL.s_mss);
    PyObject *product = mss == NULL ? NULL : PyNumber_Multiply(cwnd, mss);
    Py_XDECREF(cwnd);
    Py_XDECREF(mss);
    if (product == NULL)
        return -1;
    *out = nl_double(product);
    Py_DECREF(product);
    return NL_FAILED(*out) ? -1 : 0;
}

static int
slot_cc_in_slow_start(PyObject *S, int *out)
{
    NL_GET(cc, S, SENDER, cc);
    double cwnd, ssthresh;
    int64_t mss;
    if (nt_stock_cc(cc, &cwnd, &mss, &ssthresh)) {
        *out = cwnd < ssthresh;
        return 0;
    }
    PyObject *value = PyObject_GetAttr(cc, NL.s_in_slow_start);
    if (value == NULL)
        return -1;
    *out = PyObject_IsTrue(value);
    Py_DECREF(value);
    return *out < 0 ? -1 : 0;
}

static int
slot_cc_on_ack(PyObject *S, int64_t acked_bytes, double srtt, double now)
{
    PyObject *argv[4] = {NULL, PyLong_FromLongLong(acked_bytes), PyFloat_FromDouble(srtt),
                         PyFloat_FromDouble(now)};
    return nt_cc_call(S, NL.s_on_ack, argv, 3);
}

static int
slot_cc_on_loss(PyObject *S, double now)
{
    PyObject *argv[2] = {NULL, PyFloat_FromDouble(now)};
    return nt_cc_call(S, NL.s_on_loss, argv, 1);
}

static int
slot_cc_on_ecn(PyObject *S, double now)
{
    PyObject *argv[2] = {NULL, PyFloat_FromDouble(now)};
    return nt_cc_call(S, NL.s_on_ecn, argv, 1);
}

static int
slot_cc_on_timeout(PyObject *S, double now)
{
    PyObject *argv[2] = {NULL, PyFloat_FromDouble(now)};
    return nt_cc_call(S, NL.s_on_timeout, argv, 1);
}

/* grant = data_provider.request_data(self, mss) */
static int
slot_request_data(KernelSimObject *sim, PyObject *S, int64_t mss, int *granted,
                  int64_t *dsn, int64_t *length)
{
    NL_GET(provider, S, SENDER, data_provider);
    NL_GET(mss_obj, S, SENDER, mss);
    PyObject *argv[3] = {provider, S, mss_obj};
    Py_INCREF(provider);
    PyObject *grant = PyObject_VectorcallMethod(NL.s_request_data, argv, 3, NULL);
    Py_DECREF(provider);
    if (grant == NULL)
        return -1;
    int rc = 0;
    *granted = grant != Py_None;
    if (*granted) {
        /* dsn, length = grant */
        PyObject *pair = PySequence_Fast(grant, "cannot unpack non-iterable grant");
        if (pair == NULL)
            rc = -1;
        else if (PySequence_Fast_GET_SIZE(pair) != 2) {
            PyErr_Format(PyExc_ValueError, "expected a (dsn, length) grant, got %zd values",
                         PySequence_Fast_GET_SIZE(pair));
            rc = -1;
        }
        else if (nt_i64(PySequence_Fast_GET_ITEM(pair, 0), dsn, "granted dsn") < 0 ||
                 nt_i64(PySequence_Fast_GET_ITEM(pair, 1), length, "granted length") < 0)
            rc = -1;
        Py_XDECREF(pair);
    }
    Py_DECREF(grant);
    return rc;
}

/* data_provider.on_data_acked(self, dsn, length, now) */
static int
slot_data_acked(KernelSimObject *sim, PyObject *S, int64_t dsn, int64_t length, double now)
{
    NL_GET(provider, S, SENDER, data_provider);
    PyObject *argv[5] = {provider, S, PyLong_FromLongLong(dsn), PyLong_FromLongLong(length),
                         PyFloat_FromDouble(now)};
    int rc = -1;
    if (argv[2] != NULL && argv[3] != NULL && argv[4] != NULL) {
        Py_INCREF(provider);
        rc = nl_done(PyObject_VectorcallMethod(NL.s_on_data_acked, argv, 5, NULL));
        Py_DECREF(provider);
    }
    Py_XDECREF(argv[2]);
    Py_XDECREF(argv[3]);
    Py_XDECREF(argv[4]);
    return rc;
}

/* The provider refused: with nothing in flight either, the sender is idle. */
static int
slot_idle(KernelSimObject *sim, PyObject *S)
{
    NL_GET(on_idle, S, SENDER, on_idle);
    if (on_idle == Py_None)
        return 0;
    SND_I64(snd_nxt, S, snd_nxt);
    SND_I64(snd_una, S, snd_una);
    if (snd_nxt != snd_una)
        return 0;
    Py_INCREF(on_idle);
    int rc = nl_done(PyObject_CallOneArg(on_idle, S));
    Py_DECREF(on_idle);
    return rc;
}

/* self._last_dack = sink.on_subflow_data(subflow_id, dsn, length, now) */
static int
slot_sink_deliver(KernelSimObject *sim, PyObject *R, int64_t dsn, int64_t length, double now)
{
    NL_GET(sink, R, RECV, connection_sink);
    if (sink == Py_None)
        return 0;
    NL_GET(subflow_id, R, RECV, subflow_id);
    PyObject *argv[5] = {sink, subflow_id, PyLong_FromLongLong(dsn),
                         PyLong_FromLongLong(length), PyFloat_FromDouble(now)};
    PyObject *dack = NULL;
    if (argv[2] != NULL && argv[3] != NULL && argv[4] != NULL) {
        Py_INCREF(sink);
        dack = PyObject_VectorcallMethod(NL.s_on_subflow_data, argv, 5, NULL);
        Py_DECREF(sink);
    }
    Py_XDECREF(argv[2]);
    Py_XDECREF(argv[3]);
    Py_XDECREF(argv[4]);
    if (dack == NULL)
        return -1;
    int64_t last_dack;
    int rc = nt_i64(dack, &last_dack, "the data ACK on_subflow_data returned");
    Py_DECREF(dack);
    if (rc == 0)
        NC_I64(R, RECV, _last_dack) = last_dack;
    return rc;
}

/* The reorder buffer: _out_of_order, a dict seq -> (length, dsn). */
static PyObject *
nt_ooo(PyObject *R)
{
    PyObject *buffer = NL_SLOT(R, RECV, _out_of_order);
    if (buffer == NULL)
        nl_unset("_out_of_order");
    else if (!PyDict_Check(buffer)) {
        nt_type_error("_out_of_order", "a dict", buffer);
        buffer = NULL;
    }
    return buffer;
}

static int
slot_ooo_nonempty(PyObject *R, int *out)
{
    PyObject *buffer = nt_ooo(R);
    if (buffer == NULL)
        return -1;
    *out = PyDict_GET_SIZE(buffer) > 0;
    return 0;
}

static int
slot_ooo_setdefault(PyObject *R, int64_t seq, int64_t length, int64_t dsn)
{
    PyObject *buffer = nt_ooo(R);
    PyObject *key = buffer == NULL ? NULL : PyLong_FromLongLong(seq);
    PyObject *value = key == NULL ? NULL : Py_BuildValue("(LL)", (long long)length,
                                                         (long long)dsn);
    int rc = value == NULL || PyDict_SetDefault(buffer, key, value) == NULL ? -1 : 0;
    Py_XDECREF(key);
    Py_XDECREF(value);
    return rc;
}

/* length, dsn = buffer.pop(seq), when seq is a key. */
static int
slot_ooo_pop(PyObject *R, int64_t seq, int *found, int64_t *length, int64_t *dsn)
{
    PyObject *buffer = nt_ooo(R);
    *found = 0;
    if (buffer == NULL)
        return -1;
    if (PyDict_GET_SIZE(buffer) == 0)
        return 0;
    PyObject *key = PyLong_FromLongLong(seq);
    if (key == NULL)
        return -1;
    int rc = 0;
    PyObject *entry = PyDict_GetItemWithError(buffer, key);
    if (entry == NULL)
        rc = PyErr_Occurred() ? -1 : 0;
    else if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2)
        rc = nt_type_error("_out_of_order value", "a (length, dsn) tuple", entry);
    else if (nt_i64(PyTuple_GET_ITEM(entry, 0), length, "buffered length") < 0 ||
             nt_i64(PyTuple_GET_ITEM(entry, 1), dsn, "buffered dsn") < 0)
        rc = -1;
    else {
        *found = 1;
        rc = PyDict_DelItem(buffer, key);
    }
    Py_DECREF(key);
    return rc;
}

static int
ooo_by_seq(const void *a, const void *b)
{
    int64_t x = ((const OooEnt *)a)->seq, y = ((const OooEnt *)b)->seq;
    return (x > y) - (x < y);
}

/* self._sack_blocks() as the tuple of (start, end) tuples; new reference. */
static PyObject *
nt_sack_tuple(PyObject *buffer)
{
    Py_ssize_t n = PyDict_GET_SIZE(buffer);
    OooEnt small[16];
    OooEnt *ooo = n <= 16 ? small : PyMem_Malloc((size_t)n * sizeof(OooEnt));
    if (ooo == NULL)
        return PyErr_NoMemory();
    PyObject *key, *value, *out = NULL;
    Py_ssize_t pos = 0, i = 0;
    while (PyDict_Next(buffer, &pos, &key, &value)) {
        if (!PyTuple_Check(value) || PyTuple_GET_SIZE(value) != 2) {
            nt_type_error("_out_of_order value", "a (length, dsn) tuple", value);
            goto done;
        }
        if (nt_i64(key, &ooo[i].seq, "buffered seq") < 0 ||
            nt_i64(PyTuple_GET_ITEM(value, 0), &ooo[i].length, "buffered length") < 0)
            goto done;
        i++;
    }
    qsort(ooo, (size_t)n, sizeof(OooEnt), ooo_by_seq);
    int64_t blocks[8];
    int nb = sack_blocks(ooo, n, blocks);
    out = PyTuple_New(nb);
    for (int b = 0; out != NULL && b < nb; b++) {
        PyObject *block = Py_BuildValue("(LL)", (long long)blocks[2 * b],
                                        (long long)blocks[2 * b + 1]);
        if (block == NULL)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, b, block);
    }
done:
    if (ooo != small)
        PyMem_Free(ooo);
    return out;
}

/* Delivered packets.  CE is `packet.ecn == 2` (ECE, the ACK's truthy `ecn`,
 * reads as a flag). */
#define PKT_CE(var, c, p)                                                   \
    NL_GET(ecn__##var, p, PACKET, ecn);                                     \
    int var = ecn__##var == Py_False ? 0                                    \
            : PyObject_RichCompareBool(ecn__##var, NL.two, Py_EQ);          \
    if (var < 0)                                                            \
        return -1

static int slot_apply_sack(PyObject *S, const int64_t *blocks, Py_ssize_t nblocks);

/* if packet.sack_blocks: self._apply_sack(packet.sack_blocks) */
static int
slot_pkt_sack(KernelSimObject *sim, PyObject *S, PyObject *packet)
{
    NL_GET(carried, packet, PACKET, sack_blocks);
    if (carried == NL.empty)
        return 0;
    PyObject *seq = PySequence_Fast(carried, "sack_blocks must be a sequence of pairs");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    int64_t small[16];
    int64_t *blocks = n <= 8 ? small : PyMem_Malloc((size_t)n * 2 * sizeof(int64_t));
    int rc = blocks == NULL ? (PyErr_NoMemory(), -1) : 0;
    for (Py_ssize_t b = 0; rc == 0 && b < n; b++) {
        PyObject *block = PySequence_Fast_GET_ITEM(seq, b);
        if (!PyTuple_Check(block) || PyTuple_GET_SIZE(block) != 2)
            rc = nt_type_error("a SACK block", "a (start, end) tuple", block);
        else if (nt_i64(PyTuple_GET_ITEM(block, 0), &blocks[2 * b], "SACK start") < 0 ||
                 nt_i64(PyTuple_GET_ITEM(block, 1), &blocks[2 * b + 1], "SACK end") < 0)
            rc = -1;
    }
    if (rc == 0 && n > 0)
        rc = slot_apply_sack(S, blocks, n);
    if (blocks != small)
        PyMem_Free(blocks);
    Py_DECREF(seq);
    return rc;
}

/* acquire_data(...) [+ ECT] + _host_send */
static int
slot_send_data(KernelSimObject *sim, PyObject *S, int64_t seq, int64_t length, int64_t dsn,
               int is_retransmission, double now)
{
    NL_GET_AS(host, S, SENDER, host, NODE);
    NL_GET(dst, S, SENDER, dst);
    NL_GET(tag, S, SENDER, tag);
    NL_GET(flow_id, S, SENDER, flow_id);
    NL_GET(subflow_id, S, SENDER, subflow_id);
    SND_FLAG(ecn, S, ecn);
    PyObject *packet = nt_packet_acquire(host, dst, tag, flow_id, subflow_id, now);
    if (packet == NULL)
        return -1;
    NC_I64(packet, PACKET, size) = length + NL.header_size;
    NC_I64(packet, PACKET, seq) = seq;
    NC_I64(packet, PACKET, payload_len) = length;
    NC_I64(packet, PACKET, ack) = 0;
    NC_I64(packet, PACKET, dsn) = dsn;
    NC_I64(packet, PACKET, dack) = 0;
    NC_F64(packet, PACKET, ts_echo) = -1.0;
    int rc = -1;
    if (NT_PSET(packet, is_ack, Py_False) == 0 &&
        NT_PSET(packet, is_retransmission, is_retransmission ? Py_True : Py_False) == 0 &&
        NT_PSET(packet, sack_blocks, NL.empty) == 0 &&
        /* ECT: the segment may be CE-marked instead of dropped. */
        (!ecn || NT_PSET(packet, ecn, NL.one) == 0))
        rc = nt_egress(S, &SENDER_ROUTE, packet);
    Py_DECREF(packet);
    return rc;
}

/* acquire_ack(...) [+ ECE] + _host_send */
static int
slot_send_ack(KernelSimObject *sim, PyObject *R, double ts_echo, double now, int ece)
{
    NL_GET_AS(host, R, RECV, host, NODE);
    NL_GET(peer, R, RECV, peer);
    NL_GET(tag, R, RECV, tag);
    NL_GET(flow_id, R, RECV, flow_id);
    NL_GET(subflow_id, R, RECV, subflow_id);
    RCV_I64(ack_size, R, ack_size);
    RCV_I64(rcv_nxt, R, rcv_nxt);
    RCV_I64(last_dack, R, _last_dack);
    PyObject *buffer = nt_ooo(R);
    if (buffer == NULL)
        return -1;
    /* Pure-ACK fast path: an empty buffer carries the shared empty tuple. */
    PyObject *sack = PyDict_GET_SIZE(buffer) ? nt_sack_tuple(buffer) : Py_NewRef(NL.empty);
    if (sack == NULL)
        return -1;
    PyObject *packet = nt_packet_acquire(host, peer, tag, flow_id, subflow_id, now);
    int rc = -1;
    if (packet != NULL) {
        NC_I64(packet, PACKET, size) = ack_size;
        NC_I64(packet, PACKET, seq) = 0;
        NC_I64(packet, PACKET, payload_len) = 0;
        NC_I64(packet, PACKET, ack) = rcv_nxt;
        NC_I64(packet, PACKET, dsn) = 0;
        NC_I64(packet, PACKET, dack) = last_dack;
        NC_F64(packet, PACKET, ts_echo) = ts_echo;
        if (NT_PSET(packet, is_ack, Py_True) == 0 &&
            NT_PSET(packet, is_retransmission, Py_False) == 0 &&
            NT_PSET(packet, sack_blocks, sack) == 0 &&
            (!ece || NT_PSET(packet, ecn, Py_True) == 0))
            rc = nt_egress(R, &RECV_ROUTE, packet);
    }
    Py_XDECREF(packet);
    Py_DECREF(sack);
    return rc;
}

#include "_transport.h"

/* ---- the agent types and their binding ---- */

/* The agent's simulator, which must be a KernelSim. */
static KernelSimObject *
nt_agent_sim(PyObject *agent, int sim_slot)
{
    PyObject *sim = NT_AT(agent, sim_slot);
    if (sim == NULL || !Py_IS_TYPE(sim, &KernelSimType)) {
        PyErr_SetString(PyExc_TypeError, "native transport: sim must be the agent's KernelSim");
        return NULL;
    }
    return (KernelSimObject *)sim;
}

/* handle_packet: the C body for the native packet, the Python body (py)
 * for any other. */
static int
nt_receive(PyObject *agent, int sim_slot, PyObject *py, PyObject *packet,
           int (*body)(KernelSimObject *, PyObject *, PyObject *))
{
    if (!nl_native_packet(packet)) {
        PyObject *argv[2] = {agent, packet};
        return nl_py_call(py, argv, 2, 0);
    }
    KernelSimObject *sim = nt_agent_sim(agent, sim_slot);
    return sim == NULL ? -1 : body(sim, agent, packet);
}

static int
nt_sender_receive(PyObject *sender, PyObject *packet)
{
    return nt_receive(sender, O_SENDER_sim, NL.py_sender_handle, packet, slot_sender_handle);
}

static int
nt_receiver_receive(PyObject *receiver, PyObject *packet)
{
    return nt_receive(receiver, O_RECV_sim, NL.py_receiver_handle, packet,
                      slot_receiver_handle);
}

static PyObject *
none_unless_failed(int rc)
{
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
nsender_handle_packet(PyObject *self, PyObject *packet)
{
    return none_unless_failed(nt_sender_receive(self, packet));
}

static PyObject *
nsender_run(PyObject *self, int (*body)(KernelSimObject *, PyObject *))
{
    KernelSimObject *sim = nt_agent_sim(self, O_SENDER_sim);
    return none_unless_failed(sim == NULL ? -1 : body(sim, self));
}

static PyObject *
nsender_try_send(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return nsender_run(self, slot_try_send);
}

static PyObject *
nsender_fire_rto(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return nsender_run(self, slot_fire_rto);
}

static PyObject *
nsender_on_rto(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return nsender_run(self, slot_on_rto);
}

static PyObject *
nreceiver_handle_packet(PyObject *self, PyObject *packet)
{
    return none_unless_failed(nt_receiver_receive(self, packet));
}

static PyMethodDef nsender_methods[] = {
    {"handle_packet", (PyCFunction)nsender_handle_packet, METH_O,
     "Entry point for packets delivered to this sender (ACKs)."},
    {"_try_send", (PyCFunction)nsender_try_send, METH_NOARGS,
     "Transmit while the window allows: holes first, then fresh data."},
    {"_fire_rto", (PyCFunction)nsender_fire_rto, METH_NOARGS,
     "The timer event: re-arm at a pushed deadline, or time out."},
    {"_on_rto", (PyCFunction)nsender_on_rto, METH_NOARGS,
     "The retransmission timeout reaction."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot nsender_slots[] = {
    {Py_tp_doc, "repro.tcp.sender.TcpSender with the per-ACK bodies in C."},
    {Py_tp_methods, nsender_methods},
    {0, NULL},
};

/* Named as the Python classes, so bound methods, cProfile and the ledger's
 * kernel bucket read `TcpSender._fire_rto` on either kernel. */
static PyType_Spec nsender_spec = {
    .name = "repro.kernel._ckernel.TcpSender",
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = nsender_slots,
};

static PyMethodDef nreceiver_methods[] = {
    {"handle_packet", (PyCFunction)nreceiver_handle_packet, METH_O,
     "Entry point for packets delivered to this receiver (data segments)."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot nreceiver_slots[] = {
    {Py_tp_doc, "repro.tcp.receiver.TcpReceiver with handle_packet in C."},
    {Py_tp_methods, nreceiver_methods},
    {0, NULL},
};

static PyType_Spec nreceiver_spec = {
    .name = "repro.kernel._ckernel.TcpReceiver",
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = nreceiver_slots,
};

/* Resolve the transport's classes, slot offsets, packet pool and the two
 * agent types; once, on the first TcpSender / TcpReceiver of a KernelSim. */
static int
nt_bind(void)
{
    if (NL.native[T_RECV] != NULL)
        return 0;
    if (nl_bind() < 0 || nl_resolve(T_SENDER, T_COUNT, O_LINK_COUNT, O_COUNT) < 0 ||
        nl_function(&NL.py_sender_handle, T_SENDER, "handle_packet") < 0 ||
        nl_function(&NL.py_receiver_handle, T_RECV, "handle_packet") < 0)
        return -1;
    if (NL.cc_in_slow_start == NULL) {
        PyObject *stock = _PyType_Lookup(NL.type[T_CC], NL.s_in_slow_start);
        if (stock == NULL) {
            PyErr_SetString(PyExc_TypeError, "CongestionControl has no in_slow_start");
            return -1;
        }
        NL.cc_in_slow_start = Py_NewRef(stock);
    }
    PyObject *header = NULL;
    if (nl_import(&header, "repro.units", "HEADER_SIZE") < 0)
        return -1;
    NL.header_size = PyLong_AsLongLong(header);
    Py_DECREF(header);
    if (NL.header_size == -1 && PyErr_Occurred())
        return -1;
#define NT_CONST(member, expr)                                              \
    if (NL.member == NULL && (NL.member = (expr)) == NULL)                  \
        return -1;
    NT_CONST(two, PyLong_FromLong(2))
    NT_CONST(empty, PyTuple_New(0))
#undef NT_CONST
    if (nl_subtype(&nc_stats_specs[T_SSTATS], T_SSTATS) < 0 ||
        nl_subtype(&nc_stats_specs[T_RSTATS], T_RSTATS) < 0 ||
        nl_subtype(&nsender_spec, T_SENDER) < 0)
        return -1;
    return nl_subtype(&nreceiver_spec, T_RECV);
}

/* KernelSim.<x>_type: NL.native[closure], bound on first use. */
static PyObject *
ksim_get_native(PyObject *self, void *closure)
{
    int base = (int)(intptr_t)closure;
    if ((base < T_SENDER ? nl_bind() : nt_bind()) < 0)
        return NULL;
    return Py_NewRef((PyObject *)NL.native[base]);
}

/* ---- native heap entries ---- */

/* A bound _deliver / _serve_queue of a native link or _fire_rto of a native
 * sender: its entry kind, with the owner borrowed into *owner; 0 for any
 * other callable. */
static int
native_kind(PyObject *cb, PyObject **owner)
{
    if (!PyCFunction_Check(cb))
        return 0;
    PyCFunction fn = PyCFunction_GET_FUNCTION(cb);
    int kind = fn == (PyCFunction)nlink_deliver ? KN_DELIVER
             : fn == (PyCFunction)nlink_serve_queue ? KN_SERVE
             : fn == (PyCFunction)nsender_fire_rto ? KN_RTO : 0;
    if (kind)
        *owner = PyCFunction_GET_SELF(cb);
    return kind;
}

static int
native_fire(int kind, PyObject *owner)
{
    switch (kind) {
    case KN_DELIVER:
        return nl_deliver(owner);
    case KN_SERVE:
        return nl_serve(owner);
    default: {
        KernelSimObject *sim = nt_agent_sim(owner, O_SENDER_sim);
        return sim == NULL ? -1 : slot_fire_rto(sim, owner);
    }
    }
}

/* The bound method a native entry stands for (_export_entries). */
static const char *
native_method(int kind)
{
    return kind == KN_DELIVER ? "_deliver" : kind == KN_SERVE ? "_serve_queue" : "_fire_rto";
}

/* ------------------------------------------------------------------- Scene
 *
 * A fully native single-path TCP pipeline.  repro.kernel.pipeline builds a
 * Scene from an eligible Network (quiescent start: idle links, empty send
 * windows, only sender-start and cancelled events pending), runs it to the
 * horizon, and copies every counter, window, queue and pending event back
 * into the Python objects.  All the protocol logic below mirrors the Python
 * hot path statement by statement; see the module docstring for the
 * float-identity rules.
 */

enum { EV_DELIVER = 0, EV_SERVE = 1, EV_RTO = 2, EV_START = 3, EV_CANCELLED = 4 };
enum { CC_RENO = 0, CC_CUBIC = 1 };
enum { AGENT_SENDER = 0, AGENT_RECEIVER = 1 };

typedef struct {
    double t;
    int64_t seq;
    int32_t kind;
    int32_t idx;
} PEv;

typedef struct {
    int32_t src, dst;           /* node indices */
    int64_t size, tag, flow, subflow, seq, payload_len, ack, dsn, dack, hops;
    double ts_echo, created_at, enqueued_at;
    int8_t is_ack, is_retx;
    int32_t nsack;              /* SACK blocks: nsack pairs in sack[] */
    int64_t sack[8];
    int32_t next_free;
} CPkt;

/* ---- state tables ----
 *
 * Every record that crosses the Python boundary lists its state once, as
 * rows of (wire type, member).  The list expands to the struct members and
 * to a Field table whose dict key is the member name; add_* (dict ->
 * struct) and export_* (struct -> dict) walk that table, so a new signal
 * is one row here and one row in pipeline.py.  Optional[float] state
 * travels as NaN for None. */

typedef enum { FT_I32, FT_I64, FT_F64, FT_BOOL } FieldType;
typedef struct { const char *name; size_t off; FieldType type; } Field;

#define CT_I32 int32_t
#define CT_I64 int64_t
#define CT_F64 double
#define CT_BOOL int8_t
#define FIELD_MEMBER(type, name, S) CT_##type name;
#define FIELD_ROW(type, name, S) {#name, offsetof(S, name), FT_##type},

typedef struct {
    int32_t *buf;
    int32_t head, len, cap;
} Ring;

/* A packet on the wire and the delivery it is owed, fixed when it was sent. */
typedef struct {
    double t;
    int64_t seq;
    int32_t pkt;
} Flight;

typedef struct {
    Flight *buf;
    int32_t head, len, cap;
} Lane;

#define LINK_FIELDS(X, S)                                                   \
    X(I32, dst, S) X(F64, rate_bps, S) X(F64, delay, S) X(I64, qcap, S)     \
    X(F64, busy_until, S) X(F64, serve_at, S) X(BOOL, serving, S)           \
    /* LinkStats */                                                         \
    X(I64, pkts_sent, S) X(I64, bytes_sent, S) X(I64, pkts_dropped, S)      \
    X(F64, busy_time, S)                                                    \
    /* QueueStats */                                                        \
    X(I64, q_enqueued, S) X(I64, q_dequeued, S) X(I64, q_dropped, S)        \
    X(I64, q_bytes_enqueued, S) X(I64, q_bytes_dropped, S)                  \
    X(I64, q_max_depth, S) X(I64, qbytes, S)

typedef struct {
    LINK_FIELDS(FIELD_MEMBER, )
    Ring q;
    Lane fl;                    /* in flight, oldest first: the link's calendar lane */
} CLink;
static const Field LINK_TABLE[] = {LINK_FIELDS(FIELD_ROW, CLink) {NULL, 0, 0}};

typedef struct { int32_t dst; int64_t tag; int32_t link; } FwdEnt;
typedef struct { int64_t flow, subflow; int32_t kind, idx; } AgentEnt;

#define NODE_FIELDS(X, S)                                                   \
    X(I64, received, S) X(I64, forwarded, S) X(I64, delivered, S)           \
    X(I64, routing_drops, S)

typedef struct {
    NODE_FIELDS(FIELD_MEMBER, )
    FwdEnt *fwd; int32_t nfwd, fwdcap;
    AgentEnt *agents; int32_t nagents, agcap;
    int32_t *caps; int32_t ncaps, capscap;
} CNode;
static const Field NODE_TABLE[] = {NODE_FIELDS(FIELD_ROW, CNode) {NULL, 0, 0}};

typedef struct {
    int64_t seq, length, dsn;
    double sent_at;
    int8_t retransmitted, sacked, lost, lost_pending, retx_in_recovery;
} CSeg;

typedef struct {
    CSeg *buf;
    int32_t head, len, cap;
} SegRing;

/* Window, estimator and counter members are named as the Python attributes
 * they mirror: the shared transport bodies (_transport.h) address both. */
#define SENDER_FIELDS(X, S)                                                 \
    X(I32, host, S) X(I32, dst, S) X(I64, flow, S) X(I64, subflow, S)       \
    X(I64, tag, S) X(I32, route_link, S) X(I64, mss, S)                     \
    /* BulkDataAdapter; total_bytes -1 == unbounded */                      \
    X(I64, total_bytes, S) X(I64, offset, S) X(I64, prov_acked, S)          \
    X(F64, prov_last_ack, S)                                                \
    /* RttEstimator; srtt, rttvar, min_rtt, latest_rtt NaN until sampled */ \
    X(F64, alpha, S) X(F64, beta, S) X(F64, min_rto, S) X(F64, max_rto, S)  \
    X(F64, srtt, S) X(F64, rttvar, S) X(F64, min_rtt, S)                    \
    X(F64, latest_rtt, S) X(I64, samples, S) X(F64, _rto, S)                \
    /* congestion control; epoch_start, cc_min_rtt NaN when unset */        \
    X(I32, cc_kind, S) X(I64, cc_mss, S)                                    \
    X(F64, cwnd, S) X(F64, ssthresh, S) X(F64, cc_srtt, S)                  \
    X(I64, losses, S) X(I64, cc_timeouts, S) X(I64, acked_total, S)         \
    X(BOOL, fast_conv, S) X(BOOL, tcp_friendly, S) X(BOOL, hystart, S)      \
    X(F64, w_max, S) X(F64, k, S) X(F64, epoch_start, S) X(F64, w_est, S)   \
    X(F64, acks_in_epoch, S) X(F64, cc_min_rtt, S)                          \
    /* window state */                                                      \
    X(I64, snd_una, S) X(I64, snd_nxt, S)                                   \
    X(I64, _sacked_bytes, S) X(I64, _lost_pending_bytes, S)                 \
    X(I64, _dupacks, S) X(BOOL, _in_fast_recovery, S) X(I64, _recover, S)   \
    X(F64, _rto_deadline, S) X(F64, _rto_fire_at, S)                        \
    X(F64, _rto_backoff, S) X(BOOL, _started, S) X(BOOL, closed, S)         \
    /* SenderStats */                                                       \
    X(I64, st_segments_sent, S) X(I64, st_bytes_sent, S)                    \
    X(I64, st_bytes_acked, S) X(I64, st_retransmissions, S)                 \
    X(I64, st_fast_retransmits, S) X(I64, st_timeouts, S)                   \
    X(I64, st_dupacks, S)

typedef struct {
    SENDER_FIELDS(FIELD_MEMBER, )
    SegRing segs;
    int8_t rto_live;            /* the heap entry with rto_seq is the live RTO */
    int64_t rto_seq;
} CSender;
static const Field SENDER_TABLE[] = {SENDER_FIELDS(FIELD_ROW, CSender) {NULL, 0, 0}};

#define RECV_FIELDS(X, S)                                                   \
    X(I32, host, S) X(I32, peer, S) X(I64, flow, S) X(I64, subflow, S)      \
    X(I64, tag, S) X(I32, route_link, S) X(I64, ack_size, S)                \
    X(I64, rcv_nxt, S) X(I64, _last_dack, S)                                \
    /* ReceiverStats */                                                     \
    X(I64, st_segments_received, S) X(I64, st_bytes_received, S)            \
    X(I64, st_duplicates, S) X(I64, st_out_of_order, S)                     \
    X(I64, st_acks_sent, S)

typedef struct {
    RECV_FIELDS(FIELD_MEMBER, )
    OooEnt *ooo; int32_t nooo, ooocap;
} CRecv;
static const Field RECV_TABLE[] = {RECV_FIELDS(FIELD_ROW, CRecv) {NULL, 0, 0}};

typedef struct {
    int8_t data_only, has_filter;
    int64_t filter;
    CapRow *rows;
    int32_t n, cap;
} CCap;

typedef struct {
    PyObject_HEAD
    double now;
    int64_t seq;
    int64_t header_size;
    PEv *heap; Py_ssize_t hlen, hcap;
    CPkt *arena; int32_t acap, a_used, free_head;
    CLink *links; int32_t nlinks, lcap;
    CNode *nodes; int32_t nnodes, nodecap;
    CSender *snds; int32_t nsnd, sndcap;
    CRecv *rcvs; int32_t nrcv, rcvcap;
    CCap *caps; int32_t ncaps, capcap;
} SceneObject;

/* ---- tiny helpers ---- */

static int
scene_err(const char *msg)
{
    PyErr_SetString(PyExc_RuntimeError, msg);
    return -1;
}

static int
fields_import(void *base, const Field *f, PyObject *d)
{
    for (; f->name != NULL; f++) {
        PyObject *v = PyDict_GetItemString(d, f->name);
        if (v == NULL) {
            PyErr_Format(PyExc_KeyError, "scene import missing key %s", f->name);
            return -1;
        }
        char *p = (char *)base + f->off;
        switch (f->type) {
        case FT_I32: *(int32_t *)p = (int32_t)PyLong_AsLongLong(v); break;
        case FT_I64: *(int64_t *)p = (int64_t)PyLong_AsLongLong(v); break;
        case FT_F64: *(double *)p = PyFloat_AsDouble(v); break;
        case FT_BOOL: *(int8_t *)p = (int8_t)(PyObject_IsTrue(v) > 0); break;
        }
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* Store a new reference under key; consumes it, and the dict on failure. */
static PyObject *
dict_put(PyObject *d, const char *key, PyObject *v)
{
    if (d != NULL && (v == NULL || PyDict_SetItemString(d, key, v) < 0))
        Py_CLEAR(d);
    Py_XDECREF(v);
    return d;
}

static PyObject *
fields_export(const void *base, const Field *f)
{
    PyObject *d = PyDict_New();
    for (; d != NULL && f->name != NULL; f++) {
        const char *p = (const char *)base + f->off;
        PyObject *v = NULL;
        switch (f->type) {
        case FT_I32: v = PyLong_FromLong(*(const int32_t *)p); break;
        case FT_I64: v = PyLong_FromLongLong(*(const int64_t *)p); break;
        case FT_F64: v = PyFloat_FromDouble(*(const double *)p); break;
        case FT_BOOL: v = PyBool_FromLong(*(const int8_t *)p); break;
        }
        d = dict_put(d, f->name, v);
    }
    return d;
}

/* Zeroed slot at index *count of a growable array (the caller bumps the
 * count once the slot is filled); NULL with MemoryError set. */
static void *
vec_slot(void *arr_p, int32_t count, int32_t *cap, size_t elem)
{
    void **arr = (void **)arr_p;
    if (count == *cap) {
        int32_t ncap = *cap ? *cap * 2 : 8;
        void *p = PyMem_Realloc(*arr, (size_t)ncap * elem);
        if (p == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        *arr = p;
        *cap = ncap;
    }
    void *slot = (char *)*arr + (size_t)count * elem;
    memset(slot, 0, elem);
    return slot;
}

/* ---- rings ----
 *
 * Three element types, one shape: {buf, head, len, cap} with cap zero or a
 * power of two, so an index wraps with & (cap - 1) instead of a division. */

/* Make room in a full ring: double it (from first, a power of two) and
 * unroll the entries to head 0. */
static int
ring_grow(void *buf_p, int32_t *head, int32_t *cap, size_t elem, int32_t first)
{
    char **buf = (char **)buf_p;
    int32_t ncap = *cap ? *cap * 2 : first;
    char *nbuf = (char *)PyMem_Malloc((size_t)ncap * elem);
    if (nbuf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (*cap) {
        size_t tail = (size_t)(*cap - *head) * elem;
        memcpy(nbuf, *buf + (size_t)*head * elem, tail);
        memcpy(nbuf + tail, *buf, (size_t)*head * elem);
    }
    PyMem_Free(*buf);
    *buf = nbuf;
    *cap = ncap;
    *head = 0;
    return 0;
}

#define RING_ROOM(r, first)                                                    \
    ((r)->len < (r)->cap ||                                                    \
     ring_grow(&(r)->buf, &(r)->head, &(r)->cap, sizeof *(r)->buf, first) == 0)
#define RING_AT(r, i) ((r)->buf[((r)->head + (i)) & ((r)->cap - 1)])
/* Drop the head; the caller has checked len > 0. */
#define RING_DROP(r) ((r)->head = ((r)->head + 1) & ((r)->cap - 1), (r)->len -= 1)

static int
ring_push(Ring *r, int32_t v)
{
    if (!RING_ROOM(r, 16))
        return -1;
    RING_AT(r, r->len) = v;
    r->len += 1;
    return 0;
}

static int32_t
ring_pop(Ring *r)
{
    int32_t v = r->buf[r->head];
    RING_DROP(r);
    return v;
}

static int
lane_push(Lane *r, Flight f)
{
    if (!RING_ROOM(r, 16))
        return -1;
    RING_AT(r, r->len) = f;
    r->len += 1;
    return 0;
}

static int
segring_push(SegRing *r, CSeg seg)
{
    if (!RING_ROOM(r, 32))
        return -1;
    RING_AT(r, r->len) = seg;
    r->len += 1;
    return 0;
}

static void
segring_popleft(SegRing *r)
{
    RING_DROP(r);
}

static CSeg *
seg_at(SegRing *r, int32_t i)
{
    return &RING_AT(r, i);
}

/* Segments are kept in ascending-seq order (appended at snd_nxt, retired as
 * a prefix), so the _segments dict lookup becomes a binary search; NULL when
 * seq is not a segment start. */
static CSeg *
seg_find(SegRing *r, int64_t seq)
{
    int32_t lo = 0, hi = r->len - 1;
    while (lo <= hi) {
        int32_t mid = (lo + hi) / 2;
        CSeg *g = seg_at(r, mid);
        if (g->seq == seq)
            return g;
        if (g->seq < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return NULL;
}

/* ---- event heap ----
 *
 * The calendar pops in the Python engine's (time, seq) order but does not
 * hold every event.  A link's deliveries wait in its in-flight ring
 * (CLink.fl, the link's lane), each with the (t, seq) it was given when its
 * packet was sent, and only the lane's head has a heap entry: firing it arms
 * the entry behind it under that entry's own (t, seq).  So the heap holds at
 * most one delivery and one serve per link, plus timers, starts and cancelled
 * entries, whatever the bandwidth-delay product.
 *
 * Why the order is still exact: every delivery of a link is created by that
 * link's transmitter (link_transmit) at tx_end + delay, and on a Scene link
 * (static by eligibility) tx_end only grows, delay is constant and seq only
 * grows.  Lane order is therefore (t, seq) order, a delivery behind the head
 * is later than the head, and the minimum over heap entries is the minimum
 * over all pending events.  link_transmit checks the premise on every push;
 * scene_add_event keeps imported deliveries out, so a lane entry and a
 * pending delivery stay one to one (scene_export_events reads them back from
 * the lanes). */

#define PLESS(x, y) ((x).t < (y).t || ((x).t == (y).t && (x).seq < (y).seq))

static int
ev_push(SceneObject *s, double t, int64_t seq, int32_t kind, int32_t idx)
{
    if (s->hlen == s->hcap) {
        Py_ssize_t cap = s->hcap ? s->hcap * 2 : 64;
        PEv *heap = (PEv *)PyMem_Realloc(s->heap, (size_t)cap * sizeof(PEv));
        if (heap == NULL) { PyErr_NoMemory(); return -1; }
        s->heap = heap;
        s->hcap = cap;
    }
    PEv e = {t, seq, kind, idx};
    PEv *h = s->heap;
    Py_ssize_t pos = s->hlen++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!PLESS(e, h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = e;
    return 0;
}

static PEv
ev_pop(SceneObject *s)
{
    PEv *h = s->heap;
    PEv top = h[0];
    Py_ssize_t n = --s->hlen;
    if (n > 0) {
        PEv last = h[n];
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && PLESS(h[child + 1], h[child]))
                child += 1;
            if (!PLESS(h[child], last))
                break;
            h[pos] = h[child];
            pos = child;
        }
        h[pos] = last;
    }
    return top;
}

/* ---- packet arena ---- */

static int32_t
pkt_alloc(SceneObject *s)
{
    if (s->free_head >= 0) {
        int32_t i = s->free_head;
        s->free_head = s->arena[i].next_free;
        return i;
    }
    if (s->a_used == s->acap) {
        int32_t cap = s->acap ? s->acap * 2 : 256;
        CPkt *a = (CPkt *)PyMem_Realloc(s->arena, (size_t)cap * sizeof(CPkt));
        if (a == NULL) { PyErr_NoMemory(); return -1; }
        s->arena = a;
        s->acap = cap;
    }
    return s->a_used++;
}

static void
pkt_free(SceneObject *s, int32_t i)
{
    s->arena[i].next_free = s->free_head;
    s->free_head = i;
}

/* ---- congestion control ---- */

static void
cubic_congestion_avoidance(CSender *S, double acked_segments, double srtt, double now)
{
    double rtt = srtt > 1e-4 ? srtt : 1e-4;
    if (isnan(S->epoch_start)) {
        S->epoch_start = now;
        if (S->cwnd < S->w_max)
            S->k = pow((S->w_max - S->cwnd) / 0.4, 1.0 / 3.0);
        else {
            S->k = 0.0;
            S->w_max = S->cwnd;
        }
        S->w_est = S->cwnd;
        S->acks_in_epoch = 0.0;
    }
    S->acks_in_epoch += acked_segments;
    double t = now - S->epoch_start;
    double target = S->w_max + 0.4 * pow(t + rtt - S->k, 3.0);
    double increment;
    if (target > S->cwnd) {
        double step = (target - S->cwnd) / S->cwnd;
        if (step > 0.5)
            step = 0.5;
        increment = step * acked_segments;
    }
    else {
        increment = acked_segments / (100.0 * S->cwnd);
    }
    S->cwnd += increment;
    if (S->tcp_friendly) {
        S->w_est = S->w_max * 0.7 + (3.0 * (1.0 - 0.7) / (1.0 + 0.7)) * (t / rtt);
        if (S->cwnd < S->w_est)
            S->cwnd = S->w_est;
    }
}

static void
cc_on_ack(CSender *S, int64_t acked_bytes, double srtt, double now)
{
    if (acked_bytes <= 0)
        return;
    if (S->cc_kind == CC_CUBIC && srtt > 0) {
        if (isnan(S->cc_min_rtt) || srtt < S->cc_min_rtt)
            S->cc_min_rtt = srtt;
        if (S->hystart && S->cwnd < S->ssthresh &&
            srtt > S->cc_min_rtt * 1.125 + 0.002) {
            S->ssthresh = S->cwnd > 2.0 ? S->cwnd : 2.0;
        }
    }
    S->cc_srtt = srtt;
    S->acked_total += acked_bytes;
    double acked_segments = (double)acked_bytes / (double)S->cc_mss;
    if (S->cwnd < S->ssthresh) {
        S->cwnd += acked_segments;
        if (S->cwnd > S->ssthresh)
            S->cwnd = S->ssthresh;
    }
    else if (S->cc_kind == CC_CUBIC) {
        cubic_congestion_avoidance(S, acked_segments, srtt, now);
    }
    else {
        /* Reno */
        if (S->cwnd <= 0)
            S->cwnd = 1.0;
        S->cwnd += acked_segments / S->cwnd;
    }
}

static void
cc_on_loss(CSender *S, double now)
{
    S->losses += 1;
    if (S->cc_kind == CC_CUBIC) {
        if (S->fast_conv && S->cwnd < S->w_max)
            S->w_max = S->cwnd * (2.0 - 0.7) / 2.0;
        else
            S->w_max = S->cwnd;
        double cw = S->cwnd * 0.7;
        S->cwnd = cw > 2.0 ? cw : 2.0;
        S->epoch_start = NAN;
        S->acks_in_epoch = 0.0;
    }
    else {
        S->cwnd = S->cwnd / 2.0;
    }
    if (S->cwnd < 2.0)
        S->cwnd = 2.0;
    S->ssthresh = S->cwnd > 2.0 ? S->cwnd : 2.0;
}

static void
cc_on_timeout(CSender *S, double now)
{
    S->cc_timeouts += 1;
    double half = S->cwnd / 2.0;
    S->ssthresh = half > 2.0 ? half : 2.0;
    S->cwnd = 1.0;
    if (S->cc_kind == CC_CUBIC) {
        if (S->cwnd > S->w_max)
            S->w_max = S->cwnd;
        S->epoch_start = NAN;
        S->acks_in_epoch = 0.0;
    }
}

/* ---- link transmit / queue / deliver (netsim/link.py, static mode) ---- */

/* Start serialising packet pi now: the transmit body of Link.send's idle
 * branch and of _serve_queue.  The delivery takes its seq here, as in Python,
 * and joins the link's lane; it gets a heap entry only as the lane's head,
 * now if the wire is empty, else when the delivery ahead of it fires. */
static int
link_transmit(SceneObject *s, int32_t li, int32_t pi)
{
    CLink *L = &s->links[li];
    int64_t size = s->arena[pi].size;
    double tx_time = (double)size * 8.0 / L->rate_bps;
    double tx_end = s->now + tx_time;
    L->busy_until = tx_end;
    L->busy_time += tx_time;
    L->pkts_sent += 1;
    L->bytes_sent += size;
    Flight f = {tx_end + L->delay, s->seq++, pi};
    if (L->fl.len > 0) {
        if (!PLESS(RING_AT(&L->fl, L->fl.len - 1), f))
            return scene_err("compiled pipeline: delivery out of lane order");
    }
    else if (ev_push(s, f.t, f.seq, EV_DELIVER, li) < 0)
        return -1;
    return lane_push(&L->fl, f);
}

static int
link_send(SceneObject *s, int32_t li, int32_t pi, int *accepted)
{
    CLink *L = &s->links[li];
    double now = s->now;
    if (now < L->busy_until || L->serving) {
        /* DropTailQueue.enqueue inlined */
        CPkt *p = &s->arena[pi];
        int acc;
        if ((int64_t)L->q.len >= L->qcap) {
            L->q_dropped += 1;
            L->q_bytes_dropped += p->size;
            /* Python never recycles a dropped packet (it falls to the GC);
             * the arena slot is reclaimed here because slot identity is
             * unobservable from Python. */
            pkt_free(s, pi);
            acc = 0;
        }
        else {
            p->enqueued_at = now;
            if (ring_push(&L->q, pi) < 0)
                return -1;
            L->qbytes += p->size;
            L->q_enqueued += 1;
            L->q_bytes_enqueued += p->size;
            if ((int64_t)L->q.len > L->q_max_depth)
                L->q_max_depth = L->q.len;
            acc = 1;
        }
        if (acc && !L->serving) {
            L->serving = 1;
            L->serve_at = L->busy_until;
            if (ev_push(s, L->busy_until, s->seq, EV_SERVE, li) < 0)
                return -1;
            s->seq += 1;
        }
        *accepted = acc;
        return 0;
    }
    *accepted = 1;
    return link_transmit(s, li, pi);    /* idle transmitter */
}

/* ---- capture tap (netsim/capture.py on_packet) ---- */

static int
cap_record(SceneObject *s, int32_t ci, int32_t pi)
{
    CCap *C = &s->caps[ci];
    CPkt *p = &s->arena[pi];
    if (p->is_ack && C->data_only)
        return 0;
    if (C->has_filter && p->flow != C->filter)
        return 0;
    if (C->n == C->cap) {
        int32_t cap = C->cap ? C->cap * 2 : 1024;
        CapRow *rows = (CapRow *)PyMem_Realloc(C->rows, (size_t)cap * sizeof(CapRow));
        if (rows == NULL) { PyErr_NoMemory(); return -1; }
        C->rows = rows;
        C->cap = cap;
    }
    C->rows[C->n++] = (CapRow){
        .time = s->now, .size = p->size, .payload_len = p->payload_len,
        .tag = p->tag,      /* -1 already encodes the untagged sentinel */
        .flow_id = p->flow, .subflow_id = p->subflow,
        .flags = (int8_t)((p->is_ack ? 1 : 0) | (p->is_retx ? 2 : 0)),
        .seq = p->seq, .dsn = p->dsn,
    };
    return 0;
}

/* ---- transport: the struct accessor layer (contract: _transport.h) ----
 *
 * The Scene's senders and receivers run the shared transport bodies over
 * CSender / CRecv / CSeg / CPkt.  The controller is cc_* above, the data
 * provider the inlined BulkDataAdapter; eligibility (pipeline.py) excludes
 * what this layer answers with a constant: ECN, path_down, on_idle, a
 * connection sink.
 */

#define TP(name) scn_##name
#define TP_CTX SceneObject *
#define TP_SND CSender *
#define TP_RCV CRecv *
#define TP_SEG CSeg *
#define TP_PKT int32_t
#define TP_NOW(c) ((c)->now)

#define SND_I64(var, S, name) int64_t var = (S)->name
#define SND_F64(var, S, name) double var = (S)->name
#define SND_MSS(var, S) int64_t var = (S)->mss
#define SND_FLAG(var, S, name) int var = (S)->name
#define SND_SET_I64(S, name, v) ((S)->name = (v))
#define SND_SET_F64(S, name, v) ((S)->name = (v))
#define SND_SET_FLAG(S, name, v) ((S)->name = (v))
#define SND_STAT_ADD(S, name, d) ((S)->st_##name += (d))
#define SND_PATH_DOWN(var, S) int var = 0
#define RCV_I64(var, R, name) int64_t var = (R)->name
#define RCV_SET_I64(R, name, v) ((R)->name = (v))
#define RCV_STAT_ADD(R, name, d) ((R)->st_##name += (d))
#define SEG_I64(var, g, name) int64_t var = (g)->name
#define SEG_F64(var, g, name) double var = (g)->name
#define SEG_FLAG(var, g, name) int var = (g)->name
#define SEG_SET_F64(g, name, v) ((g)->name = (v))
#define SEG_SET_FLAG(g, name, v) ((g)->name = (v))
#define SEGQ_LEN(n, S) Py_ssize_t n = (S)->segs.len
#define SEGQ_AT(g, S, j) CSeg *g = seg_at(&(S)->segs, (int32_t)(j))
#define SEGQ_FIND(g, S, seq) CSeg *g = seg_find(&(S)->segs, seq)
#define PKT_I64(var, c, p, name) int64_t var = (c)->arena[p].name
#define PKT_F64(var, c, p, name) double var = (c)->arena[p].name
#define PKT_FLAG(var, c, p, name) int var = (c)->arena[p].name
#define RTT_OPEN(S, sample)
#define RTT(field) ((S)->field)
#define RTT_CLOSE(S)
#define RTT_RTO(var, S) double var = (S)->_rto
#define RTT_SAMPLES(var, S) int64_t var = (S)->samples
#define RTT_SRTT(var, S, unsampled) double var = isnan((S)->srtt) ? (unsampled) : (S)->srtt
#define RTO_LIVE(var, S) int var = (S)->rto_live

static int
scn_segq_push(CSender *S, int64_t seq, int64_t length, int64_t dsn, double now)
{
    CSeg seg = {seq, length, dsn, now, 0, 0, 0, 0, 0};
    return segring_push(&S->segs, seg);
}

static int
scn_segq_popleft(CSender *S)
{
    segring_popleft(&S->segs);
    return 0;
}

/* The live timer is the heap entry whose seq is rto_seq; a re-armed or
 * cleared one goes stale where Python cancels its handle. */
static int
scn_rto_schedule(SceneObject *s, CSender *S, double deadline)
{
    S->rto_seq = s->seq;
    S->rto_live = 1;
    return ev_push(s, deadline, s->seq++, EV_RTO, (int32_t)(S - s->snds));
}

static int
scn_rto_cancel(CSender *S)
{
    return 0;
}

static void
scn_rto_forget(CSender *S)
{
    S->rto_live = 0;
}

static int
scn_rto_clear(CSender *S)
{
    S->rto_live = 0;
    return 0;
}

static int
scn_cc_cwnd_bytes(CSender *S, double *out)
{
    *out = S->cwnd * (double)S->cc_mss;
    return 0;
}

static int
scn_cc_in_slow_start(CSender *S, int *out)
{
    *out = S->cwnd < S->ssthresh;
    return 0;
}

static int
scn_cc_on_ack(CSender *S, int64_t acked_bytes, double srtt, double now)
{
    cc_on_ack(S, acked_bytes, srtt, now);
    return 0;
}

static int
scn_cc_on_loss(CSender *S, double now)
{
    cc_on_loss(S, now);
    return 0;
}

static int
scn_cc_on_timeout(CSender *S, double now)
{
    cc_on_timeout(S, now);
    return 0;
}

/* BulkDataAdapter.request_data / on_data_acked */
static int
scn_request_data(SceneObject *s, CSender *S, int64_t mss, int *granted, int64_t *dsn,
                 int64_t *length)
{
    *length = mss;
    if (S->total_bytes >= 0) {
        int64_t remaining = S->total_bytes - S->offset;
        if (remaining < mss)
            *length = remaining;
    }
    *granted = *length > 0;
    if (*granted) {
        *dsn = S->offset;
        S->offset += *length;
    }
    return 0;
}

static int
scn_data_acked(SceneObject *s, CSender *S, int64_t dsn, int64_t length, double now)
{
    S->prov_acked += length;
    S->prov_last_ack = now;
    return 0;
}

static int
scn_idle(SceneObject *s, CSender *S)
{
    return 0;
}

static int
scn_sink_deliver(SceneObject *s, CRecv *R, int64_t dsn, int64_t length, double now)
{
    return 0;
}

/* The reorder buffer: entries sorted by seq. */
static int
scn_ooo_nonempty(CRecv *R, int *out)
{
    *out = R->nooo > 0;
    return 0;
}

static int
scn_ooo_setdefault(CRecv *R, int64_t seq, int64_t length, int64_t dsn)
{
    /* dict.setdefault: the first buffered (length, dsn) wins */
    int32_t lo = 0, hi = R->nooo;
    while (lo < hi) {
        int32_t mid = (lo + hi) / 2;
        if (R->ooo[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < R->nooo && R->ooo[lo].seq == seq)
        return 0;
    if (R->nooo == R->ooocap) {
        int32_t cap = R->ooocap ? R->ooocap * 2 : 16;
        OooEnt *buf = (OooEnt *)PyMem_Realloc(R->ooo, (size_t)cap * sizeof(OooEnt));
        if (buf == NULL) { PyErr_NoMemory(); return -1; }
        R->ooo = buf;
        R->ooocap = cap;
    }
    memmove(&R->ooo[lo + 1], &R->ooo[lo], (size_t)(R->nooo - lo) * sizeof(OooEnt));
    R->ooo[lo].seq = seq;
    R->ooo[lo].length = length;
    R->ooo[lo].dsn = dsn;
    R->nooo += 1;
    return 0;
}

static int
scn_ooo_pop(CRecv *R, int64_t seq, int *found, int64_t *length, int64_t *dsn)
{
    int32_t lo = 0, hi = R->nooo - 1;
    *found = 0;
    while (lo <= hi) {
        int32_t mid = (lo + hi) / 2;
        int64_t v = R->ooo[mid].seq;
        if (v == seq) {
            *found = 1;
            *length = R->ooo[mid].length;
            *dsn = R->ooo[mid].dsn;
            memmove(&R->ooo[mid], &R->ooo[mid + 1],
                    (size_t)(R->nooo - mid - 1) * sizeof(OooEnt));
            R->nooo -= 1;
            return 0;
        }
        if (v < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return 0;
}

/* A packet from the arena with the fields both kinds set alike (the sack[]
 * of a recycled slot is stale beyond nsack, which nothing reads). */
static CPkt *
scn_packet(SceneObject *s, int32_t src, int32_t dst, int64_t tag, int64_t flow,
           int64_t subflow, double now, int32_t *pi)
{
    *pi = pkt_alloc(s);
    if (*pi < 0)
        return NULL;
    CPkt *p = &s->arena[*pi];
    p->src = src;
    p->dst = dst;
    p->tag = tag;
    p->flow = flow;
    p->subflow = subflow;
    p->created_at = now;
    p->enqueued_at = 0.0;
    p->hops = 0;
    p->nsack = 0;
    return p;
}

static int
scn_send_data(SceneObject *s, CSender *S, int64_t seq, int64_t length, int64_t dsn,
              int is_retransmission, double now)
{
    int32_t pi;
    CPkt *p = scn_packet(s, S->host, S->dst, S->tag, S->flow, S->subflow, now, &pi);
    if (p == NULL)
        return -1;
    p->size = length + s->header_size;
    p->seq = seq;
    p->payload_len = length;
    p->is_ack = 0;
    p->ack = 0;
    p->dsn = dsn;
    p->dack = 0;
    p->is_retx = (int8_t)is_retransmission;
    p->ts_echo = -1.0;
    int accepted;
    return link_send(s, S->route_link, pi, &accepted);
}

static int
scn_send_ack(SceneObject *s, CRecv *R, double ts_echo, double now, int ece)
{
    int32_t pi;
    CPkt *a = scn_packet(s, R->host, R->peer, R->tag, R->flow, R->subflow, now, &pi);
    if (a == NULL)
        return -1;
    a->size = R->ack_size;
    a->seq = 0;
    a->payload_len = 0;
    a->is_ack = 1;
    a->ack = R->rcv_nxt;
    a->dsn = 0;
    a->dack = R->_last_dack;
    a->is_retx = 0;
    a->ts_echo = ts_echo;
    if (R->nooo)
        a->nsack = sack_blocks(R->ooo, R->nooo, a->sack);
    int accepted;
    return link_send(s, R->route_link, pi, &accepted);
}

static int
scn_pkt_recycle(SceneObject *s, int32_t pi)
{
    pkt_free(s, pi);
    return 0;
}

static int scn_apply_sack(CSender *S, const int64_t *blocks, Py_ssize_t nblocks);

static int
scn_pkt_sack(SceneObject *s, CSender *S, int32_t pi)
{
    CPkt *p = &s->arena[pi];
    return p->nsack ? scn_apply_sack(S, p->sack, p->nsack) : 0;
}

#include "_transport.h"

/* ---- node dispatch (netsim/node.py receive fused into link delivery) ---- */

static int
node_receive(SceneObject *s, int32_t ni, int32_t pi)
{
    CNode *N = &s->nodes[ni];
    N->received += 1;
    CPkt *p = &s->arena[pi];
    if (p->dst == ni) {
        N->delivered += 1;
        for (int32_t c = 0; c < N->ncaps; c++) {
            if (cap_record(s, N->caps[c], pi) < 0)
                return -1;
        }
        p = &s->arena[pi];  /* cap_record never moves the arena, but be safe */
        for (int32_t a = 0; a < N->nagents; a++) {
            AgentEnt *ag = &N->agents[a];
            if (ag->flow == p->flow && ag->subflow == p->subflow) {
                if (ag->kind == AGENT_SENDER)
                    return scn_sender_handle(s, &s->snds[ag->idx], pi);
                return scn_receiver_handle(s, &s->rcvs[ag->idx], pi);
            }
        }
        /* No matching agent: Python silently drops the packet (leaked to
         * the GC, never pooled).  Unreachable under eligibility. */
        return 0;
    }
    N->forwarded += 1;
    for (int32_t f = 0; f < N->nfwd; f++) {
        FwdEnt *e = &N->fwd[f];
        if (e->dst == p->dst && e->tag == p->tag) {
            int accepted;
            return link_send(s, e->link, pi, &accepted);
        }
    }
    return scene_err("compiled pipeline: missing forwarding entry");
}

/* ---- run loop ---- */

static int
scene_step(SceneObject *s, PEv ev)
{
    switch (ev.kind) {
    case EV_DELIVER: {
        CLink *L = &s->links[ev.idx];
        Lane *fl = &L->fl;
        if (fl->len == 0)
            return scene_err("compiled pipeline: delivery on an empty wire");
        int32_t pi = fl->buf[fl->head].pkt;
        RING_DROP(fl);
        /* The packet behind becomes the lane's head: arm it under the
         * (t, seq) it was given when sent, before the receiver can push. */
        if (fl->len > 0 &&
            ev_push(s, fl->buf[fl->head].t, fl->buf[fl->head].seq, EV_DELIVER, ev.idx) < 0)
            return -1;
        s->arena[pi].hops += 1;
        return node_receive(s, L->dst, pi);
    }
    case EV_SERVE: {
        CLink *L = &s->links[ev.idx];
        if (L->q.len == 0)
            return scene_err("compiled pipeline: serve on an empty queue");
        int32_t pi = ring_pop(&L->q);
        L->qbytes -= s->arena[pi].size;
        L->q_dequeued += 1;
        if (link_transmit(s, ev.idx, pi) < 0)
            return -1;
        if (L->q.len == 0) {
            L->serving = 0;
        }
        else {
            L->serve_at = L->busy_until;
            if (ev_push(s, L->busy_until, s->seq, EV_SERVE, ev.idx) < 0)
                return -1;
            s->seq += 1;
        }
        return 0;
    }
    case EV_RTO: {
        CSender *S = &s->snds[ev.idx];
        S->rto_live = 0;    /* this entry has fired */
        return scn_fire_rto(s, S);
    }
    case EV_START: {
        /* TcpSender.start */
        CSender *S = &s->snds[ev.idx];
        if (S->_started || S->closed)
            return 0;
        S->_started = 1;
        return scn_try_send(s, S);
    }
    }
    return scene_err("compiled pipeline: unknown event kind");
}

static PyObject *
scene_run(SceneObject *self, PyObject *args)
{
    double until;
    long long seq;
    if (!PyArg_ParseTuple(args, "dLd", &self->now, &seq, &until))
        return NULL;
    self->seq = (int64_t)seq;
    long long processed = 0;
    while (self->hlen > 0) {
        PEv top = self->heap[0];
        if (top.kind == EV_CANCELLED ||
            (top.kind == EV_RTO &&
             (!self->snds[top.idx].rto_live ||
              top.seq != self->snds[top.idx].rto_seq))) {
            ev_pop(self);
            continue;
        }
        if (top.t > until)
            break;
        ev_pop(self);
        self->now = top.t;
        if (scene_step(self, top) < 0)
            return NULL;
        processed += 1;
    }
    if (self->now < until)
        self->now = until;
    return Py_BuildValue("(dLL)", self->now, (long long)self->seq, processed);
}

/* ---- construction ---- */

static PyObject *
scene_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    long long header_size = 60;
    static char *kwlist[] = {"header_size", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L", kwlist, &header_size))
        return NULL;
    SceneObject *self = (SceneObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    memset((char *)self + sizeof(PyObject), 0,
           sizeof(SceneObject) - sizeof(PyObject));
    self->header_size = (int64_t)header_size;
    self->free_head = -1;
    return (PyObject *)self;
}

static void
scene_dealloc(SceneObject *self)
{
    PyMem_Free(self->heap);
    PyMem_Free(self->arena);
    for (int32_t i = 0; i < self->nlinks; i++) {
        PyMem_Free(self->links[i].q.buf);
        PyMem_Free(self->links[i].fl.buf);
    }
    PyMem_Free(self->links);
    for (int32_t i = 0; i < self->nnodes; i++) {
        PyMem_Free(self->nodes[i].fwd);
        PyMem_Free(self->nodes[i].agents);
        PyMem_Free(self->nodes[i].caps);
    }
    PyMem_Free(self->nodes);
    for (int32_t i = 0; i < self->nsnd; i++)
        PyMem_Free(self->snds[i].segs.buf);
    PyMem_Free(self->snds);
    for (int32_t i = 0; i < self->nrcv; i++)
        PyMem_Free(self->rcvs[i].ooo);
    PyMem_Free(self->rcvs);
    for (int32_t i = 0; i < self->ncaps; i++)
        PyMem_Free(self->caps[i].rows);
    PyMem_Free(self->caps);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* add_* for a table-driven record: import the state dict into a fresh slot
 * and return it, or NULL; the caller bumps the count when it is done. */
static void *
record_add(PyObject *state, void *arr_p, int32_t count, int32_t *cap,
           size_t elem, const Field *table)
{
    if (!PyDict_Check(state)) {
        PyErr_SetString(PyExc_TypeError, "scene state must be a dict");
        return NULL;
    }
    void *slot = vec_slot(arr_p, count, cap, elem);
    if (slot == NULL || fields_import(slot, table, state) < 0)
        return NULL;
    return slot;
}

/* Node and link indices are checked here, where add_* takes them in:
 * scene_run indexes nodes[] and links[] with them unchecked. */
static int
index_ok(int32_t i, int32_t count, const char *what)
{
    if (i >= 0 && i < count)
        return 1;
    PyErr_Format(PyExc_IndexError, "%s index %d out of range", what, (int)i);
    return 0;
}

static CNode *
node_at(SceneObject *self, int node)
{
    return index_ok(node, self->nnodes, "node") ? &self->nodes[node] : NULL;
}

static PyObject *
scene_add_node(SceneObject *self, PyObject *state)
{
    if (record_add(state, &self->nodes, self->nnodes, &self->nodecap,
                   sizeof(CNode), NODE_TABLE) == NULL)
        return NULL;
    return PyLong_FromLong(self->nnodes++);
}

static PyObject *
scene_add_link(SceneObject *self, PyObject *state)
{
    CLink *L = record_add(state, &self->links, self->nlinks, &self->lcap,
                          sizeof(CLink), LINK_TABLE);
    if (L == NULL || !index_ok(L->dst, self->nnodes, "node"))
        return NULL;
    return PyLong_FromLong(self->nlinks++);
}

static PyObject *
scene_add_fwd(SceneObject *self, PyObject *args)
{
    int node, dst, link;
    long long tag;
    if (!PyArg_ParseTuple(args, "iiLi", &node, &dst, &tag, &link))
        return NULL;
    CNode *N = node_at(self, node);
    if (N == NULL || !index_ok(dst, self->nnodes, "node") ||
        !index_ok(link, self->nlinks, "link"))
        return NULL;
    FwdEnt *e = vec_slot(&N->fwd, N->nfwd, &N->fwdcap, sizeof(FwdEnt));
    if (e == NULL)
        return NULL;
    e->dst = dst;
    e->tag = (int64_t)tag;
    e->link = link;
    N->nfwd += 1;
    Py_RETURN_NONE;
}

static PyObject *
scene_add_capture(SceneObject *self, PyObject *args)
{
    int data_only, has_filter;
    long long filter;
    if (!PyArg_ParseTuple(args, "ppL", &data_only, &has_filter, &filter))
        return NULL;
    CCap *C = vec_slot(&self->caps, self->ncaps, &self->capcap, sizeof(CCap));
    if (C == NULL)
        return NULL;
    C->data_only = (int8_t)data_only;
    C->has_filter = (int8_t)has_filter;
    C->filter = (int64_t)filter;
    return PyLong_FromLong(self->ncaps++);
}

static PyObject *
scene_attach_capture(SceneObject *self, PyObject *args)
{
    int node, cap_idx;
    if (!PyArg_ParseTuple(args, "ii", &node, &cap_idx))
        return NULL;
    if (node < 0 || node >= self->nnodes || cap_idx < 0 || cap_idx >= self->ncaps) {
        PyErr_SetString(PyExc_IndexError, "attach_capture index out of range");
        return NULL;
    }
    CNode *N = &self->nodes[node];
    int32_t *slot = vec_slot(&N->caps, N->ncaps, &N->capscap, sizeof(int32_t));
    if (slot == NULL)
        return NULL;
    *slot = cap_idx;
    N->ncaps += 1;
    Py_RETURN_NONE;
}

/* Node dispatch finds an agent by (flow, subflow) on its host. */
static int
attach_agent(SceneObject *self, int32_t host, int64_t flow, int64_t subflow,
             int32_t kind, int32_t idx)
{
    CNode *N = node_at(self, host);
    if (N == NULL)
        return -1;
    AgentEnt *A = vec_slot(&N->agents, N->nagents, &N->agcap, sizeof(AgentEnt));
    if (A == NULL)
        return -1;
    A->flow = flow;
    A->subflow = subflow;
    A->kind = kind;
    A->idx = idx;
    N->nagents += 1;
    return 0;
}

static PyObject *
scene_add_sender(SceneObject *self, PyObject *state)
{
    CSender *S = record_add(state, &self->snds, self->nsnd, &self->sndcap,
                            sizeof(CSender), SENDER_TABLE);
    if (S == NULL || !index_ok(S->dst, self->nnodes, "node") ||
        !index_ok(S->route_link, self->nlinks, "link") ||
        attach_agent(self, S->host, S->flow, S->subflow, AGENT_SENDER, self->nsnd) < 0)
        return NULL;
    return PyLong_FromLong(self->nsnd++);
}

/* add_receiver(state, ooo): ooo is the out-of-order buffer as
 * (seq, length, dsn) tuples. */
static PyObject *
scene_add_receiver(SceneObject *self, PyObject *args)
{
    PyObject *state;
    PyObject *ooo_list;
    if (!PyArg_ParseTuple(args, "OO!", &state, &PyList_Type, &ooo_list))
        return NULL;
    CRecv *R = record_add(state, &self->rcvs, self->nrcv, &self->rcvcap,
                          sizeof(CRecv), RECV_TABLE);
    if (R == NULL || !index_ok(R->peer, self->nnodes, "node") ||
        !index_ok(R->route_link, self->nlinks, "link"))
        return NULL;
    int ok = 1;
    Py_ssize_t n = PyList_GET_SIZE(ooo_list);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        long long oseq, olen, odsn;
        ok = PyArg_ParseTuple(PyList_GET_ITEM(ooo_list, i), "LLL", &oseq, &olen, &odsn) &&
             scn_ooo_setdefault(R, (int64_t)oseq, (int64_t)olen, (int64_t)odsn) == 0;
    }
    if (!ok || attach_agent(self, R->host, R->flow, R->subflow, AGENT_RECEIVER, self->nrcv) < 0) {
        PyMem_Free(R->ooo);
        return NULL;
    }
    return PyLong_FromLong(self->nrcv++);
}

/* Import a pending event.  Deliveries and serves are refused: the scene
 * creates them with their lane entry and their queued packet, and a window
 * starts with idle links (pipeline.py eligibility). */
static PyObject *
scene_add_event(SceneObject *self, PyObject *args)
{
    int kind, idx;
    double t;
    long long seq;
    if (!PyArg_ParseTuple(args, "idLi", &kind, &t, &seq, &idx))
        return NULL;
    switch (kind) {
    case EV_DELIVER:
    case EV_SERVE:
        PyErr_SetString(PyExc_ValueError, "link events are created by the scene");
        return NULL;
    case EV_RTO:
    case EV_START:
        if (idx < 0 || idx >= self->nsnd) {
            PyErr_SetString(PyExc_IndexError, "sender index out of range");
            return NULL;
        }
        break;
    case EV_CANCELLED:
        break;
    default:
        PyErr_SetString(PyExc_ValueError, "unknown event kind");
        return NULL;
    }
    if (ev_push(self, t, (int64_t)seq, kind, idx) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ---- exports ---- */

static PyObject *
export_packet(SceneObject *s, int32_t pi)
{
    CPkt *p = &s->arena[pi];
    PyObject *sack = PyTuple_New(p->nsack);
    if (sack == NULL)
        return NULL;
    for (int32_t b = 0; b < p->nsack; b++) {
        PyObject *blk = Py_BuildValue("(LL)", (long long)p->sack[2 * b],
                                      (long long)p->sack[2 * b + 1]);
        if (blk == NULL) {
            Py_DECREF(sack);
            return NULL;
        }
        PyTuple_SET_ITEM(sack, b, blk);
    }
    return Py_BuildValue(
        "{s:i,s:i,s:L,s:L,s:L,s:L,s:L,s:L,s:i,s:L,s:L,s:L,s:i,s:N,s:d,s:d,s:d,s:L}",
        "src", p->src, "dst", p->dst, "size", (long long)p->size,
        "tag", (long long)p->tag, "flow", (long long)p->flow,
        "subflow", (long long)p->subflow, "seq", (long long)p->seq,
        "payload", (long long)p->payload_len, "is_ack", (int)p->is_ack,
        "ack", (long long)p->ack, "dsn", (long long)p->dsn,
        "dack", (long long)p->dack, "is_retx", (int)p->is_retx,
        "sack", sack, "ts_echo", p->ts_echo, "created_at", p->created_at,
        "enqueued_at", p->enqueued_at, "hops", (long long)p->hops);
}

/* The packets queued on L or, with in_flight set, on its wire; oldest first. */
static PyObject *
export_packets(SceneObject *s, const CLink *L, int in_flight)
{
    int32_t n = in_flight ? L->fl.len : L->q.len;
    PyObject *out = PyList_New(n);
    for (int32_t j = 0; out != NULL && j < n; j++) {
        PyObject *pkt = export_packet(s, in_flight ? RING_AT(&L->fl, j).pkt : RING_AT(&L->q, j));
        if (pkt == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, pkt);
    }
    return out;
}

static int
export_event(PyObject *out, int32_t kind, double t, int64_t seq, int32_t idx)
{
    PyObject *item = Py_BuildValue("(idLi)", kind, t, (long long)seq, idx);
    int rc = item == NULL ? -1 : PyList_Append(out, item);
    Py_XDECREF(item);
    return rc;
}

/* Every pending event: the heap's entries, and each delivery from its lane
 * (the heap's own EV_DELIVER entries are the lanes' heads over again). */
static PyObject *
scene_export_events(SceneObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(0);
    int rc = out == NULL ? -1 : 0;
    for (Py_ssize_t i = 0; rc == 0 && i < self->hlen; i++) {
        PEv *e = &self->heap[i];
        int32_t kind = e->kind;
        if (kind == EV_DELIVER)
            continue;
        if (kind == EV_RTO &&
            (!self->snds[e->idx].rto_live || e->seq != self->snds[e->idx].rto_seq))
            kind = EV_CANCELLED;
        rc = export_event(out, kind, e->t, e->seq, e->idx);
    }
    for (int32_t li = 0; li < self->nlinks; li++) {
        const Lane *fl = &self->links[li].fl;
        for (int32_t j = 0; rc == 0 && j < fl->len; j++)
            rc = export_event(out, EV_DELIVER, RING_AT(fl, j).t, RING_AT(fl, j).seq, li);
    }
    if (rc < 0)
        Py_CLEAR(out);
    return out;
}

/* export_*(i) for a table-driven record: the state dict of element i,
 * the element itself through *record when the caller has more to add. */
static PyObject *
record_export(PyObject *index, const void *arr, int32_t count, size_t elem,
              const Field *table, const void **record)
{
    Py_ssize_t i = PyNumber_AsSsize_t(index, PyExc_IndexError);
    if (i == -1 && PyErr_Occurred())
        return NULL;
    if (i < 0 || i >= count) {
        PyErr_SetString(PyExc_IndexError, "scene record index out of range");
        return NULL;
    }
    const void *rec = (const char *)arr + (size_t)i * elem;
    if (record != NULL)
        *record = rec;
    return fields_export(rec, table);
}

static PyObject *
scene_export_node(SceneObject *self, PyObject *index)
{
    return record_export(index, self->nodes, self->nnodes, sizeof(CNode), NODE_TABLE, NULL);
}

static PyObject *
scene_export_link(SceneObject *self, PyObject *index)
{
    const void *rec;
    PyObject *d = record_export(index, self->links, self->nlinks, sizeof(CLink),
                                LINK_TABLE, &rec);
    if (d == NULL)
        return NULL;
    const CLink *L = rec;
    d = dict_put(d, "queue", export_packets(self, L, 0));
    return dict_put(d, "in_flight", export_packets(self, L, 1));
}

static PyObject *
scene_export_sender(SceneObject *self, PyObject *index)
{
    const void *rec;
    PyObject *d = record_export(index, self->snds, self->nsnd, sizeof(CSender),
                                SENDER_TABLE, &rec);
    if (d == NULL)
        return NULL;
    SegRing *ring = &((CSender *)rec)->segs;
    PyObject *segs = PyList_New(ring->len);
    for (int32_t j = 0; segs != NULL && j < ring->len; j++) {
        CSeg *g = seg_at(ring, j);
        PyObject *item = Py_BuildValue(
            "(LLLdiiiii)", (long long)g->seq, (long long)g->length,
            (long long)g->dsn, g->sent_at, (int)g->retransmitted,
            (int)g->sacked, (int)g->lost, (int)g->lost_pending,
            (int)g->retx_in_recovery);
        if (item == NULL)
            Py_CLEAR(segs);
        else
            PyList_SET_ITEM(segs, j, item);
    }
    return dict_put(d, "segments", segs);
}

static PyObject *
scene_export_receiver(SceneObject *self, PyObject *index)
{
    const void *rec;
    PyObject *d = record_export(index, self->rcvs, self->nrcv, sizeof(CRecv),
                                RECV_TABLE, &rec);
    if (d == NULL)
        return NULL;
    const CRecv *R = rec;
    PyObject *ooo = PyList_New(R->nooo);
    for (int32_t j = 0; ooo != NULL && j < R->nooo; j++) {
        PyObject *item = Py_BuildValue("(LLL)", (long long)R->ooo[j].seq,
                                       (long long)R->ooo[j].length,
                                       (long long)R->ooo[j].dsn);
        if (item == NULL)
            Py_CLEAR(ooo);
        else
            PyList_SET_ITEM(ooo, j, item);
    }
    return dict_put(d, "ooo", ooo);
}

static PyObject *
scene_export_capture(SceneObject *self, PyObject *args)
{
    int i;
    if (!PyArg_ParseTuple(args, "i", &i))
        return NULL;
    if (i < 0 || i >= self->ncaps) {
        PyErr_SetString(PyExc_IndexError, "capture index out of range");
        return NULL;
    }
    CCap *C = &self->caps[i];
    return PyBytes_FromStringAndSize((const char *)C->rows,
                                     (Py_ssize_t)C->n * (Py_ssize_t)sizeof(CapRow));
}

static PyMethodDef scene_methods[] = {
    {"add_node", (PyCFunction)scene_add_node, METH_O,
     "add_node(state_dict) -> idx"},
    {"add_link", (PyCFunction)scene_add_link, METH_O,
     "add_link(state_dict) -> idx"},
    {"add_fwd", (PyCFunction)scene_add_fwd, METH_VARARGS,
     "add_fwd(node, dst_node, tag, link)"},
    {"add_capture", (PyCFunction)scene_add_capture, METH_VARARGS,
     "add_capture(data_only, has_filter, filter) -> idx"},
    {"attach_capture", (PyCFunction)scene_attach_capture, METH_VARARGS,
     "attach_capture(node, capture_idx)"},
    {"add_sender", (PyCFunction)scene_add_sender, METH_O,
     "add_sender(state_dict) -> idx"},
    {"add_receiver", (PyCFunction)scene_add_receiver, METH_VARARGS,
     "add_receiver(state_dict, ooo_list) -> idx"},
    {"add_event", (PyCFunction)scene_add_event, METH_VARARGS,
     "add_event(kind, t, seq, idx)"},
    {"run", (PyCFunction)scene_run, METH_VARARGS,
     "run(now, seq, until) -> (now, seq, events processed)"},
    {"export_events", (PyCFunction)scene_export_events, METH_NOARGS,
     "-> [(kind, t, seq, idx), ...]"},
    {"export_node", (PyCFunction)scene_export_node, METH_O,
     "export_node(i) -> state dict"},
    {"export_link", (PyCFunction)scene_export_link, METH_O,
     "export_link(i) -> state dict with queue/in_flight packet dicts"},
    {"export_sender", (PyCFunction)scene_export_sender, METH_O,
     "export_sender(i) -> state dict with the segment list"},
    {"export_receiver", (PyCFunction)scene_export_receiver, METH_O,
     "export_receiver(i) -> state dict with the out-of-order buffer"},
    {"export_capture", (PyCFunction)scene_export_capture, METH_VARARGS,
     "export_capture(i) -> this window's rows as bytes"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef scene_members[] = {
    {"heap_len", T_PYSSIZET, offsetof(SceneObject, hlen), READONLY,
     "entries in the event heap: one delivery per busy link, not per packet in flight"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject SceneType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._ckernel.Scene",
    .tp_basicsize = sizeof(SceneObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Fully native single-path TCP pipeline (import/run/export).",
    .tp_new = scene_new,
    .tp_dealloc = (destructor)scene_dealloc,
    .tp_methods = scene_methods,
    .tp_members = scene_members,
};

/* ------------------------------------------------------------------ module */

#include "_fluid.h"

static PyMethodDef ckernel_methods[] = {
    {"fluid_run", fluid_run, METH_VARARGS,
     "fluid_run(members, link_offsets, capacities, path_links, path_offsets, rtts, family, "
     "steps, dt, initial_window, segment_bits, sharpness) -> bytearray of float64 rows"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.kernel._ckernel",
    .m_doc = "Compiled event-loop kernel (engine + TCP pipeline + fluid integrator).",
    .m_size = -1,
    .m_methods = ckernel_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&KernelEventType) < 0)
        return NULL;
    if (PyType_Ready(&KernelSimType) < 0)
        return NULL;
    if (PyType_Ready(&SceneType) < 0 || PyType_Ready(&PacketIdsType) < 0 ||
        PyType_Ready(&HopMemoType) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&ckernel_module);
    if (mod == NULL)
        return NULL;
    if (PyModule_AddObjectRef(mod, "KernelEvent", (PyObject *)&KernelEventType) < 0 ||
        PyModule_AddObjectRef(mod, "KernelSim", (PyObject *)&KernelSimType) < 0 ||
        PyModule_AddObjectRef(mod, "Scene", (PyObject *)&SceneType) < 0 ||
        PyModule_AddIntConstant(mod, "EV_DELIVER", EV_DELIVER) < 0 ||
        PyModule_AddIntConstant(mod, "EV_SERVE", EV_SERVE) < 0 ||
        PyModule_AddIntConstant(mod, "EV_RTO", EV_RTO) < 0 ||
        PyModule_AddIntConstant(mod, "EV_START", EV_START) < 0 ||
        PyModule_AddIntConstant(mod, "EV_CANCELLED", EV_CANCELLED) < 0 ||
        PyModule_AddIntConstant(mod, "CC_RENO", CC_RENO) < 0 ||
        PyModule_AddIntConstant(mod, "CC_CUBIC", CC_CUBIC) < 0 ||
        PyModule_AddIntConstant(mod, "CAPTURE_ROW_SIZE", sizeof(CapRow)) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
