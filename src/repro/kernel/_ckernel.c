/* Compiled kernel for the repro packet-level simulator.
 *
 * Three layers live in this extension:
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
 *                  Forwarding, drop-tail queueing and host dispatch execute
 *                  no Python frame; policy (agents, capture taps, AQM
 *                  verdicts, impairment, overrides, routing misses) is
 *                  called from C at the step where it occurs.  State lives
 *                  in the Python objects' __slots__ and nowhere else.
 *
 *   Scene       -- a fully native single-path-TCP pipeline: links, queues,
 *                  hosts/routers, TCP senders/receivers (SACK, fast
 *                  recovery, RTO, CUBIC/Reno) and packet captures, driven by
 *                  an internal event heap without touching a single Python
 *                  object per event.  repro.kernel.pipeline imports eligible
 *                  network states into a Scene, runs it, and copies the
 *                  observable state back (stats, transport state, packet
 *                  fields, pending events -- not caches, packet ids or
 *                  allocator pools; the contract is in pipeline.py).
 *
 * Byte-identity ground rules (keep in sync with the Python modules):
 *   - every float expression copies the Python operation order verbatim;
 *   - ** 3 and ** (1.0/3.0) become libm pow() (CPython float_pow does the
 *     same), never x*x*x or cbrt();
 *   - min()/max() pick the same operand Python would, which is value-equal
 *     for doubles, so plain comparisons suffice;
 *   - sequence numbers are consumed at exactly the same call sites as the
 *     Python hot path (including the raw heap pushes inlined in link.py).
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

static int
load_error_types(void)
{
    if (SimulationErrorType != NULL)
        return 0;
    PyObject *mod = PyImport_ImportModule("repro.errors");
    if (mod == NULL)
        return -1;
    SimulationErrorType = PyObject_GetAttrString(mod, "SimulationError");
    Py_DECREF(mod);
    return SimulationErrorType == NULL ? -1 : 0;
}

static void
raise_sim_error_obj(PyObject *msg)
{
    if (msg == NULL)
        return;
    if (load_error_types() < 0) {
        Py_DECREF(msg);
        return;
    }
    PyErr_SetObject(SimulationErrorType, msg);
    Py_DECREF(msg);
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
    return PyFloat_FromDouble(self->fired ? 0.0 : self->t);
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
    {"time", (getter)kevent_get_time, NULL, "Scheduled fire time (0.0 once fired).", NULL},
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
                                   KN_*: native entry, cb is the link */
    KernelEventObject *handle;  /* owned, may be NULL */
} KEntry;

/* Native entry kinds (the "native links" section below): the link's
 * _deliver / _serve_queue body runs in C, no callable is stored. */
#define KN_DELIVER (-2)
#define KN_SERVE (-3)

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

static PyObject *
ksim_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    KernelSimObject *self = (KernelSimObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
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
}

/* The "native links" section below. */
static int native_kind(PyObject *cb, PyObject **link);
static int nl_deliver(PyObject *link);
static int nl_serve(PyObject *link);
static PyObject *ksim_get_link_type(PyObject *self, void *closure);

/* Shared push: builds the entry from (t, seq, callback, args...) and pushes
 * it.  A bound _deliver / _serve_queue of a native link becomes a native
 * entry.  make_handle: return a KernelEvent or None. */
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
            failed = (e.nargs == KN_DELIVER ? nl_deliver(e.cb) : nl_serve(e.cb)) < 0;
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
ksim_get_free_list(KernelSimObject *self, void *closure)
{
    return PyLong_FromLong(0);
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
            cb = PyObject_GetAttrString(
                e->cb, e->nargs == KN_DELIVER ? "_deliver" : "_serve_queue");
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
     "Drop every pending heap entry (pipeline import support)."},
    {"_push_entry", (PyCFunction)ksim_push_entry, METH_VARARGS,
     "Push an entry with an explicit sequence number; returns its handle."},
    {"_advance", (PyCFunction)ksim_advance, METH_VARARGS,
     "Set (now, seq) and add a processed-events delta (pipeline support)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef ksim_getset[] = {
    {"pending_events", (getter)ksim_get_pending, NULL,
     "Number of events still in the heap (including cancelled ones).", NULL},
    {"free_list_size", (getter)ksim_get_free_list, NULL,
     "Always 0: the compiled heap stores entries by value.", NULL},
    {"link_type", ksim_get_link_type, NULL,
     "The Link subclass whose handlers run in C; Link(sim, ...) selects it.", NULL},
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
 * Link / LinkStats / Node / NodeStats / Host / Queue / QueueStats / Packet
 * objects, through member offsets resolved once (nl_bind).  Counters move
 * through PyNumber_Add on the stored objects, so any value the Python
 * bodies accept behaves the same here.  Every function mirrors its Python
 * twin statement by statement (link.py, node.py, queues.py: keep in sync),
 * and calls Python wherever the twin calls something it does not define.
 */

enum { T_LINK, T_LSTATS, T_NODE, T_NSTATS, T_HOST, T_PACKET, T_QUEUE, T_QSTATS,
       T_DROPTAIL, T_COUNT };

static const char *const NL_TYPE_NAMES[T_COUNT][2] = {
    {"repro.netsim.link", "Link"}, {"repro.netsim.link", "LinkStats"},
    {"repro.netsim.node", "Node"}, {"repro.netsim.node", "NodeStats"},
    {"repro.netsim.node", "Host"}, {"repro.netsim.packet", "Packet"},
    {"repro.netsim.queues", "Queue"}, {"repro.netsim.queues", "QueueStats"},
    {"repro.netsim.queues", "DropTailQueue"},
};

#define NL_SLOTS(X)                                                         \
    X(LINK, sim) X(LINK, dst) X(LINK, rate_bps) X(LINK, delay)              \
    X(LINK, queue) X(LINK, _enqueue) X(LINK, stats) X(LINK, _busy_until)    \
    X(LINK, _serving) X(LINK, _dst_receive) X(LINK, _fused_receive)         \
    X(LINK, _fused_host) X(LINK, _in_flight) X(LINK, _impaired)             \
    X(LINK, _dynamic) X(LINK, _deadlines) X(LINK, _serve_at)                \
    X(LSTATS, packets_sent) X(LSTATS, bytes_sent) X(LSTATS, busy_time)      \
    X(NODE, name) X(NODE, sim) X(NODE, routing) X(NODE, stats)              \
    X(NODE, _hop_cache) X(NODE, _hop_version)                               \
    X(NSTATS, received) X(NSTATS, forwarded) X(NSTATS, delivered)           \
    X(HOST, _agents_by_flow) X(HOST, _sole_agent) X(HOST, _sole_flow)       \
    X(HOST, _sole_subflow) X(HOST, _captures)                               \
    X(PACKET, dst) X(PACKET, size) X(PACKET, tag) X(PACKET, flow_id)        \
    X(PACKET, subflow_id) X(PACKET, enqueued_at) X(PACKET, hops)            \
    X(QUEUE, capacity_packets) X(QUEUE, stats) X(QUEUE, _queue)             \
    X(QUEUE, _bytes)                                                        \
    X(QSTATS, enqueued) X(QSTATS, dequeued) X(QSTATS, dropped)              \
    X(QSTATS, bytes_enqueued) X(QSTATS, bytes_dropped) X(QSTATS, max_depth)

#define NL_ENUM(T, name) O_##T##_##name,
#define NL_ROW(T, name) {T_##T, #name},
enum { NL_SLOTS(NL_ENUM) O_COUNT };
static const struct { int type; const char *name; } NL_SLOT_TABLE[O_COUNT] = {NL_SLOTS(NL_ROW)};

#define NL_NAMES(X)                                                         \
    X(append) X(popleft) X(send) X(dequeue) X(handle_packet) X(version)     \
    X(now) X(_queue) X(_admit_impaired) X(_deliver_locally)

#define NL_NAME_MEMBER(name) PyObject *s_##name;
static struct {
    PyTypeObject *type[T_COUNT];    /* the Python classes */
    Py_ssize_t off[O_COUNT];        /* slot offsets inside their instances */
    PyTypeObject *link_type;        /* the subclass of Link defined here */
    PyObject *droptail_enqueue;     /* DropTailQueue.enqueue, the function */
    PyObject *one;
    NL_NAMES(NL_NAME_MEMBER)
} NL;

#define NL_SLOT(obj, T, name) (*(PyObject **)((char *)(obj) + NL.off[O_##T##_##name]))

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

/* Offsets are only valid inside instances of the class they came from. */
static int
nl_expect(PyObject *obj, int type, const char *what)
{
    if (PyObject_TypeCheck(obj, NL.type[type]))
        return 0;
    PyErr_Format(PyExc_TypeError, "native link: %s must be a %s, not %s", what,
                 NL.type[type]->tp_name, Py_TYPE(obj)->tp_name);
    return -1;
}

#define NL_GET_AS(var, obj, T, name, AS)                                    \
    NL_GET(var, obj, T, name);                                              \
    if (nl_expect(var, T_##AS, #name) < 0)                                  \
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

/* *slot += delta */
static int
nl_iadd(PyObject **slot, PyObject *delta, const char *name)
{
    if (*slot == NULL)
        return nl_unset(name);
    return nl_set(slot, PyNumber_Add(*slot, delta));
}

#define NL_IADD(obj, T, name, delta) nl_iadd(&NL_SLOT(obj, T, name), delta, #name)
#define NL_SET(obj, T, name, value) nl_set(&NL_SLOT(obj, T, name), value)

static inline int
nl_true(PyObject *v)
{
    return v == Py_True ? 1 : v == Py_False ? 0 : PyObject_IsTrue(v);
}

/* -1.0 with an exception set on failure, like PyFloat_AsDouble. */
static inline double
nl_double(PyObject *v)
{
    return PyFloat_CheckExact(v) ? PyFloat_AS_DOUBLE(v) : PyFloat_AsDouble(v);
}

#define NL_FAILED(x) ((x) == -1.0 && PyErr_Occurred())

/* Discard a call's result; -1 when the call raised. */
static int
nl_done(PyObject *res)
{
    if (res == NULL)
        return -1;
    Py_DECREF(res);
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

/* The raw heap pushes of link.py: no past-time check, one seq consumed. */
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

/* len(container) <op> bound */
static int
nl_len_cmp(Py_ssize_t len, PyObject *bound, int op)
{
    PyObject *len_obj = PyLong_FromSsize_t(len);
    int res = len_obj == NULL ? -1 : PyObject_RichCompareBool(len_obj, bound, op);
    Py_XDECREF(len_obj);
    return res;
}

/* ---- DropTailQueue.enqueue / Queue.dequeue (queues.py) ---- */

static int
nl_droptail_enqueue(PyObject *q, PyObject *packet, PyObject *now, int *accepted)
{
    NL_GET(queue, q, QUEUE, _queue);
    NL_GET_AS(stats, q, QUEUE, stats, QSTATS);
    NL_GET(size, packet, PACKET, size);
    NL_GET(capacity, q, QUEUE, capacity_packets);
    Py_ssize_t depth = PyObject_Size(queue);
    if (depth < 0)
        return -1;
    int full = nl_len_cmp(depth, capacity, Py_GE);
    if (full < 0)
        return -1;
    *accepted = !full;
    if (full) {
        if (NL_IADD(stats, QSTATS, dropped, NL.one) < 0)
            return -1;
        return NL_IADD(stats, QSTATS, bytes_dropped, size);
    }
    if (NL_SET(packet, PACKET, enqueued_at, Py_NewRef(now)) < 0 ||
        nl_done(PyObject_CallMethodOneArg(queue, NL.s_append, packet)) < 0 ||
        NL_IADD(q, QUEUE, _bytes, size) < 0 ||
        NL_IADD(stats, QSTATS, enqueued, NL.one) < 0 ||
        NL_IADD(stats, QSTATS, bytes_enqueued, size) < 0)
        return -1;
    NL_GET(max_depth, stats, QSTATS, max_depth);
    int deeper = nl_len_cmp(depth + 1, max_depth, Py_GT);
    if (deeper > 0)
        return NL_SET(stats, QSTATS, max_depth, PyLong_FromSsize_t(depth + 1));
    return deeper;
}

/* *packet is a new reference, or NULL for an empty queue (Python's None). */
static int
nl_droptail_dequeue(PyObject *q, PyObject **packet)
{
    *packet = NULL;
    NL_GET(queue, q, QUEUE, _queue);
    NL_GET_AS(stats, q, QUEUE, stats, QSTATS);
    NL_GET(bytes, q, QUEUE, _bytes);
    int empty = PyObject_Not(queue);
    if (empty)
        return empty < 0 ? -1 : 0;
    PyObject *head = PyObject_CallMethodNoArgs(queue, NL.s_popleft);
    if (head == NULL)
        return -1;
    int rc = nl_expect(head, T_PACKET, "queued item");
    if (rc == 0) {
        PyObject *size = NL_SLOT(head, PACKET, size);
        rc = size == NULL ? nl_unset("size")
                          : NL_SET(q, QUEUE, _bytes, PyNumber_Subtract(bytes, size));
    }
    if (rc == 0)
        rc = NL_IADD(stats, QSTATS, dequeued, NL.one);
    if (rc < 0)
        Py_DECREF(head);
    else
        *packet = head;
    return rc;
}

/* ---- Link (link.py) ---- */

/* The transmit body shared by send() (idle transmitter) and _serve_queue():
 * serialisation accounting, the in-flight append and the single merged
 * delivery event.  *tx_end is the new _busy_until. */
static int
nl_transmit(KernelSimObject *sim, PyObject *link, PyObject *packet, double now,
            double *tx_end)
{
    NL_GET(size, packet, PACKET, size);
    NL_GET(rate_obj, link, LINK, rate_bps);
    NL_GET(delay_obj, link, LINK, delay);
    NL_GET_AS(stats, link, LINK, stats, LSTATS);
    NL_GET(in_flight, link, LINK, _in_flight);
    NL_GET(dynamic, link, LINK, _dynamic);
    double bytes = nl_double(size), rate = nl_double(rate_obj), delay = nl_double(delay_obj);
    if (NL_FAILED(bytes) || NL_FAILED(rate) || NL_FAILED(delay))
        return -1;
    if (rate == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    double tx_time = bytes * 8.0 / rate;
    *tx_end = now + tx_time;
    PyObject *tx_obj = PyFloat_FromDouble(tx_time);
    if (tx_obj == NULL)
        return -1;
    Py_INCREF(size);    /* outlives a reassignment of packet.size */
    int rc = -1;
    if (NL_SET(link, LINK, _busy_until, PyFloat_FromDouble(*tx_end)) < 0 ||
        NL_IADD(stats, LSTATS, busy_time, tx_obj) < 0 ||
        NL_IADD(stats, LSTATS, packets_sent, NL.one) < 0 ||
        NL_IADD(stats, LSTATS, bytes_sent, size) < 0 ||
        nl_done(PyObject_CallMethodOneArg(in_flight, NL.s_append, packet)) < 0)
        goto done;
    double deliver_at = *tx_end + delay;
    int dyn = nl_true(dynamic);
    if (dyn < 0)
        goto done;
    if (dyn) {
        /* Non-decreasing deadline clamp: the link never reorders. */
        PyObject *deadlines = NL_SLOT(link, LINK, _deadlines);
        Py_ssize_t n = deadlines == NULL ? nl_unset("_deadlines") : PyObject_Size(deadlines);
        if (n < 0)
            goto done;
        if (n > 0) {
            PyObject *last_obj = PySequence_GetItem(deadlines, n - 1);
            if (last_obj == NULL)
                goto done;
            double last = nl_double(last_obj);
            Py_DECREF(last_obj);
            if (NL_FAILED(last))
                goto done;
            if (deliver_at < last)
                deliver_at = last;
        }
        PyObject *deadline = PyFloat_FromDouble(deliver_at);
        if (deadline == NULL)
            goto done;
        int appended = nl_done(PyObject_CallMethodOneArg(deadlines, NL.s_append, deadline));
        Py_DECREF(deadline);
        if (appended < 0)
            goto done;
    }
    rc = nl_push(sim, deliver_at, link, KN_DELIVER);
done:
    Py_DECREF(size);
    Py_DECREF(tx_obj);
    return rc;
}

/* send() on a busy transmitter: the queue's verdict, and the serve event
 * armed behind the first queued packet for the instant the transmitter
 * frees.  The drop-tail enqueue bound at construction runs here. */
static int
nl_enqueue(KernelSimObject *sim, PyObject *link, PyObject *packet, double now)
{
    NL_GET(enqueue, link, LINK, _enqueue);
    PyObject *now_obj = PyFloat_FromDouble(now);
    if (now_obj == NULL)
        return -1;
    int accepted;
    if (PyMethod_Check(enqueue) && PyMethod_GET_FUNCTION(enqueue) == NL.droptail_enqueue &&
        Py_IS_TYPE(PyMethod_GET_SELF(enqueue), NL.type[T_DROPTAIL])) {
        if (nl_droptail_enqueue(PyMethod_GET_SELF(enqueue), packet, now_obj, &accepted) < 0)
            accepted = -1;
    }
    else {
        PyObject *verdict = PyObject_CallFunctionObjArgs(enqueue, packet, now_obj, NULL);
        accepted = verdict == NULL ? -1 : PyObject_IsTrue(verdict);
        Py_XDECREF(verdict);
    }
    Py_DECREF(now_obj);
    if (accepted <= 0)
        return accepted;
    NL_GET(serving_obj, link, LINK, _serving);
    NL_GET(free_obj, link, LINK, _busy_until);
    int serving = nl_true(serving_obj);
    if (serving < 0)
        return -1;
    if (!serving) {
        double free_at = nl_double(free_obj);
        if (NL_FAILED(free_at) ||
            NL_SET(link, LINK, _serving, Py_NewRef(Py_True)) < 0 ||
            NL_SET(link, LINK, _serve_at, Py_NewRef(free_obj)) < 0 ||
            nl_push(sim, free_at, link, KN_SERVE) < 0)
            return -1;
    }
    return 1;
}

/* Link.send: 1 accepted, 0 dropped (queue, outage or loss burst), -1 raised. */
static int
nl_send(PyObject *link, PyObject *packet)
{
    if (nl_expect(packet, T_PACKET, "packet") < 0)
        return -1;
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
    NL_GET(busy_obj, link, LINK, _busy_until);
    NL_GET(serving_obj, link, LINK, _serving);
    double busy_until = nl_double(busy_obj);
    int serving = nl_true(serving_obj);
    if (NL_FAILED(busy_until) || serving < 0)
        return -1;
    if (now < busy_until || serving)
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
        NL_GET(serve_obj, link, LINK, _serve_at);
        NL_GET(busy_obj, link, LINK, _busy_until);
        double serve_at = nl_double(serve_obj), busy_until = nl_double(busy_obj);
        if (NL_FAILED(serve_at) || NL_FAILED(busy_until))
            return -1;
        if (now != serve_at)
            return 0;
        if (now < busy_until) {
            if (NL_SET(link, LINK, _serve_at, Py_NewRef(busy_obj)) < 0)
                return -1;
            return nl_push(sim, busy_until, link, KN_SERVE);
        }
    }
    NL_GET(queue, link, LINK, queue);
    int stock = Py_IS_TYPE(queue, NL.type[T_DROPTAIL]);
    PyObject *packet;
    if (stock) {
        if (nl_droptail_dequeue(queue, &packet) < 0)
            return -1;
    }
    else {
        PyObject *now_obj = PyFloat_FromDouble(now);
        if (now_obj == NULL)
            return -1;
        packet = PyObject_CallMethodOneArg(queue, NL.s_dequeue, now_obj);
        Py_DECREF(now_obj);
        if (packet == NULL)
            return -1;
        if (packet == Py_None)
            Py_CLEAR(packet);
    }
    if (packet == NULL)     /* drained elsewhere, or shed by the AQM law */
        return NL_SET(link, LINK, _serving, Py_NewRef(Py_False));
    Py_INCREF(queue);
    double tx_end;
    int rc = nl_expect(packet, T_PACKET, "dequeued item");
    if (rc == 0)
        rc = nl_transmit(sim, link, packet, now, &tx_end);
    Py_DECREF(packet);
    if (rc == 0) {
        /* `not queue._queue`: friend access to the backing deque. */
        PyObject *backing = PyObject_GetAttr(queue, NL.s__queue);
        int empty = backing == NULL ? -1 : PyObject_Not(backing);
        Py_XDECREF(backing);
        if (empty < 0)
            rc = -1;
        else if (empty)
            rc = NL_SET(link, LINK, _serving, Py_NewRef(Py_False));
        else if (NL_SET(link, LINK, _serve_at, PyFloat_FromDouble(tx_end)) < 0)
            rc = -1;
        else
            rc = nl_push(sim, tx_end, link, KN_SERVE);
    }
    Py_DECREF(queue);
    return rc;
}

/* ---- Node.receive / Host._deliver_locally (node.py), fused ---- */

/* Host._deliver_locally: capture fan-out, then sole-agent or per-flow
 * dispatch.  Unknown flows are delivered but ignored. */
static int
nl_deliver_locally(PyObject *host, PyObject *packet)
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
            rc = nl_done(PyObject_Vectorcall(tap, argv, 2, NULL));
            Py_DECREF(tap);
        }
        Py_DECREF(captures);
        Py_DECREF(now);
        if (rc < 0)
            return -1;
    }
    NL_GET(sole, host, HOST, _sole_agent);
    NL_GET(flow_id, packet, PACKET, flow_id);
    NL_GET(subflow_id, packet, PACKET, subflow_id);
    PyObject *agent = NULL;
    if (sole != Py_None) {
        NL_GET(sole_flow, host, HOST, _sole_flow);
        NL_GET(sole_subflow, host, HOST, _sole_subflow);
        int match = PyObject_RichCompareBool(flow_id, sole_flow, Py_EQ);
        if (match > 0)
            match = PyObject_RichCompareBool(subflow_id, sole_subflow, Py_EQ);
        if (match < 0)
            return -1;
        if (match)
            agent = sole;
    }
    else {
        NL_GET(by_flow, host, HOST, _agents_by_flow);
        /* A table that is not a dict falls into the type error below. */
        PyObject *per_flow = PyDict_CheckExact(by_flow)
            ? PyDict_GetItemWithError(by_flow, flow_id) : by_flow;
        if (per_flow != NULL && per_flow != Py_None) {
            if (!PyDict_CheckExact(per_flow)) {
                PyErr_SetString(PyExc_TypeError, "native link: agent tables must be dicts");
                return -1;
            }
            agent = PyDict_GetItemWithError(per_flow, subflow_id);
        }
        if (agent == NULL && PyErr_Occurred())
            return -1;
    }
    if (agent == NULL || agent == Py_None)
        return 0;
    Py_INCREF(agent);
    int rc = nl_done(PyObject_CallMethodOneArg(agent, NL.s_handle_packet, packet));
    Py_DECREF(agent);
    return rc;
}

/* Node.receive on a packet that is not for this node: the hop-cache hit
 * sends on the cached link, anything else is Node.send's business. */
static int
nl_forward(PyObject *node, PyObject *packet)
{
    NL_GET(cache, node, NODE, _hop_cache);
    if (PyDict_CheckExact(cache)) {
        NL_GET(routing, node, NODE, routing);
        NL_GET(hop_version, node, NODE, _hop_version);
        PyObject *version = PyObject_GetAttr(routing, NL.s_version);
        if (version == NULL)
            return -1;
        int current = PyObject_RichCompareBool(hop_version, version, Py_EQ);
        Py_DECREF(version);
        if (current < 0)
            return -1;
        if (current) {
            NL_GET(dst, packet, PACKET, dst);
            NL_GET(tag, packet, PACKET, tag);
            PyObject *key = PyTuple_Pack(2, dst, tag);
            if (key == NULL)
                return -1;
            PyObject *next = PyDict_GetItemWithError(cache, key);
            Py_DECREF(key);
            if (next == NULL && PyErr_Occurred())
                return -1;
            if (next != NULL && next != Py_None) {
                Py_INCREF(next);
                int rc = Py_IS_TYPE(next, NL.link_type)
                    ? nl_send(next, packet)
                    : nl_done(PyObject_CallMethodOneArg(next, NL.s_send, packet));
                Py_DECREF(next);
                return rc < 0 ? -1 : 0;
            }
        }
    }
    return nl_done(PyObject_CallMethodOneArg(node, NL.s_send, packet));
}

/* _deliver from `packet.hops += 1` on: the virtual receive, or the stock
 * Node.receive fused in. */
static int
nl_arrive(PyObject *link, PyObject *packet)
{
    if (nl_expect(packet, T_PACKET, "in-flight item") < 0 ||
        NL_IADD(packet, PACKET, hops, NL.one) < 0)
        return -1;
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
    NL_GET_AS(stats, node, NODE, stats, NSTATS);
    NL_GET(dst, packet, PACKET, dst);
    NL_GET(name, node, NODE, name);
    if (NL_IADD(stats, NSTATS, received, NL.one) < 0)
        return -1;
    int local = PyObject_RichCompareBool(dst, name, Py_EQ);
    if (local < 0 ||
        (local ? NL_IADD(stats, NSTATS, delivered, NL.one)
               : NL_IADD(stats, NSTATS, forwarded, NL.one)) < 0)
        return -1;
    Py_INCREF(node);    /* a handler may drop the link's reference */
    int rc;
    if (!local)
        rc = nl_forward(node, packet);
    else if (fused_host && PyObject_TypeCheck(node, NL.type[T_HOST]))
        rc = nl_deliver_locally(node, packet);
    else
        rc = nl_done(PyObject_CallMethodOneArg(node, NL.s__deliver_locally, packet));
    Py_DECREF(node);
    return rc;
}

/* Link._deliver. */
static int
nl_deliver(PyObject *link)
{
    KernelSimObject *sim = nl_sim(link);
    if (sim == NULL)
        return -1;
    NL_GET(dynamic, link, LINK, _dynamic);
    NL_GET(in_flight, link, LINK, _in_flight);
    int dyn = nl_true(dynamic);
    if (dyn < 0)
        return -1;
    if (dyn) {
        /* Deadline-driven: an extra event is swallowed when nothing is in
         * flight and bounced until the head packet is actually due. */
        NL_GET(deadlines, link, LINK, _deadlines);
        int idle = PyObject_Not(in_flight);
        if (idle)
            return idle < 0 ? -1 : 0;
        PyObject *head = PySequence_GetItem(deadlines, 0);
        if (head == NULL)
            return -1;
        double deadline = nl_double(head);
        Py_DECREF(head);
        if (NL_FAILED(deadline))
            return -1;
        if (sim->now < deadline)
            return nl_push(sim, deadline, link, KN_DELIVER);
        if (nl_done(PyObject_CallMethodNoArgs(deadlines, NL.s_popleft)) < 0)
            return -1;
    }
    PyObject *packet = PyObject_CallMethodNoArgs(in_flight, NL.s_popleft);
    if (packet == NULL)
        return -1;
    int rc = nl_arrive(link, packet);
    Py_DECREF(packet);
    return rc;
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

/* A bound _deliver / _serve_queue of a native link: its entry kind, with
 * the link borrowed into *link; 0 for any other callable. */
static int
native_kind(PyObject *cb, PyObject **link)
{
    if (!PyCFunction_Check(cb))
        return 0;
    PyCFunction fn = PyCFunction_GET_FUNCTION(cb);
    int kind = fn == (PyCFunction)nlink_deliver ? KN_DELIVER
             : fn == (PyCFunction)nlink_serve_queue ? KN_SERVE : 0;
    if (kind)
        *link = PyCFunction_GET_SELF(cb);
    return kind;
}

static PyMethodDef nlink_methods[] = {
    {"send", (PyCFunction)nlink_send, METH_O,
     "Offer packet to the link; False if it was dropped."},
    {"_serve_queue", (PyCFunction)nlink_serve_queue, METH_NOARGS,
     "Runs at the instant the transmitter frees while packets are queued."},
    {"_deliver", (PyCFunction)nlink_deliver, METH_NOARGS,
     "Hand the head in-flight packet to the downstream node."},
    {NULL, NULL, 0, NULL},
};

static PyType_Slot nlink_slots[] = {
    {Py_tp_doc, "repro.netsim.link.Link with send/_serve_queue/_deliver in C."},
    {Py_tp_methods, nlink_methods},
    {0, NULL},
};

/* Named Link so bound handlers read `Link._deliver` on either kernel. */
static PyType_Spec nlink_spec = {
    .name = "repro.kernel._ckernel.Link",
    .flags = Py_TPFLAGS_DEFAULT,
    .slots = nlink_slots,
};

/* Resolve the Python classes, their slot offsets and the link type; once. */
static int
nl_bind(void)
{
    if (NL.link_type != NULL)
        return 0;
    for (int t = 0; t < T_COUNT; t++) {
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
    for (int o = 0; o < O_COUNT; o++) {
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
            PyErr_Format(PyExc_TypeError, "native link: %s.%s is not a __slots__ member",
                         owner->tp_name, NL_SLOT_TABLE[o].name);
            return -1;
        }
    }
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
    if (NL.droptail_enqueue == NULL)
        return -1;
    PyObject *bases = PyTuple_Pack(1, NL.type[T_LINK]);
    if (bases == NULL)
        return -1;
    NL.link_type = (PyTypeObject *)PyType_FromSpecWithBases(&nlink_spec, bases);
    Py_DECREF(bases);
    return NL.link_type == NULL ? -1 : 0;
}

static PyObject *
ksim_get_link_type(PyObject *self, void *closure)
{
    if (nl_bind() < 0)
        return NULL;
    return Py_NewRef((PyObject *)NL.link_type);
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
    int64_t size, tag, flow, subflow, seq, payload, ack, dsn, dack, hops;
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
    Ring fl;
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

#define SENDER_FIELDS(X, S)                                                 \
    X(I32, host, S) X(I32, dst, S) X(I64, flow, S) X(I64, subflow, S)       \
    X(I64, tag, S) X(I32, route_link, S) X(I64, mss, S)                     \
    /* BulkDataAdapter; total_bytes -1 == unbounded */                      \
    X(I64, total_bytes, S) X(I64, offset, S) X(I64, prov_acked, S)          \
    X(F64, prov_last_ack, S)                                                \
    /* RttEstimator; srtt, rttvar, rtt_min, latest NaN until sampled */     \
    X(F64, alpha, S) X(F64, beta, S) X(F64, min_rto, S) X(F64, max_rto, S)  \
    X(F64, srtt, S) X(F64, rttvar, S) X(F64, rtt_min, S) X(F64, latest, S)  \
    X(I64, samples, S) X(F64, rto_cache, S)                                 \
    /* congestion control; epoch_start, cc_min_rtt NaN when unset */        \
    X(I32, cc_kind, S) X(I64, cc_mss, S)                                    \
    X(F64, cwnd, S) X(F64, ssthresh, S) X(F64, cc_srtt, S)                  \
    X(I64, losses, S) X(I64, cc_timeouts, S) X(I64, acked_total, S)         \
    X(BOOL, fast_conv, S) X(BOOL, tcp_friendly, S) X(BOOL, hystart, S)      \
    X(F64, w_max, S) X(F64, k, S) X(F64, epoch_start, S) X(F64, w_est, S)   \
    X(F64, acks_in_epoch, S) X(F64, cc_min_rtt, S)                          \
    /* window state */                                                      \
    X(I64, snd_una, S) X(I64, snd_nxt, S)                                   \
    X(I64, sacked_bytes, S) X(I64, lost_pending_bytes, S)                   \
    X(I64, dupacks, S) X(BOOL, in_recovery, S) X(I64, recover, S)           \
    X(F64, rto_deadline, S) X(F64, rto_fire_at, S) X(F64, rto_backoff, S)   \
    X(BOOL, started, S) X(BOOL, closed, S)                                  \
    /* SenderStats */                                                       \
    X(I64, st_segments_sent, S) X(I64, st_bytes_sent, S)                    \
    X(I64, st_bytes_acked, S) X(I64, st_retrans, S)                         \
    X(I64, st_fast_retrans, S) X(I64, st_timeouts, S) X(I64, st_dupacks, S)

typedef struct {
    SENDER_FIELDS(FIELD_MEMBER, )
    SegRing segs;
    int8_t rto_live;            /* the heap entry with rto_seq is the live RTO */
    int64_t rto_seq;
} CSender;
static const Field SENDER_TABLE[] = {SENDER_FIELDS(FIELD_ROW, CSender) {NULL, 0, 0}};

typedef struct { int64_t seq, length, dsn; } OooEnt;

#define RECV_FIELDS(X, S)                                                   \
    X(I32, host, S) X(I32, peer, S) X(I64, flow, S) X(I64, subflow, S)      \
    X(I64, tag, S) X(I32, route_link, S) X(I64, ack_size, S)                \
    X(I64, rcv_nxt, S) X(I64, last_dack, S)                                 \
    /* ReceiverStats */                                                     \
    X(I64, st_segs, S) X(I64, st_bytes, S) X(I64, st_dups, S)               \
    X(I64, st_ooo, S) X(I64, st_acks, S)

typedef struct {
    RECV_FIELDS(FIELD_MEMBER, )
    OooEnt *ooo; int32_t nooo, ooocap;
} CRecv;
static const Field RECV_TABLE[] = {RECV_FIELDS(FIELD_ROW, CRecv) {NULL, 0, 0}};

typedef struct {
    int8_t data_only, has_filter;
    int64_t filter;
    double *c_time;
    int64_t *c_size, *c_payload, *c_tag, *c_flow, *c_sub, *c_seq, *c_dsn;
    int8_t *c_flags;
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

/* ---- rings ---- */

static int
ring_push(Ring *r, int32_t v)
{
    if (r->len == r->cap) {
        int32_t cap = r->cap ? r->cap * 2 : 16;
        int32_t *buf = (int32_t *)PyMem_Malloc((size_t)cap * sizeof(int32_t));
        if (buf == NULL) { PyErr_NoMemory(); return -1; }
        for (int32_t i = 0; i < r->len; i++)
            buf[i] = r->buf[(r->head + i) % (r->cap ? r->cap : 1)];
        PyMem_Free(r->buf);
        r->buf = buf;
        r->cap = cap;
        r->head = 0;
    }
    r->buf[(r->head + r->len) % r->cap] = v;
    r->len += 1;
    return 0;
}

static int32_t
ring_pop(Ring *r)
{
    int32_t v = r->buf[r->head];
    r->head = (r->head + 1) % r->cap;
    r->len -= 1;
    return v;
}

static int32_t
ring_get(const Ring *r, int32_t i)
{
    return r->buf[(r->head + i) % r->cap];
}

static int
segring_push(SegRing *r, CSeg seg)
{
    if (r->len == r->cap) {
        int32_t cap = r->cap ? r->cap * 2 : 32;
        CSeg *buf = (CSeg *)PyMem_Malloc((size_t)cap * sizeof(CSeg));
        if (buf == NULL) { PyErr_NoMemory(); return -1; }
        for (int32_t i = 0; i < r->len; i++)
            buf[i] = r->buf[(r->head + i) % (r->cap ? r->cap : 1)];
        PyMem_Free(r->buf);
        r->buf = buf;
        r->cap = cap;
        r->head = 0;
    }
    r->buf[(r->head + r->len) % r->cap] = seg;
    r->len += 1;
    return 0;
}

static void
segring_popleft(SegRing *r)
{
    r->head = (r->head + 1) % r->cap;
    r->len -= 1;
}

static CSeg *
seg_at(SegRing *r, int32_t i)
{
    return &r->buf[(r->head + i) % r->cap];
}

/* Segments are kept in ascending-seq order (appended at snd_nxt, retired as
 * a prefix), so dict lookups become a binary search. */
static int32_t
seg_find(SegRing *r, int64_t seq)
{
    int32_t lo = 0, hi = r->len - 1;
    while (lo <= hi) {
        int32_t mid = (lo + hi) / 2;
        int64_t v = seg_at(r, mid)->seq;
        if (v == seq)
            return mid;
        if (v < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return -1;
}

/* ---- event heap ---- */

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

/* ---- RttEstimator.update ---- */

static void
rtt_update(CSender *S, double sample)
{
    S->latest = sample;
    S->samples += 1;
    if (isnan(S->rtt_min) || sample < S->rtt_min)
        S->rtt_min = sample;
    double srtt, rttvar;
    if (isnan(S->srtt)) {
        S->srtt = srtt = sample;
        S->rttvar = rttvar = sample / 2.0;
    }
    else {
        double diff = S->srtt - sample;
        if (diff < 0)
            diff = -diff;
        S->rttvar = rttvar = (1.0 - S->beta) * S->rttvar + S->beta * diff;
        S->srtt = srtt = (1.0 - S->alpha) * S->srtt + S->alpha * sample;
    }
    double dev = 4.0 * rttvar;
    double rto = srtt + (dev > 0.0001 ? dev : 0.0001);
    double x = rto > S->min_rto ? rto : S->min_rto;
    S->rto_cache = x < S->max_rto ? x : S->max_rto;
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

/* ---- forward declarations ---- */

static int link_send(SceneObject *s, int32_t li, int32_t pi, int *accepted);
static int try_send(SceneObject *s, int32_t si);
static int arm_rto(SceneObject *s, int32_t si, int restart);

/* ---- link transmit / queue / deliver (netsim/link.py, static mode) ---- */

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
    /* idle transmitter */
    int64_t size = s->arena[pi].size;
    double tx_time = (double)size * 8.0 / L->rate_bps;
    double tx_end = now + tx_time;
    L->busy_until = tx_end;
    L->busy_time += tx_time;
    L->pkts_sent += 1;
    L->bytes_sent += size;
    if (ring_push(&L->fl, pi) < 0)
        return -1;
    double deliver_at = tx_end + L->delay;
    if (ev_push(s, deliver_at, s->seq, EV_DELIVER, li) < 0)
        return -1;
    s->seq += 1;
    *accepted = 1;
    return 0;
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
        double *t = (double *)PyMem_Realloc(C->c_time, (size_t)cap * sizeof(double));
        if (t == NULL) { PyErr_NoMemory(); return -1; }
        C->c_time = t;
#define GROW_COL(field)                                                        \
        do {                                                                   \
            int64_t *c__ = (int64_t *)PyMem_Realloc(C->field, (size_t)cap * sizeof(int64_t)); \
            if (c__ == NULL) { PyErr_NoMemory(); return -1; }                  \
            C->field = c__;                                                    \
        } while (0)
        GROW_COL(c_size);
        GROW_COL(c_payload);
        GROW_COL(c_tag);
        GROW_COL(c_flow);
        GROW_COL(c_sub);
        GROW_COL(c_seq);
        GROW_COL(c_dsn);
#undef GROW_COL
        int8_t *f = (int8_t *)PyMem_Realloc(C->c_flags, (size_t)cap * sizeof(int8_t));
        if (f == NULL) { PyErr_NoMemory(); return -1; }
        C->c_flags = f;
        C->cap = cap;
    }
    int32_t n = C->n;
    C->c_time[n] = s->now;
    C->c_size[n] = p->size;
    C->c_payload[n] = p->payload;
    C->c_tag[n] = p->tag;       /* -1 already encodes the untagged sentinel */
    C->c_flow[n] = p->flow;
    C->c_sub[n] = p->subflow;
    C->c_flags[n] = (int8_t)((p->is_ack ? 1 : 0) | (p->is_retx ? 2 : 0));
    C->c_seq[n] = p->seq;
    C->c_dsn[n] = p->dsn;
    C->n = n + 1;
    return 0;
}

/* ---- sender (tcp/sender.py) ---- */

static int
transmit_segment(SceneObject *s, int32_t si, int64_t seq, int64_t length,
                 int64_t dsn, int is_retx)
{
    CSender *S = &s->snds[si];
    double now = s->now;
    int32_t pi = pkt_alloc(s);
    if (pi < 0)
        return -1;
    CPkt *p = &s->arena[pi];
    p->src = S->host;
    p->dst = S->dst;
    p->size = length + s->header_size;
    p->tag = S->tag;
    p->flow = S->flow;
    p->subflow = S->subflow;
    p->seq = seq;
    p->payload = length;
    p->is_ack = 0;
    p->ack = 0;
    p->dsn = dsn;
    p->dack = 0;
    p->is_retx = (int8_t)is_retx;
    p->ts_echo = -1.0;
    p->created_at = now;
    p->enqueued_at = 0.0;
    p->hops = 0;
    p->nsack = 0;
    int32_t j = seg_find(&S->segs, seq);
    if (j < 0) {
        CSeg seg = {seq, length, dsn, now, 0, 0, 0, 0, 0};
        if (is_retx)
            seg.retransmitted = 1;
        if (segring_push(&S->segs, seg) < 0)
            return -1;
    }
    else {
        CSeg *g = seg_at(&S->segs, j);
        g->sent_at = now;
        if (is_retx)
            g->retransmitted = 1;
    }
    if (is_retx)
        S->st_retrans += 1;
    S->st_segments_sent += 1;
    S->st_bytes_sent += length;
    int accepted;
    if (link_send(s, S->route_link, pi, &accepted) < 0)
        return -1;
    if (!S->rto_live)
        return arm_rto(s, si, 0);
    return 0;
}

static int
retransmit_next_hole(SceneObject *s, int32_t si, int *did)
{
    CSender *S = &s->snds[si];
    int64_t recover = S->recover;
    for (int32_t j = 0; j < S->segs.len; j++) {
        CSeg *g = seg_at(&S->segs, j);
        if (g->seq >= recover)
            break;
        if (g->sacked || !g->lost || g->retx_in_recovery)
            continue;
        g->retx_in_recovery = 1;
        if (g->lost_pending) {
            g->lost_pending = 0;
            S->lost_pending_bytes -= g->length;
        }
        int64_t seq = g->seq, length = g->length, dsn = g->dsn;
        if (transmit_segment(s, si, seq, length, dsn, 1) < 0)
            return -1;
        *did = 1;
        return 0;
    }
    *did = 0;
    return 0;
}

static int
arm_rto(SceneObject *s, int32_t si, int restart)
{
    CSender *S = &s->snds[si];
    if (S->rto_live && !restart)
        return 0;
    double deadline = s->now + S->rto_cache * S->rto_backoff;
    S->rto_deadline = deadline;
    if (S->rto_live) {
        if (S->rto_fire_at <= deadline)
            return 0;
        /* Python cancels the pending event; here it goes stale via rto_seq */
    }
    S->rto_seq = s->seq;
    S->rto_live = 1;
    if (ev_push(s, deadline, s->seq, EV_RTO, si) < 0)
        return -1;
    s->seq += 1;
    S->rto_fire_at = deadline;
    return 0;
}

static int
try_send(SceneObject *s, int32_t si)
{
    CSender *S = &s->snds[si];
    int64_t mss = S->mss;
    double cwnd_bytes = S->cwnd * (double)S->cc_mss;
    for (;;) {
        int64_t pipe = S->snd_nxt - S->snd_una - S->sacked_bytes - S->lost_pending_bytes;
        if (pipe < 0)
            pipe = 0;
        if ((double)(pipe + mss) > cwnd_bytes)
            return 0;
        if (S->in_recovery) {
            int did;
            if (retransmit_next_hole(s, si, &did) < 0)
                return -1;
            if (did)
                continue;
        }
        /* BulkDataAdapter.request_data inlined */
        int64_t length;
        if (S->total_bytes >= 0) {
            int64_t remaining = S->total_bytes - S->offset;
            if (remaining <= 0)
                return 0;   /* provider refused; on_idle is None (eligibility) */
            length = mss < remaining ? mss : remaining;
        }
        else {
            length = mss;
        }
        int64_t dsn = S->offset;
        S->offset += length;
        int64_t seq = S->snd_nxt;
        double now = s->now;
        int32_t pi = pkt_alloc(s);
        if (pi < 0)
            return -1;
        CPkt *p = &s->arena[pi];
        p->src = S->host;
        p->dst = S->dst;
        p->size = length + s->header_size;
        p->tag = S->tag;
        p->flow = S->flow;
        p->subflow = S->subflow;
        p->seq = seq;
        p->payload = length;
        p->is_ack = 0;
        p->ack = 0;
        p->dsn = dsn;
        p->dack = 0;
        p->is_retx = 0;
        p->ts_echo = -1.0;
        p->created_at = now;
        p->enqueued_at = 0.0;
        p->hops = 0;
        p->nsack = 0;
        CSeg seg = {seq, length, dsn, now, 0, 0, 0, 0, 0};
        if (segring_push(&S->segs, seg) < 0)
            return -1;
        S->st_segments_sent += 1;
        S->st_bytes_sent += length;
        int accepted;
        if (link_send(s, S->route_link, pi, &accepted) < 0)
            return -1;
        if (!S->rto_live) {
            if (arm_rto(s, si, 0) < 0)
                return -1;
        }
        S->snd_nxt = seq + length;
    }
}

static void
sample_rtt_karn(CSender *S, int64_t ack, double now)
{
    int found = 0;
    double best_sent = 0.0;
    for (int32_t j = 0; j < S->segs.len; j++) {
        CSeg *g = seg_at(&S->segs, j);
        if (g->seq + g->length <= ack && !g->retransmitted) {
            if (!found || g->sent_at > best_sent) {
                found = 1;
                best_sent = g->sent_at;
            }
        }
    }
    if (found) {
        double sample = now - best_sent;
        if (sample > 0)
            rtt_update(S, sample);
    }
}

static void
apply_sack(CSender *S, const int64_t *blocks, int32_t nblocks)
{
    int64_t hse = blocks[1];
    for (int32_t b = 1; b < nblocks; b++) {
        if (blocks[2 * b + 1] > hse)
            hse = blocks[2 * b + 1];
    }
    /* One pass in ascending seq: SACKed inside a block, else FACK-style
     * lost when wholly below the highest SACKed end. */
    for (int32_t j = 0; j < S->segs.len; j++) {
        CSeg *g = seg_at(&S->segs, j);
        if (g->seq > hse)
            break;
        if (g->sacked)
            continue;
        int64_t seg_end = g->seq + g->length;
        int32_t b = 0;
        while (b < nblocks && !(g->seq >= blocks[2 * b] && seg_end <= blocks[2 * b + 1]))
            b++;
        if (b < nblocks) {
            g->sacked = 1;
            S->sacked_bytes += g->length;
            if (g->lost_pending) {
                g->lost_pending = 0;
                S->lost_pending_bytes -= g->length;
            }
        }
        else if (!g->lost && seg_end <= hse) {
            g->lost = 1;
            g->lost_pending = 1;
            S->lost_pending_bytes += g->length;
        }
    }
}

static int
enter_fast_recovery(SceneObject *s, int32_t si, double now)
{
    CSender *S = &s->snds[si];
    S->in_recovery = 1;
    S->recover = S->snd_nxt;
    S->st_fast_retrans += 1;
    cc_on_loss(S, now);
    int32_t j = seg_find(&S->segs, S->snd_una);
    if (j >= 0) {
        CSeg *front = seg_at(&S->segs, j);
        if (!front->sacked && !front->lost) {
            front->lost = 1;
            front->lost_pending = 1;
            S->lost_pending_bytes += front->length;
        }
    }
    int did;
    return retransmit_next_hole(s, si, &did);
}

static int
on_new_ack(SceneObject *s, int32_t si, int64_t ack, double now)
{
    CSender *S = &s->snds[si];
    int64_t newly = ack - S->snd_una;
    S->st_bytes_acked += newly;
    if (S->samples == 0)
        sample_rtt_karn(S, ack, now);
    while (S->segs.len > 0) {
        CSeg *g = seg_at(&S->segs, 0);
        if (g->seq + g->length > ack)
            break;
        int64_t length = g->length;
        if (g->sacked)
            S->sacked_bytes -= length;
        if (g->lost_pending)
            S->lost_pending_bytes -= length;
        /* BulkDataAdapter.on_data_acked inlined */
        S->prov_acked += length;
        S->prov_last_ack = now;
        segring_popleft(&S->segs);
    }
    S->snd_una = ack;
    S->dupacks = 0;
    S->rto_backoff = 1.0;
    double srtt = isnan(S->srtt) ? 0.01 : S->srtt;
    if (S->in_recovery) {
        if (ack >= S->recover) {
            /* _exit_fast_recovery */
            S->in_recovery = 0;
            for (int32_t j = 0; j < S->segs.len; j++)
                seg_at(&S->segs, j)->retx_in_recovery = 0;
        }
        else if (S->cwnd < S->ssthresh) {
            cc_on_ack(S, newly, srtt, now);
        }
    }
    else {
        cc_on_ack(S, newly, srtt, now);
    }
    if (S->snd_nxt == ack)
        S->rto_live = 0;    /* _cancel_rto */
    else if (arm_rto(s, si, 1) < 0)
        return -1;
    return 0;
}

static int
sender_handle(SceneObject *s, int32_t si, int32_t pi)
{
    CPkt *p = &s->arena[pi];
    if (!p->is_ack)
        return 0;   /* Python leaks a stray data packet; unreachable here */
    CSender *S = &s->snds[si];
    int64_t ack = p->ack;
    double now = s->now;
    if (ack > S->snd_nxt)
        return scene_err("compiled pipeline: ACK beyond snd_nxt");
    double ts_echo = p->ts_echo;
    int64_t blocks[8];
    int32_t nblocks = p->nsack;
    for (int32_t b = 0; b < 2 * nblocks; b++)
        blocks[b] = p->sack[b];
    pkt_free(s, pi);    /* Python recycles after dispatch; order unobservable */
    if (ts_echo >= 0) {
        double sample = now - ts_echo;
        if (sample > 0)
            rtt_update(S, sample);
    }
    if (nblocks > 0)
        apply_sack(S, blocks, nblocks);
    int64_t snd_una = S->snd_una;
    if (ack > snd_una) {
        if (on_new_ack(s, si, ack, now) < 0)
            return -1;
    }
    else if (ack == snd_una && S->snd_nxt > snd_una) {
        /* _on_dupack */
        S->dupacks += 1;
        S->st_dupacks += 1;
        if (!S->in_recovery) {
            int lost_hint = S->dupacks >= 3;
            int sack_hint = S->sacked_bytes >= 3 * S->mss;
            if (lost_hint || sack_hint) {
                if (enter_fast_recovery(s, si, now) < 0)
                    return -1;
            }
        }
    }
    return try_send(s, si);
}

static int
on_rto(SceneObject *s, int32_t si)
{
    CSender *S = &s->snds[si];
    S->rto_live = 0;
    if (S->snd_nxt - S->snd_una == 0 || S->closed)
        return 0;
    double now = s->now;
    S->st_timeouts += 1;
    cc_on_timeout(S, now);
    S->dupacks = 0;
    /* _exit_fast_recovery */
    S->in_recovery = 0;
    for (int32_t j = 0; j < S->segs.len; j++)
        seg_at(&S->segs, j)->retx_in_recovery = 0;
    S->sacked_bytes = 0;
    S->lost_pending_bytes = 0;
    for (int32_t j = 0; j < S->segs.len; j++) {
        CSeg *g = seg_at(&S->segs, j);
        g->sacked = 0;
        g->lost = 1;
        g->lost_pending = 1;
        S->lost_pending_bytes += g->length;
    }
    S->in_recovery = 1;
    S->recover = S->snd_nxt;
    double backoff = S->rto_backoff * 2.0;
    S->rto_backoff = backoff < 64.0 ? backoff : 64.0;
    int did;
    if (retransmit_next_hole(s, si, &did) < 0)
        return -1;
    return arm_rto(s, si, 1);
}

/* ---- receiver (tcp/receiver.py) ---- */

static int32_t
ooo_find(CRecv *R, int64_t seq)
{
    int32_t lo = 0, hi = R->nooo - 1;
    while (lo <= hi) {
        int32_t mid = (lo + hi) / 2;
        int64_t v = R->ooo[mid].seq;
        if (v == seq)
            return mid;
        if (v < seq)
            lo = mid + 1;
        else
            hi = mid - 1;
    }
    return -1;
}

static int
ooo_insert_if_absent(CRecv *R, int64_t seq, int64_t length, int64_t dsn)
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

static void
drain_buffer(CRecv *R)
{
    /* `while rcv_nxt in buffer`: stale entries below rcv_nxt stay put and
     * keep appearing in SACK blocks, exactly like the Python dict. */
    for (;;) {
        int32_t j = ooo_find(R, R->rcv_nxt);
        if (j < 0)
            return;
        int64_t length = R->ooo[j].length;
        memmove(&R->ooo[j], &R->ooo[j + 1], (size_t)(R->nooo - j - 1) * sizeof(OooEnt));
        R->nooo -= 1;
        if (length > 0) {
            R->rcv_nxt += length;
            R->st_bytes += length;
        }
    }
}

static void
sack_blocks_into(CRecv *R, CPkt *a)
{
    /* RFC 2018 merge over the seq-sorted buffer, truncated to 4 blocks */
    int32_t nb = 0;
    int64_t start = R->ooo[0].seq;
    int64_t end = start + R->ooo[0].length;
    for (int32_t j = 1; j < R->nooo; j++) {
        int64_t q = R->ooo[j].seq;
        if (q == end) {
            end = q + R->ooo[j].length;
        }
        else {
            if (nb < 4) {
                a->sack[2 * nb] = start;
                a->sack[2 * nb + 1] = end;
                nb++;
            }
            start = q;
            end = q + R->ooo[j].length;
        }
    }
    if (nb < 4) {
        a->sack[2 * nb] = start;
        a->sack[2 * nb + 1] = end;
        nb++;
    }
    a->nsack = nb;
}

static int
recv_handle(SceneObject *s, int32_t ri, int32_t pi)
{
    CPkt *p = &s->arena[pi];
    if (p->is_ack)
        return 0;   /* Python leaks a stray ACK; unreachable here */
    CRecv *R = &s->rcvs[ri];
    double now = s->now;
    R->st_segs += 1;
    int64_t seq = p->seq, length = p->payload, dsn = p->dsn;
    double ts_echo = p->created_at;
    pkt_free(s, pi);
    int64_t rcv_nxt = R->rcv_nxt;
    if (seq == rcv_nxt) {
        if (length > 0) {
            R->rcv_nxt = seq + length;
            R->st_bytes += length;
            /* connection_sink is None under eligibility: _last_dack frozen */
        }
        if (R->nooo)
            drain_buffer(R);
    }
    else if (seq > rcv_nxt) {
        R->st_ooo += 1;
        if (ooo_insert_if_absent(R, seq, length, dsn) < 0)
            return -1;
    }
    else {
        R->st_dups += 1;
        if (seq + length > rcv_nxt) {
            int64_t overlap = rcv_nxt - seq;
            int64_t dl = length - overlap;
            if (dl > 0) {
                R->rcv_nxt = rcv_nxt + dl;
                R->st_bytes += dl;
            }
            drain_buffer(R);
        }
    }
    int32_t ai = pkt_alloc(s);
    if (ai < 0)
        return -1;
    CPkt *a = &s->arena[ai];
    a->src = R->host;
    a->dst = R->peer;
    a->size = R->ack_size;
    a->tag = R->tag;
    a->flow = R->flow;
    a->subflow = R->subflow;
    a->seq = 0;
    a->payload = 0;
    a->is_ack = 1;
    a->ack = R->rcv_nxt;
    a->dsn = 0;
    a->dack = R->last_dack;
    a->is_retx = 0;
    a->ts_echo = ts_echo;
    a->created_at = now;
    a->enqueued_at = 0.0;
    a->hops = 0;
    a->nsack = 0;
    if (R->nooo)
        sack_blocks_into(R, a);
    R->st_acks += 1;
    int accepted;
    return link_send(s, R->route_link, ai, &accepted);
}

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
                    return sender_handle(s, ag->idx, pi);
                return recv_handle(s, ag->idx, pi);
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
        int32_t pi = ring_pop(&L->fl);
        s->arena[pi].hops += 1;
        return node_receive(s, L->dst, pi);
    }
    case EV_SERVE: {
        CLink *L = &s->links[ev.idx];
        if (L->q.len == 0) {
            /* queue.dequeue() returned None: defensive, mirrors Python */
            L->serving = 0;
            return 0;
        }
        int32_t pi = ring_pop(&L->q);
        int64_t size = s->arena[pi].size;
        L->qbytes -= size;
        L->q_dequeued += 1;
        double tx_time = (double)size * 8.0 / L->rate_bps;
        double tx_end = s->now + tx_time;
        L->busy_until = tx_end;
        L->busy_time += tx_time;
        L->pkts_sent += 1;
        L->bytes_sent += size;
        if (ring_push(&L->fl, pi) < 0)
            return -1;
        double deliver_at = tx_end + L->delay;
        if (ev_push(s, deliver_at, s->seq, EV_DELIVER, ev.idx) < 0)
            return -1;
        s->seq += 1;
        if (L->q.len == 0) {
            L->serving = 0;
        }
        else {
            L->serve_at = tx_end;
            if (ev_push(s, tx_end, s->seq, EV_SERVE, ev.idx) < 0)
                return -1;
            s->seq += 1;
        }
        return 0;
    }
    case EV_RTO: {
        /* _fire_rto: the lazy deadline check */
        CSender *S = &s->snds[ev.idx];
        S->rto_live = 0;
        double deadline = S->rto_deadline;
        if (s->now < deadline) {
            S->rto_seq = s->seq;
            S->rto_live = 1;
            if (ev_push(s, deadline, s->seq, EV_RTO, ev.idx) < 0)
                return -1;
            s->seq += 1;
            S->rto_fire_at = deadline;
            return 0;
        }
        return on_rto(s, ev.idx);
    }
    case EV_START: {
        /* TcpSender.start */
        CSender *S = &s->snds[ev.idx];
        if (S->started || S->closed)
            return 0;
        S->started = 1;
        return try_send(s, ev.idx);
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
    for (int32_t i = 0; i < self->ncaps; i++) {
        CCap *C = &self->caps[i];
        PyMem_Free(C->c_time);
        PyMem_Free(C->c_size);
        PyMem_Free(C->c_payload);
        PyMem_Free(C->c_tag);
        PyMem_Free(C->c_flow);
        PyMem_Free(C->c_sub);
        PyMem_Free(C->c_seq);
        PyMem_Free(C->c_dsn);
        PyMem_Free(C->c_flags);
    }
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

static CNode *
node_at(SceneObject *self, int node)
{
    if (node < 0 || node >= self->nnodes) {
        PyErr_SetString(PyExc_IndexError, "node index out of range");
        return NULL;
    }
    return &self->nodes[node];
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
    if (record_add(state, &self->links, self->nlinks, &self->lcap,
                   sizeof(CLink), LINK_TABLE) == NULL)
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
    if (N == NULL)
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
    if (S == NULL ||
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
    if (R == NULL)
        return NULL;
    int ok = 1;
    Py_ssize_t n = PyList_GET_SIZE(ooo_list);
    for (Py_ssize_t i = 0; ok && i < n; i++) {
        long long oseq, olen, odsn;
        ok = PyArg_ParseTuple(PyList_GET_ITEM(ooo_list, i), "LLL", &oseq, &olen, &odsn) &&
             ooo_insert_if_absent(R, (int64_t)oseq, (int64_t)olen, (int64_t)odsn) == 0;
    }
    if (!ok || attach_agent(self, R->host, R->flow, R->subflow, AGENT_RECEIVER, self->nrcv) < 0) {
        PyMem_Free(R->ooo);
        return NULL;
    }
    return PyLong_FromLong(self->nrcv++);
}

static PyObject *
scene_add_event(SceneObject *self, PyObject *args)
{
    int kind, idx;
    double t;
    long long seq;
    if (!PyArg_ParseTuple(args, "idLi", &kind, &t, &seq, &idx))
        return NULL;
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
        "payload", (long long)p->payload, "is_ack", (int)p->is_ack,
        "ack", (long long)p->ack, "dsn", (long long)p->dsn,
        "dack", (long long)p->dack, "is_retx", (int)p->is_retx,
        "sack", sack, "ts_echo", p->ts_echo, "created_at", p->created_at,
        "enqueued_at", p->enqueued_at, "hops", (long long)p->hops);
}

static PyObject *
export_packets(SceneObject *s, const Ring *r)
{
    PyObject *out = PyList_New(r->len);
    for (int32_t j = 0; out != NULL && j < r->len; j++) {
        PyObject *pkt = export_packet(s, ring_get(r, j));
        if (pkt == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, j, pkt);
    }
    return out;
}

static PyObject *
scene_export_events(SceneObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(self->hlen);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->hlen; i++) {
        PEv *e = &self->heap[i];
        int32_t kind = e->kind;
        if (kind == EV_RTO &&
            (!self->snds[e->idx].rto_live || e->seq != self->snds[e->idx].rto_seq))
            kind = EV_CANCELLED;
        PyObject *item = Py_BuildValue("(idLi)", kind, e->t, (long long)e->seq, e->idx);
        if (item == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
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
    d = dict_put(d, "queue", export_packets(self, &L->q));
    return dict_put(d, "in_flight", export_packets(self, &L->fl));
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
    Py_ssize_t n = C->n;
    return Py_BuildValue(
        "{s:n,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#,s:y#}",
        "n", n,
        "time", (const char *)C->c_time, n * (Py_ssize_t)sizeof(double),
        "size", (const char *)C->c_size, n * (Py_ssize_t)sizeof(int64_t),
        "payload", (const char *)C->c_payload, n * (Py_ssize_t)sizeof(int64_t),
        "tag", (const char *)C->c_tag, n * (Py_ssize_t)sizeof(int64_t),
        "flow", (const char *)C->c_flow, n * (Py_ssize_t)sizeof(int64_t),
        "subflow", (const char *)C->c_sub, n * (Py_ssize_t)sizeof(int64_t),
        "flags", (const char *)C->c_flags, n * (Py_ssize_t)sizeof(int8_t),
        "seq", (const char *)C->c_seq, n * (Py_ssize_t)sizeof(int64_t),
        "dsn", (const char *)C->c_dsn, n * (Py_ssize_t)sizeof(int64_t));
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
     "export_capture(i) -> column bytes dict"},
    {NULL, NULL, 0, NULL},
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
};

/* ------------------------------------------------------------------ module */

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.kernel._ckernel",
    .m_doc = "Compiled event-loop kernel (engine + TCP pipeline).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&KernelEventType) < 0)
        return NULL;
    if (PyType_Ready(&KernelSimType) < 0)
        return NULL;
    if (PyType_Ready(&SceneType) < 0)
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
        PyModule_AddIntConstant(mod, "CC_CUBIC", CC_CUBIC) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
