/* The fluid integrator: the loop of repro.model.fluid.FluidModel.run in C.
 *
 * Included once by _ckernel.c (module function fluid_run).  The Python loop
 * is the specification and the REPRO_KERNEL=python body; fl_integrate mirrors
 * it statement by statement (model/fluid.py: keep in sync) under the
 * byte-identity ground rules of _ckernel.c: plain left-to-right sums,
 * min()/max() picking the operand Python picks (NaN included), `** 2` through
 * libm pow() with float.__pow__'s errno rule, and ZeroDivisionError /
 * OverflowError in the order the Python statements would raise them.
 *
 * The constraint matrix arrives by its non-zeros in compressed rows: the
 * paths crossing each link (members, link_offsets) and the links each path
 * crosses (path_links, path_offsets).  Every index is validated before the
 * loop reads through it.
 */

#include <errno.h>

/* min(a, b) / max(a, b) return a unless b compares strictly past it. */
#define FL_MIN(a, b) ((b) < (a) ? (b) : (a))
#define FL_MAX(a, b) ((b) > (a) ? (b) : (a))

/* GCC folds pow(x, 2.0) into x * x, the correctly rounded square; glibc's
 * pow is within an ulp of it and float.__pow__ returns glibc's.  The call
 * goes through a pointer the compiler cannot see through. */
static double (*const volatile fl_pow)(double, double) = pow;

/* x ** 2.0 as float.__pow__ computes it (floatobject.c float_pow). */
static int
fl_square(double x, double *out)
{
    if (isnan(x) || isinf(x) || x == 0.0 || fabs(x) == 1.0) {
        *out = isnan(x) ? x : fabs(x);
        return 0;
    }
    errno = 0;
    *out = fl_pow(fabs(x), 2.0);
    if (errno == 0 && isinf(*out))              /* _Py_ADJUST_ERANGE1 */
        errno = ERANGE;
    else if (errno == ERANGE && *out == 0.0)
        errno = 0;
    if (errno != 0) {
        PyErr_SetFromErrno(errno == ERANGE ? PyExc_OverflowError : PyExc_ValueError);
        return -1;
    }
    return 0;
}

/* a / b; a zero divisor is remembered, and raised where the loop next could
 * raise anything else (the text never names the statement). */
static inline double
fl_div(double a, double b, int *zero)
{
    if (b == 0.0)
        *zero = 1;
    return a / b;
}

enum { FL_UNCOUPLED, FL_LIA, FL_OLIA };

typedef struct {
    Py_ssize_t n, nlinks;                   /* paths, links */
    const int64_t *members, *link_offsets;  /* paths crossing each link */
    const double *capacity;
    const int64_t *path_links, *path_offsets;   /* links each path crosses */
    const double *rtts;
    int family;
    Py_ssize_t steps;
    double dt, initial_window, segment_bits, sharpness;
} FluidArgs;

/* Writes one row of n rates per tenth step into log; -1 with an exception. */
static int
fl_integrate(const FluidArgs *a, double *work, double *log)
{
    Py_ssize_t n = a->n;
    const double *rtts = a->rtts;
    double *windows = work, *updated = work + n, *rates_mbps = work + 2 * n,
           *rtts_squared = work + 3 * n, *link_loss = work + 4 * n;
    double total_rate_squared = 0.0, coupled = 0.0;
    int zero = 0;
    for (Py_ssize_t p = 0; p < n; p++) {
        rtts_squared[p] = rtts[p] * rtts[p];
        windows[p] = a->initial_window;
    }
    for (Py_ssize_t step = 0; step < a->steps; step++) {
        for (Py_ssize_t p = 0; p < n; p++)
            rates_mbps[p] = fl_div(windows[p], rtts[p], &zero) * a->segment_bits / 1e6;
        for (Py_ssize_t l = 0; l < a->nlinks; l++) {
            double load = 0.0;
            for (int64_t k = a->link_offsets[l]; k < a->link_offsets[l + 1]; k++)
                load += rates_mbps[a->members[k]];
            double excess = load - a->capacity[l];
            if (excess > 0.0 && load > 0.0) {
                double share = fl_div(excess, FL_MAX(load, 1e-9), &zero) * a->sharpness;
                link_loss[l] = FL_MIN(share, 1.0);
            }
            else
                link_loss[l] = 0.0;
        }
        if (a->family != FL_UNCOUPLED) {
            double total_rate = 0.0, total_window = 0.0, best = 0.0;
            for (Py_ssize_t p = 0; p < n; p++) {
                total_rate += fl_div(windows[p], rtts[p], &zero);
                total_window += windows[p];
                double candidate = fl_div(windows[p], rtts_squared[p], &zero);
                best = FL_MAX(best, candidate);
            }
            if (zero)
                break;
            if (fl_square(total_rate, &total_rate_squared) < 0)
                return -1;
            if (a->family == FL_LIA)
                /* RFC 6356: alpha / total window, alpha = total * best / rate^2. */
                coupled = fl_div(fl_div(total_window * best, total_rate_squared, &zero),
                                 total_window, &zero);
        }
        for (Py_ssize_t p = 0; p < n; p++) {
            double window = windows[p];
            double loss = 0.0;
            for (int64_t k = a->path_offsets[p]; k < a->path_offsets[p + 1]; k++)
                loss += link_loss[a->path_links[k]];
            loss = FL_MIN(loss, 1.0);
            double increase_per_ack;
            if (a->family == FL_UNCOUPLED)
                increase_per_ack = fl_div(1.0, window, &zero);
            else if (a->family == FL_LIA) {
                double alone = fl_div(1.0, window, &zero);
                increase_per_ack = FL_MIN(coupled, alone);
            }
            else
                increase_per_ack = fl_div(fl_div(window, rtts_squared[p], &zero),
                                          total_rate_squared, &zero);
            double increase = increase_per_ack * fl_div(window * (1.0 - loss), rtts[p], &zero);
            double decrease = fl_div(window * loss, rtts[p], &zero) * window / 2.0;
            double next = window + a->dt * (increase - decrease);
            updated[p] = FL_MAX(next, 1.0);
        }
        double *swap = windows;
        windows = updated;
        updated = swap;
        if (step % 10 == 0) {
            for (Py_ssize_t p = 0; p < n; p++)
                *log++ = fl_div(windows[p], rtts[p], &zero) * a->segment_bits / 1e6;
            if (PyErr_CheckSignals() < 0)   /* the Python loop can be interrupted */
                return -1;
        }
        if (zero)
            break;
    }
    if (zero) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    return 0;
}

/* A contiguous buffer of 8-byte items in struct format `code`. */
static int
fl_view(PyObject *obj, Py_buffer *view, char code, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_CONTIG_RO | PyBUF_FORMAT) < 0)
        return -1;
    if (view->format != NULL && view->format[0] == code && view->format[1] == '\0' &&
        view->itemsize == 8)
        return 0;
    PyBuffer_Release(view);
    PyErr_Format(PyExc_TypeError, "fluid_run: %s must be a contiguous array of '%c'", what, code);
    return -1;
}

/* offsets is a compressed-row index over `values` values, each in [0, bound). */
static int
fl_check_rows(const Py_buffer *offsets, const Py_buffer *values, Py_ssize_t rows,
              Py_ssize_t bound, const char *what)
{
    const int64_t *off = offsets->buf, *val = values->buf;
    Py_ssize_t count = values->len / 8;
    if (offsets->len / 8 != rows + 1 || off[0] != 0 || off[rows] != count) {
        PyErr_Format(PyExc_ValueError, "fluid_run: %s offsets must run from 0 to %zd in %zd rows",
                     what, count, rows);
        return -1;
    }
    for (Py_ssize_t r = 0; r < rows; r++) {
        if (off[r] > off[r + 1]) {
            PyErr_Format(PyExc_ValueError, "fluid_run: %s offsets are not monotone", what);
            return -1;
        }
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        if (val[k] < 0 || val[k] >= bound) {
            PyErr_Format(PyExc_IndexError, "fluid_run: %s index %lld out of range", what,
                         (long long)val[k]);
            return -1;
        }
    }
    return 0;
}

/* fluid_run(members, link_offsets, capacities, path_links, path_offsets, rtts,
 *           family, steps, dt, initial_window, segment_bits, sharpness)
 * -> bytearray of float64 rows, one per tenth step, one column per path. */
static PyObject *
fluid_run(PyObject *module, PyObject *args)
{
    PyObject *objs[6];
    const char *family;
    FluidArgs a;
    if (!PyArg_ParseTuple(args, "OOOOOOsndddd", &objs[0], &objs[1], &objs[2], &objs[3],
                          &objs[4], &objs[5], &family, &a.steps, &a.dt, &a.initial_window,
                          &a.segment_bits, &a.sharpness))
        return NULL;
    static const char *const names[6] = {"members", "link_offsets", "capacities",
                                         "path_links", "path_offsets", "rtts"};
    static const char codes[6] = {'q', 'q', 'd', 'q', 'q', 'd'};
    Py_buffer views[6];
    int held = 0;
    PyObject *result = NULL;
    double *work = NULL;
    while (held < 6 && fl_view(objs[held], &views[held], codes[held], names[held]) == 0)
        held++;
    if (held < 6)
        goto done;
    a.family = strcmp(family, "uncoupled") == 0 ? FL_UNCOUPLED
             : strcmp(family, "lia") == 0 ? FL_LIA
             : strcmp(family, "olia") == 0 ? FL_OLIA : -1;
    a.nlinks = views[2].len / 8;
    a.n = views[5].len / 8;
    if (a.family < 0 || a.steps < 1) {
        PyErr_Format(PyExc_ValueError, "fluid_run: need a known family and steps >= 1, got %s, %zd",
                     family, a.steps);
        goto done;
    }
    if (fl_check_rows(&views[1], &views[0], a.nlinks, a.n, "link member") < 0 ||
        fl_check_rows(&views[4], &views[3], a.n, a.nlinks, "path link") < 0)
        goto done;
    a.members = views[0].buf;
    a.link_offsets = views[1].buf;
    a.capacity = views[2].buf;
    a.path_links = views[3].buf;
    a.path_offsets = views[4].buf;
    a.rtts = views[5].buf;
    Py_ssize_t rows = (a.steps - 1) / 10 + 1;
    if (a.n > 0 && rows > PY_SSIZE_T_MAX / 8 / a.n) {
        PyErr_NoMemory();
        goto done;
    }
    work = PyMem_Malloc((size_t)(4 * a.n + a.nlinks + 1) * sizeof(double));
    result = PyByteArray_FromStringAndSize(NULL, rows * a.n * 8);
    if (work == NULL || result == NULL) {
        if (work == NULL)
            PyErr_NoMemory();
        Py_CLEAR(result);
        goto done;
    }
    if (fl_integrate(&a, work, (double *)PyByteArray_AS_STRING(result)) < 0)
        Py_CLEAR(result);
done:
    PyMem_Free(work);
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    return result;
}
