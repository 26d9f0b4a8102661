/* Compiled depth-first enumeration kernel: the C twin of _dfs_py.

tally_class(tables, max_len) reads the KernelTables arrays through the
buffer protocol (no numpy headers), checks every size and entry so that
malformed tables raise ValueError, and returns counts[class, length,
contacts] as an int64 numpy array. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    const int32_t *step_vert, *step_mid, *step_dir, *mid_class;
    const uint8_t *vert_surface;
    uint8_t *vis_mid, *vis_vert;
    int64_t *counts;
    Py_ssize_t n_len, n_con;    /* counts strides: max_len + 1, n_surface + 1 */
    int max_len;
} Walker;

static void walk(Walker *w, int mid, int d, int length, int contacts)
{
    w->counts[((Py_ssize_t)w->mid_class[mid] * w->n_len + length) * w->n_con + contacts]++;
    if (length >= w->max_len)
        return;
    int v = w->step_vert[2 * mid + d];
    if (v < 0 || w->vis_vert[v])
        return;
    w->vis_vert[v] = 1;
    int base = 4 * mid + 2 * d, c2 = contacts + w->vert_surface[v];
    for (int t = 0; t < 2; t++) {
        int nm = w->step_mid[base + t];
        if (!w->vis_mid[nm]) {
            w->vis_mid[nm] = 1;
            walk(w, nm, w->step_dir[base + t], length + 1, c2);
            w->vis_mid[nm] = 0;
        }
    }
    w->vis_vert[v] = 0;
}

static int get_long(PyObject *tables, const char *name, int size_of, long *out)
{
    PyObject *obj = PyObject_GetAttrString(tables, name);
    if (obj == NULL)
        return -1;
    *out = size_of ? (long)PyObject_Size(obj) : PyLong_AsLong(obj);
    Py_DECREF(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* A C-contiguous table of n native ints of the given size and formats,
   every value in [lo, hi). */
static int get_table(PyObject *tables, const char *name, Py_buffer *buf, long n,
                     Py_ssize_t itemsize, const char *formats, long lo, long hi)
{
    PyObject *obj = PyObject_GetAttrString(tables, name);
    if (obj == NULL)
        return -1;
    int rc = PyObject_GetBuffer(obj, buf, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT);
    Py_DECREF(obj);
    if (rc < 0)
        return -1;
    if (buf->itemsize != itemsize || strlen(buf->format) != 1
        || !strchr(formats, buf->format[0]) || buf->len != n * itemsize) {
        PyErr_Format(PyExc_ValueError, "%s: need %ld items of format '%s'", name, n,
                     formats);
        PyBuffer_Release(buf);
        return -1;
    }
    for (long i = 0; i < n; i++) {
        long x = itemsize == 1 ? ((const uint8_t *)buf->buf)[i]
                               : ((const int32_t *)buf->buf)[i];
        if (x < lo || x >= hi) {
            PyErr_Format(PyExc_ValueError, "%s[%ld] = %ld is out of range", name, i, x);
            PyBuffer_Release(buf);
            return -1;
        }
    }
    return 0;
}

static PyObject *tally_class(PyObject *self, PyObject *args)
{
    PyObject *tables, *numpy = NULL, *counts = NULL;
    int max_len, got = 0;
    long n_mids, n_verts, n_cls, n_srf, start_mid, start_dir, surface = 0;
    Py_buffer b[6];
    uint8_t *vis = NULL;

    if (!PyArg_ParseTuple(args, "Oi:tally_class", &tables, &max_len))
        return NULL;
    if (get_long(tables, "mids", 1, &n_mids) || get_long(tables, "verts", 1, &n_verts)
        || get_long(tables, "n_classes", 0, &n_cls)
        || get_long(tables, "n_surface", 0, &n_srf)
        || get_long(tables, "start_mid", 0, &start_mid)
        || get_long(tables, "start_dir", 0, &start_dir))
        return NULL;
    if (max_len < 0 || n_mids > INT_MAX / 4 || start_mid < 0 || start_mid >= n_mids
        || start_dir < 0 || start_dir > 1) {
        PyErr_SetString(PyExc_ValueError, "max_len, mids, start_mid or start_dir out of range");
        return NULL;
    }
    const struct { const char *name; long n, lo, hi; } spec[5] = {
        {"step_vert", 2 * n_mids, -1, n_verts},
        {"step_mid", 4 * n_mids, 0, n_mids},
        {"step_dir", 4 * n_mids, 0, 2},
        {"mid_class", n_mids, 0, n_cls},
        {"vert_surface", n_verts, 0, 2},
    };
    for (; got < 5; got++) {
        int u8 = got == 4;
        if (get_table(tables, spec[got].name, &b[got], spec[got].n, u8 ? 1 : 4,
                      u8 ? "B" : "il", spec[got].lo, spec[got].hi) < 0)
            goto done;
    }
    for (long i = 0; i < n_verts; i++)
        surface += ((const uint8_t *)b[4].buf)[i];
    if (surface > n_srf) {  /* contacts index the last axis of counts */
        PyErr_SetString(PyExc_ValueError, "n_surface is below the surface vertex count");
        goto done;
    }
    if ((numpy = PyImport_ImportModule("numpy")) == NULL
        || (counts = PyObject_CallMethod(numpy, "zeros", "((lil)s)", n_cls, max_len + 1,
                                         n_srf + 1, "int64")) == NULL
        || PyObject_GetBuffer(counts, &b[5], PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0)
        goto done;
    got = 6;
    if ((vis = PyMem_Calloc(n_mids + n_verts, 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    Walker w = {b[0].buf, b[1].buf, b[2].buf, b[3].buf, b[4].buf, vis, vis + n_mids,
                b[5].buf, max_len + 1, n_srf + 1, max_len};
    vis[start_mid] = 1;
    walk(&w, (int)start_mid, (int)start_dir, 0, 0);
done:
    PyMem_Free(vis);
    while (got > 0)
        PyBuffer_Release(&b[--got]);
    Py_XDECREF(numpy);
    if (PyErr_Occurred())
        Py_CLEAR(counts);
    return counts;
}

static PyMethodDef methods[] = {
    {"tally_class", tally_class, METH_VARARGS,
     "Histogram of walk endpoints: counts[class, length, contacts]."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_dfs", "Compiled depth-first enumeration kernel.", -1, methods,
};

PyMODINIT_FUNC PyInit__dfs(void) { return PyModule_Create(&module); }
