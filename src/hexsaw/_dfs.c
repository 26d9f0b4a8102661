/* The compiled kernel, which the package requires.  Its functions:

tally_class(tables, max_len) is the depth-first walk enumerator, the
histogram form of enumeration.iter_saws on the same tables.  It reads
the KernelTables arrays through the buffer protocol (no numpy headers),
checks every size and entry so that malformed tables raise ValueError,
and returns counts[class, length, contacts] as an int64 numpy array.
tables.mirror_class is None or the class permutation of the reflection
U -> -U, which the tables then promise to be symmetric under: it fixes
the start mid-edge and its first vertex, maps the walks whose first turn
is right one to one onto those whose first turn is left, keeps length
and contacts, and sends an end of class c to one of class mirror_class[c].
With a permutation, tally_class walks only the subtree of the first
left turn, folds each class's counts with its mirror's (a fixed class
doubles, a swapped pair c, p both become H[c] + H[p]), then counts the
empty walk; the array equals the full search's.  A mirror_class that is
not n_classes native ints in range, not an involution, or moving the
class of the start mid-edge raises ValueError.  The module exports
KERNEL_ABI, which lattice compares with its own at import; raise both
when an entry's arguments or the tables it reads change.

bridges(max_len, irreducible) walks the tree of the half-plane walks
from the start mid-edge a = (0, 0), heading 0, the tree that tally_class
walks on enumeration.half_plane_domain's tables, and returns a list with
the turn tuple (interned 'L' and 'R' strings) of each bridge of
1..max_len steps: a walk whose last vertex is its highest and whose last
step leaves that vertex straight up.  It reads no tables: it steps with
lattice.step's integer arithmetic, as walk_facts traces, marks the
vertices it visits on a grid, and ends a walk at a vertex below the row
v = 1 of the half-plane's bottom boundary.  The order is the depth-first
order, the left turn before the right, which is iter_saws' order.
irreducible None keeps every bridge; otherwise a bridge is kept iff
having no interior renewal point (the rule of walk_facts) equals the
truth of irreducible.  max_len < 0 or above BRIDGE_MAX_LEN (which keeps
the grid small) raises ValueError before any walk; max_len 0 or 1 gives
an empty list.

bridge_counts(max_len) walks the same tree and finds the same bridges as
bridges(max_len, None), building no tuple, and returns counts[height,
length] as an int64 numpy array of shape (max_len // 2 + 1, max_len +
1): the number of bridges of each length and height V_end / 6.  max_len
is checked as for bridges.

stickbreak_sweep(max_len) checks the stickbreak lemma on every bridge
that bridges(max_len, None) lists, in the same walk, and keeps no list.
For each bridge it finds the diamond points d[0] < d[1] < ... on the
walk's path, as walk_facts does, and for each pair i < j splices a right
turn before step d[i] and a left turn before step d[j], as
bridges.stickbreak does.  An output passes iff walk_facts' trace and
core find it self-avoiding, of class bridge and two steps longer than
the input.  It returns (bridges, bridges with two or more diamond
points, pairs, failures, first), first being (turns, i, j) for the first
failing pair in that order, turns the bridge's tuple as bridges gives
it, or None.  max_len is checked as for bridges; max_len 0 or 1 gives
(0, 0, 0, 0, None).

transfer(T) builds the height-T strip transfer operator for
1 <= T <= T_MAX (ValueError otherwise), its contacts on the top row: the
column moves of each parity, then a breadth-first search over cut states
that composes each state with each move its mask and flags allow.  It
returns (codes, slot, xpow, ypow, row, col, end) as int64 numpy arrays,
laid out as follows; the module exports T_MAX, FLAG_SHIFT and END_KINDS.
  - A state is the cut between two columns.  Its code holds slot i, the
    crossing at level i (0 at the bottom, i < T), in bits 3i..3i+2: 0 for
    no crossing, 1 and 2 for the lower and upper end of an arc pairing
    two crossings on the left (the pairing is noncrossing, so the slots
    read as balanced parentheses), 3 for a strand tied to the start
    mid-edge a and 4 for one tied to the placed free end.
  - Bit FLAG_SHIFT = 3 * T_MAX is the start-inserted flag, bit
    FLAG_SHIFT + 1 the end-placed flag, and bit FLAG_SHIFT + 2 the parity
    of the column right of the cut relative to the start column (the
    start is inserted only in a parity-0 column).
  - States are numbered in order of discovery by the breadth-first
    search from the two sources, the empty cuts with both flags clear
    and parity 0 (code 0, state 0) or 1 (state 1).  The accepting states
    are the empty cuts with both flags set; they have no transitions.
  - Transitions come in state order, and for each state in the order of
    the column moves of its parity and left mask: level options in
    level_options' order, levels filled bottom to top.  Transition k
    visits xpow[k] vertices, ypow[k] of them on the top row, and adds to
    cell c = slot[k], the entry from state row[c] to col[c] that places
    the free end as END_KINDS[end[c]]: END_KINDS = (None, 'interior',
    'bottom', 'top').  A state's cells are its distinct (col, end) pairs,
    numbered in the order its transitions first use them, after the
    cells of the states before it.
tests/transfer_oracle.py is a pure-Python twin of transfer, with each
transition's row, col and end in place of its slot.

spectral_radius(row, col, w, start, tol, iters) is strip._spectral_radius's
power iteration with M^2 on M[row[k], col[k]] = w[k] (int64, int64 and
float64 arrays, one k per cell), from start (float64, one entry per
state).  It checks every length, format and index once per call
(ValueError), and returns the radius after writing the last unit-norm
iterate into start, or None, with start untouched, if iters steps do not
settle.

walk_facts(U, V, heading, turns) traces the walk from mid-edge (U, V)
with lattice.step's integer arithmetic (a tuple of 'L'/'R' strings,
TypeError or ValueError otherwise; ValueError if the heading does not
traverse the mid-edge; OverflowError if a coordinate leaves the range of
a C long along the walk).  It returns (self_avoiding, class, renewal,
diamond): self_avoiding says that the mid-edges are distinct and the
vertices are (each decided with an open-addressing set, in linear
time), class is lattice.classify_walk's, or None for a walk that is
empty or not self-avoiding, and for a bridge renewal and diamond are the
tuples of mid-edge indices that bridges.renewal_points and
bridges.diamond_points return (each found in linear time), else None.
tests/walk_oracle.py holds the quadratic diamond rule, and the tests
compare the kernel's points with it.  stickbreak_sweep runs the
same trace, set and classification on each output it judges.

cyclo_mul(an, ad, bn, bd), cyclo_add(an, ad, bn, bd, s) and
cyclo_norm(n, d) are the arithmetic of cyclo.Cyclo48 in Q(zeta_48): an
element is a tuple of integer numerators n over a positive integer d on
the power basis 1, z, ..., z^15.  cyclo_mul returns the product of
an/ad and bn/bd (a convolution folded by z^16 = z^8 - 1), cyclo_add the
sum an/ad + s * bn/bd for s = 1 or -1 (cross-multiplied by the
cofactors of gcd(ad, bd) when ad != bd), and cyclo_norm the element n/d
for a tuple n of any length, folded onto 16 numerators.  Each returns
the canonical (n, d): 16 ints and d > 0 with gcd(n_0, ..., n_15, d) = 1,
zero as ((0,) * 16, 1).  For mul and add, n is a tuple of 16 ints.  An
n that is not a tuple, a numerator, d or s that is not an int, or a
wrong argument count raises TypeError; a wrong numerator count, d <= 0
or s not 1 or -1 raises ValueError.  When every numerator and
denominator is below 2^60 in magnitude (the module exports
CYCLO_FAST_BITS = 60) and cyclo_norm has at most 31 numerators, the
arithmetic runs in __int128, which cannot overflow there: a product's
coefficients sum at most 16 terms below 2^120, and the fold adds at
most two more to each, so every value stays below 3 * 2^124 < 2^127.
Otherwise, or where the compiler has no __int128, it runs on Python ints
through the C API.  tests/cyclo_oracle.py holds the former Python
arithmetic, and the tests compare these entries with it. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define KERNEL_ABI 5            /* lattice.KERNEL_ABI must equal it */

typedef struct {
    const int32_t *step_vert, *step_mid, *step_dir, *mid_class;
    const uint8_t *vert_surface;
    uint8_t *vis_mid, *vis_vert;
    int64_t *counts;
    Py_ssize_t n_len, n_con;    /* counts strides: max_len + 1, n_surface + 1 */
    int max_len;
} Walker;

static inline void count(Walker *w, int mid, int length, int contacts)
{
    w->counts[((Py_ssize_t)w->mid_class[mid] * w->n_len + length) * w->n_con + contacts]++;
}

/* Count the walk that ends on mid (traversed in direction d), then its
   extensions.  An extension that cannot grow (max_len long, or its vertex
   ahead outside or visited) is counted without a call. */
static void walk(Walker *w, int mid, int d, int length, int contacts)
{
    count(w, mid, length, contacts);
    if (length >= w->max_len)
        return;
    int v = w->step_vert[2 * mid + d];
    if (v < 0 || w->vis_vert[v])
        return;
    w->vis_vert[v] = 1;
    int base = 4 * mid + 2 * d, c2 = contacts + w->vert_surface[v];
    int last = length + 1 >= w->max_len;
    for (int t = 0; t < 2; t++) {
        int nm = w->step_mid[base + t], nd = w->step_dir[base + t];
        if (w->vis_mid[nm])
            continue;
        int nv = w->step_vert[2 * nm + nd];
        if (last || nv < 0 || w->vis_vert[nv]) {
            count(w, nm, length + 1, c2);
            continue;
        }
        w->vis_mid[nm] = 1;
        walk(w, nm, nd, length + 1, c2);
        w->vis_mid[nm] = 0;
    }
    w->vis_vert[v] = 0;
}

/* walk(w, mid, d, 0, 0) on tables symmetric under the reflection whose
   class permutation is mirror (see the header): the left subtree, the
   fold, then the empty walk. */
static void walk_mirrored(Walker *w, int mid, int d, const int32_t *mirror, long n_cls)
{
    int v = w->step_vert[2 * mid + d], left = w->step_mid[4 * mid + 2 * d];
    if (w->max_len > 0 && v >= 0 && !w->vis_mid[left]) {
        w->vis_vert[v] = 1;
        w->vis_mid[left] = 1;
        walk(w, left, w->step_dir[4 * mid + 2 * d], 1, w->vert_surface[v]);
    }
    const Py_ssize_t row = w->n_len * w->n_con;
    for (long c = 0; c < n_cls; c++) {
        int64_t *h = w->counts + c * row, *g = w->counts + mirror[c] * row;
        if (mirror[c] == c)
            for (Py_ssize_t i = 0; i < row; i++)
                h[i] *= 2;
        else if (mirror[c] > c)
            for (Py_ssize_t i = 0; i < row; i++)
                h[i] = g[i] = h[i] + g[i];
    }
    count(w, mid, 0, 0);
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

/* A C-contiguous buffer on obj of n items (any number if n < 0) of the
   given size and one of the given formats, writable if asked. */
static int get_buffer(PyObject *obj, const char *name, Py_buffer *buf, Py_ssize_t n,
                      Py_ssize_t itemsize, const char *formats, int writable)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, buf, flags) < 0)
        return -1;
    if (buf->itemsize != itemsize || strlen(buf->format) != 1
        || !strchr(formats, buf->format[0]) || (n >= 0 && buf->len != n * itemsize)) {
        if (n >= 0)
            PyErr_Format(PyExc_ValueError, "%s: need %zd items of format '%s'", name, n,
                         formats);
        else
            PyErr_Format(PyExc_ValueError, "%s: need items of format '%s'", name, formats);
        PyBuffer_Release(buf);
        return -1;
    }
    return 0;
}

/* A C-contiguous table of n native ints of the given size and formats,
   every value in [lo, hi); if nullable, None gives a buffer whose buf and
   obj are NULL. */
static int get_table(PyObject *tables, const char *name, Py_buffer *buf, long n,
                     Py_ssize_t itemsize, const char *formats, long lo, long hi, int nullable)
{
    PyObject *obj = PyObject_GetAttrString(tables, name);
    if (obj == NULL)
        return -1;
    if (nullable && obj == Py_None) {
        Py_DECREF(obj);
        buf->buf = buf->obj = NULL;
        return 0;
    }
    int rc = get_buffer(obj, name, buf, n, itemsize, formats, 0);
    Py_DECREF(obj);
    if (rc < 0)
        return -1;
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

/* The KernelTables fields tally_class reads: the sizes, the start, the
five step tables and mirror_class as buffers, every size and entry
checked (ValueError).  Release the buffers with close_tables, also on
failure. */
typedef struct {
    long n_mids, n_verts, n_cls, n_srf, start_mid, start_dir;
    /* step_vert, step_mid, step_dir, mid_class, vert_surface, mirror_class */
    Py_buffer b[6];     /* mirror_class's buf is NULL for None */
    int got;
} Tables;

static int open_tables(PyObject *tables, int max_len, Tables *t)
{
    long surface = 0;
    t->got = 0;
    if (get_long(tables, "mids", 1, &t->n_mids) || get_long(tables, "verts", 1, &t->n_verts)
        || get_long(tables, "n_classes", 0, &t->n_cls)
        || get_long(tables, "n_surface", 0, &t->n_srf)
        || get_long(tables, "start_mid", 0, &t->start_mid)
        || get_long(tables, "start_dir", 0, &t->start_dir))
        return -1;
    if (max_len < 0 || t->n_mids > INT_MAX / 4 || t->start_mid < 0
        || t->start_mid >= t->n_mids || t->start_dir < 0 || t->start_dir > 1) {
        PyErr_SetString(PyExc_ValueError, "max_len, mids, start_mid or start_dir out of range");
        return -1;
    }
    const struct { const char *name; long n, lo, hi; } spec[6] = {
        {"step_vert", 2 * t->n_mids, -1, t->n_verts},
        {"step_mid", 4 * t->n_mids, 0, t->n_mids},
        {"step_dir", 4 * t->n_mids, 0, 2},
        {"mid_class", t->n_mids, 0, t->n_cls},
        {"vert_surface", t->n_verts, 0, 2},
        {"mirror_class", t->n_cls, 0, t->n_cls},
    };
    for (; t->got < 6; t->got++) {
        int u8 = t->got == 4;
        if (get_table(tables, spec[t->got].name, &t->b[t->got], spec[t->got].n, u8 ? 1 : 4,
                      u8 ? "B" : "il", spec[t->got].lo, spec[t->got].hi, t->got == 5) < 0)
            return -1;
    }
    const int32_t *mirror = t->b[5].buf;
    if (mirror != NULL) {
        long a = ((const int32_t *)t->b[3].buf)[t->start_mid];
        int ok = mirror[a] == a;
        for (long c = 0; ok && c < t->n_cls; c++)
            ok = mirror[mirror[c]] == c;
        if (!ok) {
            PyErr_SetString(PyExc_ValueError,
                            "mirror_class is not an involution fixing the start mid-edge's class");
            return -1;
        }
    }
    for (long i = 0; i < t->n_verts; i++)
        surface += ((const uint8_t *)t->b[4].buf)[i];
    if (surface > t->n_srf) {  /* contacts index the last axis of counts */
        PyErr_SetString(PyExc_ValueError, "n_surface is below the surface vertex count");
        return -1;
    }
    return 0;
}

static void close_tables(Tables *t)
{
    while (t->got > 0)
        PyBuffer_Release(&t->b[--t->got]);
}

static PyObject *tally_class(PyObject *self, PyObject *args)
{
    PyObject *tables, *numpy = NULL, *counts = NULL;
    int max_len;
    Tables t;
    Py_buffer out;
    uint8_t *vis = NULL;

    if (!PyArg_ParseTuple(args, "Oi:tally_class", &tables, &max_len))
        return NULL;
    if (open_tables(tables, max_len, &t) < 0)
        goto done;
    if ((numpy = PyImport_ImportModule("numpy")) == NULL
        || (counts = PyObject_CallMethod(numpy, "zeros", "((lil)s)", t.n_cls, max_len + 1,
                                         t.n_srf + 1, "int64")) == NULL
        || PyObject_GetBuffer(counts, &out, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0)
        goto done;
    if ((vis = PyMem_Calloc(t.n_mids + t.n_verts, 1)) != NULL) {
        Walker w = {t.b[0].buf, t.b[1].buf, t.b[2].buf, t.b[3].buf, t.b[4].buf, vis,
                    vis + t.n_mids, out.buf, max_len + 1, t.n_srf + 1, max_len};
        vis[t.start_mid] = 1;
        if (t.b[5].buf == NULL)
            walk(&w, (int)t.start_mid, (int)t.start_dir, 0, 0);
        else
            walk_mirrored(&w, (int)t.start_mid, (int)t.start_dir, t.b[5].buf, t.n_cls);
    } else
        PyErr_NoMemory();
    PyBuffer_Release(&out);
done:
    PyMem_Free(vis);
    close_tables(&t);
    Py_XDECREF(numpy);
    if (PyErr_Occurred())
        Py_CLEAR(counts);
    return counts;
}

/* ---- strip transfer operator ---- */

#define T_MAX 10
#define FLAG_SHIFT (3 * T_MAX)   /* start-inserted, end-placed, parity bits */
#define MAX_OPTIONS 216          /* 3 left x 3 right x 3 bottom x 2 top x 4 vertical */

enum { EMPTY, OPEN, CLOSE, SLOT_S, SLOT_E };           /* cut slots */
enum { END_NONE, END_INTERIOR, END_BOTTOM, END_TOP };  /* end kinds, as END_KINDS */
enum { V_NONE, V_FULL, V_END_LO, V_END_HI };           /* the level's vertical edge */

typedef struct {
    int lb, rb, start, kind, v, neps, eps[2];
} Option;

typedef struct {
    int16_t locc, rocc;
    uint8_t xpow, ypow, start, end;
    int8_t match[2 * T_MAX + 2];
} Move;

typedef struct {
    int32_t slot;          /* a cell: 2.3 M of them at T = T_MAX */
    uint8_t xpow, ypow;
} Transition;

typedef struct {
    int32_t row, col;
    uint8_t end;
} Cell;

/* The operator as the search emits it, and the search's cell index. */
typedef struct {
    Transition *tr;
    Cell *cell;
    int32_t *cell_of;
    Py_ssize_t ntr, ncell;
} Operator;

/* Grow *buf (of *cap items of the given size) to hold n + 1 items. */
static int reserve(void **buf, Py_ssize_t *cap, Py_ssize_t n, size_t size)
{
    if (n < *cap)
        return 0;
    Py_ssize_t c = *cap ? 2 * *cap : 64;
    while (c <= n)
        c *= 2;
    void *p = PyMem_Realloc(*buf, (size_t)c * size);
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = p;
    *cap = c;
    return 0;
}

/* The ways level k of a parity-p column can meet its own edges, in the
   fixed enumeration order: a left crossing (none, the free end, or a
   port), a right crossing (none, a port, or the free end), at level 0 of
   a parity-0 column the bottom mid-edge (none, the start, or the free
   end), at the top level of a contact column the top mid-edge (none or
   the free end), and, where the column has a vertical edge from level k
   to k + 1, that edge (none, full, or holding the free end on a strand
   from below or from above).  A level keeps at most one end and two
   endpoints. */
static int level_options(int T, int p, int k, Option *out)
{
    const int S = 2 * T, E = 2 * T + 1;
    const int lbit[3] = {0, 0, 1 << k}, lp[3] = {-1, E, k};
    const int le[3] = {END_NONE, END_INTERIOR, END_NONE};
    const int rp[3] = {-1, T + k, E}, re[3] = {END_NONE, END_NONE, END_INTERIOR};
    const int bp[3] = {-1, S, E}, be[3] = {END_NONE, END_NONE, END_BOTTOM};
    const int tp[2] = {-1, E}, te[2] = {END_NONE, END_TOP};
    int nb = k == 0 && p % 2 == 0 ? 3 : 1, nt = k == T - 1 && p % 2 == T % 2 ? 2 : 1;
    int nv = k + 1 < T && (k + 1) % 2 == p % 2 ? 4 : 1, n = 0;
    for (int a = 0; a < 3; a++)
        for (int b = 0; b < 3; b++)
            for (int c = 0; c < nb; c++)
                for (int d = 0; d < nt; d++)
                    for (int v = 0; v < nv; v++) {
                        const int ports[4] = {lp[a], rp[b], bp[c], tp[d]};
                        const int kinds[4] = {le[a], re[b], be[c], te[d]};
                        int nk = 0, ne = 0, kind = END_NONE, eps[5];
                        for (int i = 0; i < 4; i++) {
                            if (kinds[i] && nk++ == 0)
                                kind = kinds[i];
                            if (ports[i] >= 0)
                                eps[ne++] = ports[i];
                        }
                        if ((v == V_END_LO || v == V_END_HI) && nk++ == 0)
                            kind = END_INTERIOR;
                        if (v == V_END_LO)
                            eps[ne++] = E;
                        if (nk >= 2 || ne >= 3)
                            continue;
                        Option o = {lbit[a], (rp[b] == T + k) << k, bp[c] == S, kind, v, ne,
                                    {ne > 0 ? eps[0] : -1, ne > 1 ? eps[1] : -1}};
                        out[n++] = o;
                    }
    return n;
}

typedef struct {
    int T, contact;
    int nopt[T_MAX];
    Option opt[T_MAX][MAX_OPTIONS];
    int npairs, pairs[T_MAX + 1][2];
    Move *moves;
    Py_ssize_t n, cap;
} Column;

/* Fill levels k.. of a column, cutting a level off as soon as its vertex
   cannot have degree 0 or 2: carry is the endpoint at the lower end of
   the strand entering level k (-1 for none) and ek the end kind placed
   so far.  A move keeps only how the column's paths join its endpoints,
   numbered L_k = k (left crossing at level k), R_k = T + k (right
   crossing), S = 2T (the start) and E = 2T + 1 (the free end): match[e]
   is the endpoint joined to e, or -1. */
static int column_rec(Column *g, int k, int carry, int ek, int locc, int rocc, int xpow,
                      int ypow, int start)
{
    const int T = g->T;
    if (k == T) {
        if (!xpow)  /* an unoccupied column is padding, not a step */
            return 0;
        if (reserve((void **)&g->moves, &g->cap, g->n, sizeof(Move)) < 0)
            return -1;
        Move *m = &g->moves[g->n++];
        *m = (Move){(int16_t)locc, (int16_t)rocc, (uint8_t)xpow, (uint8_t)ypow,
                    (uint8_t)start, (uint8_t)ek, {0}};
        memset(m->match, -1, sizeof m->match);
        for (int i = 0; i < g->npairs; i++) {
            m->match[g->pairs[i][0]] = (int8_t)g->pairs[i][1];
            m->match[g->pairs[i][1]] = (int8_t)g->pairs[i][0];
        }
        return 0;
    }
    for (int i = 0; i < g->nopt[k]; i++) {
        const Option *o = &g->opt[k][i];
        int eps[3], ne = 0, up = -1, closed = 0;
        if (o->kind && ek)
            continue;
        if (carry >= 0)
            eps[ne++] = carry;
        for (int j = 0; j < o->neps; j++)
            eps[ne++] = o->eps[j];
        if (o->v == V_FULL) {
            if (ne != 1)
                continue;
            up = eps[0];
        } else if (ne == 2) {
            closed = 1;
        } else if (ne) {
            continue;
        }
        if (o->v == V_END_HI)
            up = 2 * T + 1;
        int visit = o->v == V_FULL || ne;
        if (closed) {
            g->pairs[g->npairs][0] = eps[0];
            g->pairs[g->npairs++][1] = eps[1];
        }
        int rc = column_rec(g, k + 1, up, o->kind ? o->kind : ek, locc | o->lb, rocc | o->rb,
                            xpow + visit, ypow + (k == g->contact ? visit : 0),
                            start || o->start);
        g->npairs -= closed;
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* The moves of one column parity in enumeration order, and first[mask] ..
   first[mask + 1] - 1 indexing, through order[], those with left mask. */
typedef struct {
    Move *moves;
    Py_ssize_t *order, *first;
} Columns;

static int column_moves(int T, int p, Columns *out)
{
    Column *g = PyMem_Calloc(1, sizeof(Column));
    if (g == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    g->T = T;
    g->contact = p % 2 == T % 2 ? T - 1 : -1;
    for (int k = 0; k < T; k++)
        g->nopt[k] = level_options(T, p, k, g->opt[k]);
    int rc = column_rec(g, 0, -1, END_NONE, 0, 0, 0, 0, 0);
    out->moves = g->moves;
    Py_ssize_t n = g->n, masks = (Py_ssize_t)1 << T;
    PyMem_Free(g);
    if (rc < 0)
        return -1;
    out->order = PyMem_Malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    out->first = PyMem_Calloc((size_t)masks + 1, sizeof(Py_ssize_t));
    if (out->order == NULL || out->first == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* a stable counting sort by left mask keeps each mask's moves in order */
    for (Py_ssize_t i = 0; i < n; i++)
        out->first[out->moves[i].locc + 1]++;
    for (Py_ssize_t m = 0; m < masks; m++)
        out->first[m + 1] += out->first[m];
    for (Py_ssize_t i = 0; i < n; i++)
        out->order[out->first[out->moves[i].locc]++] = i;
    for (Py_ssize_t m = masks; m > 0; m--)
        out->first[m] = out->first[m - 1];
    out->first[0] = 0;
    return 0;
}

/* From column endpoint e, alternate left arcs and column paths to the far
   end of the strand: a right port, S (2T) or E (2T + 1). */
static int trace(int e, const int *part, const int8_t *match, uint8_t *seen, int T)
{
    while (0 <= e && e < T) {
        seen[e] = 1;
        e = part[e];
        if (e >= T)
            return e;
        seen[e] = 1;
        e = match[e];
    }
    return e;
}

/* The right-hand cut after one column move, as slots packed 3 bits each,
   or -1 if the move closes a loop or leaves an invalid cut. */
static int64_t compose(const int *part, int occupied, int s_port, const Move *m, int T)
{
    const int S = 2 * T;
    uint8_t seen[2 * T_MAX + 2] = {0};
    int64_t code = 0;
    int completed = 0, t;
    for (int k = 0; k < T; k++) {
        if (!(m->rocc >> k & 1) || seen[T + k])
            continue;
        if ((t = trace(m->match[T + k], part, m->match, seen, T)) < 0)
            return -1;
        seen[t] = 1;
        if (t < S)
            code |= (int64_t)OPEN << 3 * k | (int64_t)CLOSE << 3 * (t - T);
        else
            code |= (int64_t)(t == S ? SLOT_S : SLOT_E) << 3 * k;
    }
    if (!seen[S] && (m->start || s_port >= 0)) {
        int e = m->start ? S : s_port;
        seen[e] = 1;
        completed = trace(m->match[e], part, m->match, seen, T) == S + 1;
    }
    for (int k = 0; k < T; k++)
        occupied -= seen[k];
    if (occupied)
        return -1;  /* an occupied left port off every path lies on a loop */
    if (completed && m->rocc)
        return -1;
    /* no nesting test for S: its strand runs to the start on the bottom
       boundary, so it cannot begin inside a closed arc */
    return code;
}

/* Codes of the states found so far, and an open-addressing index on them. */
typedef struct {
    int64_t *code;
    Py_ssize_t n, cap;
    int32_t *slot;   /* state index or -1, size mask + 1 */
    uint64_t mask;
} States;

static uint64_t hash_code(int64_t code, uint64_t mask)
{
    return ((uint64_t)code * 0x9E3779B97F4A7C15ull >> 17) & mask;
}

/* The index of state code, numbered on first sight; -1 on error. */
static Py_ssize_t intern(States *s, int64_t code)
{
    uint64_t h = hash_code(code, s->mask);
    for (; s->slot[h] >= 0; h = (h + 1) & s->mask)
        if (s->code[s->slot[h]] == code)
            return s->slot[h];
    if (s->n >= INT32_MAX || reserve((void **)&s->code, &s->cap, s->n, sizeof(int64_t)) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_OverflowError, "too many transfer states");
        return -1;
    }
    s->code[s->n] = code;
    s->slot[h] = (int32_t)s->n;
    if ((uint64_t)(++s->n) * 2 > s->mask) {  /* keep the load below 1/2 */
        uint64_t mask = 2 * s->mask + 1;
        int32_t *slot = PyMem_Malloc((size_t)(mask + 1) * sizeof(int32_t));
        if (slot == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        memset(slot, -1, (size_t)(mask + 1) * sizeof(int32_t));
        for (Py_ssize_t i = 0; i < s->n; i++) {
            uint64_t g = hash_code(s->code[i], mask);
            while (slot[g] >= 0)
                g = (g + 1) & mask;
            slot[g] = (int32_t)i;
        }
        PyMem_Free(s->slot);
        s->slot = slot;
        s->mask = mask;
    }
    return s->n - 1;
}

/* The breadth-first search from the two empty sources: states in index
   order are its frontiers one after another.  op->cell_of[4 * dst + end]
   is the last cell numbered for (dst, end), or -1, and the current
   state's iff it is at least first, the state's first cell. */
static int search(int T, const Columns *col, States *st, Operator *op)
{
    Py_ssize_t trcap = 0, cellcap = 0, seen = 0;
    const int64_t labels_mask = ((int64_t)1 << FLAG_SHIFT) - 1;
    if (intern(st, 0) < 0 || intern(st, (int64_t)1 << (FLAG_SHIFT + 2)) < 0)
        return -1;
    for (Py_ssize_t si = 0; si < st->n; si++) {
        const Py_ssize_t first = op->ncell;
        int64_t code = st->code[si];
        int a_done = code >> FLAG_SHIFT & 1, end_done = code >> (FLAG_SHIFT + 1) & 1;
        int p = code >> (FLAG_SHIFT + 2) & 1;
        if (!(code & labels_mask) && a_done && end_done)
            continue;  /* accepting state, no outgoing transitions */
        int part[T_MAX], stack[T_MAX], depth = 0, occupied = 0, s_port = -1, mask = 0;
        for (int i = 0; i < T; i++) {
            int c = code >> 3 * i & 7;
            part[i] = -1;
            if (c == OPEN) {
                stack[depth++] = i;
            } else if (c == CLOSE && depth > 0) {
                int j = stack[--depth];
                part[i] = j;
                part[j] = i;
            } else if (c == SLOT_S || c == SLOT_E) {
                part[i] = 2 * T + (c == SLOT_E);
                if (c == SLOT_S && s_port < 0)
                    s_port = i;
            }
            if (c != EMPTY) {
                occupied++;
                mask |= 1 << i;
            }
        }
        int may_start = !a_done && p == 0, may_end = !end_done;
        const Columns *c = &col[p];
        for (Py_ssize_t i = c->first[mask]; i < c->first[mask + 1]; i++) {
            const Move *m = &c->moves[c->order[i]];
            if ((m->start && !may_start) || (m->end && !may_end))
                continue;
            int64_t next = compose(part, occupied, s_port, m, T);
            if (next < 0)
                continue;
            /* a completed walk joined an S end and an E end, so both flags
               are already set */
            next |= (int64_t)(a_done || m->start) << FLAG_SHIFT
                    | (int64_t)(end_done || m->end) << (FLAG_SHIFT + 1)
                    | (int64_t)(1 - p) << (FLAG_SHIFT + 2);
            Py_ssize_t sj = intern(st, next), had = seen;
            if (sj < 0 || reserve((void **)&op->cell_of, &seen, 4 * sj + 3, sizeof(int32_t)) < 0
                || reserve((void **)&op->tr, &trcap, op->ntr, sizeof(Transition)) < 0
                || reserve((void **)&op->cell, &cellcap, op->ncell, sizeof(Cell)) < 0)
                return -1;
            memset(op->cell_of + had, -1, (size_t)(seen - had) * sizeof(int32_t));
            int32_t *slot = &op->cell_of[4 * sj + m->end];
            if (*slot < first) {
                op->cell[op->ncell] = (Cell){(int32_t)si, (int32_t)sj, m->end};
                *slot = (int32_t)op->ncell++;
            }
            op->tr[op->ntr++] = (Transition){*slot, m->xpow, m->ypow};
        }
    }
    return 0;
}

/* A new int64 numpy array of n items with a writable buffer on it. */
static PyObject *int64_array(PyObject *numpy, Py_ssize_t n, Py_buffer *view)
{
    PyObject *a = PyObject_CallMethod(numpy, "empty", "ns", n, "int64");
    if (a != NULL && PyObject_GetBuffer(a, view, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0)
        Py_CLEAR(a);
    return a;
}

static PyObject *transfer(PyObject *self, PyObject *args)
{
    int T;
    PyObject *numpy = NULL, *out = NULL;
    Columns col[2] = {{0}};
    States st = {0};
    Operator op = {0};

    if (!PyArg_ParseTuple(args, "i:transfer", &T))
        return NULL;
    if (T < 1 || T > T_MAX) {
        PyErr_Format(PyExc_ValueError, "need 1 <= T <= %d, got T=%d", T_MAX, T);
        return NULL;
    }
    st.mask = 1023;
    if ((st.slot = PyMem_Malloc((st.mask + 1) * sizeof(int32_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(st.slot, -1, (st.mask + 1) * sizeof(int32_t));
    if (column_moves(T, 0, &col[0]) < 0
        || column_moves(T, 1, &col[1]) < 0
        || search(T, col, &st, &op) < 0)
        goto done;
    for (int p = 0; p < 2; p++) {  /* the moves and the cell index are not needed any more */
        PyMem_Free(col[p].moves);
        col[p].moves = NULL;
    }
    PyMem_Free(op.cell_of);
    op.cell_of = NULL;
    if ((numpy = PyImport_ImportModule("numpy")) == NULL || (out = PyTuple_New(7)) == NULL)
        goto done;
    for (int a = 0; a < 7; a++) {
        Py_buffer view;
        PyObject *arr = int64_array(numpy, a == 0 ? st.n : a < 4 ? op.ntr : op.ncell, &view);
        if (arr == NULL)
            goto done;
        PyTuple_SET_ITEM(out, a, arr);
        int64_t *v = view.buf;
        if (a == 0)
            memcpy(v, st.code, (size_t)st.n * sizeof(int64_t));
        for (Py_ssize_t i = 0; a && i < (a < 4 ? op.ntr : op.ncell); i++)
            v[i] = a == 1 ? op.tr[i].slot : a == 2 ? op.tr[i].xpow : a == 3 ? op.tr[i].ypow
                 : a == 4 ? op.cell[i].row : a == 5 ? op.cell[i].col : op.cell[i].end;
        PyBuffer_Release(&view);
        if (a == 3) {  /* the transitions are all written out */
            PyMem_Free(op.tr);
            op.tr = NULL;
        }
    }
done:
    for (int p = 0; p < 2; p++) {
        PyMem_Free(col[p].moves);
        PyMem_Free(col[p].order);
        PyMem_Free(col[p].first);
    }
    PyMem_Free(st.code);
    PyMem_Free(st.slot);
    PyMem_Free(op.tr);
    PyMem_Free(op.cell);
    PyMem_Free(op.cell_of);
    Py_XDECREF(numpy);
    if (PyErr_Occurred())
        Py_CLEAR(out);
    return out;
}

/* ---- float spectral radius ---- */

/* out = v @ M for M in coordinate form, summed in cell order as
   np.bincount(col, weights=v[row] * w) sums. */
static void scatter_cells(const int64_t *row, const int64_t *col, const double *w,
                          Py_ssize_t nnz, const double *v, double *out, Py_ssize_t n)
{
    memset(out, 0, (size_t)n * sizeof(double));
    for (Py_ssize_t k = 0; k < nnz; k++)
        out[col[k]] += v[row[k]] * w[k];
}

static PyObject *spectral_radius(PyObject *self, PyObject *args)
{
    PyObject *obj[4], *out = NULL;
    double tol;
    Py_ssize_t iters;
    Py_buffer b[4];
    int got = 0;
    double *work = NULL;

    if (!PyArg_ParseTuple(args, "OOOOdn:spectral_radius", &obj[0], &obj[1], &obj[2],
                          &obj[3], &tol, &iters))
        return NULL;
    const struct { const char *name, *formats; } spec[4] = {
        {"row", "lq"}, {"col", "lq"}, {"w", "d"}, {"start", "d"},
    };
    for (; got < 4; got++) {  /* col and w have row's length, start any */
        Py_ssize_t len = got == 1 || got == 2 ? b[0].len / 8 : -1;
        if (get_buffer(obj[got], spec[got].name, &b[got], len, 8, spec[got].formats,
                       got == 3) < 0)
            goto done;
    }
    const Py_ssize_t nnz = b[0].len / 8;
    const Py_ssize_t n = b[3].len / 8;
    const int64_t *row = b[0].buf, *col = b[1].buf;
    const double *w = b[2].buf;
    double *start = b[3].buf;
    for (Py_ssize_t k = 0; k < nnz; k++) {
        if (row[k] < 0 || row[k] >= n || col[k] < 0 || col[k] >= n) {
            PyErr_Format(PyExc_ValueError, "cell %zd at (%lld, %lld) is outside %zd states", k,
                         (long long)row[k], (long long)col[k], n);
            goto done;
        }
    }
    if ((work = PyMem_Malloc((size_t)(3 * n) * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Column parity makes the spectrum symmetric under negation, so
       iterate with M^2 and take a square root at the end. */
    double *v = work, *mid = work + n, *next = work + 2 * n, lam = 0.0;
    memcpy(v, start, (size_t)n * sizeof(double));
    for (Py_ssize_t it = 0; it < iters; it++) {
        scatter_cells(row, col, w, nnz, v, mid, n);
        scatter_cells(row, col, w, nnz, mid, next, n);
        double sq = 0.0;
        for (Py_ssize_t i = 0; i < n; i++) {
            next[i] += 1e-300;
            sq += next[i] * next[i];
        }
        double nlam = sqrt(sq);
        for (Py_ssize_t i = 0; i < n; i++)
            next[i] /= nlam;
        if (fabs(nlam - lam) < tol * (nlam > 1.0 ? nlam : 1.0)) {
            memcpy(start, next, (size_t)n * sizeof(double));
            out = PyFloat_FromDouble(sqrt(nlam));
            goto done;
        }
        lam = nlam;
        double *t = v;
        v = next;
        next = t;
    }
    out = Py_NewRef(Py_None);
done:
    PyMem_Free(work);
    while (got > 0)
        PyBuffer_Release(&b[--got]);
    return out;
}

/* ---- facts of one walk ---- */

/* Vertex-to-vertex displacement per heading, as lattice.HEADING_STEPS. */
static const int STEP_DU[6] = {0, 1, 1, 0, -1, -1}, STEP_DV[6] = {2, 1, -1, -2, -1, 1};

typedef struct {
    long long u, v;
} Point;

static long long floor_mod(long long a, long long m)
{
    long long r = a % m;
    return r < 0 ? r + m : r;
}

/* Whether the doubled coordinates (x, y) are twice a lattice vertex, as
   lattice.is_vertex. */
static int doubled_vertex(long long x, long long y)
{
    if (floor_mod(x, 2) || floor_mod(y, 2))
        return 0;
    long long r = floor_mod(y / 2, 6), p = floor_mod(x / 2, 2);
    return r == 1 || r == 5 ? p == 0 : r == 2 || r == 4 ? p == 1 : 0;
}

/* Whether the n points p[0..n) are distinct: each goes into an
   open-addressing set of 2^(64 - shift) > n slots, slot[k] being 0 or one
   more than the index of the point it holds, which is cleared first. */
static int distinct(const Point *p, Py_ssize_t n, Py_ssize_t *slot, int shift)
{
    const uint64_t mask = UINT64_MAX >> shift;
    memset(slot, 0, (size_t)(mask + 1) * sizeof *slot);
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t k = ((uint64_t)p[i].u * 0x9E3779B97F4A7C15u + (uint64_t)p[i].v)
                     * 0xC2B2AE3D27D4EB4Fu >> shift;
        for (; slot[k]; k = (k + 1) & mask)
            if (p[slot[k] - 1].u == p[i].u && p[slot[k] - 1].v == p[i].v)
                return 0;
        slot[k] = i + 1;
    }
    return 1;
}

/* A tuple of the n indices, or NULL with an exception set. */
static PyObject *index_tuple(const Py_ssize_t *idx, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; t != NULL && i < n; i++) {
        PyObject *k = PyLong_FromSsize_t(idx[i]);
        if (k == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, k);
    }
    return t;
}

/* The renewal points of a bridge on the mid-edges mid[0..n], where up[i]
   says that mid-edge i is vertical and traversed upward: 0, n, and each
   interior i with up[i] that lies above every mid-edge before it and below
   every one after it.  Writes them into found[] in order and returns how
   many; lo[0..n] is scratch. */
static Py_ssize_t renewal_points(const Point *mid, const uint8_t *up, Py_ssize_t n, Point *lo,
                                 Py_ssize_t *found)
{
    Py_ssize_t nf = 0;
    lo[n].v = mid[n].v;    /* lo[i].v: the lowest of mid[i..n] */
    for (Py_ssize_t i = n - 1; i >= 0; i--)
        lo[i].v = mid[i].v < lo[i + 1].v ? mid[i].v : lo[i + 1].v;
    long long top = mid[0].v;
    found[nf++] = 0;
    for (Py_ssize_t i = 1; i < n; i++) {
        if (up[i] && top < mid[i].v && mid[i].v < lo[i + 1].v)
            found[nf++] = i;
        top = mid[i].v > top ? mid[i].v : top;
    }
    found[nf++] = n;
    return nf;
}

/* (v + 3u, v - 3u) of mid[i] relative to mid[0]: a step moves each by at
   most 9. */
static Point cone(const Point *mid, Py_ssize_t i)
{
    const long long du = 3 * (mid[i].u - mid[0].u), dv = mid[i].v - mid[0].v;
    return (Point){dv + du, dv - du};
}

/* The diamond points of a bridge on the mid-edges mid[0..n]: the vertical
   mid-edges k with every mid-edge in the double cone of slopes +-60
   degrees and apexes 2 below and above k.  On a bridge the mid-edges
   before k must lie in the lower cone, v + 3|u - u_k| <= v_k + 2, and
   those after it in the upper one, v - 3|u - u_k| >= v_k - 2: a step
   moves a mid-edge by (+-2, 0) or (+-1, +-3), which cannot cross from one
   cone to the other but at k, and a bridge starts below every other
   mid-edge and ends above it.  So the greatest v + 3u and v - 3u up to k
   and the least after it decide k.  Writes the points into found[] in
   order and returns how many; lo[0..n] is scratch. */
static Py_ssize_t diamond_points(const Point *mid, Py_ssize_t n, Point *lo, Py_ssize_t *found)
{
    Py_ssize_t nf = 0;
    lo[n] = cone(mid, n);   /* lo[i]: the least of each over mid[i..n] */
    for (Py_ssize_t i = n - 1; i >= 0; i--) {
        const Point c = cone(mid, i);
        lo[i].u = c.u < lo[i + 1].u ? c.u : lo[i + 1].u;
        lo[i].v = c.v < lo[i + 1].v ? c.v : lo[i + 1].v;
    }
    Point hi = cone(mid, 0);    /* the greatest of each over mid[0..k] */
    for (Py_ssize_t k = 0; k <= n; k++) {
        const Point c = cone(mid, k);
        hi.u = c.u > hi.u ? c.u : hi.u;
        hi.v = c.v > hi.v ? c.v : hi.v;
        if (!floor_mod(mid[k].u, 2) && hi.u <= c.u + 2 && hi.v <= c.v + 2
            && lo[k].u >= c.u - 2 && lo[k].v >= c.v - 2)
            found[nf++] = k;
    }
    return nf;
}

/* The trace of a walk of up to cap steps: pt holds its mid-edges at
   0..n, its vertices (doubled) at n+1..2n and scratch at 2n+1..3n+1; up[i]
   says that mid-edge i is traversed straight up (heading 0); slot is the
   set distinct uses, of more than 2 (cap + 1) slots. */
typedef struct {
    Point *pt;
    uint8_t *up;
    Py_ssize_t *slot;
    int shift;
} Trace;

static int trace_alloc(Trace *w, Py_ssize_t cap)
{
    w->shift = 63;
    while ((UINT64_MAX >> w->shift) < (uint64_t)(2 * cap + 2))
        w->shift--;
    w->pt = PyMem_New(Point, 3 * cap + 2);
    w->up = PyMem_Malloc(cap + 1);
    w->slot = PyMem_New(Py_ssize_t, (UINT64_MAX >> w->shift) + 1);
    if (w->pt == NULL || w->up == NULL || w->slot == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void trace_free(Trace *w)
{
    PyMem_Free(w->pt);
    PyMem_Free(w->up);
    PyMem_Free(w->slot);
}

/* Trace the n-step walk from mid-edge start, left with heading h, that
   turns left at step i where turn[i] is 0 and right where it is 1, with
   lattice.step's integer arithmetic. */
static void trace_walk(Trace *w, Point start, int h, const uint8_t *turn, Py_ssize_t n)
{
    Point *mid = w->pt, *vert = w->pt + n + 1;
    mid[0] = start;
    w->up[0] = h == 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        vert[i] = (Point){mid[i].u + STEP_DU[h], mid[i].v + STEP_DV[h]};
        h = turn[i] ? (h + 1) % 6 : (h + 5) % 6;
        mid[i + 1] = (Point){vert[i].u + STEP_DU[h], vert[i].v + STEP_DV[h]};
        w->up[i + 1] = h == 0;
    }
}

/* lattice.classify_walk's classes; CLS_NOT_SAW and CLS_EMPTY have none. */
enum { CLS_NOT_SAW = -1, CLS_EMPTY, CLS_BRIDGE, CLS_HALF_PLANE, CLS_ARCH, CLS_OTHER };
static const char *const CLASS_NAMES[] = {NULL, "bridge", "half-plane", "arch", "other"};

/* The class of the n-step walk just traced into w: CLS_NOT_SAW unless its
   mid-edges and its vertices are distinct. */
static int walk_class(Trace *w, Py_ssize_t n)
{
    const Point *mid = w->pt;
    if (!distinct(mid, n + 1, w->slot, w->shift) || !distinct(mid + n + 1, n, w->slot, w->shift))
        return CLS_NOT_SAW;
    if (n == 0)
        return CLS_EMPTY;
    /* a bridge leaves and ends upward (heading 0, so on vertical
       mid-edges) with the interior strictly between its ends in height;
       else a half-plane walk stays above its start, and an arch stays
       above it in the interior and ends at its height */
    const long long v0 = mid[0].v, vn = mid[n].v;
    int between = 1, above = 1;
    for (Py_ssize_t i = 1; i < n; i++) {
        between &= v0 < mid[i].v && mid[i].v < vn;
        above &= mid[i].v > v0;
    }
    return w->up[0] && w->up[n] && between ? CLS_BRIDGE
           : above && vn > v0              ? CLS_HALF_PLANE
           : above && vn == v0             ? CLS_ARCH
                                           : CLS_OTHER;
}

static PyObject *walk_facts(PyObject *self, PyObject *args)
{
    long U, V;
    int h;
    PyObject *turns, *out = NULL, *renewal = NULL, *diamond = NULL;
    Trace w = {NULL, NULL, NULL, 0};

    if (!PyArg_ParseTuple(args, "lliO!:walk_facts", &U, &V, &h, &PyTuple_Type, &turns))
        return NULL;
    const Py_ssize_t n = PyTuple_GET_SIZE(turns);
    /* a step moves a mid-edge by at most 2 in U and 3 in V */
    if (n > LONG_MAX / 8 || U > LONG_MAX - 4 * (n + 1) || U < -(LONG_MAX - 4 * (n + 1))
        || V > LONG_MAX - 4 * (n + 1) || V < -(LONG_MAX - 4 * (n + 1))) {
        PyErr_SetString(PyExc_OverflowError, "the walk leaves the range of a C long");
        return NULL;
    }
    if (h < 0 || h > 5 || !doubled_vertex(U + STEP_DU[h], V + STEP_DV[h])
        || !doubled_vertex(U - STEP_DU[h], V - STEP_DV[h])) {
        PyErr_Format(PyExc_ValueError, "heading %d does not traverse mid-edge (%ld, %ld)", h, U,
                     V);
        return NULL;
    }
    /* the turns, then the renewal or diamond indices found */
    uint8_t *turn = PyMem_Malloc(n + 1);
    Py_ssize_t *found = PyMem_New(Py_ssize_t, n + 1);
    if (turn == NULL || found == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *t = PyTuple_GET_ITEM(turns, i);
        if (!PyUnicode_Check(t)) {
            PyErr_Format(PyExc_TypeError, "turn %zd is a %.100s, not 'L' or 'R'", i,
                         Py_TYPE(t)->tp_name);
            goto done;
        }
        turn[i] = PyUnicode_CompareWithASCIIString(t, "L") != 0;
        if (turn[i] && PyUnicode_CompareWithASCIIString(t, "R") != 0) {
            PyErr_Format(PyExc_ValueError, "turn %zd is %R, not 'L' or 'R'", i, t);
            goto done;
        }
    }
    if (trace_alloc(&w, n) < 0)
        goto done;
    trace_walk(&w, (Point){U, V}, h, turn, n);
    const int cls = walk_class(&w, n);
    if (cls != CLS_BRIDGE) {
        out = Py_BuildValue("(OsOO)", cls == CLS_NOT_SAW ? Py_False : Py_True,
                            cls == CLS_NOT_SAW ? NULL : CLASS_NAMES[cls], Py_None, Py_None);
        goto done;
    }
    Point *scratch = w.pt + 2 * n + 1;
    if ((renewal = index_tuple(found, renewal_points(w.pt, w.up, n, scratch, found))) != NULL
        && (diamond = index_tuple(found, diamond_points(w.pt, n, scratch, found))) != NULL)
        out = Py_BuildValue("(OsOO)", Py_True, CLASS_NAMES[cls], renewal, diamond);
done:
    Py_XDECREF(renewal);
    Py_XDECREF(diamond);
    trace_free(&w);
    PyMem_Free(turn);
    PyMem_Free(found);
    return out;
}

/* ---- bridges ---- */

#define BRIDGE_MAX_LEN 1024     /* the vertex grid then takes at most 4.2 MB */

typedef struct Bridger Bridger;

/* Called on each bridge of the given length, its turns in b->turns and
   its mid-edges in b->path; 0, or -1 with an exception set to stop the
   walk. */
typedef int (*BridgeHook)(Bridger *b, int length);

/* The half-plane walks from a of at most max_len steps.  Vertex (u, v) of
   such a walk has |u| < max_len and 1 <= v < 2 max_len, and its mark is
   vis[(u + max_len) * (2 max_len + 2) + v]. */
struct Bridger {
    uint8_t *vis;                       /* vertex marks */
    uint8_t *turns, *up;                /* per step: 0 left, 1 right; per path mid-edge */
    Point *path, *lo;                   /* the path's mid-edges (doubled); scratch */
    Py_ssize_t *found;
    PyObject *turn[2];                  /* 'L', 'R' */
    int max_len, irreducible;           /* -1 keeps every bridge */
    BridgeHook hook;
    void *ctx;                          /* the hook's */
    void *mem;
};

/* The walk's turns as a tuple of 'L' and 'R'. */
static PyObject *turn_tuple(Bridger *b, int length)
{
    PyObject *t = PyTuple_New(length);
    for (int i = 0; t != NULL && i < length; i++)
        PyTuple_SET_ITEM(t, i, Py_NewRef(b->turn[b->turns[i]]));
    return t;
}

/* The walk on path[0..length], heading h along its last mid-edge, then
   its extensions, stepped as trace_walk steps.  The walk is a bridge if
   its last step leaves its highest vertex, at doubled height top,
   straight up.  No step goes straight through a vertex, so distinct
   vertices mean distinct mid-edges, and vertex marks are enough. */
static int grow(Bridger *b, int h, int length, long long top)
{
    const Point m = b->path[length];
    b->up[length] = h == 0;
    if (length > 0 && h == 0 && m.v - STEP_DV[0] == top) {
        int keep = b->irreducible < 0
                   || (renewal_points(b->path, b->up, length, b->lo, b->found) == 2)
                          == b->irreducible;
        if (keep && b->hook(b, length) < 0)
            return -1;
    }
    const Point x = {m.u + STEP_DU[h], m.v + STEP_DV[h]};   /* the vertex ahead, doubled */
    if (length >= b->max_len || x.v < 2)    /* below the row v = 1 */
        return 0;
    uint8_t *mark = &b->vis[(x.u / 2 + b->max_len) * (2 * b->max_len + 2) + x.v / 2];
    if (*mark)
        return 0;
    *mark = 1;
    int rc = 0;
    for (int t = 0; t < 2 && rc == 0; t++) {
        const int nh = t ? (h + 1) % 6 : (h + 5) % 6;
        b->turns[length] = (uint8_t)t;
        b->path[length + 1] = (Point){x.u + STEP_DU[nh], x.v + STEP_DV[nh]};
        rc = grow(b, nh, length + 1, x.v > top ? x.v : top);
    }
    *mark = 0;
    return rc;
}

/* Allocate for a walk over the bridges of at most max_len steps (ValueError
   outside 0..BRIDGE_MAX_LEN); release with bridger_close, also on
   failure. */
static int bridger_open(Bridger *b, int max_len, int irreducible)
{
    b->mem = NULL;
    b->turn[0] = b->turn[1] = NULL;
    if (max_len < 0 || max_len > BRIDGE_MAX_LEN) {
        PyErr_Format(PyExc_ValueError, "need 0 <= max_len <= %d, got %d", BRIDGE_MAX_LEN,
                     max_len);
        return -1;
    }
    const size_t n = (size_t)max_len + 1, grid = (2 * n - 1) * 2 * n;
    /* path and scratch points, found indices, then turns, up flags and
       the vertex marks */
    const size_t words = 2 * n * sizeof(Point) + n * sizeof(Py_ssize_t);
    uint8_t *mem = b->mem = PyMem_Calloc(words + 2 * n + grid, 1);
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    b->path = (Point *)mem;
    b->lo = b->path + n;
    b->found = (Py_ssize_t *)(b->lo + n);
    b->turns = mem + words;
    b->up = b->turns + n;
    b->vis = b->up + n;
    b->max_len = max_len;
    b->irreducible = irreducible;
    b->turn[0] = PyUnicode_InternFromString("L");
    b->turn[1] = PyUnicode_InternFromString("R");
    return b->turn[0] == NULL || b->turn[1] == NULL ? -1 : 0;
}

/* Call hook(b, length) on each bridge, in depth-first order. */
static int bridger_run(Bridger *b, BridgeHook hook, void *ctx)
{
    b->hook = hook;
    b->ctx = ctx;
    b->path[0] = (Point){0, 0};
    return grow(b, 0, 0, LLONG_MIN);
}

static void bridger_close(Bridger *b)
{
    Py_XDECREF(b->turn[0]);
    Py_XDECREF(b->turn[1]);
    PyMem_Free(b->mem);
}

/* Append the bridge's turn tuple to the list ctx. */
static int emit(Bridger *b, int length)
{
    PyObject *t = turn_tuple(b, length);
    int rc = t == NULL ? -1 : PyList_Append(b->ctx, t);
    Py_XDECREF(t);
    return rc;
}

static PyObject *bridges(PyObject *self, PyObject *args)
{
    PyObject *irr, *out = NULL;
    int max_len, irreducible = -1;
    Bridger b;

    if (!PyArg_ParseTuple(args, "iO:bridges", &max_len, &irr))
        return NULL;
    if (irr != Py_None && (irreducible = PyObject_IsTrue(irr)) < 0)
        return NULL;
    if (bridger_open(&b, max_len, irreducible) == 0 && (out = PyList_New(0)) != NULL)
        bridger_run(&b, emit, out);
    bridger_close(&b);
    if (PyErr_Occurred())
        Py_CLEAR(out);
    return out;
}

/* ---- bridge counts ---- */

/* Count the bridge by its height V_end / 6 and its length in ctx,
   counts[height, length] with rows of max_len + 1.  Vertical mid-edges lie
   at heights V that are multiples of 6, and a step rises at most 3, so a
   bridge of n steps rises 6, 12, ..., at most 3n: its row is 1..n/2,
   inside counts. */
static int count_bridge(Bridger *b, int length)
{
    int64_t *counts = b->ctx;
    counts[b->path[length].v / 6 * (b->max_len + 1) + length]++;
    return 0;
}

static PyObject *bridge_counts(PyObject *self, PyObject *args)
{
    PyObject *numpy = NULL, *counts = NULL;
    int max_len;
    Bridger b;
    Py_buffer out;

    if (!PyArg_ParseTuple(args, "i:bridge_counts", &max_len))
        return NULL;
    if (bridger_open(&b, max_len, -1) == 0
        && (numpy = PyImport_ImportModule("numpy")) != NULL
        && (counts = PyObject_CallMethod(numpy, "zeros", "((ll)s)", (long)max_len / 2 + 1,
                                         (long)max_len + 1, "int64")) != NULL
        && PyObject_GetBuffer(counts, &out, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) == 0) {
        bridger_run(&b, count_bridge, out.buf);
        PyBuffer_Release(&out);
    }
    bridger_close(&b);
    Py_XDECREF(numpy);
    if (PyErr_Occurred())
        Py_CLEAR(counts);
    return counts;
}

/* ---- stickbreak sweep ---- */

typedef struct {
    Trace w;
    uint8_t *out;               /* the spliced turns */
    long long enumerated, used, pairs, failures;
    PyObject *first;            /* (turns, i, j) of the first failure */
} Sweep;

/* The turns of the stickbreak of a bridge at its diamond points di < dj:
   one right turn spliced in before step di and one left turn before step
   dj, which rotates the path between them by pi/3 clockwise.  Writes
   them into out and returns how many. */
static Py_ssize_t splice(const uint8_t *turn, Py_ssize_t n, Py_ssize_t di, Py_ssize_t dj,
                         uint8_t *out)
{
    memcpy(out, turn, (size_t)di);
    out[di] = 1;
    memcpy(out + di + 1, turn + di, (size_t)(dj - di));
    out[dj + 1] = 0;
    memcpy(out + dj + 2, turn + dj, (size_t)(n - dj));
    return n + 2;
}

/* Stickbreak the bridge at each pair of its diamond points; an output
   passes iff it is a self-avoiding bridge two steps longer. */
static int sweep_bridge(Bridger *b, int length)
{
    Sweep *s = b->ctx;
    const Py_ssize_t *dia = b->found;
    const Py_ssize_t nd = diamond_points(b->path, length, b->lo, b->found);
    s->enumerated++;
    s->used += nd >= 2;
    for (Py_ssize_t i = 0; i < nd; i++)
        for (Py_ssize_t j = i + 1; j < nd; j++) {
            Py_ssize_t m = splice(b->turns, length, dia[i], dia[j], s->out);
            trace_walk(&s->w, (Point){0, 0}, 0, s->out, m);
            s->pairs++;
            if (m == length + 2 && walk_class(&s->w, m) == CLS_BRIDGE)
                continue;
            s->failures++;
            if (s->first == NULL
                && (s->first = Py_BuildValue("(Nnn)", turn_tuple(b, length), i, j)) == NULL)
                return -1;
        }
    return 0;
}

static PyObject *stickbreak_sweep(PyObject *self, PyObject *args)
{
    PyObject *out = NULL;
    int max_len;
    Bridger b;
    Sweep s = {{NULL, NULL, NULL, 0}, NULL, 0, 0, 0, 0, NULL};

    if (!PyArg_ParseTuple(args, "i:stickbreak_sweep", &max_len))
        return NULL;
    if (bridger_open(&b, max_len, -1) < 0 || trace_alloc(&s.w, max_len + 2) < 0)
        goto done;
    if ((s.out = PyMem_Malloc(max_len + 2)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (bridger_run(&b, sweep_bridge, &s) == 0)
        out = Py_BuildValue("(LLLLO)", s.enumerated, s.used, s.pairs, s.failures,
                            s.first ? s.first : Py_None);
done:
    bridger_close(&b);
    trace_free(&s.w);
    PyMem_Free(s.out);
    Py_XDECREF(s.first);
    if (PyErr_Occurred())
        Py_CLEAR(out);
    return out;
}

/* ---- Cyclo48 arithmetic ---- */

#define DEG 16                          /* the power basis 1, z, ..., z^15 */
#define WIDE (2 * DEG - 1)              /* a product's length before the fold */
#define FAST_BITS 60
#define FAST_LIMIT (1LL << FAST_BITS)

static PyObject *gcd_fn;                /* math.gcd, for the Python-int path */

/* An operand (n, d), borrowed, with the values of its numerators in v
   and of d in dv when it is small: at most WIDE numerators, and every
   numerator and d below FAST_LIMIT in magnitude. */
typedef struct {
    PyObject **n, *d;
    Py_ssize_t len;
    long long v[WIDE], dv;
    int small;
} Elem;

/* Read n, a tuple of ints (exactly len of them if len >= 0), and d, a
   positive int: TypeError or ValueError otherwise. */
static int read_elem(PyObject *n, PyObject *d, Py_ssize_t len, Elem *e)
{
    if (!PyTuple_Check(n)) {
        PyErr_SetString(PyExc_TypeError, "numerators must be a tuple of ints");
        return -1;
    }
    e->len = PyTuple_GET_SIZE(n);
    if (len >= 0 && e->len != len) {
        PyErr_Format(PyExc_ValueError, "need %zd numerators, got %zd", len, e->len);
        return -1;
    }
    e->n = PySequence_Fast_ITEMS(n);
    e->d = d;
    e->small = e->len <= WIDE;
    for (Py_ssize_t k = 0; k <= e->len; k++) {
        PyObject *x = k < e->len ? e->n[k] : d;
        int ovf;
        if (!PyLong_Check(x)) {
            PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s",
                         k < e->len ? "a numerator" : "the denominator", Py_TYPE(x)->tp_name);
            return -1;
        }
        long long v = PyLong_AsLongLongAndOverflow(x, &ovf);
        if (k == e->len && (ovf < 0 || (ovf == 0 && v <= 0))) {
            PyErr_SetString(PyExc_ValueError, "the denominator must be positive");
            return -1;
        }
        if (ovf || v <= -FAST_LIMIT || v >= FAST_LIMIT)
            e->small = 0;
        else if (k == e->len)
            e->dv = v;
        else if (k < WIDE)
            e->v[k] = v;
    }
    return 0;
}

/* The Python-int path: arrays of new references. */

/* *acc += sign * x * y, or sign * x if y is NULL. */
static int addmul(PyObject **acc, PyObject *x, PyObject *y, int sign)
{
    PyObject *t = y ? PyNumber_Multiply(x, y) : Py_NewRef(x), *s;
    if (t == NULL)
        return -1;
    if (sign > 0 && !PyObject_IsTrue(*acc)) {   /* the first term of a sum */
        Py_SETREF(*acc, t);
        return 0;
    }
    s = sign > 0 ? PyNumber_Add(*acc, t) : PyNumber_Subtract(*acc, t);
    Py_DECREF(t);
    if (s == NULL)
        return -1;
    Py_SETREF(*acc, s);
    return 0;
}

/* Reduce c[0..len) to c[0..DEG) with z^m = z^(m-8) - z^(m-16), the top
   term first, so a term folded onto m - 8 >= DEG folds again. */
static int fold_slow(PyObject **c, Py_ssize_t len)
{
    for (Py_ssize_t m = len - 1; m >= DEG; m--)
        if (PyObject_IsTrue(c[m])
            && (addmul(&c[m - 8], c[m], NULL, 1) < 0 || addmul(&c[m - 16], c[m], NULL, -1) < 0))
            return -1;
    return 0;
}

/* The canonical (n, d) of c[0..DEG) / d: all divided by their gcd. */
static PyObject *canon_slow(PyObject **c, PyObject *d)
{
    PyObject *args[DEG + 1], *n = NULL, *q = NULL, *out = NULL, *g;
    int ovf;
    memcpy(args, c, DEG * sizeof *c);
    args[DEG] = d;
    if ((g = PyObject_Vectorcall(gcd_fn, args, DEG + 1, NULL)) == NULL)
        return NULL;
    const int one = PyLong_AsLongLongAndOverflow(g, &ovf) == 1 && !ovf;
    if ((n = PyTuple_New(DEG)) == NULL)
        goto done;
    for (int k = 0; k < DEG; k++) {
        PyObject *x = one ? Py_NewRef(c[k]) : PyNumber_FloorDivide(c[k], g);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(n, k, x);
    }
    if ((q = one ? Py_NewRef(d) : PyNumber_FloorDivide(d, g)) != NULL)
        out = PyTuple_Pack(2, n, q);
done:
    Py_DECREF(g);
    Py_XDECREF(n);
    Py_XDECREF(q);
    return out;
}

static PyObject *mul_slow(const Elem *a, const Elem *b)
{
    PyObject *c[WIDE] = {NULL}, *d = NULL, *out = NULL;
    for (int k = 0; k < WIDE; k++)
        if ((c[k] = PyLong_FromLong(0)) == NULL)
            goto done;
    for (int i = 0; i < DEG; i++) {
        if (!PyObject_IsTrue(a->n[i]))
            continue;
        for (int j = 0; j < DEG; j++)
            if (PyObject_IsTrue(b->n[j]) && addmul(&c[i + j], a->n[i], b->n[j], 1) < 0)
                goto done;
    }
    if (fold_slow(c, WIDE) == 0 && (d = PyNumber_Multiply(a->d, b->d)) != NULL)
        out = canon_slow(c, d);
done:
    for (int k = 0; k < WIDE; k++)
        Py_XDECREF(c[k]);
    Py_XDECREF(d);
    return out;
}

/* a + s * b: with equal denominators numerator by numerator, otherwise
   over lcm(a.d, b.d) = a.d * f0, with f0 = b.d / g and f1 = a.d / g. */
static PyObject *add_slow(const Elem *a, const Elem *b, int s)
{
    PyObject *c[DEG] = {NULL}, *f[2] = {NULL, NULL}, *d = NULL, *out = NULL;
    int eq = PyObject_RichCompareBool(a->d, b->d, Py_EQ);
    if (eq < 0)
        return NULL;
    if (!eq) {
        PyObject *args[2] = {a->d, b->d}, *g = PyObject_Vectorcall(gcd_fn, args, 2, NULL);
        if (g == NULL)
            return NULL;
        f[0] = PyNumber_FloorDivide(b->d, g);
        f[1] = PyNumber_FloorDivide(a->d, g);
        Py_DECREF(g);
        if (f[0] == NULL || f[1] == NULL)
            goto done;
    }
    if ((d = eq ? Py_NewRef(a->d) : PyNumber_Multiply(a->d, f[0])) == NULL)
        goto done;
    for (int k = 0; k < DEG; k++)
        if ((c[k] = eq ? Py_NewRef(a->n[k]) : PyNumber_Multiply(a->n[k], f[0])) == NULL
            || addmul(&c[k], b->n[k], f[1], s) < 0)
            goto done;
    out = canon_slow(c, d);
done:
    for (int k = 0; k < DEG; k++)
        Py_XDECREF(c[k]);
    Py_XDECREF(f[0]);
    Py_XDECREF(f[1]);
    Py_XDECREF(d);
    return out;
}

static PyObject *norm_slow(const Elem *a)
{
    const Py_ssize_t len = a->len > DEG ? a->len : DEG;
    PyObject **c = PyMem_Calloc((size_t)len, sizeof *c), *out = NULL;
    if (c == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t k = 0; k < len; k++)
        if ((c[k] = k < a->len ? Py_NewRef(a->n[k]) : PyLong_FromLong(0)) == NULL)
            goto done;
    if (fold_slow(c, a->len) == 0)
        out = canon_slow(c, a->d);
done:
    for (Py_ssize_t k = 0; k < len; k++)
        Py_XDECREF(c[k]);
    PyMem_Free(c);
    return out;
}

#ifdef __SIZEOF_INT128__
/* The int128 path.  Inputs below 2^60 in magnitude: a product's terms
   are below 2^120 and each coefficient sums at most 16 of them, and the
   fold adds at most two more coefficients to each (z^m for 16 <= m < 31
   is one or two powers below 16, with sign), so every value stays below
   3 * 2^124 < 2^127; a sum's terms are below 2^120 + 2^120. */
typedef __int128 i128;
typedef unsigned __int128 u128;

static int ctz128(u128 x)
{
    uint64_t lo = (uint64_t)x;
    return lo ? __builtin_ctzll(lo) : 64 + __builtin_ctzll((uint64_t)(x >> 64));
}

/* Binary gcd, in 64 bits once both fit. */
static u128 gcd128(u128 a, u128 b)
{
    if (a == 0 || b == 0)
        return a | b;
    int shift = ctz128(a | b);
    a >>= ctz128(a);
    while ((a | b) >> 64) {
        b >>= ctz128(b);
        if (a > b) {
            u128 t = a;
            a = b;
            b = t;
        }
        if ((b -= a) == 0)
            return a << shift;
    }
    uint64_t x = (uint64_t)a, y = (uint64_t)b;
    while (y) {
        y >>= __builtin_ctzll(y);
        if (x > y) {
            uint64_t t = x;
            x = y;
            y = t;
        }
        y -= x;
    }
    return (u128)x << shift;
}

static PyObject *from_i128(i128 x)
{
    if (x >= LLONG_MIN && x <= LLONG_MAX)
        return PyLong_FromLongLong((long long)x);
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromNativeBytes(&x, sizeof x, Py_ASNATIVEBYTES_NATIVE_ENDIAN);
#else
    return _PyLong_FromByteArray((const unsigned char *)&x, sizeof x, PY_LITTLE_ENDIAN, 1);
#endif
}

static void fold_fast(i128 *c, Py_ssize_t len)
{
    for (Py_ssize_t m = len - 1; m >= DEG; m--) {
        c[m - 8] += c[m];
        c[m - 16] -= c[m];
    }
}

static PyObject *canon_fast(const i128 *c, u128 d)
{
    u128 g = d;
    for (int k = 0; k < DEG && g != 1; k++)
        if (c[k])
            g = gcd128(g, c[k] < 0 ? -(u128)c[k] : (u128)c[k]);
    PyObject *n = PyTuple_New(DEG), *q = NULL, *out = NULL;
    if (n == NULL)
        return NULL;
    for (int k = 0; k < DEG; k++) {
        PyObject *x = from_i128(g == 1 ? c[k] : c[k] / (i128)g);
        if (x == NULL)
            goto done;
        PyTuple_SET_ITEM(n, k, x);
    }
    if ((q = from_i128((i128)(d / g))) != NULL)
        out = PyTuple_Pack(2, n, q);
done:
    Py_DECREF(n);
    Py_XDECREF(q);
    return out;
}
#endif

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)", name, want, nargs);
    return -1;
}

static PyObject *cyclo_mul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Elem a, b;
    if (check_nargs("cyclo_mul", nargs, 4) < 0 || read_elem(args[0], args[1], DEG, &a) < 0
        || read_elem(args[2], args[3], DEG, &b) < 0)
        return NULL;
#ifdef __SIZEOF_INT128__
    if (a.small && b.small) {
        i128 c[WIDE] = {0};
        for (int i = 0; i < DEG; i++)
            if (a.v[i])
                for (int j = 0; j < DEG; j++)
                    c[i + j] += (i128)a.v[i] * b.v[j];
        fold_fast(c, WIDE);
        return canon_fast(c, (u128)a.dv * (u128)b.dv);
    }
#endif
    return mul_slow(&a, &b);
}

static PyObject *cyclo_add(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Elem a, b;
    if (check_nargs("cyclo_add", nargs, 5) < 0 || read_elem(args[0], args[1], DEG, &a) < 0
        || read_elem(args[2], args[3], DEG, &b) < 0)
        return NULL;
    long s = PyLong_AsLong(args[4]);
    if (s == -1 && PyErr_Occurred())
        return NULL;
    if (s != 1 && s != -1) {
        PyErr_SetString(PyExc_ValueError, "the sign must be 1 or -1");
        return NULL;
    }
#ifdef __SIZEOF_INT128__
    if (a.small && b.small) {
        i128 c[DEG];
        long long f0 = 1, f1 = s;
        if (a.dv != b.dv) {
            long long g = (long long)gcd128((u128)a.dv, (u128)b.dv);
            f0 = b.dv / g;
            f1 = s * (a.dv / g);
        }
        for (int k = 0; k < DEG; k++)
            c[k] = (i128)a.v[k] * f0 + (i128)b.v[k] * f1;
        return canon_fast(c, (u128)a.dv * (u128)f0);
    }
#endif
    return add_slow(&a, &b, (int)s);
}

static PyObject *cyclo_norm(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Elem a;
    if (check_nargs("cyclo_norm", nargs, 2) < 0 || read_elem(args[0], args[1], -1, &a) < 0)
        return NULL;
#ifdef __SIZEOF_INT128__
    if (a.small) {
        i128 c[WIDE] = {0};
        for (Py_ssize_t k = 0; k < a.len; k++)
            c[k] = a.v[k];
        fold_fast(c, a.len);
        return canon_fast(c, (u128)a.dv);
    }
#endif
    return norm_slow(&a);
}

static PyMethodDef methods[] = {
    {"tally_class", tally_class, METH_VARARGS,
     "Histogram of walk endpoints: counts[class, length, contacts]."},
    {"transfer", transfer, METH_VARARGS,
     "Strip transfer operator of height T: (codes, slot, xpow, ypow, row, col, end)."},
    {"spectral_radius", spectral_radius, METH_VARARGS,
     "Spectral radius of M = coo(row, col, w) by power iteration from start, or None."},
    {"bridges", bridges, METH_VARARGS,
     "Turn tuples of the bridges of at most max_len steps, all or (not) irreducible."},
    {"bridge_counts", bridge_counts, METH_VARARGS,
     "counts[height, length] of the bridges of at most max_len steps, as int64."},
    {"stickbreak_sweep", stickbreak_sweep, METH_VARARGS,
     "(bridges, bridges with two diamond points, pairs, failures, first failure or None) of "
     "the stickbreak sweep over the bridges of at most max_len steps."},
    {"walk_facts", walk_facts, METH_VARARGS,
     "(self_avoiding, class, renewal points, diamond points) of the walk (U, V, heading, turns)."},
    {"cyclo_mul", (PyCFunction)(void (*)(void))cyclo_mul, METH_FASTCALL,
     "The canonical (n, d) of the Cyclo48 product (an/ad) * (bn/bd)."},
    {"cyclo_add", (PyCFunction)(void (*)(void))cyclo_add, METH_FASTCALL,
     "The canonical (n, d) of the Cyclo48 sum (an/ad) + s * (bn/bd), s = 1 or -1."},
    {"cyclo_norm", (PyCFunction)(void (*)(void))cyclo_norm, METH_FASTCALL,
     "The canonical (n, d) of n/d, n folded onto 16 numerators."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_dfs",
    .m_doc = "Compiled walk and bridge enumeration, bridge counts, stickbreak sweep, strip "
              "transfer operator, spectral radius, walk facts and Cyclo48 arithmetic.",
    .m_size = -1,
    .m_methods = methods,
};

/* The contract version and the transfer operator's layout constants, as
   the header describes them. */
PyMODINIT_FUNC PyInit__dfs(void)
{
    PyObject *m = PyModule_Create(&module), *kinds = NULL, *math = NULL;
    if (m == NULL || (math = PyImport_ImportModule("math")) == NULL
        || (gcd_fn = PyObject_GetAttrString(math, "gcd")) == NULL
        || PyModule_AddIntConstant(m, "KERNEL_ABI", KERNEL_ABI) < 0
        || PyModule_AddIntConstant(m, "CYCLO_FAST_BITS", FAST_BITS) < 0
        || PyModule_AddIntConstant(m, "T_MAX", T_MAX) < 0
        || PyModule_AddIntConstant(m, "FLAG_SHIFT", FLAG_SHIFT) < 0
        || (kinds = Py_BuildValue("(Osss)", Py_None, "interior", "bottom", "top")) == NULL
        || PyModule_AddObject(m, "END_KINDS", kinds) < 0) {
        Py_XDECREF(kinds);
        Py_XDECREF(math);
        Py_XDECREF(m);
        return NULL;
    }
    Py_DECREF(math);
    return m;
}
