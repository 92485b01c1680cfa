/* Compiled k-coloring search kernel.
 *
 * Mirrors conjtri._core_py.decide_coloring exactly: same argument checks,
 * vertex selection, color order, symmetry cap and node counting, so both
 * backends return identical statuses, witnesses and node counts.  Vertices
 * are indices into ``masks``; ``masks[v]`` is the neighbor bitmask of v, so
 * n and k are limited to the 64 bits of a uint64_t.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

enum { UNSAT = 0, SAT = 1, ABORTED = -1 };

#define MAXN 64

typedef struct {
    int n;
    int k;
    uint64_t masks[MAXN];
    int degree[MAXN];
    int colors[MAXN];
    uint64_t sat[MAXN];
    long long nodes;
    long long node_budget;
    int aborted;
} SearchState;

static int
recurse(SearchState *st, int uncolored, int used_max)
{
    int v, best = -1, best_sat = -1, best_deg = -1, s, c, limit, cap, w;
    uint64_t avail, bit, rest, touched;

    if (uncolored == 0)
        return 1;
    for (v = 0; v < st->n; v++) {
        if (st->colors[v] >= 0)
            continue;
        s = __builtin_popcountll(st->sat[v]);
        if (s > best_sat || (s == best_sat && st->degree[v] > best_deg)) {
            best = v;
            best_sat = s;
            best_deg = st->degree[v];
        }
    }
    v = best;
    cap = used_max + 1;
    limit = cap >= st->k ? st->k - 1 : cap;
    /* Colors 0..limit; limit <= 63, so the shift never reaches 64. */
    avail = ~st->sat[v] & (~(uint64_t)0 >> (63 - limit));
    while (avail) {
        c = __builtin_ctzll(avail);
        avail &= avail - 1;
        st->nodes += 1;
        if (st->node_budget && st->nodes > st->node_budget) {
            st->aborted = 1;
            return 0;
        }
        st->colors[v] = c;
        bit = (uint64_t)1 << c;
        touched = 0;
        rest = st->masks[v];
        while (rest) {
            w = __builtin_ctzll(rest);
            rest &= rest - 1;
            if (st->colors[w] < 0 && !(st->sat[w] & bit)) {
                st->sat[w] |= bit;
                touched |= (uint64_t)1 << w;
            }
        }
        if (recurse(st, uncolored - 1, c > used_max ? c : used_max))
            return 1;
        if (st->aborted)
            return 0;
        rest = touched;
        while (rest) {
            w = __builtin_ctzll(rest);
            rest &= rest - 1;
            st->sat[w] &= ~bit;
        }
        st->colors[v] = -1;
    }
    return 0;
}

/* Read masks[v] into *out.  A value that is negative, needs more than 64
 * bits, or has a bit at or above n is a ValueError. */
static int
read_mask(PyObject *masks, int v, int n, uint64_t *out)
{
    PyObject *item, *num;
    unsigned long long m;

    item = PySequence_GetItem(masks, v);
    if (item == NULL)
        return -1;
    num = PyNumber_Index(item);
    Py_DECREF(item);
    if (num == NULL)
        return -1;
    m = PyLong_AsUnsignedLongLong(num);
    Py_DECREF(num);
    if (m == (unsigned long long)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (n == 64 || (m >> n) == 0) {
        *out = m;
        return 0;
    }
    PyErr_Format(PyExc_ValueError,
                 "mask of vertex %d has a bit outside vertices 0..%d", v, n - 1);
    return -1;
}

/* Read pinned[v] into *out, clamped to -1..65: the kernel only needs to
 * know whether a pin is negative, a color, or at least k. */
static int
read_pin(PyObject *pinned, int v, int *out)
{
    PyObject *item;
    long long c;
    int overflow;

    item = PySequence_GetItem(pinned, v);
    if (item == NULL)
        return -1;
    c = PyLong_AsLongLongAndOverflow(item, &overflow);
    Py_DECREF(item);
    if (c == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || c < 0)
        *out = -1;
    else if (overflow > 0 || c > MAXN)
        *out = MAXN + 1;
    else
        *out = (int)c;
    return 0;
}

static PyObject *
decide_coloring(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "masks", "k", "pinned", "node_budget", NULL};
    SearchState st;
    int n, k, v, c, w, uncolored, used_max, found;
    long long node_budget = 0;
    PyObject *masks, *pinned, *witness, *color;
    uint64_t bit, rest;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iOiO|L:decide_coloring", kwlist,
                                     &n, &masks, &k, &pinned, &node_budget))
        return NULL;
    if (n > MAXN || k > MAXN) {
        PyErr_SetString(PyExc_ValueError, "kernel limited to 64 vertices / colors");
        return NULL;
    }
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "vertex count must be non-negative");
        return NULL;
    }
    for (v = 0; v < n; v++) {
        if (read_mask(masks, v, n, &st.masks[v]) < 0)
            return NULL;
    }
    if (k <= 0) {
        if (n)
            return Py_BuildValue("(iOi)", UNSAT, Py_None, 0);
        return Py_BuildValue("(iNi)", SAT, PyList_New(0), 0);
    }

    st.n = n;
    st.k = k;
    st.nodes = 0;
    st.node_budget = node_budget;
    st.aborted = 0;
    for (v = 0; v < n; v++) {
        st.degree[v] = __builtin_popcountll(st.masks[v]);
        st.colors[v] = -1;
        st.sat[v] = 0;
    }

    uncolored = n;
    used_max = -1;
    for (v = 0; v < n; v++) {
        if (read_pin(pinned, v, &c) < 0)
            return NULL;
        if (c < 0)
            continue;
        if (c >= k)
            return Py_BuildValue("(iOi)", UNSAT, Py_None, 0);
        /* Conflicts with an earlier pin; pins are processed in id order. */
        if ((st.sat[v] >> c) & 1)
            return Py_BuildValue("(iOi)", UNSAT, Py_None, 0);
        st.colors[v] = c;
        uncolored -= 1;
        if (c > used_max)
            used_max = c;
        bit = (uint64_t)1 << c;
        rest = st.masks[v];
        while (rest) {
            w = __builtin_ctzll(rest);
            rest &= rest - 1;
            st.sat[w] |= bit;
        }
    }

    found = recurse(&st, uncolored, used_max);
    if (st.aborted)
        return Py_BuildValue("(iOL)", ABORTED, Py_None, st.nodes);
    if (!found)
        return Py_BuildValue("(iOL)", UNSAT, Py_None, st.nodes);
    witness = PyList_New(n);
    if (witness == NULL)
        return NULL;
    for (v = 0; v < n; v++) {
        color = PyLong_FromLong(st.colors[v]);
        if (color == NULL) {
            Py_DECREF(witness);
            return NULL;
        }
        PyList_SET_ITEM(witness, v, color);
    }
    return Py_BuildValue("(iNL)", SAT, witness, st.nodes);
}

static PyMethodDef core_methods[] = {
    {"decide_coloring", (PyCFunction)(void (*)(void))decide_coloring,
     METH_VARARGS | METH_KEYWORDS,
     "decide_coloring(n, masks, k, pinned, node_budget=0)\n--\n\n"
     "See conjtri._core_py.decide_coloring."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "conjtri._core",
    .m_doc = "Compiled twin of conjtri._core_py: the k-coloring search kernel.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
