# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled k-coloring search kernel.

Mirrors conjtri._core_py.decide_coloring exactly: same vertex selection,
color order, symmetry cap, and node counting, so both backends produce
identical witnesses and statistics.
"""

import time

from libc.stdint cimport int64_t, uint64_t

SAT = 1
UNSAT = 0
ABORTED = -1

cdef extern from *:
    int __builtin_popcountll(unsigned long long) nogil

DEF MAXN = 64
DEF CHECK_EVERY = 2048


cdef struct SearchState:
    int n
    int k
    uint64_t masks[MAXN]
    int degree[MAXN]
    int colors[MAXN]
    uint64_t sat[MAXN]
    int64_t nodes
    int64_t node_budget
    double deadline
    int aborted


cdef int _recurse(SearchState *st, int uncolored, int used_max):
    cdef int v, best, best_sat, best_deg, s, c, limit, cap, w
    cdef uint64_t avail, bit, rest, touched
    if uncolored == 0:
        return 1
    best = -1
    best_sat = -1
    best_deg = -1
    for v in range(st.n):
        if st.colors[v] >= 0:
            continue
        s = __builtin_popcountll(st.sat[v])
        if s > best_sat or (s == best_sat and st.degree[v] > best_deg):
            best = v
            best_sat = s
            best_deg = st.degree[v]
    v = best
    cap = used_max + 1
    limit = st.k - 1 if cap >= st.k else cap
    avail = (~st.sat[v]) & (~(<uint64_t>0) >> (63 - limit))
    while avail:
        c = __builtin_popcountll((avail & (~avail + 1)) - 1)
        avail &= avail - 1
        st.nodes += 1
        if st.node_budget and st.nodes > st.node_budget:
            st.aborted = 1
            return 0
        if st.deadline and st.nodes % CHECK_EVERY == 0:
            if time.monotonic() > st.deadline:
                st.aborted = 1
                return 0
        st.colors[v] = c
        bit = <uint64_t>1 << c
        touched = 0
        rest = st.masks[v]
        while rest:
            w = __builtin_popcountll((rest & (~rest + 1)) - 1)
            rest &= rest - 1
            if st.colors[w] < 0 and not (st.sat[w] & bit):
                st.sat[w] |= bit
                touched |= <uint64_t>1 << w
        if _recurse(st, uncolored - 1, c if c > used_max else used_max):
            return 1
        if st.aborted:
            return 0
        rest = touched
        while rest:
            w = __builtin_popcountll((rest & (~rest + 1)) - 1)
            rest &= rest - 1
            st.sat[w] &= ~bit
        st.colors[v] = -1
    return 0


def decide_coloring(int n, masks, int k, pinned, node_budget=0, deadline=0.0):
    """See conjtri._core_py.decide_coloring."""
    cdef SearchState st
    cdef int v, c, w, uncolored, used_max, found
    cdef uint64_t bit, rest
    if n > 64 or k > 64:
        raise ValueError("kernel limited to 64 vertices / colors")
    if k <= 0:
        return (UNSAT if n else SAT, [] if not n else None, 0)

    st.n = n
    st.k = k
    st.nodes = 0
    st.node_budget = node_budget
    st.deadline = deadline
    st.aborted = 0
    for v in range(n):
        st.masks[v] = masks[v]
        st.degree[v] = __builtin_popcountll(st.masks[v])
        st.colors[v] = -1
        st.sat[v] = 0

    uncolored = n
    used_max = -1
    for v in range(n):
        c = pinned[v]
        if c < 0:
            continue
        if c >= k:
            return UNSAT, None, 0
        if (st.sat[v] >> c) & 1:
            return UNSAT, None, 0
        st.colors[v] = c
        uncolored -= 1
        if c > used_max:
            used_max = c
        bit = <uint64_t>1 << c
        rest = st.masks[v]
        while rest:
            w = __builtin_popcountll((rest & (~rest + 1)) - 1)
            rest &= rest - 1
            st.sat[w] |= bit

    found = _recurse(&st, uncolored, used_max)
    if st.aborted:
        return ABORTED, None, st.nodes
    if found:
        return SAT, [st.colors[v] for v in range(n)], st.nodes
    return UNSAT, None, st.nodes
