"""Reference implementations the tests trust instead of the package.

Everything here is written for obviousness, not speed, and shares no code
with the solver under test: a literal assignment scan for small cases and
an inclusion-exclusion counting oracle for cases where k**n is out of
reach.  The two oracles are cross-checked against each other where both
are feasible.
"""

from __future__ import annotations

import itertools
import random

import numpy as np


def proper_vertex_assignments(n, edges, k):
    """Yield every proper assignment, scanning all k**n candidates."""
    for assignment in itertools.product(range(k), repeat=n):
        if all(assignment[u] != assignment[v] for u, v in edges):
            yield assignment


def chromatic_number_assignment(n, edges, k_max=None):
    """Smallest k admitting a proper coloring, by literal scan."""
    if n == 0:
        return 0
    if not edges:
        return 1
    limit = k_max if k_max is not None else n
    for k in range(1, limit + 1):
        for _ in proper_vertex_assignments(n, edges, k):
            return k
    raise AssertionError("no proper coloring up to k_max")


def chromatic_number_backtrack(n, edges):
    """Smallest k admitting a proper coloring, by plain backtracking over
    the vertices in breadth-first order, so that every vertex but the first
    of its component has a colored neighbor.  Fast enough for the 2- and
    3-colorings of graphs of a few dozen vertices."""
    if n == 0:
        return 0
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order, seen = [], set()
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for v in queue:
            order.append(v)
            for w in sorted(adj[v] - seen):
                seen.add(w)
                queue.append(w)

    def colorable(k):
        colors = {}

        def place(i):
            if i == n:
                return True
            v = order[i]
            for c in range(k):
                if all(colors.get(w) != c for w in adj[v]):
                    colors[v] = c
                    if place(i + 1):
                        return True
                    del colors[v]
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def edge_chromatic_assignment(n, edges, k_max=None):
    """Edge chromatic number by literal scan over k**m edge assignments."""
    m = len(edges)
    if m == 0:
        return 0
    adjacent = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if set(edges[i]) & set(edges[j])
    ]
    limit = k_max if k_max is not None else m
    for k in range(1, limit + 1):
        for assignment in itertools.product(range(k), repeat=m):
            if all(assignment[i] != assignment[j] for i, j in adjacent):
                return k
    raise AssertionError("no proper edge coloring up to k_max")


def _independent_set_counts(n, edges):
    """i[S] = number of independent subsets of S, for every S, via the
    subset recurrence i(S) = i(S - v) + i(S - v - N(v)) with v = min bit."""
    closed = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    for v in range(n):
        closed[v] |= 1 << v
    counts = np.zeros(1 << n, dtype=np.int64)
    counts[0] = 1
    for v in range(n - 1, -1, -1):
        block = (np.arange(1 << (n - v - 1), dtype=np.int64) << (v + 1)) | (1 << v)
        counts[block] = counts[block ^ (1 << v)] + counts[block & ~closed[v]]
    return counts


def chromatic_number_inclusion_exclusion(n, edges):
    """Exact chromatic number by counting covers of V with k independent
    sets: cover_k = sum over S of (-1)**(n - |S|) * i(S)**k, positive iff
    the graph is k-colorable.  Handles the sizes the literal scan cannot.

    The signed sums are taken over value buckets in exact Python integers,
    so no overflow is possible for any k.
    """
    if n == 0:
        return 0
    if not edges:
        return 1
    counts = _independent_set_counts(n, edges)
    parity = (
        np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64) & 1
    )
    sign_plus = parity == (n & 1)  # subsets S with (-1)**(n - |S|) == +1
    vals_plus, cnt_plus = np.unique(counts[sign_plus], return_counts=True)
    vals_minus, cnt_minus = np.unique(counts[~sign_plus], return_counts=True)
    buckets: dict[int, int] = {}
    for val, cnt in zip(vals_plus.tolist(), cnt_plus.tolist()):
        buckets[val] = buckets.get(val, 0) + cnt
    for val, cnt in zip(vals_minus.tolist(), cnt_minus.tolist()):
        buckets[val] = buckets.get(val, 0) - cnt
    for k in range(1, n + 1):
        cover_k = sum(weight * val**k for val, weight in buckets.items())
        if cover_k > 0:
            return k
    raise AssertionError("graph not n-colorable, impossible")


def edge_chromatic_inclusion_exclusion(n, edges):
    """Edge chromatic number: vertex-color the edge-adjacency graph."""
    m = len(edges)
    if m == 0:
        return 0
    conflict = [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if set(edges[i]) & set(edges[j])
    ]
    return chromatic_number_inclusion_exclusion(m, conflict)


def triangles_brute(n, edges):
    """All vertex triples forming triangles, by the definition."""
    edge_set = {frozenset(e) for e in edges}
    return sorted(
        (a, b, c)
        for a, b, c in itertools.combinations(range(n), 3)
        if {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= edge_set
    )


def isomorphic_brute(n1, edges1, n2, edges2):
    """Permutation scan; fine for n <= 8."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False
    target = {frozenset(e) for e in edges2}
    for perm in itertools.permutations(range(n1)):
        if {frozenset((perm[u], perm[v])) for u, v in edges1} == target:
            return True
    return False


def digraph_isomorphic_brute(n1, arcs1, n2, arcs2):
    if n1 != n2 or len(arcs1) != len(arcs2):
        return False
    target = set(arcs2)
    for perm in itertools.permutations(range(n1)):
        if {(perm[u], perm[v]) for u, v in arcs1} == target:
            return True
    return False


def is_proper_vertex_coloring(edges, colors):
    return all(colors[u] != colors[v] for u, v in edges)


def is_proper_edge_coloring(edges, edge_colors):
    """edge_colors indexed like edges (0-based positions)."""
    m = len(edges)
    for i in range(m):
        for j in range(i + 1, m):
            if set(edges[i]) & set(edges[j]) and edge_colors[i] == edge_colors[j]:
                return False
    return True


def connected_atlas_graphs(max_vertices=7):
    """Every connected graph on 1..max_vertices vertices, as (n, edges),
    from the published atlas ordering."""
    import networkx as nx

    out = []
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if 1 <= n <= max_vertices and nx.is_connected(g):
            out.append((n, sorted(tuple(sorted(e)) for e in g.edges())))
    return out


def smallest_last_order_quadratic(n, edges):
    """Smallest-last vertex order by a full minimum scan per removal: take
    the vertex of least remaining degree, smallest id first, then reverse."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = [len(a) for a in adj]
    removed = [False] * n
    order = []
    for _ in range(n):
        v = min((x for x in range(n) if not removed[x]), key=lambda x: (deg[x], x))
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
    order.reverse()
    return order


def first_fit_colors(n, edges, order):
    """Each vertex in ``order`` gets the least color no colored neighbor has."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colors = [-1] * n
    for v in order:
        used = {colors[w] for w in adj[v]}
        colors[v] = next(c for c in range(n + 1) if c not in used)
    return tuple(colors)


def trace_faces_quadratic(edges, orders):
    """Faces of a rotation system as tuples of darts (tail, head, edge id),
    each traced from the smallest unvisited dart by a full minimum scan.
    Arriving at a vertex along edge e, the walk leaves along the rotation
    successor of e there."""
    succ = {}
    for v, order in enumerate(orders):
        for i, eid in enumerate(order):
            succ[(v, eid)] = order[(i + 1) % len(order)]
    unvisited = set()
    for eid, (u, v) in enumerate(edges, start=1):
        unvisited |= {(u, v, eid), (v, u, eid)}
    faces = []
    while unvisited:
        start = dart = min(unvisited)
        walk = []
        while True:
            walk.append(dart)
            unvisited.discard(dart)
            _, head, eid = dart
            nxt = succ[(head, eid)]
            a, b = edges[nxt - 1]
            dart = (head, b if a == head else a, nxt)
            if dart == start:
                break
        faces.append(tuple(walk))
    return faces


def medial_traced(n, edges, orders):
    """Medial graph of a plane graph whose degrees are all at least 3, from
    a fresh face trace, as (vertex count, sorted edge list, rotation rows).
    Vertex i stands for edges[i].  Each face of the plane graph, and each
    vertex rotation reversed, is a face of the medial graph; at a medial
    corner a -> x -> b the medial edge xb follows xa in x's rotation.  A
    row starts at its vertex's smallest edge id."""
    faces = trace_faces_quadratic(edges, orders)
    face_cycles = [[eid - 1 for _, _, eid in face] for face in faces]
    vertex_cycles = [[eid - 1 for eid in reversed(order)] for order in orders]
    medial = sorted(
        {tuple(sorted((c[i - 1], c[i]))) for c in face_cycles for i in range(len(c))}
    )
    edge_id = {}
    for eid, (u, v) in enumerate(medial, start=1):
        edge_id[u, v] = edge_id[v, u] = eid
    succ = {}
    for c in face_cycles + vertex_cycles:
        for i in range(len(c)):
            a, x, b = c[i - 2], c[i - 1], c[i]
            succ[x, edge_id[a, x]] = edge_id[x, b]
    rows = []
    for x in range(len(edges)):
        first = min(eid for eid, e in enumerate(medial, start=1) if x in e)
        row = [first]
        while succ[x, row[-1]] != first:
            row.append(succ[x, row[-1]])
        rows.append(tuple(row))
    return len(edges), medial, rows


def line_graph_pairs(n, edges):
    """Line graph as (vertex count, sorted edge list), by enumerating the
    pairs of edges at each vertex; vertex i stands for edges[i]."""
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    pairs = [p for ids in incident for p in itertools.combinations(ids, 2)]
    # Two simple edges share at most one endpoint, so no duplicates arise.
    return len(edges), sorted(set(pairs))


def sibling_constraint_edges(n, edges, arcs):
    """The edges of the graph plus every pair of heads of arcs out of one
    vertex and every pair of tails of arcs into one vertex, as a sorted
    edge set; ``arcs`` are (tail, head) pairs."""
    out = {tuple(sorted(e)) for e in edges}
    out_heads, in_tails = {}, {}
    for tail, head in arcs:
        out_heads.setdefault(tail, []).append(head)
        in_tails.setdefault(head, []).append(tail)
    for group in itertools.chain(out_heads.values(), in_tails.values()):
        out.update(itertools.combinations(sorted(group), 2))
    return n, sorted(out)


def rotation_from_oriented_faces(n, edges, faces):
    """Rotation rows whose face tracing reproduces ``faces``, each row
    starting at its vertex's smallest edge id.  Each face is a cyclic
    vertex sequence; at every corner a -> v -> b the edge vb becomes the
    rotation successor of va at v.  Raises ValueError when the corners do
    not chain into one cycle per vertex, i.e. when the faces are not a
    consistent closed embedding."""
    edge_id = {}
    incident = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges, start=1):
        edge_id[u, v] = edge_id[v, u] = eid
        incident[u].append(eid)
        incident[v].append(eid)
    succ = [{} for _ in range(n)]
    for face in faces:
        k = len(face)
        for i in range(k):
            a, v, b = face[i - 1], face[i], face[(i + 1) % k]
            if (a, v) not in edge_id or (v, b) not in edge_id:
                raise ValueError(f"face corner {(a, v, b)} uses a missing edge")
            e_in = edge_id[a, v]
            if e_in in succ[v]:
                raise ValueError(f"corner conflict at vertex {v}: edge {e_in} reused")
            succ[v][e_in] = edge_id[v, b]
    rows = []
    for v in range(n):
        if not incident[v]:
            rows.append(())
            continue
        if set(succ[v]) != set(incident[v]):
            raise ValueError(f"faces do not cover all corners at vertex {v}")
        row = [incident[v][0]]
        while succ[v][row[-1]] != row[0]:
            if len(row) > len(incident[v]):
                raise ValueError(f"corner chaining does not close at vertex {v}")
            row.append(succ[v][row[-1]])
        if len(row) != len(incident[v]):
            raise ValueError(f"corners at vertex {v} split into several cycles")
        rows.append(tuple(row))
    return rows


def medial_chained(n, edges, faces):
    """Medial graph of a plane graph whose degrees are all at least 3, by
    chaining face corners twice, as (vertex count, sorted edge list,
    rotation rows).  The faces, oriented vertex cycles, are chained into
    the plane graph's rotation; then each face, as a cycle of edges, and
    each vertex rotation reversed are chained into the medial's."""
    orders = rotation_from_oriented_faces(n, edges, faces)
    edge_index = {}
    for i, (u, v) in enumerate(edges):
        edge_index[u, v] = edge_index[v, u] = i
    face_cycles = [
        [edge_index[face[i - 1], x] for i, x in enumerate(face)] for face in faces
    ]
    vertex_cycles = [[eid - 1 for eid in reversed(order)] for order in orders]
    medial = sorted(
        {tuple(sorted((c[i - 1], c[i]))) for c in face_cycles for i in range(len(c))}
    )
    m = len(edges)
    rows = rotation_from_oriented_faces(m, medial, face_cycles + vertex_cycles)
    return m, medial, rows


def subdivide_listed(n, edges, orders, count, seed):
    """``count`` distinct edges, drawn as ``random.Random(seed).sample``
    draws them, each replaced by a path through a new vertex numbered in
    edge order, as (vertex count, edge list, rotation rows).  A new vertex's
    row lists its edge to the old edge's smaller end first."""
    chosen = set(random.Random(seed).sample(range(len(edges)), count))
    out, ids, extra = [], {}, []
    for idx, (u, v) in enumerate(edges):
        if idx in chosen:
            w = n + len(extra)
            out += [(u, w), (v, w)]
            ids[idx + 1] = {u: len(out) - 1, v: len(out)}
            extra.append((len(out) - 1, len(out)))
        else:
            out.append((u, v))
            ids[idx + 1] = {u: len(out), v: len(out)}
    rows = [tuple(ids[eid][v] for eid in order) for v, order in enumerate(orders)]
    return n + len(extra), out, rows + extra
