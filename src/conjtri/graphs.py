"""Basic graph representations and structural queries.

Vertices are integers ``0..vertex_count-1``.  Edges carry stable 1-based ids
given by their position in the edge list, so derived objects (line graphs,
circuits, pair colorings) can refer to edges across serialization.
All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence


class SizeLimitError(ValueError):
    """Input exceeds the configured size cap of an exact search."""


class RotationError(ValueError):
    """A rotation system does not match the incidence structure of its graph."""


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending; the loop runs once
    per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: no loops, no parallel edges.

    ``edges[i]`` is the edge with id ``i + 1``; endpoints are stored
    normalized as ``(min, max)``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        normalized = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"parallel edge {e}")
            seen.add(e)
            normalized.append(e)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(normalized))

    @classmethod
    def from_trusted_edges(
        cls, edges: Sequence[tuple[int, int]], degrees: Sequence[int]
    ) -> "UndirectedGraph":
        """The graph on ``len(degrees)`` vertices with these edges and
        degrees cached, taken as they are: each edge ``(min, max)``, in range
        and distinct.  Callers derive them from a graph, so they are not
        checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertex_count", len(degrees))
        object.__setattr__(g, "edges", tuple(edges))
        g.__dict__["degrees"] = tuple(degrees)
        return g

    @classmethod
    def from_masks(cls, masks: Sequence[int]) -> "UndirectedGraph":
        """The graph whose vertex ``v`` has neighbor bitmask ``masks[v]``,
        edges in sorted order, with its masks and degrees cached.  The masks
        must be symmetric with a clear diagonal; callers derive them from a
        graph, so they are trusted."""
        edges = []
        for u, m in enumerate(masks):
            m >>= u + 1
            while m:
                low = m & -m
                edges.append((u, u + low.bit_length()))
                m ^= low
        g = cls.from_trusted_edges(edges, [m.bit_count() for m in masks])
        g.__dict__["masks"] = tuple(masks)
        return g

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks: bit ``w`` of ``masks[v]`` is set iff ``vw`` is
        an edge.  The coloring steps read the graph through these.  Parsing
        and validation never build them, because the masks of a sparse
        graph on V vertices can total about V**2 / 2 bits."""
        masks = [0] * self.vertex_count
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def incident_edge_ids(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, ascending."""
        inc = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges, start=1):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(lst) for lst in inc)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Vertex partition into connectivity classes, each ascending,
        ordered by smallest member.  The search walks the incident edges, so
        it is linear in V + E."""
        edges, incident = self.edges, self.incident_edge_ids
        seen = [False] * self.vertex_count
        blocks = []
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            block = []
            while stack:
                u = stack.pop()
                block.append(u)
                for eid in incident[u]:
                    a, b = edges[eid - 1]
                    w = a + b - u
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.incident_edge_ids))

    def edge_by_id(self, eid: int) -> tuple[int, int]:
        if not 1 <= eid <= len(self.edges):
            raise ValueError(f"edge id {eid} out of range")
        return self.edges[eid - 1]

    def other_endpoint(self, eid: int, v: int) -> int:
        a, b = self.edge_by_id(eid)
        if v == a:
            return b
        if v == b:
            return a
        raise ValueError(f"vertex {v} not an endpoint of edge {eid}")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)


@dataclass(frozen=True)
class Digraph:
    """Simple directed graph: no loops, at most one arc per ordered pair.

    ``arcs[i]`` is the arc with id ``i + 1``.  Opposite arcs ``(u, v)`` and
    ``(v, u)`` may coexist; they model doubled connections.
    """

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, arcs: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        seen = set()
        stored = []
        for u, v in arcs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"arc ({u}, {v}) outside vertex range")
            if (u, v) in seen:
                raise ValueError(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
            stored.append((u, v))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", tuple(stored))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        out = [0] * self.vertex_count
        for u, _ in self.arcs:
            out[u] += 1
        return tuple(out)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        inn = [0] * self.vertex_count
        for _, v in self.arcs:
            inn[v] += 1
        return tuple(inn)

    @cached_property
    def successors(self) -> tuple[frozenset[int], ...]:
        succ = [set() for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            succ[u].add(v)
        return tuple(frozenset(s) for s in succ)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Square 0/1 matrix with zero diagonal."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        k = len(rows)
        for i, row in enumerate(rows):
            if len(row) != k:
                raise ValueError("matrix must be square")
            for j, x in enumerate(row):
                if x not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if i == j and x:
                    raise ValueError("diagonal must be zero")
        object.__setattr__(self, "entries", rows)

    @property
    def order(self) -> int:
        return len(self.entries)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(self.order))

    @property
    def total(self) -> int:
        return sum(self.row_sums)

    def to_digraph(self) -> Digraph:
        arcs = [
            (i, j)
            for i in range(self.order)
            for j in range(self.order)
            if self.entries[i][j]
        ]
        return Digraph(self.order, arcs)

    @classmethod
    def from_digraph(cls, d: Digraph) -> "AdjacencyMatrix":
        k = d.vertex_count
        grid = [[0] * k for _ in range(k)]
        for u, v in d.arcs:
            grid[u][v] = 1
        return cls(grid)


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of incident edge ids around each vertex."""

    orders: tuple[tuple[int, ...], ...]

    def __init__(self, orders: Iterable[Iterable[int]]):
        object.__setattr__(
            self, "orders", tuple(tuple(int(e) for e in o) for o in orders)
        )

    @classmethod
    def from_rows(
        cls, vertex_count: int, rows: dict[int, tuple[int, ...]]
    ) -> "RotationSystem":
        """Row ``rows[v]``, a tuple of ints, at each listed vertex and an
        empty row at every other one, filled without a loop per vertex."""
        orders: list[tuple[int, ...]] = [()] * vertex_count
        for v, row in rows.items():
            orders[v] = row
        rot = object.__new__(cls)
        object.__setattr__(rot, "orders", tuple(orders))
        return rot

    def validate(self, g: UndirectedGraph) -> None:
        if len(self.orders) != g.vertex_count:
            raise RotationError(
                f"rotation covers {len(self.orders)} vertices, graph has {g.vertex_count}"
            )
        v = self.mismatched_vertex(g)
        if v is not None:
            raise RotationError(
                f"rotation at vertex {v} is not a permutation of its incident edges"
            )

    def mismatched_vertex(
        self, g: UndirectedGraph, vertices: Optional[Iterable[int]] = None
    ) -> Optional[int]:
        """The first vertex of ``vertices`` (default: all, ascending) whose
        row is not a permutation of its incident edge ids, or None.
        Incidence comes from the edge list, so isolated vertices cost
        nothing beyond their own (empty) rows."""
        incident: dict[int, set[int]] = {}
        for eid, (u, v) in enumerate(g.edges, start=1):
            incident.setdefault(u, set()).add(eid)
            incident.setdefault(v, set()).add(eid)
        isolated: frozenset[int] = frozenset()
        for v in range(len(self.orders)) if vertices is None else vertices:
            order = self.orders[v]
            row = set(order)
            if len(row) != len(order) or row != incident.get(v, isolated):
                return v
        return None


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    max_degree: int
    all_even: bool
    histogram: dict[int, int] = field(hash=False)


def degree_profile(g: UndirectedGraph) -> DegreeProfile:
    degs = g.degrees
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    return DegreeProfile(
        degrees=degs,
        max_degree=max(degs, default=0),
        all_even=all(d % 2 == 0 for d in degs),
        histogram=hist,
    )


def is_connected(g: UndirectedGraph) -> bool:
    return len(g.components) <= 1


def find_triangles(g: UndirectedGraph) -> list[tuple[int, int, int]]:
    """All 3-cliques as sorted triples, in lexicographic order."""
    masks = g.masks
    out = []
    for u, v in g.edges:
        for w in mask_bits((masks[u] & masks[v]) >> (v + 1)):
            out.append((u, v, v + 1 + w))
    return sorted(out)


def _vertex_triangle_counts(g: UndirectedGraph) -> list[int]:
    counts = [0] * g.vertex_count
    for a, b, c in find_triangles(g):
        counts[a] += 1
        counts[b] += 1
        counts[c] += 1
    return counts


def are_isomorphic(
    g1: UndirectedGraph | Digraph,
    g2: UndirectedGraph | Digraph,
    max_vertices: int = 10,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Backtracking isomorphism test for small graphs.

    Returns ``(found, mapping)`` where ``mapping[v]`` is the image of vertex
    ``v`` of ``g1`` in ``g2``.  Both arguments must be the same kind of graph.
    Raises SizeLimitError above ``max_vertices``.
    """
    directed = isinstance(g1, Digraph)
    if directed != isinstance(g2, Digraph):
        raise TypeError("cannot compare a directed graph with an undirected one")
    n = g1.vertex_count
    if n != g2.vertex_count:
        return False, None
    if n > max_vertices:
        raise SizeLimitError(
            f"isomorphism search capped at {max_vertices} vertices, got {n}"
        )

    if directed:
        if len(g1.arcs) != len(g2.arcs):
            return False, None
        inv1 = [(g1.out_degrees[v], g1.in_degrees[v]) for v in range(n)]
        inv2 = [(g2.out_degrees[v], g2.in_degrees[v]) for v in range(n)]
        succ1, succ2 = g1.successors, g2.successors
        pred1 = [frozenset(u for u in range(n) if v in succ1[u]) for v in range(n)]
        pred2 = [frozenset(u for u in range(n) if v in succ2[u]) for v in range(n)]
    else:
        if len(g1.edges) != len(g2.edges):
            return False, None
        t1, t2 = _vertex_triangle_counts(g1), _vertex_triangle_counts(g2)
        inv1 = [(g1.degrees[v], t1[v]) for v in range(n)]
        inv2 = [(g2.degrees[v], t2[v]) for v in range(n)]
    if sorted(inv1) != sorted(inv2):
        return False, None

    # Most-constrained-first: rare invariant classes early, ties by id.
    class_size: dict = {}
    for iv in inv1:
        class_size[iv] = class_size.get(iv, 0) + 1
    order = sorted(range(n), key=lambda v: (class_size[inv1[v]], v))

    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or inv1[v] != inv2[w]:
                continue
            ok = True
            for x in order[:idx]:
                mx = mapping[x]
                if directed:
                    if (x in pred1[v]) != (mx in pred2[w]):
                        ok = False
                        break
                    if (v in pred1[x]) != (w in pred2[mx]):
                        ok = False
                        break
                else:
                    if (g1.masks[v] >> x & 1) != (g2.masks[w] >> mx & 1):
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(idx + 1):
                return True
            mapping[v] = -1
            used[w] = False
        return False

    if extend(0):
        return True, tuple(mapping)
    return False, None


def faces_and_genus_check(
    g: UndirectedGraph, rot: RotationSystem
) -> tuple[list[tuple[tuple[int, int, int], ...]], bool]:
    """Trace the faces of a rotation system and test Euler's formula.

    A face is a tuple of darts ``(tail, head, edge_id)``.  The verdict is
    true iff the graph is connected and V - E + F = 2, which certifies a
    planar (genus 0) embedding.  Leaving a vertex, the walk continues along
    the rotation successor of the edge it arrived by.
    """
    rot.validate(g)
    n, m = g.vertex_count, g.edge_count
    if m == 0:
        face_total = 1 if n >= 1 else 0
        verdict = is_connected(g) and (n - m + face_total == 2)
        return [], verdict

    next_pos = {}
    for v in range(n):
        order = rot.orders[v]
        d = len(order)
        for i, eid in enumerate(order):
            next_pos[(v, eid)] = order[(i + 1) % d]

    darts = sorted(
        d for eid, (u, v) in enumerate(g.edges, start=1) for d in ((u, v, eid), (v, u, eid))
    )
    # A face is traced from its smallest dart, so faces come in that order.
    visited = set()
    faces = []
    for start in darts:
        if start in visited:
            continue
        walk = []
        dart = start
        while True:
            walk.append(dart)
            visited.add(dart)
            _, head, eid = dart
            nxt_edge = next_pos[(head, eid)]
            dart = (head, g.other_endpoint(nxt_edge, head), nxt_edge)
            if dart == start:
                break
        faces.append(tuple(walk))

    verdict = is_connected(g) and (n - m + len(faces) == 2)
    return faces, verdict


def rotation_from_oriented_faces(
    g: UndirectedGraph, faces: Iterable[tuple[int, ...]]
) -> RotationSystem:
    """Build the rotation system whose face tracing reproduces ``faces``.

    Each face is a cyclic vertex sequence; consecutive vertices must be
    adjacent in ``g``.  At every corner ``a -> v -> b`` the edge ``vb``
    becomes the rotation successor of ``va`` at ``v``.  Raises RotationError
    when the corners do not chain into one cycle per vertex, i.e. when the
    faces are not a consistent closed embedding.
    """
    edge_id = {}
    for eid, (u, v) in enumerate(g.edges, start=1):
        edge_id[(u, v)] = eid
        edge_id[(v, u)] = eid

    succ: list[dict[int, int]] = [dict() for _ in range(g.vertex_count)]
    for face in faces:
        k = len(face)
        for i in range(k):
            a, v, b = face[i - 1], face[i], face[(i + 1) % k]
            try:
                e_in, e_out = edge_id[(a, v)], edge_id[(v, b)]
            except KeyError as exc:
                raise RotationError(f"face corner {(a, v, b)} uses a missing edge") from exc
            if e_in in succ[v]:
                raise RotationError(f"corner conflict at vertex {v}: edge {e_in} reused")
            succ[v][e_in] = e_out

    orders = []
    for v in range(g.vertex_count):
        incident = g.incident_edge_ids[v]
        if not incident:
            orders.append(())
            continue
        if set(succ[v]) != set(incident):
            raise RotationError(f"faces do not cover all corners at vertex {v}")
        cycle = [incident[0]]
        while True:
            nxt = succ[v][cycle[-1]]
            if nxt == cycle[0]:
                break
            if len(cycle) > len(incident):
                raise RotationError(f"corner chaining does not close at vertex {v}")
            cycle.append(nxt)
        if len(cycle) != len(incident):
            raise RotationError(f"corners at vertex {v} split into several cycles")
        orders.append(tuple(cycle))
    return RotationSystem(orders)
