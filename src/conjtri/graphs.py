"""Basic graph representations and structural queries.

Vertices are integers ``0..vertex_count-1``.  Edges carry stable 1-based ids
given by their position in the edge list, so derived objects (line graphs,
circuits, pair colorings) can refer to edges across serialization.
All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return cls.from_trusted_orders(orders)

    @classmethod
    def from_trusted_orders(
        cls, orders: Sequence[tuple[int, ...]]
    ) -> "RotationSystem":
        """The rotation with these rows, tuples of ints, taken as they are.
        Callers build them from a graph's edge ids, so the ``int`` pass of
        the constructor is skipped."""
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
            _raise_mismatch(v)

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


def is_connected(g: UndirectedGraph) -> bool:
    return len(g.components) <= 1


def faces_and_genus_check(
    g: UndirectedGraph, rot: RotationSystem
) -> tuple[list[tuple[tuple[int, int, int], ...]], bool]:
    """Trace the faces of a rotation system and test Euler's formula.

    A face is a tuple of darts ``(tail, head, edge_id)``.  The verdict is
    true iff the graph is connected and V - E + F = 2, which certifies a
    planar (genus 0) embedding.  Leaving a vertex, the walk continues along
    the rotation successor of the edge it arrived by.  The loop that builds
    the successor table also checks each row, so a rotation that is not a
    permutation of the incident edges raises RotationError naming the
    first such vertex, as ``RotationSystem.validate`` would.
    """
    n, m = g.vertex_count, g.edge_count
    if len(rot.orders) != n:
        raise RotationError(
            f"rotation covers {len(rot.orders)} vertices, graph has {n}"
        )
    edges, degrees = g.edges, g.degrees
    next_edge: dict[tuple[int, int], int] = {}
    for v, order in enumerate(rot.orders):
        d = len(order)
        if d != degrees[v]:
            _raise_mismatch(v)
        for i, eid in enumerate(order):
            if not (0 < eid <= m and v in edges[eid - 1]) or (v, eid) in next_edge:
                _raise_mismatch(v)
            next_edge[v, eid] = order[i + 1 - d]
    if m == 0:
        face_total = 1 if n >= 1 else 0
        verdict = is_connected(g) and (n - m + face_total == 2)
        return [], verdict

    darts = sorted(
        d for eid, (u, v) in enumerate(edges, start=1) for d in ((u, v, eid), (v, u, eid))
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
            nxt = next_edge[head, eid]
            a, b = edges[nxt - 1]
            dart = (head, a + b - head, nxt)
            if dart == start:
                break
        faces.append(tuple(walk))

    verdict = is_connected(g) and (n - m + len(faces) == 2)
    return faces, verdict


def _raise_mismatch(v: int) -> None:
    raise RotationError(
        f"rotation at vertex {v} is not a permutation of its incident edges"
    )
