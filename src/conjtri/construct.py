"""Derived objects for planar graphs whose degrees are all 2 or 4.

Covers instance validation, the edge-adjacency (line) graph, Euler circuits
with a fixed tie-breaking rule, circuit-based orientations, and seeded
generators for desk-scale corpora (stacked triangulations, medial graphs,
edge subdivisions).
"""

from __future__ import annotations

import random
from itertools import repeat
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .graphs import (
    RotationError,
    RotationSystem,
    UndirectedGraph,
    faces_and_genus_check,
)

ALLOWED_DEGREES = (2, 4)


class CircuitMismatchError(ValueError):
    """An Euler circuit does not belong to the graph it is applied to."""


class NotConjugatedError(ValueError):
    """A graph offered where a validated instance is required fell short."""

    def __init__(self, failed_checks):
        self.failed_checks = tuple(failed_checks)
        super().__init__(
            f"not a valid instance; failing checks: {list(self.failed_checks)}"
        )


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


Face = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class ConjugatedTriangulation:
    """A validated instance: connected, loop-free, every degree 2 or 4,
    and planar whenever a rotation system is supplied.  ``faces`` are the
    faces that validation traced from the rotation, as darts
    ``(tail, head, edge_id)`` (see ``faces_and_genus_check``), or None
    without a rotation."""

    graph: UndirectedGraph
    rotation: Optional[RotationSystem]
    validation: ValidationReport
    faces: Optional[tuple[Face, ...]] = None


@dataclass(frozen=True)
class EulerCircuit:
    """Closed walk v0, e1, v1, ..., em, vm with vm = v0 covering every edge once."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class OrientedConjugated:
    base: ConjugatedTriangulation
    arc_of_edge: dict[int, tuple[int, int]]  # edge id -> (tail, head)


def validate_conjugated(
    g: UndirectedGraph, rot: Optional[RotationSystem] = None
) -> Union[ConjugatedTriangulation, ValidationReport]:
    """Run every structural check; failures are data, not faults.

    Returns the validated instance when all checks pass (planarity counts
    as passed only when a rotation system certifies it; without one it is
    recorded as skipped), otherwise the full report.  The instance keeps
    the faces traced for the planarity check.
    """
    checks = []
    # Loop/parallel freedom is enforced by the UndirectedGraph constructor.
    checks.append(CheckResult("loop_free", "pass"))
    checks.append(CheckResult("parallel_free", "pass"))

    bad_deg = tuple(
        v for v in range(g.vertex_count) if g.degrees[v] not in ALLOWED_DEGREES
    )
    checks.append(
        CheckResult("degrees", "pass" if not bad_deg else "fail", bad_deg)
    )

    comps = g.components
    if len(comps) == 1:
        checks.append(CheckResult("connected", "pass"))
    else:
        checks.append(
            CheckResult("connected", "fail", comps)
        )

    faces = None
    if rot is None:
        checks.append(CheckResult("planarity", "skipped"))
    else:
        try:
            faces, verdict = faces_and_genus_check(g, rot)
        except RotationError as exc:
            checks.append(CheckResult("planarity", "fail", (str(exc),)))
        else:
            checks.append(CheckResult("planarity", "pass" if verdict else "fail"))

    report = ValidationReport(tuple(checks))
    if report.passed:
        return ConjugatedTriangulation(
            g, rot, report, None if faces is None else tuple(faces)
        )
    return report


def require_conjugated(
    g: UndirectedGraph, rot: Optional[RotationSystem] = None
) -> ConjugatedTriangulation:
    result = validate_conjugated(g, rot)
    if isinstance(result, ValidationReport):
        raise NotConjugatedError(
            c.name for c in result.checks if c.status == "fail"
        )
    return result


def line_graph_of(g: UndirectedGraph) -> UndirectedGraph:
    """Edge-adjacency graph: one vertex per edge of ``g``, adjacent iff the
    edges share an endpoint.  Vertex ``i`` stands for edge id ``i + 1``.
    ``inc[v]`` lists the edges at ``v`` ascending, and as the edges are
    visited in order ``pos[v]`` moves past the current one, so edge ``uv``'s
    later neighbors are the two runs after ``pos[u]`` and ``pos[v]``.  The
    work is linear in the line graph's size, and its neighbor masks are
    left for the capped coloring steps to build."""
    inc = [[] for _ in range(g.vertex_count)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append(i)
        inc[v].append(i)
    pos = [0] * g.vertex_count
    edges = []
    for i, (u, v) in enumerate(g.edges):
        pu = pos[u] = pos[u] + 1
        pv = pos[v] = pos[v] + 1
        edges.extend(zip(repeat(i), sorted(inc[u][pu:] + inc[v][pv:])))
    degrees = [len(inc[u]) + len(inc[v]) - 2 for u, v in g.edges]
    return UndirectedGraph.from_trusted_edges(edges, degrees)


def euler_circuit(
    h: Union[ConjugatedTriangulation, UndirectedGraph]
) -> EulerCircuit:
    """Hierholzer traversal from vertex 0; ties broken by always leaving a
    vertex along the smallest unused edge id, so the circuit is
    reproducible.  The graph must be a validated instance's, or that
    instance's bare graph: connected, with edges, all degrees even.
    Validation has proved this, so it is not checked again."""
    g = h.graph if isinstance(h, ConjugatedTriangulation) else h
    edges = g.edges
    unused: list[list[int]] = [list(reversed(ids)) for ids in g.incident_edge_ids]
    used = [False] * (g.edge_count + 1)
    # The walk's vertices and the edges it arrived by, in two parallel stacks.
    stack, arrived_by = [0], [0]
    path: list[int] = []
    path_edges: list[int] = []
    while stack:
        v = stack[-1]
        rest = unused[v]
        while rest and used[rest[-1]]:
            rest.pop()
        if rest:
            eid = rest.pop()
            used[eid] = True
            a, b = edges[eid - 1]
            stack.append(a + b - v)
            arrived_by.append(eid)
        else:
            path.append(stack.pop())
            path_edges.append(arrived_by.pop())
    path.reverse()
    path_edges.reverse()
    return EulerCircuit(tuple(path), tuple(path_edges[1:]))


def orient_along_circuit(
    h: ConjugatedTriangulation, c: EulerCircuit
) -> OrientedConjugated:
    """Direct every edge in the traversal direction of the circuit.  Each
    step is checked against the graph: a known edge id, joining the step's
    tail and head (compared with the edge's stored ``(min, max)`` form),
    and not traversed before."""
    g = h.graph
    edges, m = g.edges, g.edge_count
    vertices = c.vertices
    if c.length != m or not vertices or vertices[0] != vertices[-1]:
        raise CircuitMismatchError("circuit does not cover this graph")
    arc_of_edge: dict[int, tuple[int, int]] = {}
    for eid, tail, head in zip(c.edge_ids, vertices, vertices[1:]):
        if not 1 <= eid <= m:
            raise CircuitMismatchError(f"unknown edge id {eid}")
        if edges[eid - 1] != ((tail, head) if tail < head else (head, tail)):
            raise CircuitMismatchError(f"edge {eid} does not join {tail} and {head}")
        if eid in arc_of_edge:
            raise CircuitMismatchError(f"edge {eid} traversed twice")
        arc_of_edge[eid] = (tail, head)
    return OrientedConjugated(h, arc_of_edge)


def generate_stacked_triangulation(
    inserts: int, seed: int
) -> tuple[UndirectedGraph, list[tuple[int, int, int]]]:
    """Grow a planar triangulation from a triangle by repeatedly placing a
    new vertex inside a uniformly chosen face and joining it to the three
    corners.  Both sides of the starting triangle count as faces, so the
    outer face may be subdivided too.  Returns the graph and its faces as
    oriented vertex triples, the faces of its planar embedding.  Each new
    vertex exceeds every old one, so its three edges are stored as
    ``(min, max)`` and are new: the graph is built without a check."""
    if inserts < 0:
        raise ValueError("inserts must be non-negative")
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    degrees = [2, 2, 2]
    faces = [(0, 1, 2), (2, 1, 0)]
    for w in range(3, 3 + inserts):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += ((a, w), (b, w), (c, w))
        degrees[a] += 1
        degrees[b] += 1
        degrees[c] += 1
        degrees.append(3)
        faces += ((a, b, w), (b, c, w), (c, a, w))
    return UndirectedGraph.from_trusted_edges(edges, degrees), faces


def medial_graph(
    t: UndirectedGraph, faces: Sequence[Sequence[int]]
) -> tuple[UndirectedGraph, RotationSystem]:
    """Graph on the edges of a plane graph ``t``; two are adjacent iff they
    are consecutive around a face.  For a cycle the medial is the cycle
    itself; otherwise every vertex of ``t`` must have degree >= 3, which
    rules out digon corners and makes the result simple and 4-regular.
    ``faces`` are the faces of a planar embedding of ``t`` as oriented
    vertex cycles, as ``generate_stacked_triangulation`` returns them.

    Medial vertex ``x`` stands for the edge ``t.edges[x]``, and each face
    corner, two consecutive edges of a face, is a medial edge.  Edge ``x``
    lies on two corners, ``p1 -> x -> n1`` and ``p2 -> x -> n2`` (the edges
    before and after it around its two faces), and its rotation row is the
    cycle of medial edges to ``p1, n1, p2, n2``.  The faces are not traced.
    Cheap checks stand in for a trace, each raising ValueError: every face
    is non-empty and steps along edges, each edge is traversed once in each
    direction (so it lies on exactly two corners), Euler's count
    V - E + F = 2 holds, and each edge has four distinct medial neighbours.
    They do not prove the faces an embedding: faces whose corners split
    the edges at a vertex into several cycles of length 3 or more can pass
    them.  A scan validates the embedding of every instance it evaluates.
    The output does not depend on the order or starting corner of the
    faces: its edges are sorted and each row starts at its smallest edge
    id."""
    degs = t.degrees
    if min(degs, default=0) < 2:
        raise ValueError("medial graph requires minimum degree 2")
    if all(d == 2 for d in degs):
        return t, RotationSystem.from_trusted_orders(t.incident_edge_ids)
    if min(degs) < 3:
        raise ValueError(
            "medial graph implemented for cycles or minimum degree 3 only"
        )
    m = t.edge_count
    # Dart 2x runs along edge x from its smaller end, dart 2x + 1 back.
    dart_of = {}
    for i, (u, v) in enumerate(t.edges):
        dart_of[u, v] = 2 * i
        dart_of[v, u] = 2 * i + 1
    after = [-1] * (2 * m)  # the next dart around the dart's face
    for face in faces:
        try:
            darts = [dart_of[face[i - 1], x] for i, x in enumerate(face)]
        except KeyError:
            raise ValueError(f"face {tuple(face)} steps along a non-edge") from None
        if not darts:
            raise ValueError("a face is empty")
        prev = darts[-1]
        for d in darts:
            if after[prev] >= 0:
                raise ValueError(
                    f"edge {t.edges[prev >> 1]} is traversed twice in one direction"
                )
            after[prev] = d
            prev = d
    if -1 in after:
        x = after.index(-1) >> 1
        raise ValueError(f"edge {t.edges[x]} is not on exactly two face corners")
    if t.vertex_count - m + len(faces) != 2:
        raise ValueError("faces do not form a planar embedding")

    # The corner from dart d to after[d] is the medial edge key[d] =
    # lo * m + hi; sorting the keys numbers the medial edges.  A loop or a
    # repeated key is an edge with fewer than four distinct neighbours.
    before = [0] * (2 * m)
    key = []
    for d, nxt in enumerate(after):
        before[nxt] = d
        x, y = d >> 1, nxt >> 1
        if x == y:
            raise ValueError(
                f"edge {t.edges[x]} does not have four distinct medial neighbours"
            )
        key.append(x * m + y if x < y else y * m + x)
    rank = [0] * (2 * m)
    edges = []
    for d in sorted(range(2 * m), key=key.__getitem__):
        lo, hi = divmod(key[d], m)
        if edges and edges[-1] == (lo, hi):
            raise ValueError(
                f"edge {t.edges[lo]} does not have four distinct medial neighbours"
            )
        edges.append((lo, hi))
        rank[d] = len(edges)
    orders = []
    for d in range(0, 2 * m, 2):
        row = [rank[before[d]], rank[d], rank[before[d + 1]], rank[d + 1]]
        i = row.index(min(row))
        orders.append(tuple(row[i:] + row[:i]))
    return (
        UndirectedGraph.from_trusted_edges(edges, [4] * m),
        RotationSystem.from_trusted_orders(orders),
    )


def subdivide_edges(
    g: UndirectedGraph, rot: RotationSystem, count: int, seed: int
) -> tuple[UndirectedGraph, RotationSystem]:
    """Replace ``count`` randomly chosen distinct edges of ``g`` by length-2
    paths, and carry the rotation ``rot`` over to the result.  New vertices
    get degree 2; old degrees and faces are unchanged.  Each new vertex
    exceeds every old one, so the new edges are stored as ``(min, max)``
    and the graph is built without a check.  The result is not validated
    here; a scan validates every instance it evaluates."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > g.edge_count:
        raise ValueError("cannot subdivide more edges than exist")
    if not count:
        return g, rot
    chosen = set(random.Random(seed).sample(range(g.edge_count), count))

    n, edges = g.vertex_count, g.edges
    new_edges = []
    # Old edge id -> new id of its part at its smaller / larger end.
    low_id, high_id = [0], [0]
    new_rows = []
    for idx, e in enumerate(edges):
        if idx in chosen:
            u, v = e
            w = n + len(new_rows)
            k = len(new_edges) + 1
            new_edges += ((u, w), (v, w))
            low_id.append(k)
            high_id.append(k + 1)
            new_rows.append((k, k + 1))
        else:
            new_edges.append(e)
            low_id.append(len(new_edges))
            high_id.append(len(new_edges))
    orders = [
        tuple([low_id[e] if edges[e - 1][0] == v else high_id[e] for e in row])
        for v, row in enumerate(rot.orders)
    ]
    return (
        UndirectedGraph.from_trusted_edges(new_edges, list(g.degrees) + [2] * count),
        RotationSystem.from_trusted_orders(orders + new_rows),
    )
