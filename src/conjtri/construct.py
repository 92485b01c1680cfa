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
    Digraph,
    RotationError,
    RotationSystem,
    UndirectedGraph,
    faces_and_genus_check,
    rotation_from_oriented_faces,
)

ALLOWED_DEGREES = (2, 4)


class OddDegreeError(ValueError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"odd degree at vertices {self.vertices}")


class DisconnectedError(ValueError):
    def __init__(self, components):
        self.components = components
        super().__init__(f"graph has {len(components)} components")


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
    arcs: Digraph
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
    """Hierholzer traversal; ties broken by always leaving a vertex along the
    smallest unused edge id, so the circuit is reproducible."""
    g = h.graph if isinstance(h, ConjugatedTriangulation) else h
    odd = [v for v in range(g.vertex_count) if g.degrees[v] % 2]
    if odd:
        raise OddDegreeError(odd)
    comps = [c for c in g.components if len(c) > 1 or g.degrees[c[0]] > 0]
    if len(comps) > 1:
        raise DisconnectedError(comps)
    if g.edge_count == 0:
        return EulerCircuit((0,) if g.vertex_count else (), ())

    unused: list[list[int]] = [list(reversed(ids)) for ids in g.incident_edge_ids]
    used = [False] * (g.edge_count + 1)
    start = comps[0][0]

    stack: list[tuple[int, int]] = [(start, 0)]  # (vertex, edge used to arrive)
    path: list[tuple[int, int]] = []
    while stack:
        v, _ = stack[-1]
        while unused[v] and used[unused[v][-1]]:
            unused[v].pop()
        if unused[v]:
            eid = unused[v].pop()
            used[eid] = True
            stack.append((g.other_endpoint(eid, v), eid))
        else:
            path.append(stack.pop())
    path.reverse()

    vertices = tuple(v for v, _ in path)
    edge_ids = tuple(e for _, e in path[1:])
    return EulerCircuit(vertices, edge_ids)


def orient_along_circuit(
    h: ConjugatedTriangulation, c: EulerCircuit
) -> OrientedConjugated:
    """Direct every edge in the traversal direction of the circuit."""
    g = h.graph
    if c.length != g.edge_count or not c.vertices or c.vertices[0] != c.vertices[-1]:
        raise CircuitMismatchError("circuit does not cover this graph")
    arc_of_edge: dict[int, tuple[int, int]] = {}
    for i, eid in enumerate(c.edge_ids):
        tail, head = c.vertices[i], c.vertices[i + 1]
        if not 1 <= eid <= g.edge_count:
            raise CircuitMismatchError(f"unknown edge id {eid}")
        if {tail, head} != set(g.edge_by_id(eid)):
            raise CircuitMismatchError(f"edge {eid} does not join {tail} and {head}")
        if eid in arc_of_edge:
            raise CircuitMismatchError(f"edge {eid} traversed twice")
        arc_of_edge[eid] = (tail, head)
    arcs = Digraph(
        g.vertex_count, [arc_of_edge[eid] for eid in range(1, g.edge_count + 1)]
    )
    return OrientedConjugated(h, arcs, arc_of_edge)


def generate_stacked_triangulation(
    inserts: int, seed: int
) -> tuple[UndirectedGraph, RotationSystem, list[tuple[int, int, int]]]:
    """Grow a planar triangulation from a triangle by repeatedly placing a
    new vertex inside a uniformly chosen face and joining it to the three
    corners.  Both sides of the starting triangle count as faces, so the
    outer face may be subdivided too.  Returns the graph, its rotation and
    its faces as oriented vertex triples, the faces the rotation traces."""
    if inserts < 0:
        raise ValueError("inserts must be non-negative")
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (0, 2)]
    edge_set = {frozenset(e) for e in edges}
    faces = [(0, 1, 2), (2, 1, 0)]
    n = 3
    for _ in range(inserts):
        idx = rng.randrange(len(faces))
        a, b, c = faces.pop(idx)
        w = n
        n += 1
        for x in (a, b, c):
            if frozenset((x, w)) not in edge_set:
                edge_set.add(frozenset((x, w)))
                edges.append((x, w))
        faces.extend([(a, b, w), (b, c, w), (c, a, w)])
    g = UndirectedGraph(n, edges)
    rot = rotation_from_oriented_faces(g, faces)
    return g, rot, faces


def medial_graph(
    t: UndirectedGraph, rot: RotationSystem, faces: Sequence[Sequence[int]]
) -> tuple[UndirectedGraph, RotationSystem]:
    """Graph on the edges of a plane graph ``t``; two are adjacent iff they
    are consecutive around a face.  For a cycle the medial is the cycle
    itself; otherwise every vertex of ``t`` must have degree >= 3, which
    rules out digon corners and makes the result simple and 4-regular.
    ``faces`` are the faces of the planar embedding ``rot`` as oriented
    vertex cycles, in the form ``rotation_from_oriented_faces`` reads, as
    ``generate_stacked_triangulation`` returns them.  They are not traced
    again: only their count is checked against Euler's formula.  The faces
    and vertex rotations of ``t`` become the faces of the output rotation.
    The output does not depend on the order or starting corner of the
    faces: its edges are sorted and each rotation row starts at its
    vertex's smallest edge id."""
    degs = t.degrees
    if min(degs, default=0) < 2:
        raise ValueError("medial graph requires minimum degree 2")
    if all(d == 2 for d in degs):
        return UndirectedGraph(t.vertex_count, t.edges), rot
    if min(degs) < 3:
        raise ValueError(
            "medial graph implemented for cycles or minimum degree 3 only"
        )
    if t.vertex_count - t.edge_count + len(faces) != 2:
        raise ValueError("faces do not form a planar embedding")

    edge_id = {}
    for i, (u, v) in enumerate(t.edges):
        edge_id[u, v] = edge_id[v, u] = i
    face_cycles = []  # medial faces from t-faces
    medial_edges = set()
    for face in faces:
        cyc = tuple(edge_id[face[i - 1], x] for i, x in enumerate(face))
        face_cycles.append(cyc)
        for i, x in enumerate(cyc):
            y = cyc[i - 1]
            medial_edges.add((x, y) if x < y else (y, x))

    # medial faces from t-vertices, opposite orientation
    vertex_cycles = [tuple(eid - 1 for eid in reversed(order)) for order in rot.orders]

    mg = UndirectedGraph(t.edge_count, sorted(medial_edges))
    return mg, rotation_from_oriented_faces(mg, face_cycles + vertex_cycles)


def subdivide_edges(
    g: UndirectedGraph, rot: RotationSystem, count: int, seed: int
) -> tuple[UndirectedGraph, RotationSystem]:
    """Replace ``count`` randomly chosen distinct edges of ``g`` by length-2
    paths, and carry the rotation ``rot`` over to the result.  New vertices
    get degree 2; old degrees and faces are unchanged.  The result is not
    validated here; a scan validates every instance it evaluates."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > g.edge_count:
        raise ValueError("cannot subdivide more edges than exist")
    rng = random.Random(seed)
    chosen = set(rng.sample(range(g.edge_count), count))

    n = g.vertex_count
    new_edges = []
    replacement: dict[int, tuple[int, int, int]] = {}  # old eid -> (w, eid_uw, eid_wv)
    for idx, (u, v) in enumerate(g.edges):
        old_eid = idx + 1
        if idx in chosen:
            w = n
            n += 1
            new_edges.append((u, w))
            eid_uw = len(new_edges)
            new_edges.append((w, v))
            eid_wv = len(new_edges)
            replacement[old_eid] = (w, eid_uw, eid_wv)
        else:
            new_edges.append((u, v))
            replacement[old_eid] = (-1, len(new_edges), len(new_edges))

    orders = []
    for v in range(g.vertex_count):
        row = []
        for eid in rot.orders[v]:
            w, eid_uw, eid_wv = replacement[eid]
            if w < 0:
                row.append(eid_uw)
            else:
                u0, _ = g.edge_by_id(eid)
                row.append(eid_uw if v == u0 else eid_wv)
        orders.append(tuple(row))
    for eid in sorted(replacement):
        w, eid_uw, eid_wv = replacement[eid]
        if w >= 0:
            orders.append((eid_uw, eid_wv))
    return UndirectedGraph(n, new_edges), RotationSystem(orders)
