"""Finite censuses over small directed graphs with six arcs.

An oriented graph with all vertex degrees in {2, 4} traverses exactly six
arcs between color classes when its vertices are 3-colored, so the color
classes themselves form a digraph on k <= 4 vertices subject to five
structural requirements.  Everything in this module is small enough to
scan exhaustively; counts come out of the scans, they are never assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graphs import UndirectedGraph
from .coloring import chromatic_number

ARC_TOTAL = 6

# Reading of the degree requirement recorded in every report: each vertex
# of the abstract graph must have even total degree of at least 4, the
# interior vertex degree of the source graphs.
R5_READING = "total degree (in + out) even and >= 4 at every vertex"

_D4_PERMUTATIONS = tuple(
    tuple((s * i + a) % 4 for i in range(4)) for a in range(4) for s in (1, -1)
)


@dataclass(frozen=True)
class AdjacencyMatrix:
    """A candidate color-class digraph as its square 0/1 matrix with zero
    diagonal: entry ``(i, j)`` is 1 iff there is an arc from ``i`` to ``j``.
    Row sums are out-degrees and column sums in-degrees."""

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

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The arcs ``(i, j)`` in row-major order."""
        return tuple(
            (i, j) for i, row in enumerate(self.entries) for j, x in enumerate(row) if x
        )

    def total_degrees(self) -> tuple[int, ...]:
        return tuple(r + c for r, c in zip(self.row_sums, self.col_sums))

    def underlying_simple_graph(self) -> UndirectedGraph:
        """Forget orientation and multiplicity."""
        edges = {(min(u, v), max(u, v)) for u, v in self.arcs}
        return UndirectedGraph(self.order, sorted(edges))

    def arc_conflict_graph(self) -> UndirectedGraph:
        """Graph on the arcs; two arcs conflict iff they touch a common
        vertex.  Coloring it properly is coloring the arcs as edges of the
        underlying multigraph."""
        arcs = self.arcs
        m = len(arcs)
        edges = []
        for i in range(m):
            for j in range(i + 1, m):
                if set(arcs[i]) & set(arcs[j]):
                    edges.append((i, j))
        return UndirectedGraph(m, edges)


def canonical_form(m: AdjacencyMatrix) -> tuple[tuple[int, ...], ...]:
    """The least of the k! relabellings of the matrix, so two matrices are
    isomorphic as digraphs iff their forms are equal."""
    idx = range(m.order)
    e = m.entries
    return min(
        tuple(tuple(e[p[i]][p[j]] for j in idx) for i in idx)
        for p in itertools.permutations(idx)
    )


@dataclass(frozen=True)
class Requirement:
    name: str
    ok: bool
    evidence: str


@dataclass(frozen=True)
class RequirementReport:
    requirements: tuple[Requirement, ...]
    directed_girth: Optional[int]
    r5_reading: str = R5_READING

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.requirements)

    def requirement(self, name: str) -> Requirement:
        for r in self.requirements:
            if r.name == name:
                return r
        raise KeyError(name)

    def failures(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.requirements if not r.ok)


def _weakly_connected_support(m: AdjacencyMatrix) -> bool:
    """True iff all arc-touching vertices lie in one undirected component,
    that is, at most one component of the underlying graph has an edge."""
    components = m.underlying_simple_graph().components
    return sum(1 for c in components if len(c) > 1) <= 1


def directed_girth(m: AdjacencyMatrix) -> Optional[int]:
    """Length of the shortest directed cycle, or None if acyclic."""
    succ = [[j for j, x in enumerate(row) if x] for row in m.entries]
    best: Optional[int] = None
    for s in range(m.order):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in succ[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for u, row in enumerate(m.entries):
            if row[s] and u in dist:
                length = dist[u] + 1
                if best is None or length < best:
                    best = length
    return best


def find_directed_triangle(m: AdjacencyMatrix) -> Optional[tuple[int, int, int]]:
    e = m.entries
    for u, v, w in itertools.permutations(range(m.order), 3):
        if e[u][v] and e[v][w] and e[w][u]:
            return (u, v, w)
    return None


def check_r_requirements(m: AdjacencyMatrix) -> RequirementReport:
    """Evaluate the five structural requirements independently.

    Every verdict carries evidence so a failing candidate explains itself.
    """
    k = m.order
    if k < 1:
        raise ValueError("the abstract graph needs at least one vertex")

    total = m.total
    r1 = Requirement(
        "r1_arc_total",
        total == ARC_TOTAL,
        f"arc total {total}, required {ARC_TOTAL}",
    )

    rows, cols = m.row_sums, m.col_sums
    unbalanced = [v for v in range(k) if cols[v] != rows[v]]
    connected = _weakly_connected_support(m)
    if unbalanced:
        ev = f"in-degree != out-degree at vertices {unbalanced}"
    elif not connected:
        ev = "arcs split across more than one component"
    else:
        ev = "balanced and connected on its support"
    r2 = Requirement("r2_euler_circuit", not unbalanced and connected, ev)

    triangle = find_directed_triangle(m)
    r3 = Requirement(
        "r3_directed_triangle",
        triangle is not None,
        f"directed 3-cycle {triangle}" if triangle else "no directed 3-cycle",
    )

    r4 = Requirement(
        "r4_row_col_match",
        rows == cols,
        f"row sums {rows}, column sums {cols}",
    )

    degs = m.total_degrees()
    offenders = [v for v in range(k) if degs[v] % 2 or degs[v] < 4]
    r5 = Requirement(
        "r5_degree_parity",
        not offenders,
        f"total degrees {degs}"
        + (f"; offending vertices {offenders}" if offenders else ""),
    )

    return RequirementReport(
        requirements=(r1, r2, r3, r4, r5),
        directed_girth=directed_girth(m),
    )


def matrices_with_total(k: int, total: int = ARC_TOTAL) -> Iterator[AdjacencyMatrix]:
    """All zero-diagonal 0/1 matrices of order k with the given arc total,
    in lexicographic order of the chosen off-diagonal cells."""
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    if total > len(cells):
        return
    for chosen in itertools.combinations(cells, total):
        grid = [[0] * k for _ in range(k)]
        for i, j in chosen:
            grid[i][j] = 1
        yield AdjacencyMatrix(grid)


@dataclass(frozen=True)
class CandidateEnumeration:
    k: int
    searched: int
    passing: tuple[AdjacencyMatrix, ...]  # every survivor, scan order
    representatives: tuple[AdjacencyMatrix, ...]  # first of each iso class


def enumerate_r_candidates(k: int) -> CandidateEnumeration:
    """Scan every order-k matrix with six arcs against all requirements.

    k ranges over 1..4 only: beyond that the degree requirement is already
    impossible by counting (2 * 6 < 4 * k for k >= 4, with equality ruled
    out at k = 4 too since 12 < 16).
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be between 1 and 4")
    searched = 0
    passing: list[AdjacencyMatrix] = []
    for matrix in matrices_with_total(k):
        searched += 1
        if check_r_requirements(matrix).passed:
            passing.append(matrix)
    forms: set[tuple[tuple[int, ...], ...]] = set()
    reps: list[AdjacencyMatrix] = []
    for matrix in passing:
        form = canonical_form(matrix)
        if form not in forms:
            forms.add(form)
            reps.append(matrix)
    return CandidateEnumeration(
        k=k,
        searched=searched,
        passing=tuple(passing),
        representatives=tuple(reps),
    )


@dataclass(frozen=True)
class SymmetricCensus:
    """The 20 placements of three mutual connections among four classes."""

    matrices: tuple[AdjacencyMatrix, ...]
    # index lists into `matrices`, keyed by the shape of the 3-edge graph
    iso_classes: dict[str, tuple[int, ...]]
    # orbits when the four classes are arranged in a square and only the
    # square's symmetries may relabel them
    square_orbits: tuple[tuple[int, ...], ...]

    @property
    def class_sizes(self) -> dict[str, int]:
        return {name: len(ix) for name, ix in self.iso_classes.items()}

    @property
    def square_orbit_count(self) -> int:
        return len(self.square_orbits)


_SHAPE_BY_DEGREES = {
    (0, 2, 2, 2): "triangle_plus_vertex",
    (1, 1, 2, 2): "path",
    (1, 1, 1, 3): "star",
}


def enumerate_symmetric_p4() -> SymmetricCensus:
    """All C(6,3) = 20 symmetric zero-diagonal 4x4 matrices with three
    above-diagonal units, partitioned two ways: by isomorphism type of the
    3-edge support graph, and by orbit under the symmetries of a square."""
    cells = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    matrices = []
    supports = []
    for chosen in itertools.combinations(cells, 3):
        grid = [[0] * 4 for _ in range(4)]
        for i, j in chosen:
            grid[i][j] = 1
            grid[j][i] = 1
        matrices.append(AdjacencyMatrix(grid))
        supports.append(frozenset(chosen))

    classes: dict[str, list[int]] = {}
    for idx, support in enumerate(supports):
        degs = [0, 0, 0, 0]
        for i, j in support:
            degs[i] += 1
            degs[j] += 1
        shape = _SHAPE_BY_DEGREES[tuple(sorted(degs))]
        classes.setdefault(shape, []).append(idx)

    orbit_of: dict[int, int] = {}
    orbits: list[list[int]] = []
    for idx, support in enumerate(supports):
        if idx in orbit_of:
            continue
        members = set()
        for perm in _D4_PERMUTATIONS:
            image = frozenset(
                (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in support
            )
            members.add(supports.index(image))
        orbit = sorted(members)
        for member in orbit:
            orbit_of[member] = len(orbits)
        orbits.append(orbit)

    return SymmetricCensus(
        matrices=tuple(matrices),
        iso_classes={k: tuple(v) for k, v in sorted(classes.items())},
        square_orbits=tuple(tuple(o) for o in orbits),
    )


@dataclass(frozen=True)
class AsymmetricCensus:
    """Scan of asymmetric candidates: six arcs, row and column sums all 1
    or 2, tested against the three termwise target multisets."""

    searched: int
    row_sum_vectors: tuple[tuple[int, ...], ...]
    condition_counts: dict[tuple[int, ...], int]
    matching: tuple[AdjacencyMatrix, ...]

    @property
    def row_variant_count(self) -> int:
        return len(self.row_sum_vectors)

    @property
    def verdict(self) -> int:
        return len(self.matching)


TERMWISE_TARGETS = (
    (4, 4, 4, 4),
    (2, 4, 4, 4),
    (0, 4, 4, 4),
)


def enumerate_asymmetric_p4() -> AsymmetricCensus:
    """Exhaust all 4x4 zero-diagonal 0/1 matrices with six arcs whose row
    and column sums take values in {1, 2} only, and count those whose
    termwise sums row_i + col_i form one of the target multisets."""
    searched = 0
    row_vectors = set()
    condition_counts: dict[tuple[int, ...], int] = {t: 0 for t in TERMWISE_TARGETS}
    matching = []
    for matrix in matrices_with_total(4):
        rows, cols = matrix.row_sums, matrix.col_sums
        if not all(x in (1, 2) for x in rows + cols):
            continue
        searched += 1
        row_vectors.add(rows)
        termwise = tuple(sorted(r + c for r, c in zip(rows, cols)))
        hit = False
        for target in TERMWISE_TARGETS:
            if termwise == target:
                condition_counts[target] += 1
                hit = True
        if hit:
            matching.append(matrix)
    return AsymmetricCensus(
        searched=searched,
        row_sum_vectors=tuple(sorted(row_vectors)),
        condition_counts=condition_counts,
        matching=tuple(matching),
    )


def rho(m: AdjacencyMatrix) -> int:
    """Largest total degree, multiplicities included."""
    return max(m.total_degrees(), default=0)


def gamma_of_candidate(m: AdjacencyMatrix) -> int:
    """Exact chromatic number of the underlying simple graph."""
    return chromatic_number(m.underlying_simple_graph()).value


def chi_of_candidate(m: AdjacencyMatrix) -> int:
    """Exact arc chromatic number: vertex-color the arc conflict graph."""
    return chromatic_number(m.arc_conflict_graph()).value


def format_matrix(matrix: AdjacencyMatrix) -> str:
    """Fixed-width grid with row sums on the right, column sums below."""
    k = matrix.order
    width = 2
    lines = []
    for i, row in enumerate(matrix.entries):
        body = " ".join(f"{x:>{width}}" for x in row)
        lines.append(f"{body} | {matrix.row_sums[i]:>{width}}")
    lines.append("-" * (3 * k - 1) + "-+---")
    lines.append(
        " ".join(f"{c:>{width}}" for c in matrix.col_sums)
        + f" | {matrix.total:>{width}}"
    )
    return "\n".join(lines)
