"""Ordered-pair edge colors over a small base palette.

A proper vertex coloring of an oriented graph induces, on every arc, the
ordered pair (tail color, head color).  With 3 base colors that alphabet
has exactly 6 letters.  Induction is total and always heterochromatic,
but whether the result is a *proper* edge coloring is a measured verdict,
not a given.  The inverse direction propagates pair coordinates back to
the endpoints and either reconstructs the unique preimage or pinpoints
the first contradiction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .coloring import VertexColoring, verify_vertex_coloring
from .construct import OrientedConjugated
from .graphs import UndirectedGraph, mask_bits

_STAR_DEGREES = (1, 2, 4)


class ImproperColoringError(ValueError):
    """Raised when a vertex coloring offered as proper is not."""

    def __init__(self, violating_edges: list[int]):
        super().__init__(f"coloring is improper on edges {violating_edges}")
        self.violating_edges = tuple(violating_edges)


class ConflictError(ValueError):
    """Two arcs assert different base colors for one vertex."""

    def __init__(self, vertex: int, have: int, want: int):
        super().__init__(
            f"vertex {vertex} is asserted both color {have} and color {want}"
        )
        self.vertex = vertex
        self.have = have
        self.want = want


class PartialError(ValueError):
    """The pair coloring does not cover every arc."""

    def __init__(self, missing_arcs: list[int]):
        super().__init__(f"pair coloring misses arcs {missing_arcs}")
        self.missing_arcs = tuple(missing_arcs)


@dataclass(frozen=True, order=True)
class PairColor:
    first: int
    second: int

    def __post_init__(self):
        if self.first < 0 or self.second < 0:
            raise ValueError("color indices must be non-negative")
        if self.first == self.second:
            raise ValueError("pair colors are heterochromatic: first != second")

    def contains(self, color: int) -> bool:
        return color in (self.first, self.second)

    def reversed(self) -> "PairColor":
        return PairColor(self.second, self.first)


@dataclass(frozen=True)
class PairEdgeColoring:
    """Total map arc id -> PairColor.  Arc ids coincide with the edge ids
    of the underlying graph the orientation came from."""

    pairs: dict[int, PairColor]
    base_palette: int

    def __post_init__(self):
        for aid, p in self.pairs.items():
            if p.first >= self.base_palette or p.second >= self.base_palette:
                raise ValueError(
                    f"arc {aid} uses colors outside the base palette of "
                    f"{self.base_palette}"
                )

    def __hash__(self):
        return hash((tuple(sorted(self.pairs.items())), self.base_palette))

    @property
    def distinct_pairs(self) -> int:
        return len(set(self.pairs.values()))


@dataclass(frozen=True)
class InducedPairColoring:
    coloring: PairEdgeColoring
    proper: bool
    violations: tuple[tuple[int, int], ...]  # adjacent edge ids, equal pairs


@dataclass(frozen=True)
class StarConfig:
    """Local picture for the neighbor census: one center edge with a fixed
    pair, ``left_degree - 1`` neighbor edges at the tail endpoint and
    ``right_degree - 1`` at the head endpoint.  Degree 1 models an isolated
    center edge."""

    left_degree: int
    right_degree: int
    center: PairColor
    base_palette: int = 3

    def __post_init__(self):
        if self.left_degree not in _STAR_DEGREES or self.right_degree not in _STAR_DEGREES:
            raise ValueError(f"endpoint degrees must be in {_STAR_DEGREES}")
        if self.base_palette < 2:
            raise ValueError("base palette must have at least 2 colors")
        if not (
            self.center.first < self.base_palette
            and self.center.second < self.base_palette
        ):
            raise ValueError("center pair outside the base palette")


@dataclass(frozen=True)
class NeighborCensus:
    """Count plus the raw admissible assignments, kept so the constraints
    can be recounted under a different reading without re-deriving them."""

    config: StarConfig
    count: int
    assignments: tuple[
        tuple[tuple[PairColor, ...], tuple[PairColor, ...]], ...
    ] = field(repr=False)


def ordered_pairs(base_palette_size: int) -> list[PairColor]:
    """All k*(k-1) heterochromatic ordered pairs, lexicographic."""
    if base_palette_size < 1:
        raise ValueError("base palette size must be positive")
    return [
        PairColor(a, b)
        for a in range(base_palette_size)
        for b in range(base_palette_size)
        if a != b
    ]


def induce_edge_coloring(
    oh: OrientedConjugated, vc: VertexColoring
) -> InducedPairColoring:
    """Label every arc with (tail color, head color) and report whether the
    result happens to be a proper edge coloring of the underlying graph."""
    g = oh.base.graph
    bad = verify_vertex_coloring(g, vc)
    if bad:
        raise ImproperColoringError(bad)
    pairs = {
        eid: PairColor(vc.colors[tail], vc.colors[head])
        for eid, (tail, head) in oh.arc_of_edge.items()
    }
    violations = set()
    for v in range(g.vertex_count):
        inc = g.incident_edge_ids[v]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if pairs[inc[i]] == pairs[inc[j]]:
                    violations.add((inc[i], inc[j]))
    ordered = tuple(sorted(violations))
    return InducedPairColoring(
        coloring=PairEdgeColoring(pairs, vc.palette_size),
        proper=not ordered,
        violations=ordered,
    )


def recover_vertex_coloring(
    oh: OrientedConjugated, pc: PairEdgeColoring
) -> VertexColoring:
    """Invert induction: each arc asserts its tail's and head's base colors.

    Succeeds exactly when all assertions agree, in which case the result is
    the unique coloring with induce(result) = pc.  It is proper by
    construction because every pair is heterochromatic.
    """
    g = oh.base.graph
    missing = [eid for eid in sorted(oh.arc_of_edge) if eid not in pc.pairs]
    if missing:
        raise PartialError(missing)
    colors = [-1] * g.vertex_count
    for eid in sorted(oh.arc_of_edge):
        tail, head = oh.arc_of_edge[eid]
        p = pc.pairs[eid]
        for vertex, want in ((tail, p.first), (head, p.second)):
            if colors[vertex] == -1:
                colors[vertex] = want
            elif colors[vertex] != want:
                raise ConflictError(vertex, colors[vertex], want)
    unreached = [v for v in range(g.vertex_count) if colors[v] == -1]
    if unreached:
        # Only possible for isolated vertices, which the arc set cannot touch.
        raise PartialError(unreached)
    return VertexColoring(tuple(colors), pc.base_palette)


def sibling_constraint_graph(oh: OrientedConjugated) -> "UndirectedGraph":
    """Reduce "some proper 3-coloring induces a proper pair coloring" to
    plain 3-colorability.

    Two arcs out of the same vertex get equal pairs iff their heads share a
    color; two arcs into the same vertex iff their tails do.  An in-arc and
    an out-arc at a vertex would need tail color = vertex color = head
    color, impossible under any proper base coloring.  So the induced
    coloring is proper exactly when the base coloring also separates every
    same-tail head pair and same-head tail pair — i.e. when it properly
    colors this augmented graph.  Each same-tail head group and same-head
    tail group, as a bitmask, is ORed into the neighbor masks of its members.
    """
    g = oh.base.graph
    masks = list(g.masks)
    out_heads = [0] * g.vertex_count
    in_tails = [0] * g.vertex_count
    for tail, head in oh.arc_of_edge.values():
        out_heads[tail] |= 1 << head
        in_tails[head] |= 1 << tail
    for group in itertools.chain(out_heads, in_tails):
        for v in mask_bits(group):
            masks[v] |= group ^ (1 << v)
    return UndirectedGraph.from_masks(masks)


def count_neighbor_pair_colorings(center_config: StarConfig) -> NeighborCensus:
    """Brute-force the local star: assign a pair to every neighbor edge so
    that edges sharing the center's endpoint carry that endpoint's base
    color in one coordinate, and no two adjacent edges carry equal pairs.
    Neighbors on opposite sides are not adjacent to each other."""
    cfg = center_config
    alphabet = ordered_pairs(cfg.base_palette)
    left_slots = cfg.left_degree - 1
    right_slots = cfg.right_degree - 1

    def side_ok(side: tuple[PairColor, ...], endpoint_color: int) -> bool:
        if any(not p.contains(endpoint_color) for p in side):
            return False
        taken = set(side)
        if len(taken) != len(side):
            return False
        return cfg.center not in taken

    admissible = []
    for combo in itertools.product(alphabet, repeat=left_slots + right_slots):
        left = combo[:left_slots]
        right = combo[left_slots:]
        if side_ok(left, cfg.center.first) and side_ok(right, cfg.center.second):
            admissible.append((left, right))
    return NeighborCensus(
        config=cfg, count=len(admissible), assignments=tuple(admissible)
    )
