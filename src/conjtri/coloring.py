"""Exact vertex and edge coloring plus the classical bound calculators.

The exact searches are DSATUR-ordered backtracking with the first greedy
clique pinned for symmetry breaking, run on the selected kernel backend.
The chromatic number is settled by a certificate before any search when
one applies: a breadth-first 2-coloring either proves gamma = 2 or finds
an odd cycle, so gamma >= 3; on a plane graph whose degrees are 2 and 4,
a verified 3-coloring built from a 4-coloring of one face class (Tait,
1880) then proves gamma = 3.  The edge chromatic number is settled the
same way.  A (Delta + 1)-edge-coloring built by the fan and path
recoloring of Misra and Gries (1992), the constructive proof of Vizing's
theorem, is the upper bound and its witness.  Where the parity lemma, a
lower-bound theorem, proves chi = Delta + 1, that coloring settles chi;
otherwise a verified Delta-edge-coloring found by Kempe-chain recoloring
meets the Delta lower bound.  Search runs only for the values no
certificate settles, and for chi only at k = Delta.
Search budgets never produce wrong answers: an exhausted budget yields an
indeterminate result carrying the best proven bounds and their witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import core
from .graphs import SizeLimitError, UndirectedGraph, mask_bits
from .construct import line_graph_of

DEFAULT_VERTEX_CAP = 60
DEFAULT_EDGE_CAP = 60
# The Kempe-chain step gives up after this many steps per edge of the graph.
KEMPE_STEPS_PER_EDGE = 20
# Fixed xorshift32 state, so Kempe witnesses repeat on any Python and worker.
KEMPE_SEED = 2463534242


@dataclass(frozen=True)
class VertexColoring:
    """Total assignment vertex -> color index, 0-based."""

    colors: tuple[int, ...]
    palette_size: int


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment edge id -> color index, 0-based."""

    colors: dict[int, int]
    palette_size: int

    def __hash__(self):
        return hash((tuple(sorted(self.colors.items())), self.palette_size))


@dataclass(frozen=True)
class Bounds:
    brooks: int
    shannon: int
    greedy: int


@dataclass(frozen=True)
class ChromaticResult:
    """Outcome of an exact minimization.

    ``value`` is None when the search budget ran out; ``lower``/``upper``
    are then the best proven bounds, and ``witness`` is the upper bound's
    witness when one is known (always, for ``chromatic_class``).  ``nodes``
    counts search-tree nodes over all decision calls, so it is identical
    across kernel backends.  ``certificate`` names what spared search work:
    a lower-bound theorem met by a constructed witness, so that no search
    runs ("parity" at Delta + 1 with the Misra-Gries witness), a lower-bound
    theorem that starts the search higher ("odd_cycle" at 3), or a verified
    witness that meets the lower bound ("kempe" at Delta, "bipartite" at 2,
    "tait" at 3).  It is None when the search alone decided.
    """

    value: Optional[int]
    lower: int
    upper: int
    witness: Optional[object]
    nodes: int
    certificate: Optional[str] = None

    @property
    def exact(self) -> bool:
        return self.value is not None


def greedy_clique(g: UndirectedGraph) -> tuple[int, ...]:
    """Single-pass greedy clique over vertices sorted by degree (desc), id (asc)."""
    masks = g.masks
    # A stable sort keeps ids ascending among equal degrees.
    order = sorted(range(g.vertex_count), key=g.degrees.__getitem__, reverse=True)
    clique = 0
    for v in order:
        if clique & masks[v] == clique:
            clique |= 1 << v
    return tuple(mask_bits(clique))


def smallest_last_order(g: UndirectedGraph) -> list[int]:
    """Repeatedly remove the vertex of least remaining degree, smallest id
    first, and return the removal order reversed.  Each remaining degree
    keeps a bucket bitmask, whose lowest set bit is its smallest id (Matula
    and Beck, 1983).  After a removal at degree d the minimum is >= d - 1."""
    masks = g.masks
    deg = list(g.degrees)
    bucket = [0] * (max(deg, default=0) + 1)
    for v, d in enumerate(deg):
        bucket[d] |= 1 << v
    left = (1 << g.vertex_count) - 1
    order = []
    d = 0
    while left:
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        left ^= low
        v = low.bit_length() - 1
        order.append(v)
        nbrs = masks[v] & left
        while nbrs:
            bit = nbrs & -nbrs
            nbrs ^= bit
            w = bit.bit_length() - 1
            dw = deg[w]
            bucket[dw] ^= bit
            bucket[dw - 1] |= bit
            deg[w] = dw - 1
        if d:
            d -= 1
    order.reverse()
    return order


def greedy_coloring(g: UndirectedGraph) -> VertexColoring:
    """First-fit along the smallest-last order; deterministic.  Each color
    class is a bitmask, and a vertex takes the first class that holds none
    of its neighbors."""
    masks = g.masks
    colors = [-1] * g.vertex_count
    classes: list[int] = []
    for v in smallest_last_order(g):
        nbrs = masks[v]
        for c, members in enumerate(classes):
            if not members & nbrs:
                classes[c] = members | (1 << v)
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colors[v] = c
    return VertexColoring(tuple(colors), len(classes))


def coloring_bounds(
    g: UndirectedGraph, greedy: Optional[VertexColoring] = None
) -> Bounds:
    """Brooks, Shannon and greedy upper bounds for the vertex/edge problems.
    ``greedy`` is ``greedy_coloring(g)`` when the caller already has it."""
    rho = max(g.degrees, default=0)
    brooks = rho
    for block in g.components:
        if all(g.degrees[v] == len(block) - 1 for v in block):
            brooks = rho + 1  # complete component K_{rho+1}
            break
        if rho == 2 and len(block) % 2 == 1 and all(g.degrees[v] == 2 for v in block):
            brooks = rho + 1  # odd cycle component
            break
    shannon = (3 * rho) // 2
    if greedy is None:
        greedy = greedy_coloring(g)
    return Bounds(brooks=brooks, shannon=shannon, greedy=greedy.palette_size)


def _decide(
    g: UndirectedGraph, k: int, pinned: list[int], node_budget: int
) -> tuple[int, Optional[list[int]], int]:
    return core.decide_coloring(g.vertex_count, g.masks, k, pinned, node_budget)


def decide_k_coloring(
    g: UndirectedGraph,
    k: int,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    node_budget: int = 0,
) -> tuple[int, Optional[VertexColoring], int]:
    """Three-way k-colorability decision: (core.SAT / UNSAT / ABORTED,
    witness or None, nodes searched).  The first greedy clique is pinned
    to break color symmetry."""
    if k < 1:
        raise ValueError("k must be positive")
    if g.vertex_count > max_vertices:
        raise SizeLimitError(
            f"vertex coloring capped at {max_vertices} vertices, got {g.vertex_count}"
        )
    clique = greedy_clique(g)
    if len(clique) > k:
        return core.UNSAT, None, 0
    pinned = [-1] * g.vertex_count
    for c, v in enumerate(clique):
        pinned[v] = c
    status, colors, nodes = _decide(g, k, pinned, node_budget)
    witness = VertexColoring(tuple(colors), k) if status == core.SAT else None
    return status, witness, nodes


def two_coloring(g: UndirectedGraph, first: int = 0) -> Optional[VertexColoring]:
    """The proper 2-coloring found breadth first, or None when the graph
    has an odd cycle.  Each component starts from its smallest vertex with
    color 0, except that ``first`` starts the search, so a connected graph
    gets the coloring that gives ``first`` color 0."""
    masks = g.masks
    colors = [-1] * g.vertex_count
    for start in (first, *range(g.vertex_count)):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        side = [0, 0]  # vertices of each color in this component, as masks
        side[0] = frontier = 1 << start
        color = 0
        while frontier:
            reached = 0
            for v in mask_bits(frontier):
                reached |= masks[v]
            color ^= 1
            if reached & side[color ^ 1]:
                return None
            frontier = reached & ~side[color]
            side[color] |= frontier
            for v in mask_bits(frontier):
                colors[v] = color
    return VertexColoring(tuple(colors), 2)


def chromatic_number(
    g: UndirectedGraph,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    node_budget: int = 0,
    *,
    lower_bound: int = 0,
    greedy: Optional[VertexColoring] = None,
    faces: Optional[Sequence[Sequence[tuple[int, int, int]]]] = None,
) -> ChromaticResult:
    """Exact chromatic number by iterative deepening from the greedy clique
    size, or from ``lower_bound`` when the caller has proven a larger one.
    ``greedy`` is ``greedy_coloring(g)`` when the caller already has it; it
    is the upper bound and its witness.

    Two certificates come before any search.  Where the search would start
    at 2, ``two_coloring`` either proves gamma = 2 ("bipartite") or finds
    an odd cycle, so the search starts at 3 ("odd_cycle").  Where it would
    start at 3 below the greedy bound and ``faces`` gives the traced faces
    of a planar embedding of ``g`` (``ConjugatedTriangulation.faces``),
    ``tait_coloring`` looks for a 3-coloring; once verified, it proves
    gamma = 3 with no search ("tait")."""
    if g.vertex_count > max_vertices:
        raise SizeLimitError(
            f"vertex coloring capped at {max_vertices} vertices, got {g.vertex_count}"
        )
    n = g.vertex_count
    if n == 0:
        return ChromaticResult(0, 0, 0, VertexColoring((), 0), 0)
    ub = greedy if greedy is not None else greedy_coloring(g)
    if g.edge_count == 0:
        return ChromaticResult(1, 1, 1, VertexColoring((0,) * n, 1), 0)
    clique = greedy_clique(g)
    lb = max(2, len(clique), lower_bound)
    certificate = None
    if lb == 2 < ub.palette_size:
        witness = two_coloring(g, clique[0])
        if witness is not None:
            return ChromaticResult(2, 2, 2, witness, 0, "bipartite")
        lb, certificate = 3, "odd_cycle"
    if lb == 3 < ub.palette_size and faces is not None:
        witness = tait_coloring(g, faces)
        if witness is not None:
            return ChromaticResult(3, 3, 3, witness, 0, "tait")
    pinned = [-1] * n
    for c, v in enumerate(clique):
        pinned[v] = c
    total_nodes = 0
    for k in range(lb, ub.palette_size + 1):
        if k >= ub.palette_size:
            # The greedy witness already proves k colors suffice.
            return ChromaticResult(k, k, k, ub, total_nodes, certificate)
        status, colors, nodes = _decide(g, k, pinned, node_budget)
        total_nodes += nodes
        if status == core.SAT:
            return ChromaticResult(
                k, k, k, VertexColoring(tuple(colors), k), total_nodes, certificate
            )
        if status == core.ABORTED:
            return ChromaticResult(
                None, k, ub.palette_size, None, total_nodes, certificate
            )
    raise AssertionError("greedy upper bound was not reached")


def tait_coloring(
    g: UndirectedGraph, faces: Sequence[Sequence[tuple[int, int, int]]]
) -> Optional[VertexColoring]:
    """A 3-coloring of a plane graph whose degrees are 2 and 4, from a
    4-coloring of one class of its faces (Tait, 1880), or None.

    ``faces`` are the faces of a planar embedding of ``g`` as darts
    ``(tail, head, edge_id)``, as ``faces_and_genus_check`` traces them.
    All degrees are even, so the faces split into two classes with the
    faces on the two sides of each edge in different classes.  For a class
    A, let H be the graph on the A faces with these edges:

    - u_x v_x, where u_x and v_x are the two A faces at a degree-4 vertex x;
    - u w, for each edge xy between degree-4 vertices, where s is the A
      face along xy, u is the other A face at x and w the other at y.

    A proper coloring c of H with values 0..3, read as Z2 x Z2, gives each
    degree-4 vertex x the color c(u_x) XOR c(v_x) - 1 in 0..2: an edge xy
    gets c(s) XOR c(u) - 1 and c(s) XOR c(w) - 1, which differ.  Each
    degree-2 vertex then takes the first color its two neighbors leave
    free.  H is built first for the class with fewer faces (on a tie, the
    class of the first face), then for the other.  A class is given up
    when an A face meets a degree-4 vertex twice, or ``u = w`` (either would
    be a loop of H), or the greedy coloring of H uses 5 colors.  For the
    medial graph of a triangulation T, the smaller class is that of T's
    vertices, where H = T, so by the Four Color Theorem a certificate
    exists; on a stacked triangulation, which is 3-degenerate, the greedy
    coloring finds one.  The coloring is returned only once
    ``verify_vertex_coloring`` accepts it."""
    degrees = g.degrees
    if any(d not in (2, 4) for d in degrees):
        return None
    # Dart (tail, head, eid) is 2 * eid + (tail > head); its reverse is ^ 1.
    face_of = [0] * (2 * g.edge_count + 2)
    corners: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for f, face in enumerate(faces):
        for tail, head, eid in face:
            face_of[2 * eid + (tail > head)] = f
            corners[head].append(f)
    side = [-1] * len(faces)
    for root in range(len(faces)):
        if side[root] >= 0:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            other = side[f] ^ 1
            for tail, head, eid in faces[f]:
                h = face_of[2 * eid + (head > tail)]
                if side[h] < 0:
                    side[h] = other
                    stack.append(h)
                elif side[h] != other:
                    return None  # the faces are not 2-colorable
    # A face's vertex in H is its position among the faces of its class.
    pos, size = [], [0, 0]
    for s in side:
        pos.append(size[s])
        size[s] += 1
    big = [x for x, d in enumerate(degrees) if d == 4]
    for cls in (0, 1) if size[0] <= size[1] else (1, 0):
        masks = [0] * size[cls]
        pair = {}  # degree-4 vertex -> its two faces of the class, in H
        for x in big:
            u, v = [pos[f] for f in corners[x] if side[f] == cls]
            if u == v:
                break
            pair[x] = (u, v)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        else:
            for eid, (x, y) in enumerate(g.edges, start=1):
                if x in pair and y in pair:
                    f = face_of[2 * eid]
                    if side[f] != cls:
                        f = face_of[2 * eid + 1]
                    s = pos[f]
                    u = sum(pair[x]) - s
                    w = sum(pair[y]) - s
                    if u == w:
                        break
                    masks[u] |= 1 << w
                    masks[w] |= 1 << u
            else:
                h_colors = greedy_coloring(UndirectedGraph.from_masks(masks))
                if h_colors.palette_size <= 4:
                    witness = _tait_witness(g, pair, h_colors.colors)
                    if not verify_vertex_coloring(g, witness):
                        return witness
    return None


def _tait_witness(
    g: UndirectedGraph, pair: dict[int, tuple[int, int]], c: Sequence[int]
) -> VertexColoring:
    colors = [-1] * g.vertex_count
    for x, (u, v) in pair.items():
        colors[x] = (c[u] ^ c[v]) - 1
    masks = g.masks
    for x, d in enumerate(g.degrees):
        if d == 2:
            a, b = (colors[w] for w in mask_bits(masks[x]))
            colors[x] = next(k for k in (0, 1, 2) if k != a and k != b)
    return VertexColoring(tuple(colors), 3)


def parity_proves_class_two(g: UndirectedGraph) -> bool:
    """True when the parity lemma (Isaacs, 1975) rules out a Delta-edge-coloring.

    A color class of a Delta-edge-coloring is a matching that covers every
    degree-Delta vertex and exactly the lower-degree vertices that see its
    color, so it covers an even number of vertices.  That is impossible if
    all non-isolated vertices have degree Delta and there is an odd number
    of them, or if exactly one non-isolated vertex has lower degree: a color
    it misses and a color it sees would cover vertex sets whose sizes differ
    by one.  With Vizing's theorem, chi = Delta + 1 whenever this holds.
    """
    degrees = [d for d in g.degrees if d]
    if not degrees:
        return False
    top = max(degrees)
    low = sum(1 for d in degrees if d < top)
    return low == 1 or (low == 0 and len(degrees) % 2 == 1)


def _edge_color_table(g: UndirectedGraph, greedy: VertexColoring, k: int):
    """The edge colors of ``greedy`` (vertex ``i`` is edge id ``i + 1``)
    below ``k``, for the recoloring steps.  Returns ``color`` (by edge id,
    -1 for uncolored), ``at`` (``at[v][c]``: the id of the edge colored c
    at v, or 0), ``paint(eid, c)``, which recolors an edge (c = -1
    uncolors it) and keeps both in step, and the ids of the edges left
    uncolored, in id order."""
    edges = g.edges
    color = [-1] * (g.edge_count + 1)
    at = [[0] * k for _ in range(g.vertex_count)]

    def paint(eid: int, c: int) -> None:
        u, v = edges[eid - 1]
        if color[eid] >= 0:
            at[u][color[eid]] = at[v][color[eid]] = 0
        color[eid] = c
        if c >= 0:
            at[u][c] = at[v][c] = eid

    uncolored = []
    for eid, c in enumerate(greedy.colors, start=1):
        if c < k:
            paint(eid, c)
        else:
            uncolored.append(eid)
    return color, at, paint, uncolored


def kempe_edge_coloring(
    g: UndirectedGraph, greedy: VertexColoring
) -> tuple[Optional[EdgeColoring], int]:
    """Try to recolor the greedy line-graph coloring ``greedy`` (vertex ``i``
    is edge id ``i + 1``) into a Delta-edge-coloring by Kempe-chain swaps
    (Misra and Gries, 1992).

    Edges the greedy coloring gives a color below Delta keep it; the rest
    wait on a LIFO queue.  A step pops an edge uv.  A color free at both
    ends colors it.  Otherwise, with a free at u and b free at v, the a/b
    chain from v is swapped, which frees a at v.  If that chain ends at u
    the swap would not help, so a color c is evicted instead: the edges
    colored c at u and at v are uncolored and queued, and uv takes c.
    Every choice comes from a xorshift32 generator with a fixed seed.
    Returns the coloring (None after ``KEMPE_STEPS_PER_EDGE * |E|`` steps)
    and the number of steps taken.  The caller verifies the coloring."""
    delta = max(g.degrees, default=0)
    state = KEMPE_SEED

    def pick(n: int) -> int:
        nonlocal state
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        return state % n

    color, at, paint, queue = _edge_color_table(g, greedy, delta)
    steps = 0
    while queue:
        if steps == KEMPE_STEPS_PER_EDGE * g.edge_count:
            return None, steps
        steps += 1
        eid = queue.pop()
        ends = g.edges[eid - 1]
        u = ends[pick(2)]
        v = ends[0] + ends[1] - u
        free_u = [c for c in range(delta) if not at[u][c]]
        free_v = [c for c in range(delta) if not at[v][c]]
        common = [c for c in free_u if not at[v][c]]
        if common:
            paint(eid, common[pick(len(common))])
            continue
        a = free_u[pick(len(free_u))]
        b = free_v[pick(len(free_v))]
        chain, x, c = [], v, a
        while at[x][c]:
            chain.append(at[x][c])
            ends = g.edges[chain[-1] - 1]
            x = ends[0] + ends[1] - x
            c = a + b - c
        if x != u:
            for e in chain:
                paint(e, -1)
            for i, e in enumerate(chain):
                paint(e, (b, a)[i % 2])
            paint(eid, a)
            continue
        c = pick(delta)
        for w in (u, v):
            if at[w][c]:
                evicted = at[w][c]
                paint(evicted, -1)
                queue.append(evicted)
        paint(eid, c)
    witness = EdgeColoring({eid: color[eid] for eid in range(1, g.edge_count + 1)}, delta)
    return witness, steps


def misra_gries_edge_coloring(
    g: UndirectedGraph, greedy: VertexColoring
) -> VertexColoring:
    """Complete the greedy line-graph coloring ``greedy`` (vertex ``i`` is
    edge id ``i + 1``) to a (Delta + 1)-edge-coloring of the simple graph
    ``g`` (Misra and Gries, 1992), returned in the same form.

    When ``greedy`` uses at most Delta + 1 colors it is returned unchanged.
    Otherwise edges it gives a color up to Delta keep it, and the others,
    in id order, are colored one step each.  For an uncolored edge u v0,
    the fan at u, grown in color order from the smallest color free at its
    last vertex, is [v0, ..., vk]: each u vi (i >= 1) has a color free at
    v(i-1), and no further vertex can be added.  With c the smallest color
    free at u and d the smallest free at vk, the path from u whose edges
    alternate d and c is swapped, which frees d at u.  The first fan vertex
    w at which d is free, while [v0, ..., w] is still a fan, exists (if the
    swap took d from vk, it freed c at the fan vertex before the one whose
    edge was d).  Each u vi before w takes the color of the next, and u w
    takes d.  A result that ``verify_edge_coloring`` rejects raises
    AssertionError: the step cannot fail on a simple graph."""
    delta = max(g.degrees, default=0)
    if greedy.palette_size <= delta + 1:
        return greedy
    edges = g.edges
    color, at, paint, uncolored = _edge_color_table(g, greedy, delta + 1)
    for eid in uncolored:
        u, v = edges[eid - 1]
        at_u = at[u]
        fan, fan_edges, members = [v], [eid], 1 << v
        while True:
            at_x = at[fan[-1]]
            for c in range(delta + 1):
                e = at_u[c]
                if e and not at_x[c]:
                    a, b = edges[e - 1]
                    w = a + b - u
                    if not members >> w & 1:
                        fan.append(w)
                        fan_edges.append(e)
                        members |= 1 << w
                        break
            else:
                break
        c = at_u.index(0)
        d = at[fan[-1]].index(0)
        path, x, col = [], u, d
        while at[x][col]:
            path.append(at[x][col])
            a, b = edges[path[-1] - 1]
            x = a + b - x
            col = c + d - col
        for e in path:
            paint(e, -1)
        for i, e in enumerate(path):
            paint(e, (c, d)[i % 2])
        for j, w in enumerate(fan):
            if j and at[fan[j - 1]][color[fan_edges[j]]]:
                break  # [v0, ..., w] is no longer a fan
            if not at[w][d]:
                shifted = [color[e] for e in fan_edges[1 : j + 1]] + [d]
                for e in fan_edges[1 : j + 1]:
                    paint(e, -1)
                for e, s in zip(fan_edges, shifted):
                    paint(e, s)
                break
        if color[eid] < 0:
            raise AssertionError(f"no fan vertex is free of color {d} at edge {eid}")
    witness = VertexColoring(tuple(color[1:]), delta + 1)
    bad = verify_edge_coloring(g, edge_coloring_of(witness))
    if bad:
        raise AssertionError(f"Misra-Gries coloring is improper at edges {bad}")
    return witness


def chromatic_class(
    g: UndirectedGraph,
    max_edges: int = DEFAULT_EDGE_CAP,
    node_budget: int = 0,
    *,
    lg: Optional[UndirectedGraph] = None,
    greedy: Optional[VertexColoring] = None,
) -> ChromaticResult:
    """Exact edge chromatic number, solved as vertex coloring of the line graph.

    ``misra_gries_edge_coloring`` completes the greedy coloring to at most
    Delta + 1 colors, which is the upper bound and its witness in every
    case.  When the parity lemma proves chi = Delta + 1, that coloring
    settles chi and no search runs.  Otherwise the edges at a vertex of
    degree Delta need Delta colors, so chi is Delta or Delta + 1.  When the
    greedy coloring uses more than Delta colors, ``kempe_edge_coloring``
    looks for a Delta-edge-coloring first; once ``verify_edge_coloring``
    accepts it, it proves chi = Delta with no search.  Otherwise the search
    runs at k = Delta alone; when it runs out of budget, the result is
    [Delta, Delta + 1] with the Misra-Gries witness.  ``lg`` is
    ``line_graph_of(g)`` and ``greedy`` is ``greedy_coloring(lg)``
    when the caller already has them."""
    if g.edge_count > max_edges:
        raise SizeLimitError(
            f"edge coloring capped at {max_edges} edges, got {g.edge_count}"
        )
    if lg is None:
        lg = line_graph_of(g)
    if greedy is None:
        greedy = greedy_coloring(lg)
    delta = max(g.degrees, default=0)
    parity = parity_proves_class_two(g)
    if not parity and 0 < delta < greedy.palette_size:
        witness, _ = kempe_edge_coloring(g, greedy)
        if witness is not None and not verify_edge_coloring(g, witness):
            return ChromaticResult(delta, delta, delta, witness, 0, "kempe")
    vizing = misra_gries_edge_coloring(g, greedy)
    if parity:
        k = delta + 1
        return ChromaticResult(k, k, k, edge_coloring_of(vizing), 0, "parity")
    result = chromatic_number(
        lg,
        max_vertices=max_edges,
        node_budget=node_budget,
        lower_bound=delta,
        greedy=vizing,
    )
    return ChromaticResult(
        result.value,
        result.lower,
        result.upper,
        edge_coloring_of(result.witness or vizing),
        result.nodes,
    )


def edge_coloring_of(vc: VertexColoring) -> EdgeColoring:
    """Read a vertex coloring of a line graph, whose vertex ``i`` is edge id
    ``i + 1``, as an edge coloring."""
    return EdgeColoring(dict(enumerate(vc.colors, start=1)), vc.palette_size)


def verify_vertex_coloring(g: UndirectedGraph, c: VertexColoring) -> list[int]:
    """Edge ids whose endpoints share a color; empty iff proper."""
    if len(c.colors) != g.vertex_count:
        raise ValueError("coloring does not cover every vertex")
    return [
        eid
        for eid, (u, v) in enumerate(g.edges, start=1)
        if c.colors[u] == c.colors[v]
    ]


def verify_edge_coloring(g: UndirectedGraph, c: EdgeColoring) -> list[tuple[int, int]]:
    """Pairs of adjacent edge ids that share a color; empty iff proper."""
    missing = [eid for eid in range(1, g.edge_count + 1) if eid not in c.colors]
    if missing:
        raise ValueError(f"coloring misses edges {missing}")
    bad = []
    for inc in g.incident_edge_ids:
        seen = [c.colors[eid] for eid in inc]
        if len(set(seen)) == len(seen):
            continue  # no two edges here share a color
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if seen[i] == seen[j]:
                    bad.append((inc[i], inc[j]))
    return sorted(set(bad))


def exhaustive_chromatic_number(g: UndirectedGraph, max_vertices: int = 8) -> int:
    """Reference answer by scanning all k**n assignments in lexicographic
    order with prefix pruning.  Used to double-check small counterexamples."""
    n = g.vertex_count
    if n > max_vertices:
        raise SizeLimitError(f"exhaustive scan capped at {max_vertices} vertices")
    if n == 0:
        return 0
    if g.edge_count == 0:
        return 1
    earlier = [mask_bits(m & ((1 << v) - 1)) for v, m in enumerate(g.masks)]

    def any_proper(k: int) -> bool:
        colors = [-1] * n

        def step(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in earlier[v]):
                    colors[v] = c
                    if step(v + 1):
                        return True
            colors[v] = -1
            return False

        return step(0)

    k = 1
    while not any_proper(k):
        k += 1
    return k
