"""Exact vertex and edge coloring plus the classical bound calculators.

The exact searches are DSATUR-ordered backtracking with the first greedy
clique pinned for symmetry breaking, run on the selected kernel backend.
The edge chromatic number is settled by a certificate before any search
when one applies: the parity lemma, a lower-bound theorem, proves
chi = Delta + 1; otherwise a verified Delta-edge-coloring found by
Kempe-chain recoloring meets the Delta lower bound.  Search runs only for
the values neither settles.
Search budgets never produce wrong answers: an exhausted budget yields an
indeterminate result carrying the best proven bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    are then the best proven bounds.  ``nodes`` counts search-tree nodes
    over all decision calls, so it is identical across kernel backends.
    ``certificate`` names what spared search work: a lower-bound theorem
    that starts the search at Delta + 1 ("parity"), or a verified witness
    that meets the Delta lower bound, so that no search runs ("kempe").
    It is None when the search alone decided.
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


def chromatic_number(
    g: UndirectedGraph,
    max_vertices: int = DEFAULT_VERTEX_CAP,
    node_budget: int = 0,
    *,
    lower_bound: int = 0,
    greedy: Optional[VertexColoring] = None,
) -> ChromaticResult:
    """Exact chromatic number by iterative deepening from the greedy clique
    size, or from ``lower_bound`` when the caller has proven a larger one.
    ``greedy`` is ``greedy_coloring(g)`` when the caller already has it; it
    is the upper bound and its witness."""
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
    pinned = [-1] * n
    for c, v in enumerate(clique):
        pinned[v] = c
    total_nodes = 0
    for k in range(lb, ub.palette_size + 1):
        if k >= ub.palette_size:
            # The greedy witness already proves k colors suffice.
            return ChromaticResult(k, k, k, ub, total_nodes)
        status, colors, nodes = _decide(g, k, pinned, node_budget)
        total_nodes += nodes
        if status == core.SAT:
            return ChromaticResult(
                k, k, k, VertexColoring(tuple(colors), k), total_nodes
            )
        if status == core.ABORTED:
            return ChromaticResult(None, k, ub.palette_size, None, total_nodes)
    raise AssertionError("greedy upper bound was not reached")


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

    color = [-1] * (g.edge_count + 1)
    at = [[0] * delta for _ in range(g.vertex_count)]  # at[v][c]: edge id or 0

    def paint(eid: int, c: int) -> None:
        u, v = g.edges[eid - 1]
        if color[eid] >= 0:
            at[u][color[eid]] = at[v][color[eid]] = 0
        color[eid] = c
        if c >= 0:
            at[u][c] = at[v][c] = eid

    queue = []
    for eid, c in enumerate(greedy.colors, start=1):
        if c < delta:
            paint(eid, c)
        else:
            queue.append(eid)
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
            x = g.other_endpoint(chain[-1], x)
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


def chromatic_class(
    g: UndirectedGraph,
    max_edges: int = DEFAULT_EDGE_CAP,
    node_budget: int = 0,
    *,
    lg: Optional[UndirectedGraph] = None,
    greedy: Optional[VertexColoring] = None,
) -> ChromaticResult:
    """Exact edge chromatic number, solved as vertex coloring of the line graph.

    When the parity lemma proves chi = Delta + 1, the search starts there,
    so the refutation of Delta colors is never run.  When the lemma is
    silent and the greedy coloring uses more than Delta colors,
    ``kempe_edge_coloring`` looks for a Delta-edge-coloring first; once
    ``verify_edge_coloring`` accepts it, it proves chi = Delta, since the
    edges at a vertex of degree Delta need Delta colors, and no search runs.
    When the search runs out of budget, Vizing's theorem (chi <= Delta + 1
    on a simple graph) caps the greedy upper bound.  ``lg`` is
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
    result = chromatic_number(
        lg,
        max_vertices=max_edges,
        node_budget=node_budget,
        lower_bound=delta + 1 if parity else 0,
        greedy=greedy,
    )
    return ChromaticResult(
        result.value,
        result.lower,
        min(result.upper, delta + 1),
        None if result.witness is None else edge_coloring_of(result.witness),
        result.nodes,
        "parity" if parity else None,
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
    for v in range(g.vertex_count):
        inc = g.incident_edge_ids[v]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if c.colors[inc[i]] == c.colors[inc[j]]:
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
