"""Pure-Python twin of the compiled k-coloring search kernel.

Semantics (argument checks, vertex selection, color order, symmetry cap,
node counting) are identical to the hand-written C extension ``_core.c``, so
both backends return the same witnesses and the same node counts.  Vertices
are indices into ``masks``; ``masks[v]`` is the neighbor bitmask of ``v``.
Requires n <= 64 and k <= 64.
"""

from __future__ import annotations

SAT = 1
UNSAT = 0
ABORTED = -1


def decide_coloring(
    n: int,
    masks: list[int],
    k: int,
    pinned: list[int],
    node_budget: int = 0,
) -> tuple[int, list[int] | None, int]:
    """Exact k-colorability via DSATUR-ordered backtracking.

    ``pinned[v]`` is a fixed color or -1.  A vertex may only take a color at
    most one above the highest color used so far (symmetry cap); DSATUR picks
    the uncolored vertex with maximal saturation, then maximal degree, then
    lowest id; colors are tried ascending.  A ``node_budget`` of 0 means
    unlimited.  Returns ``(status, colors | None, nodes)``.  Raises
    ``ValueError`` when n or k exceeds 64, when n is negative, or when
    ``masks[v]`` is negative or has a bit at or above n.
    """
    if n > 64 or k > 64:
        raise ValueError("kernel limited to 64 vertices / colors")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    for v in range(n):
        m = masks[v]
        if m < 0 or m >> n:
            raise ValueError(f"mask of vertex {v} has a bit outside vertices 0..{n - 1}")
    if k <= 0:
        return (UNSAT if n else SAT, [] if not n else None, 0)

    colors = [-1] * n
    degree = [bin(masks[v]).count("1") for v in range(n)]
    sat = [0] * n
    used_max = -1
    uncolored = n

    for v in range(n):
        c = pinned[v]
        if c < 0:
            continue
        if c >= k:
            return UNSAT, None, 0
        if (sat[v] >> c) & 1:
            # Conflicts with an earlier pin; pins are processed in id order.
            return UNSAT, None, 0
        colors[v] = c
        uncolored -= 1
        if c > used_max:
            used_max = c
        bit = 1 << c
        rest = masks[v]
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            sat[w] |= bit

    nodes = 0
    aborted = False

    def recurse(uncolored: int, used_max: int) -> bool:
        nonlocal nodes, aborted
        if uncolored == 0:
            return True
        best, best_sat, best_deg = -1, -1, -1
        for v in range(n):
            if colors[v] >= 0:
                continue
            s = bin(sat[v]).count("1")
            if s > best_sat or (s == best_sat and degree[v] > best_deg):
                best, best_sat, best_deg = v, s, degree[v]
        v = best
        cap = used_max + 1
        limit = k - 1 if cap >= k else cap
        avail = ~sat[v] & ((1 << (limit + 1)) - 1)
        while avail:
            c = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            nodes += 1
            if node_budget and nodes > node_budget:
                aborted = True
                return False
            colors[v] = c
            bit = 1 << c
            touched = []
            rest = masks[v]
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if colors[w] < 0 and not (sat[w] & bit):
                    sat[w] |= bit
                    touched.append(w)
            if recurse(uncolored - 1, c if c > used_max else used_max):
                return True
            if aborted:
                return False
            for w in touched:
                sat[w] &= ~bit
            colors[v] = -1
        return False

    found = recurse(uncolored, used_max)
    # recurse holds itself through its closure cell; clearing the name
    # frees the search state without waiting for the cycle collector.
    del recurse
    if aborted:
        return ABORTED, None, nodes
    if found:
        return SAT, colors, nodes
    return UNSAT, None, nodes
