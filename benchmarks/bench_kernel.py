#!/usr/bin/env python3
"""Time the compiled coloring kernel against its pure-Python twin.

Both backends run the identical DSATUR backtracking search and visit the
same number of nodes, so the ratio is pure interpreter overhead.  Run:

    python benchmarks/bench_kernel.py

It exits 1 when the compiled kernel is not built, since there is then
nothing to compare.
"""

from __future__ import annotations

import itertools
import sys
import time

from conjtri import _core_py

try:
    from conjtri import _core
except ImportError:
    _core = None


def neighbor_masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def line_graph_of_complete(n):
    """Edge-adjacency graph of K_n, the classic hard refutation case."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[a], index[b])
        for a, b in itertools.combinations(pairs, 2)
        if set(a) & set(b)
    ]
    return len(pairs), edges


def mycielski(levels):
    """Triangle-free graphs with growing chromatic number; hard to refute."""
    n, edges = 2, [(0, 1)]
    for _ in range(levels):
        m = n
        new_edges = list(edges)
        for u, v in edges:
            new_edges.append((u, m + v))
            new_edges.append((v, m + u))
        for i in range(m):
            new_edges.append((m + i, 2 * m))
        n, edges = 2 * m + 1, new_edges
    return n, edges


def queen_graph(k):
    """k x k queen attack graph."""
    n = k * k
    edges = set()
    for a in range(n):
        ra, ca = divmod(a, k)
        for b in range(a + 1, n):
            rb, cb = divmod(b, k)
            if ra == rb or ca == cb or abs(ra - rb) == abs(ca - cb):
                edges.add((a, b))
    return n, sorted(edges)


CASES = [
    ("L(K7) with 6 colors (unsat)", *line_graph_of_complete(7), 6),
    ("L(K8) with 7 colors (unsat)", *line_graph_of_complete(8), 7),
    ("Mycielski-4 with 4 colors (unsat)", *mycielski(3), 4),
    ("Mycielski-5 with 5 colors (unsat)", *mycielski(4), 5),
    ("queen 6x6 with 6 colors (unsat)", *queen_graph(6), 6),
    ("queen 6x6 with 7 colors (sat)", *queen_graph(6), 7),
]


def run(backend, n, edges, k, repeats=3):
    masks = neighbor_masks(n, edges)
    pinned = [-1] * n
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        status, _, nodes = backend.decide_coloring(n, masks, k, pinned, 0, 0.0)
        best = min(best, time.perf_counter() - t0)
    return status, nodes, best


def main():
    if _core is None:
        print(
            "compiled kernel unavailable; build it with "
            "`python setup.py build_ext --inplace`",
            file=sys.stderr,
        )
        return 1
    header = f"{'case':<38} {'nodes':>10} {'pure s':>9} {'compiled s':>11} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    total_pure = total_fast = 0.0
    for name, n, edges, k in CASES:
        s1, nodes1, t_pure = run(_core_py, n, edges, k)
        s2, nodes2, t_fast = run(_core, n, edges, k)
        assert (s1, nodes1) == (s2, nodes2), "backends disagreed"
        total_pure += t_pure
        total_fast += t_fast
        print(
            f"{name:<38} {nodes1:>10} {t_pure:>9.4f} {t_fast:>11.4f} "
            f"{t_pure / t_fast:>7.1f}x"
        )
    print("-" * len(header))
    print(
        f"{'total':<38} {'':>10} {total_pure:>9.4f} {total_fast:>11.4f} "
        f"{total_pure / total_fast:>7.1f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
