"""Output checks for `conjtri scan` reports, made apart from the program.

Every expected value is derived here from the input bytes: the graph file
is parsed by this module, bipartiteness comes from networkx, chi comes from
Vizing's theorem, the parity rule for 4-edge-colourings and, where that rule
is silent, a 4-edge-colouring search written here. The only program code
used is `conjtri.construct.euler_circuit`, to fix the canonical orientation
that H12 speaks of.

`check_instance` returns a list of problems for one instance record; an
empty list means the record is correct.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

import networkx as nx

HYPOTHESES = ("H10", "H11", "H12", "H13")
# Exhaustive enumeration of proper 3-colourings confirms an H12 failure up
# to this many vertices; every corpus instance of the workloads is smaller.
H12_ENUM_MAX_VERTICES = 40


@dataclass
class Graph:
    n: int
    edges: list  # (u, v), 0-based; edge id i + 1 is edges[i]
    rotation: Optional[dict]  # vertex (1-based) -> edge ids, when given

    def degrees(self) -> list:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def incident(self) -> list:
        inc = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return inc

    def nx_graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edges)
        return g


def parse(blob: bytes) -> Graph:
    """Read the `p conj` line format (comments, header, edges, rotations)."""
    n = None
    edges, rotation = [], {}
    for line in blob.decode("utf-8").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            edges.append((int(fields[1]) - 1, int(fields[2]) - 1))
        elif fields[0] == "r":
            rotation[int(fields[1])] = [int(x) for x in fields[2:]]
    if n is None:
        raise ValueError("no header")
    return Graph(n, edges, rotation or None)


def face_count(g: Graph) -> int:
    """Faces traced from the rotation system: leave each dart's head along
    the edge that follows it there."""
    nxt = {}
    for v, order in g.rotation.items():
        for k, eid in enumerate(order):
            nxt[(v - 1, eid)] = order[(k + 1) % len(order)]
    seen, faces = set(), 0
    for eid, (u, v) in enumerate(g.edges, start=1):
        for dart in ((u, v, eid), (v, u, eid)):
            if dart in seen:
                continue
            faces += 1
            while dart not in seen:
                seen.add(dart)
                tail, head, e = dart
                f = nxt[(head, e)]
                a, b = g.edges[f - 1]
                dart = (head, b if a == head else a, f)
    return faces


def parity_forces_chi5(deg: list) -> bool:
    """A colour class of a 4-edge-colouring is a matching that covers every
    degree-4 vertex and an even number of vertices in all, so no 4-edge-
    colouring exists if |V2| = 1, or if |V2| = 0 and |V4| is odd."""
    v2 = sum(1 for d in deg if d == 2)
    v4 = sum(1 for d in deg if d == 4)
    return v2 == 1 or (v2 == 0 and v4 % 2 == 1)


def four_edge_colourable(g: Graph) -> bool:
    """Decide whether a graph with degrees 2 and 4 has a 4-edge-colouring.

    Colours {0, 1} form a subgraph H and colours {2, 3} its complement H'.
    A 4-edge-colouring exists iff the edges split into H and H' so that
    every degree-4 vertex has two edges on each side and neither side has
    an odd cycle: both sides then have maximum degree 2 and no odd cycle,
    so each is 2-edge-colourable. The search assigns edges to sides, forces
    the other two edges of a degree-4 vertex once two are on one side, and
    keeps a parity union-find per side (with undo) to refuse odd cycles.
    """
    edges, n, m = g.edges, g.n, len(g.edges)
    inc = g.incident()
    deg = [len(x) for x in inc]
    if max(deg, default=0) > 4:
        return False
    if m == 0:
        return True
    side = [-1] * m
    count = [[0, 0] for _ in range(n)]
    parent = [list(range(n)), list(range(n))]
    parity = [[0] * n, [0] * n]
    size = [[1] * n, [1] * n]
    trail = []

    def find(s, x):
        p = 0
        while parent[s][x] != x:
            p ^= parity[s][x]
            x = parent[s][x]
        return x, p

    def put(e, s):
        u, v = edges[e]
        if (deg[u] == 4 and count[u][s] == 2) or (deg[v] == 4 and count[v][s] == 2):
            return False
        ru, pu = find(s, u)
        rv, pv = find(s, v)
        merged = None
        if ru == rv:
            if pu == pv:
                return False  # the edge would close an odd cycle
        else:
            if size[s][ru] < size[s][rv]:
                ru, rv, pu, pv = rv, ru, pv, pu
            parent[s][rv], parity[s][rv] = ru, pu ^ pv ^ 1
            size[s][ru] += size[s][rv]
            merged = (ru, rv)
        side[e] = s
        count[u][s] += 1
        count[v][s] += 1
        trail.append((e, s, merged))
        return True

    def undo(mark):
        while len(trail) > mark:
            e, s, merged = trail.pop()
            u, v = edges[e]
            side[e] = -1
            count[u][s] -= 1
            count[v][s] -= 1
            if merged:
                ru, rv = merged
                parent[s][rv], parity[s][rv] = rv, 0
                size[s][ru] -= size[s][rv]

    def place(e, s):
        queue = [e]
        if not put(e, s):
            return False
        while queue:
            for x in edges[queue.pop()]:
                for t in (0, 1):
                    if deg[x] == 4 and count[x][t] == 2:
                        for f in inc[x]:
                            if side[f] < 0:
                                if not put(f, 1 - t):
                                    return False
                                queue.append(f)
        return True

    def step():
        best, score = -1, -1
        for e in range(m):
            if side[e] < 0:
                u, v = edges[e]
                k = sum(count[u]) + sum(count[v])
                if k > score:
                    best, score = e, k
        if best < 0:
            return True
        for s in (0, 1):
            mark = len(trail)
            if place(best, s) and step():
                return True
            undo(mark)
        return False

    # H and H' are interchangeable, so edge 1 goes to H.
    return place(0, 0) and step()


def canonical_arcs(g: Graph) -> list:
    """(tail, head) per edge along the program's canonical Euler circuit."""
    from conjtri.construct import euler_circuit
    from conjtri.graphs import UndirectedGraph

    circuit = euler_circuit(UndirectedGraph(g.n, g.edges))
    arcs = [None] * len(g.edges)
    for k, eid in enumerate(circuit.edge_ids):
        arcs[eid - 1] = (circuit.vertices[k], circuit.vertices[k + 1])
    return arcs


def h12_exists(g: Graph, arcs: list) -> bool:
    """Enumerate proper 3-colourings (first vertex fixed to colour 0, since
    permuting colours permutes pairs) and stop at one whose induced pairs
    (tail colour, head colour) differ on every two edges at a vertex."""
    inc = g.incident()
    order = list(nx.bfs_tree(g.nx_graph(), 0)) if g.n else []
    colour = [-1] * g.n

    def ok(v):
        # every edge at v whose ends are both coloured: proper, and its pair
        # unlike that of any other coloured edge at either end
        for e in inc[v]:
            t, h = arcs[e]
            if colour[t] < 0 or colour[h] < 0:
                continue
            if colour[t] == colour[h]:
                return False
            pair = (colour[t], colour[h])
            for x in (t, h):
                for f in inc[x]:
                    if f == e:
                        continue
                    ft, fh = arcs[f]
                    if colour[ft] >= 0 and colour[fh] >= 0 and (colour[ft], colour[fh]) == pair:
                        return False
        return True

    def step(k):
        if k == len(order):
            return True
        v = order[k]
        for c in (range(1) if k == 0 else range(3)):
            colour[v] = c
            if ok(v) and step(k + 1):
                return True
        colour[v] = -1
        return False

    return step(0)


def proper_vertex_colouring(g: Graph, colours, palette: int) -> Optional[str]:
    if not isinstance(colours, list) or len(colours) != g.n:
        return "colouring does not cover every vertex"
    if any(not 0 <= c < palette for c in colours):
        return f"colouring uses colours outside 0..{palette - 1}"
    bad = [i + 1 for i, (u, v) in enumerate(g.edges) if colours[u] == colours[v]]
    return f"improper on edges {bad[:5]}" if bad else None


def proper_edge_colouring(g: Graph, colours, palette: int) -> Optional[str]:
    m = len(g.edges)
    if not isinstance(colours, dict) or sorted(colours) != sorted(str(e) for e in range(1, m + 1)):
        return "edge colouring does not cover every edge"
    col = [colours[str(e)] for e in range(1, m + 1)]
    if any(not 0 <= c < palette for c in col):
        return f"edge colouring uses colours outside 0..{palette - 1}"
    for v, es in enumerate(g.incident()):
        seen = [col[e] for e in es]
        if len(set(seen)) != len(seen):
            return f"two edges at vertex {v} share a colour"
    return None


@dataclass
class Expect:
    """What a workload knows about one input besides its bytes."""

    max_n: int
    node_budget: int


def check_instance(rec: dict, blob: bytes, exp: Expect) -> list:
    problems = []
    g = parse(blob)
    deg = g.degrees()
    m = len(g.edges)
    if (rec["vertices"], rec["edges"]) != (g.n, m):
        problems.append(f"size {rec['vertices']}V/{rec['edges']}E, input has {g.n}V/{m}E")
    if rec["degree_histogram"] != {str(d): k for d, k in sorted(Counter(deg).items())}:
        problems.append("degree histogram differs from the input")

    failing = []
    if any(d not in (2, 4) for d in deg):
        failing.append("degrees")
    if g.n == 0 or not nx.is_connected(g.nx_graph()):
        failing.append("connected")
    planar = "skipped"
    if g.rotation is not None and not failing:
        planar = "pass" if g.n - m + face_count(g) == 2 else "fail"
        if planar == "fail":
            failing.append("planarity")
    if rec["validation_failures"] != failing or rec["valid"] != (not failing):
        problems.append(f"validation {rec['validation_failures']}, expected {failing}")
        return problems
    if rec["planarity"] != planar:
        problems.append(f"planarity {rec['planarity']}, expected {planar}")

    hyps = rec["hypotheses"]
    if sorted(hyps) != list(HYPOTHESES):
        problems.append(f"hypotheses {sorted(hyps)}")
        return problems
    if failing or g.n > exp.max_n or m > exp.max_n:
        # An invalid or oversized instance is a per-instance skip that
        # names the failing checks or the caps.
        if not failing:
            want = f"caps {exp.max_n}V/{exp.max_n}E"
            if not rec["error"] or want not in rec["error"]:
                problems.append(f"over-cap instance has error {rec['error']!r}")
        elif rec["error"] is not None:
            problems.append(f"unexpected error {rec['error']!r}")
        if any(h["verdict"] != "skipped" for h in hyps.values()):
            problems.append("skipped instance has a verdict")
        if any(w is not None for w in rec["witnesses"].values()):
            problems.append("skipped instance has a witness")
        if rec["counterexample_file"] is not None:
            problems.append("skipped instance has a counterexample file")
        return problems
    if rec["error"] is not None:
        problems.append(f"unexpected error {rec['error']!r}")

    nodes = rec["nodes"]
    if any(not isinstance(nodes[k], int) or nodes[k] < 0 for k in ("gamma", "chi", "h12")):
        problems.append(f"bad node counts {nodes}")
    wit = rec["witnesses"]

    # gamma: 2 iff bipartite, else 3 shown by the witness.
    gamma = rec["gamma"]
    want_gamma = 2 if nx.is_bipartite(g.nx_graph()) else 3
    if gamma != {"value": want_gamma, "lower": want_gamma, "upper": want_gamma}:
        problems.append(f"gamma {gamma}, expected {want_gamma}")
    else:
        bad = proper_vertex_colouring(g, wit["h10_coloring"], want_gamma)
        if bad:
            problems.append(f"h10_coloring: {bad}")
    for name in ("H10", "H13"):
        if hyps[name]["verdict"] != "pass":
            problems.append(f"{name} {hyps[name]['verdict']}, gamma is {want_gamma}")

    # chi: a cycle by its parity; otherwise 4 or 5 (Vizing).
    chi = rec["chi"]
    if max(deg) == 2:
        truth = 2 if m % 2 == 0 else 3
    elif parity_forces_chi5(deg):
        truth = 5
    elif chi["value"] == 4:
        truth = 4  # shown by the witness below
    elif chi["value"] is None and chi["lower"] <= 4 and chi["upper"] >= 5:
        truth = None  # bounds that hold both 4 and 5 hold chi
    else:
        truth = 4 if four_edge_colourable(g) else 5
    if chi["value"] is None:
        if truth is not None and not chi["lower"] <= truth <= chi["upper"]:
            problems.append(f"indeterminate chi bounds {chi} miss {truth}")
        if nodes["chi"] < exp.node_budget:
            problems.append("indeterminate chi within the node budget")
    elif chi != {"value": truth, "lower": truth, "upper": truth}:
        problems.append(f"chi {chi}, expected {truth}")
    palette = chi["value"] if chi["value"] is not None else 6
    bad = proper_edge_colouring(g, wit["h11_edge_coloring"], palette)
    if bad:
        problems.append(f"h11_edge_coloring: {bad}")
    if hyps["H11"]["verdict"] != "pass":
        problems.append(f"H11 {hyps['H11']['verdict']}, chi <= 5")

    # H12 along the canonical orientation.
    arcs = canonical_arcs(g)
    outd, ind = Counter(t for t, _ in arcs), Counter(h for _, h in arcs)
    if any(outd[v] != ind[v] for v in range(g.n)):
        problems.append("canonical orientation is not balanced")
    verdict = hyps["H12"]["verdict"]
    if verdict == "pass":
        col = wit["h12_coloring"]
        bad = proper_vertex_colouring(g, col, 3)
        if bad:
            problems.append(f"h12_coloring: {bad}")
        else:
            pairs = wit["h12_pairs"] or {}
            want = {str(e + 1): [col[t], col[h]] for e, (t, h) in enumerate(arcs)}
            if pairs != want:
                problems.append("h12_pairs differ from (tail colour, head colour)")
            for v, es in enumerate(g.incident()):
                at_v = [tuple(want[str(e + 1)]) for e in es]
                if len(set(at_v)) != len(at_v):
                    problems.append(f"two edges at vertex {v} carry the same pair")
                    break
    elif verdict == "fail":
        if wit["h12_coloring"] is not None or wit["h12_pairs"] is not None:
            problems.append("failed H12 carries a witness")
        if g.n <= H12_ENUM_MAX_VERTICES and h12_exists(g, arcs):
            problems.append("H12 fails, but enumeration finds a colouring")
    elif not (verdict == "indeterminate" and nodes["h12"] >= exp.node_budget):
        problems.append(f"H12 {verdict}")

    failed_h = [h for h in HYPOTHESES if hyps[h]["verdict"] == "fail"]
    if bool(failed_h) != (rec["counterexample_file"] is not None):
        problems.append("counterexample file does not match the failed hypotheses")
    return problems


def check_summary(report: dict) -> list:
    """The summary counts agree with the instance records."""
    recs = report["instances"]
    verdicts = {h: Counter() for h in report["config"]["hypotheses"]}
    for rec in recs:
        for h, v in rec["hypotheses"].items():
            verdicts[h][v["verdict"]] += 1
    want = {
        "instances": len(recs),
        "valid_instances": sum(1 for r in recs if r["valid"]),
        "verdicts": {
            h: {k: c[k] for k in ("pass", "fail", "indeterminate", "skipped")}
            for h, c in verdicts.items()
        },
        "counterexamples": [
            r["id"] for r in recs if any(v["verdict"] == "fail" for v in r["hypotheses"].values())
        ],
    }
    return [] if report["summary"] == want else ["summary does not match the instances"]
