"""Line-oriented text format for graphs with optional rotation data.

    c  free-form comment
    p conj <V> <E>          header, exactly once, before edges
    e <u> <v>               1-based endpoints; edge ids follow file order
    r <v> <e1> <e2> ...     clockwise edge order around vertex v (optional)

Parsing and serialization are exact inverses on the canonical form.
"""

from __future__ import annotations

from typing import Optional

from .graphs import RotationSystem, UndirectedGraph


class GraphFormatError(ValueError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_graph_file(data: bytes) -> tuple[UndirectedGraph, Optional[RotationSystem]]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(0, f"not valid UTF-8: {exc}") from None

    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    rotations: dict[int, tuple[int, ...]] = {}
    rotation_lines: dict[int, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if header is not None:
                raise GraphFormatError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "conj":
                raise GraphFormatError(lineno, "header must be 'p conj <V> <E>'")
            try:
                v, e = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError(lineno, "header counts must be integers") from None
            if v < 0 or e < 0:
                raise GraphFormatError(lineno, "header counts must be non-negative")
            header = (v, e)
        elif tag == "e":
            if header is None:
                raise GraphFormatError(lineno, "edge before header")
            if len(fields) != 3:
                raise GraphFormatError(lineno, "edge line must be 'e <u> <v>'")
            try:
                u, w = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(lineno, "edge endpoints must be integers") from None
            for x in (u, w):
                if not 1 <= x <= header[0]:
                    raise GraphFormatError(
                        lineno, f"vertex {x} outside 1..{header[0]}"
                    )
            edges.append((u - 1, w - 1))
            edge_lines.append(lineno)
        elif tag == "r":
            if header is None:
                raise GraphFormatError(lineno, "rotation before header")
            if len(fields) < 2:
                raise GraphFormatError(lineno, "rotation line must name a vertex")
            try:
                nums = [int(x) for x in fields[1:]]
            except ValueError:
                raise GraphFormatError(lineno, "rotation entries must be integers") from None
            v = nums[0]
            if not 1 <= v <= header[0]:
                raise GraphFormatError(lineno, f"vertex {v} outside 1..{header[0]}")
            if v in rotations:
                raise GraphFormatError(lineno, f"duplicate rotation for vertex {v}")
            rotations[v] = tuple(nums[1:])
            rotation_lines[v] = lineno
        else:
            raise GraphFormatError(lineno, f"unknown line tag {tag!r}")

    if header is None:
        raise GraphFormatError(0, "missing 'p conj' header")
    v_count, e_count = header
    if len(edges) != e_count:
        raise GraphFormatError(
            0, f"header declares {e_count} edges, file has {len(edges)}"
        )

    try:
        graph = UndirectedGraph(v_count, edges)
    except ValueError as exc:
        raise GraphFormatError(edge_lines[-1] if edge_lines else 0, str(exc)) from None

    if not rotations:
        return graph, None

    # An unlisted vertex must be isolated: no edge may touch it.  Deciding
    # that from the edge endpoints keeps a header's worth of isolated
    # vertices down to one empty row each.
    unlisted = {x + 1 for edge in edges for x in edge}.difference(rotations)
    if unlisted:
        raise GraphFormatError(
            0, f"rotation lines present but vertex {min(unlisted)} has none"
        )
    # Unlisted rows are empty and their vertices isolated, so only the rows
    # the file lists need checking against incidence.
    rotation = RotationSystem.from_rows(
        v_count, {v - 1: row for v, row in rotations.items()}
    )
    bad = rotation.mismatched_vertex(graph, sorted(v - 1 for v in rotations))
    if bad is not None:
        raise GraphFormatError(
            rotation_lines[bad + 1],
            f"rotation at vertex {bad} is not a permutation of its incident edges",
        )
    return graph, rotation


def serialize_graph_file(
    graph: UndirectedGraph, rotation: Optional[RotationSystem] = None
) -> bytes:
    if rotation is not None:
        rotation.validate(graph)
    lines = [f"p conj {graph.vertex_count} {graph.edge_count}"]
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    if rotation is not None:
        for v, order in enumerate(rotation.orders):
            lines.append(" ".join(["r", str(v + 1), *map(str, order)]))
    return ("\n".join(lines) + "\n").encode("utf-8")
