"""Text-format parsing and serialization, including every failure mode."""

from __future__ import annotations

import time

import pytest

from conjtri.graphio import GraphFormatError, parse_graph_file, serialize_graph_file
from conjtri.graphs import RotationSystem, UndirectedGraph


def _parse(text: str):
    return parse_graph_file(text.encode("utf-8"))


TRIANGLE = "p conj 3 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestParsing:
    def test_triangle(self):
        g, rot = _parse(TRIANGLE)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))
        assert rot is None

    def test_edge_ids_follow_file_order(self):
        g, _ = _parse("p conj 3 2\ne 2 3\ne 1 2\n")
        assert g.edges[0] == (1, 2)
        assert g.edges[1] == (0, 1)

    def test_comments_and_blank_lines_ignored(self):
        text = "c a comment\n\nc more\np conj 2 1\n\ne 1 2\nc trailing\n"
        g, _ = _parse(text)
        assert g.vertex_count == 2 and g.edge_count == 1

    def test_whitespace_tolerated(self):
        g, _ = _parse("  p conj 2 1  \n   e  1   2 \n")
        assert g.edge_count == 1

    def test_edgeless_graph(self):
        g, rot = _parse("p conj 4 0\n")
        assert g.vertex_count == 4 and g.edge_count == 0
        assert rot is None

    def test_rotation_lines(self):
        text = (
            "p conj 3 3\ne 1 2\ne 2 3\ne 1 3\n"
            "r 1 1 3\nr 2 1 2\nr 3 2 3\n"
        )
        g, rot = _parse(text)
        assert rot is not None
        assert rot.orders == ((1, 3), (1, 2), (2, 3))

    def test_rotation_optional_for_isolated_vertices(self):
        text = "p conj 3 1\ne 1 2\nr 1 1\nr 2 1\n"
        g, rot = _parse(text)
        assert rot.orders == ((1,), (1,), ())

    def test_isolated_vertices_cost_one_empty_row_each(self):
        g, rot = _parse("p conj 100000 1\ne 2 3\nr 2 1\nr 3 1\n")
        assert len(rot.orders) == 100_000
        assert rot.orders[:4] == ((), (1,), (1,), ())
        # Neither the neighbor masks nor the incidence of all V vertices
        # was built.
        assert not {"masks", "incident_edge_ids"} & g.__dict__.keys()

    def test_unlisted_rows_cost_no_python_work_each(self):
        # Unlisted rows are filled in bulk and not checked one by one: their
        # vertices are isolated because every edge endpoint has a row.
        t0 = time.perf_counter()
        g, rot = _parse("p conj 3000000 0\nr 1\n")
        elapsed = time.perf_counter() - t0
        assert len(rot.orders) == 3_000_000 and not any(rot.orders)
        # A loop per declared vertex takes seconds at this size.
        assert elapsed < 1.5, f"{elapsed:.2f} s"

    def test_listed_rows_are_checked_after_many_unlisted_ones(self):
        text = "p conj 100000 2\ne 99998 99999\ne 99999 100000\n"
        g, rot = _parse(text + "r 99998 1\nr 99999 1 2\nr 100000 2\n")
        assert rot.orders[-3:] == ((1,), (1, 2), (2,))
        with pytest.raises(GraphFormatError) as info:
            _parse(text + "r 99998 1\nr 99999 1 1\nr 100000 2\n")
        assert info.value.line == 5
        assert "rotation at vertex 99999 is not a permutation" in str(info.value)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("e 1 2\n", 1, "edge before header"),
            ("r 1 1\n", 1, "rotation before header"),
            ("p conj 2 1\np conj 2 1\ne 1 2\n", 2, "duplicate header"),
            ("p wrong 2 1\ne 1 2\n", 1, "header must be"),
            ("p conj two 1\n", 1, "integers"),
            ("p conj -1 0\n", 1, "non-negative"),
            ("p conj 2 1\ne 1\n", 2, "edge line must be"),
            ("p conj 2 1\ne 1 x\n", 2, "integers"),
            ("p conj 2 1\ne 1 3\n", 2, "outside 1..2"),
            ("p conj 2 1\ne 0 1\n", 2, "outside 1..2"),
            ("p conj 2 1\ne 1 2\nq foo\n", 3, "unknown line tag"),
            ("p conj 2 1\ne 1 2\nr 9 1\n", 3, "outside 1..2"),
            ("p conj 2 1\ne 1 2\nr 1 1\nr 1 1\n", 4, "duplicate rotation"),
            ("p conj 2 1\ne 1 2\nr\n", 3, "name a vertex"),
            ("p conj 2 1\ne 1 2\nr 1 x\n", 3, "integers"),
        ],
    )
    def test_error_carries_line_number(self, text, line, fragment):
        with pytest.raises(GraphFormatError) as info:
            _parse(text)
        assert info.value.line == line
        assert fragment in str(info.value)

    def test_missing_header(self):
        with pytest.raises(GraphFormatError) as info:
            _parse("c nothing here\n")
        assert info.value.line == 0
        assert "missing" in str(info.value)

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError) as info:
            _parse("p conj 3 2\ne 1 2\n")
        assert "declares 2 edges, file has 1" in str(info.value)

    def test_loop_rejected_with_edge_line(self):
        with pytest.raises(GraphFormatError) as info:
            _parse("p conj 2 1\ne 1 1\n")
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("p conj 4 4\ne 1 2\ne 2 2\ne 2 3\ne 3 4\n", 3, "loop at vertex 2"),
            (
                "p conj 4 4\ne 1 2\ne 2 3\ne 2 1\ne 3 4\n",
                4,
                "parallel edge 2 1, first at line 2",
            ),
        ],
    )
    def test_bad_edge_named_at_its_own_line_in_file_vertices(self, text, line, message):
        with pytest.raises(GraphFormatError) as info:
            _parse(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_not_utf8(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph_file(b"\xff\xfe p conj")
        assert "UTF-8" in str(info.value)

    def test_missing_rotation_for_covered_vertex(self):
        with pytest.raises(GraphFormatError) as info:
            _parse("p conj 2 1\ne 1 2\nr 1 1\n")
        assert "vertex 2 has none" in str(info.value)

    def test_wrong_rotation_edges_points_at_the_line(self):
        text = "p conj 3 3\ne 1 2\ne 2 3\ne 1 3\nr 1 1 3\nr 2 1 1\nr 3 2 3\n"
        with pytest.raises(GraphFormatError) as info:
            _parse(text)
        assert info.value.line == 6  # the row for vertex 2

    def test_row_of_an_isolated_vertex_must_be_empty(self):
        with pytest.raises(GraphFormatError) as info:
            _parse("p conj 4 1\ne 1 2\nr 1 1\nr 2 1\nr 4 1\n")
        assert info.value.line == 5
        assert "rotation at vertex 4 is not a permutation" in str(info.value)


class TestRoundTrip:
    def test_canonical_form_is_a_fixed_point(self):
        blob = serialize_graph_file(*_parse(TRIANGLE))
        assert blob.decode() == TRIANGLE
        again = serialize_graph_file(*parse_graph_file(blob))
        assert again == blob

    def test_roundtrip_without_rotation(self):
        g = UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        g2, rot = parse_graph_file(serialize_graph_file(g))
        assert rot is None
        assert g2.vertex_count == g.vertex_count
        assert g2.edges == g.edges

    def test_roundtrip_with_rotation(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        rot = RotationSystem(((1, 3), (1, 2), (2, 3)))
        g2, rot2 = parse_graph_file(serialize_graph_file(g, rot))
        assert g2.edges == g.edges
        assert rot2.orders == rot.orders

    def test_roundtrip_on_generated_corpus(self, small_corpus):
        for _, h in small_corpus:
            blob = serialize_graph_file(h.graph, h.rotation)
            g2, rot2 = parse_graph_file(blob)
            assert g2.vertex_count == h.graph.vertex_count
            assert g2.edges == h.graph.edges
            if h.rotation is None:
                assert rot2 is None
            else:
                assert rot2.orders == h.rotation.orders
            assert serialize_graph_file(g2, rot2) == blob

    def test_serialize_validates_rotation(self):
        g = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        bad = RotationSystem(((1, 1), (1, 2), (2, 3)))
        with pytest.raises(Exception):
            serialize_graph_file(g, bad)
