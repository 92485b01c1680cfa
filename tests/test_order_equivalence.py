"""The bucket-queue smallest-last order, the color-class first-fit, the
single-pass face tracing, and the line graph and sibling-constraint graph
built from neighbor bitmasks return exactly what the constructions they
replaced returned: the quadratic minimum scans, the pair enumeration and
the edge set kept in ``oracles``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conjtri.coloring import greedy_coloring, smallest_last_order
from conjtri.construct import (
    ConjugatedTriangulation,
    OrientedConjugated,
    ValidationReport,
    euler_circuit,
    generate_stacked_triangulation,
    line_graph_of,
    orient_along_circuit,
    validate_conjugated,
)
from conjtri.graphio import parse_graph_file
from conjtri.graphs import Digraph, RotationSystem, UndirectedGraph, faces_and_genus_check
from conjtri.pairs import sibling_constraint_graph
from conjtri.scan import GenRecipe, generate_corpus


def random_graph(rng, n_max):
    n = rng.randrange(1, n_max + 1)
    p = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return UndirectedGraph(n, edges)


def shuffled_rotation(g, rng):
    orders = []
    for ids in g.incident_edge_ids:
        row = list(ids)
        rng.shuffle(row)
        orders.append(tuple(row))
    return RotationSystem(orders)


def assert_same_order_and_colors(g):
    ref = oracles.smallest_last_order_quadratic(g.vertex_count, g.edges)
    assert smallest_last_order(g) == ref
    assert greedy_coloring(g).colors == oracles.first_fit_colors(
        g.vertex_count, g.edges, ref
    )


def assert_same_faces(g, rot):
    faces, _ = faces_and_genus_check(g, rot)
    assert faces == oracles.trace_faces_quadratic(g.edges, rot.orders)


def assert_same_line_graph(g):
    lg = line_graph_of(g)
    assert (lg.vertex_count, list(lg.edges)) == oracles.line_graph_pairs(
        g.vertex_count, g.edges
    )
    assert lg.degrees == UndirectedGraph(lg.vertex_count, lg.edges).degrees


def randomly_oriented(g, rng):
    """Each edge directed at random.  sibling_constraint_graph reads only
    the base graph and the arcs, so the base need not be a conjugated
    triangulation here."""
    arc_of_edge = {
        eid: (u, v) if rng.random() < 0.5 else (v, u)
        for eid, (u, v) in enumerate(g.edges, start=1)
    }
    base = ConjugatedTriangulation(g, None, ValidationReport(()))
    return OrientedConjugated(base, Digraph(g.vertex_count, arc_of_edge.values()), arc_of_edge)


def assert_same_sibling_graph(oh):
    g = oh.base.graph
    aug = sibling_constraint_graph(oh)
    assert (aug.vertex_count, list(aug.edges)) == oracles.sibling_constraint_edges(
        g.vertex_count, g.edges, oh.arc_of_edge.values()
    )
    assert aug.masks == UndirectedGraph(aug.vertex_count, aug.edges).masks


@pytest.fixture(scope="module")
def atlas():
    return [UndirectedGraph(n, edges) for n, edges in oracles.connected_atlas_graphs()]


@pytest.fixture(scope="module")
def generated_cells():
    """Every insert count 0..9 with 0..3 subdivisions, plus the stacked
    triangulations the cells are grown from."""
    recipe = GenRecipe(inserts=tuple(range(10)), replicates=2, base_seed=5)
    cells = [parse_graph_file(blob) for _, blob in generate_corpus(recipe)]
    cells += [generate_stacked_triangulation(i, 100 + i) for i in range(10)]
    return cells


class TestSmallestLastOrder:
    def test_atlas(self, atlas):
        for g in atlas:
            assert_same_order_and_colors(g)

    def test_generated_cells_and_their_line_graphs(self, generated_cells):
        for g, _ in generated_cells:
            assert_same_order_and_colors(g)
            assert_same_order_and_colors(line_graph_of(g))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graphs(self, seed):
        assert_same_order_and_colors(random_graph(random.Random(seed), n_max=30))


class TestFaceTracing:
    def test_atlas_under_sorted_and_shuffled_rotations(self, atlas):
        rng = random.Random(3)
        for g in atlas:
            assert_same_faces(g, RotationSystem(g.incident_edge_ids))
            assert_same_faces(g, shuffled_rotation(g, rng))

    def test_generated_cells(self, generated_cells):
        for g, rot in generated_cells:
            assert_same_faces(g, rot)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graphs_and_rotations(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_max=20)
        assert_same_faces(g, shuffled_rotation(g, rng))


class TestLineGraph:
    def test_atlas(self, atlas):
        for g in atlas:
            assert_same_line_graph(g)

    def test_generated_cells(self, generated_cells):
        for g, _ in generated_cells:
            assert_same_line_graph(g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graphs(self, seed):
        assert_same_line_graph(random_graph(random.Random(seed), n_max=30))


class TestSiblingConstraintGraph:
    def test_atlas_under_random_orientations(self, atlas):
        rng = random.Random(7)
        for g in atlas:
            assert_same_sibling_graph(randomly_oriented(g, rng))

    def test_generated_cells_along_their_euler_circuits(self, generated_cells):
        # Of the stacked triangulations in the fixture, only the triangle
        # (0 inserts) is an instance.
        instances = [validate_conjugated(g, rot) for g, rot in generated_cells]
        instances = [ct for ct in instances if isinstance(ct, ConjugatedTriangulation)]
        assert len(instances) == 80 + 1
        for ct in instances:
            assert_same_sibling_graph(orient_along_circuit(ct, euler_circuit(ct)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_graphs_and_orientations(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n_max=30)
        assert_same_sibling_graph(randomly_oriented(g, rng))
