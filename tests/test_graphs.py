import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conjtri.abstract_r import AdjacencyMatrix
from conjtri.graphs import (
    RotationError,
    RotationSystem,
    UndirectedGraph,
    faces_and_genus_check,
    is_connected,
    mask_bits,
)


def random_graph(rng, n_max=8, p=0.45):
    n = rng.randrange(1, n_max + 1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(n, edges)


class TestUndirectedGraph:
    def test_edges_normalized_and_ids_stable(self):
        g = UndirectedGraph(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((1, 3), (0, 2), (1, 2))

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(1, 1)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UndirectedGraph(2, [(0, 2)])

    def test_adjacency_and_degrees(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (1, 3)])
        assert g.degrees == (1, 3, 1, 1)
        assert g.masks[1] == 0b1101
        assert g.incident_edge_ids[1] == (1, 2, 3)

    def test_masks_list_the_neighbors(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_graph(rng, n_max=12)
            nbrs = [set() for _ in range(g.vertex_count)]
            for u, v in g.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            assert [mask_bits(m) for m in g.masks] == [sorted(s) for s in nbrs]

    def test_from_masks_sorts_edges_and_keeps_the_masks(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng, n_max=12)
            h = UndirectedGraph.from_masks(g.masks)
            assert h.vertex_count == g.vertex_count
            assert h.edges == tuple(sorted(g.edges))
            assert "masks" in h.__dict__ and h.masks == g.masks
            assert h.degrees == g.degrees


class TestAdjacencyMatrix:
    def test_row_and_column_sums(self):
        m = AdjacencyMatrix([[0, 1, 1], [0, 0, 1], [1, 0, 0]])
        assert m.row_sums == (2, 1, 1)
        assert m.col_sums == (1, 1, 2)
        assert m.total == 4

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix([[1, 0], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix([[0, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix([[0, 2], [1, 0]])


class TestConnectivity:
    def test_components_sorted(self):
        g = UndirectedGraph(5, [(3, 4), (0, 1)])
        assert [sorted(b) for b in g.components] == [[0, 1], [2], [3, 4]]

    def test_is_connected(self, named_graphs):
        assert is_connected(named_graphs["k4"])
        assert not is_connected(UndirectedGraph(3, [(0, 1)]))

    def test_single_vertex_connected(self):
        assert is_connected(UndirectedGraph(1, []))


PLANAR_K4_ROTATION = RotationSystem(
    # K4 embedded with faces 123, 142, 134 (outer 243); edge ids:
    # 1=(0,1) 2=(0,2) 3=(0,3) 4=(1,2) 5=(1,3) 6=(2,3)
    [(1, 2, 3), (1, 5, 4), (2, 4, 6), (3, 6, 5)]
)


class TestFaces:
    def test_k4_planar_rotation(self, named_graphs):
        faces, ok = faces_and_genus_check(named_graphs["k4"], PLANAR_K4_ROTATION)
        assert ok
        assert len(faces) == 4  # V - E + F = 4 - 6 + 4 = 2
        assert all(len(f) == 3 for f in faces)

    def test_k4_twisted_rotation_fails(self, named_graphs):
        twisted = RotationSystem([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 6, 5)])
        _, ok = faces_and_genus_check(named_graphs["k4"], twisted)
        assert not ok

    def test_cycle(self, named_graphs):
        rot = RotationSystem([(1, 4), (1, 2), (2, 3), (3, 4)])
        faces, ok = faces_and_genus_check(named_graphs["c4"], rot)
        assert ok
        assert len(faces) == 2

    def test_edgeless(self):
        g = UndirectedGraph(2, [])
        faces, ok = faces_and_genus_check(g, RotationSystem([(), ()]))
        assert not ok  # two components cannot embed as one sphere

    def test_rotation_rebuild_round_trip(self, named_graphs):
        g = named_graphs["k4"]
        faces, ok = faces_and_genus_check(g, PLANAR_K4_ROTATION)
        assert ok
        vertex_faces = [tuple(tail for tail, _, _ in face) for face in faces]
        rebuilt = RotationSystem(
            oracles.rotation_from_oriented_faces(4, g.edges, vertex_faces)
        )
        _, ok2 = faces_and_genus_check(g, rebuilt)
        assert ok2
        for v in range(4):
            assert sorted(rebuilt.orders[v]) == sorted(PLANAR_K4_ROTATION.orders[v])

    def test_inconsistent_faces_raise(self, named_graphs):
        triangle = named_graphs["triangle"]
        with pytest.raises(ValueError, match="corner conflict"):
            oracles.rotation_from_oriented_faces(
                3, triangle.edges, [(0, 1, 2), (0, 1, 2)]
            )


class TestRotationValidation:
    def test_wrong_length(self, named_graphs):
        with pytest.raises(RotationError):
            RotationSystem([(1,)]).validate(named_graphs["triangle"])

    def test_not_a_permutation(self, named_graphs):
        rot = RotationSystem([(1, 1), (1, 2), (2, 3)])
        with pytest.raises(RotationError):
            rot.validate(named_graphs["triangle"])

    def test_face_tracing_checks_the_rotation_itself(self, named_graphs):
        triangle = named_graphs["triangle"]
        with pytest.raises(RotationError, match="rotation at vertex 2 is not a permutation"):
            faces_and_genus_check(triangle, RotationSystem([(1, 3), (1, 2), (2, 9)]))
        with pytest.raises(RotationError, match="rotation covers 2 vertices, graph has 3"):
            faces_and_genus_check(triangle, RotationSystem([(1, 3), (1, 2)]))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_face_tracing_names_the_vertex_the_full_check_names(self, seed):
        # Damage one row of a valid rotation: drop, repeat or replace an
        # entry, or add one.  The trace's own check must name the same
        # first bad vertex as RotationSystem.mismatched_vertex.
        rng = random.Random(seed)
        g = random_graph(rng)
        orders = [list(ids) for ids in g.incident_edge_ids]
        v = rng.randrange(g.vertex_count)
        row = orders[v]
        kind = rng.choice(["drop", "repeat", "replace", "add"])
        if kind == "drop" and row:
            row.pop(rng.randrange(len(row)))
        elif kind == "repeat" and row:
            row.append(rng.choice(row))
        elif kind == "replace" and row:
            row[rng.randrange(len(row))] = rng.randrange(-1, g.edge_count + 3)
        else:
            row.insert(rng.randrange(len(row) + 1), rng.randrange(-1, g.edge_count + 3))
        rot = RotationSystem(orders)
        bad = rot.mismatched_vertex(g)
        if bad is None:
            faces_and_genus_check(g, rot)
        else:
            with pytest.raises(RotationError, match=f"rotation at vertex {bad} is not"):
                faces_and_genus_check(g, rot)

    def test_mismatch_search_covers_only_the_given_vertices(self, named_graphs):
        rot = RotationSystem([(1, 1), (1, 2), (2, 3)])
        assert rot.mismatched_vertex(named_graphs["triangle"], [1, 2]) is None
        assert rot.mismatched_vertex(named_graphs["triangle"]) == 0

