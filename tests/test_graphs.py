import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conjtri.graphs import (
    AdjacencyMatrix,
    Digraph,
    RotationError,
    RotationSystem,
    UndirectedGraph,
    are_isomorphic,
    degree_profile,
    faces_and_genus_check,
    find_triangles,
    is_connected,
    mask_bits,
    rotation_from_oriented_faces,
)


def random_graph(rng, n_max=8, p=0.45):
    n = rng.randrange(1, n_max + 1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(n, edges)


class TestUndirectedGraph:
    def test_edges_normalized_and_ids_stable(self):
        g = UndirectedGraph(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((1, 3), (0, 2), (1, 2))
        assert g.edge_by_id(1) == (1, 3)
        assert g.edge_by_id(3) == (1, 2)

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
        assert g.other_endpoint(2, 1) == 2

    def test_has_edge(self):
        g = UndirectedGraph(3, [(0, 1)])
        assert g.has_edge(1, 0)
        assert not g.has_edge(1, 2)

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


class TestDigraph:
    def test_degrees_and_successors(self):
        d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
        assert d.out_degrees == (1, 2, 0)
        assert d.in_degrees == (1, 1, 1)
        assert d.successors[1] == frozenset({0, 2})

    def test_rejects_duplicate_arc(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 1), (0, 1)])

    def test_opposite_arcs_allowed(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert len(d.arcs) == 2


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

    def test_digraph_round_trip(self):
        m = AdjacencyMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        assert AdjacencyMatrix.from_digraph(m.to_digraph()) == m


class TestConnectivity:
    def test_components_sorted(self):
        g = UndirectedGraph(5, [(3, 4), (0, 1)])
        assert [sorted(b) for b in g.components] == [[0, 1], [2], [3, 4]]

    def test_is_connected(self, named_graphs):
        assert is_connected(named_graphs["k4"])
        assert not is_connected(UndirectedGraph(3, [(0, 1)]))

    def test_single_vertex_connected(self):
        assert is_connected(UndirectedGraph(1, []))


class TestTriangles:
    def test_known(self, named_graphs):
        assert find_triangles(named_graphs["triangle"]) == [(0, 1, 2)]
        assert find_triangles(named_graphs["c5"]) == []
        assert len(find_triangles(named_graphs["k4"])) == 4

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng)
            assert find_triangles(g) == oracles.triangles_brute(
                g.vertex_count, g.edges
            )


class TestIsomorphism:
    def test_permuted_copy_found_with_valid_mapping(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, n_max=7)
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            h = UndirectedGraph(
                g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges]
            )
            ok, mapping = are_isomorphic(g, h)
            assert ok
            assert sorted(mapping) == list(range(g.vertex_count))
            mapped = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                      for u, v in g.edges}
            assert mapped == set(h.edges)

    def test_matches_brute_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_graph(rng, n_max=6)
            h = random_graph(rng, n_max=6)
            want = oracles.isomorphic_brute(
                g.vertex_count, g.edges, h.vertex_count, h.edges
            )
            assert are_isomorphic(g, h)[0] == want

    def test_digraphs(self):
        d1 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        d2 = Digraph(3, [(1, 0), (0, 2), (2, 1)])
        d3 = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert are_isomorphic(d1, d2)[0]
        assert not are_isomorphic(d1, d3)[0]

    def test_size_cap(self, named_graphs):
        big = UndirectedGraph(11, [(i, i + 1) for i in range(10)])
        with pytest.raises(Exception):
            are_isomorphic(big, big)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_self_isomorphic(self, seed):
        g = random_graph(random.Random(seed), n_max=7)
        assert are_isomorphic(g, g)[0]


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
        rebuilt = rotation_from_oriented_faces(g, vertex_faces)
        _, ok2 = faces_and_genus_check(g, rebuilt)
        assert ok2
        for v in range(4):
            assert sorted(rebuilt.orders[v]) == sorted(PLANAR_K4_ROTATION.orders[v])

    def test_inconsistent_faces_raise(self, named_graphs):
        with pytest.raises(RotationError):
            rotation_from_oriented_faces(
                named_graphs["triangle"], [(0, 1, 2), (0, 1, 2)]
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

    def test_mismatch_search_covers_only_the_given_vertices(self, named_graphs):
        rot = RotationSystem([(1, 1), (1, 2), (2, 3)])
        assert rot.mismatched_vertex(named_graphs["triangle"], [1, 2]) is None
        assert rot.mismatched_vertex(named_graphs["triangle"]) == 0


class TestDegreeProfile:
    def test_histogram(self, named_graphs):
        prof = degree_profile(named_graphs["bowtie"])
        assert prof.histogram == {2: 4, 4: 1}
        assert prof.max_degree == 4
        assert prof.all_even

    def test_odd_degrees_flagged(self, named_graphs):
        assert not degree_profile(named_graphs["path4"]).all_even
