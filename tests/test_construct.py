import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from conjtri.graphs import (
    RotationSystem,
    UndirectedGraph,
    faces_and_genus_check,
)
from conjtri.construct import (
    CircuitMismatchError,
    ConjugatedTriangulation,
    EulerCircuit,
    NotConjugatedError,
    ValidationReport,
    euler_circuit,
    generate_stacked_triangulation,
    line_graph_of,
    medial_graph,
    orient_along_circuit,
    require_conjugated,
    subdivide_edges,
    validate_conjugated,
)
from conftest import octahedron


class TestValidation:
    def test_octahedron_is_valid(self):
        result = validate_conjugated(octahedron())
        assert isinstance(result, ConjugatedTriangulation)
        assert result.validation.passed
        assert result.validation.check("planarity").status == "skipped"

    def test_odd_degree_rejected(self, named_graphs):
        result = validate_conjugated(named_graphs["k4"])
        assert isinstance(result, ValidationReport)
        check = result.check("degrees")
        assert check.status == "fail"
        assert sorted(check.details) == [0, 1, 2, 3]

    def test_degree_six_rejected(self):
        # all degrees even but 6 is outside the allowed profile
        g = UndirectedGraph(
            7,
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
             (1, 2), (3, 4), (5, 6)],
        )
        result = validate_conjugated(g)
        assert isinstance(result, ValidationReport)
        assert result.check("degrees").status == "fail"
        assert result.check("degrees").details == (0,)

    def test_disconnected_rejected(self):
        g = UndirectedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        result = validate_conjugated(g)
        assert isinstance(result, ValidationReport)
        assert result.check("connected").status == "fail"

    def test_planarity_checked_when_rotation_given(self, named_graphs):
        rot = RotationSystem([(1, 4), (1, 2), (2, 3), (3, 4)])
        result = validate_conjugated(named_graphs["c4"], rot)
        assert isinstance(result, ConjugatedTriangulation)
        assert result.validation.check("planarity").status == "pass"

    def test_validation_keeps_the_traced_faces(self, named_graphs):
        rot = RotationSystem([(1, 4), (1, 2), (2, 3), (3, 4)])
        result = validate_conjugated(named_graphs["c4"], rot)
        faces, _ = faces_and_genus_check(named_graphs["c4"], rot)
        assert result.faces == tuple(faces) and len(faces) == 2
        assert validate_conjugated(named_graphs["c4"]).faces is None

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(1, 3), (1, 2), (2, 9)], "rotation at vertex 2 is not a permutation"),
            ([(1, 3), (1, 2)], "rotation covers 2 vertices, graph has 3"),
        ],
    )
    def test_bad_rotation_fails_planarity(self, named_graphs, rows, message):
        # A rotation handed straight to the validator, not through the parser.
        result = validate_conjugated(named_graphs["triangle"], RotationSystem(rows))
        assert isinstance(result, ValidationReport)
        planarity = result.check("planarity")
        assert planarity.status == "fail"
        assert len(planarity.details) == 1 and planarity.details[0].startswith(message)

    @pytest.mark.parametrize("shape", ["edgeless", "cycle"])
    def test_validation_is_linear_and_builds_no_masks(self, shape):
        n = 100_000
        edges = [] if shape == "edgeless" else [(i, (i + 1) % n) for i in range(n)]
        g = UndirectedGraph(n, edges)
        t0 = time.perf_counter()
        result = validate_conjugated(g)
        elapsed = time.perf_counter() - t0
        # Linear validation of this graph takes well under a second; a component
        # search quadratic in V, such as one over V-bit masks, takes minutes.
        assert elapsed < 10, f"{elapsed:.1f} s"
        if shape == "edgeless":
            assert len(result.check("connected").details) == n
        else:
            assert isinstance(result, ConjugatedTriangulation)
        assert "masks" not in g.__dict__

    def test_require_raises_with_failed_checks(self, named_graphs):
        with pytest.raises(NotConjugatedError) as exc:
            require_conjugated(named_graphs["k4"])
        assert "degrees" in exc.value.failed_checks


class TestLineGraph:
    def test_cycle_maps_to_cycle(self, named_graphs):
        c4 = named_graphs["c4"]
        lg = line_graph_of(c4)
        assert oracles.isomorphic_brute(4, lg.edges, 4, c4.edges)

    def test_k4_maps_to_octahedron(self, named_graphs):
        lg = line_graph_of(named_graphs["k4"])
        assert oracles.isomorphic_brute(6, lg.edges, 6, octahedron().edges)

    def test_degree_formula(self, named_graphs):
        g = named_graphs["bowtie"]
        lg = line_graph_of(g)
        for eid in range(1, g.edge_count + 1):
            u, v = g.edges[eid - 1]
            expected = g.degrees[u] + g.degrees[v] - 2
            assert lg.degrees[eid - 1] == expected

    def test_edge_count_formula(self, named_graphs):
        g = named_graphs["petersen"]
        lg = line_graph_of(g)
        assert lg.edge_count == sum(d * (d - 1) for d in g.degrees) // 2

    def test_memory_is_linear_in_edges(self):
        n = 50_000
        g = UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])
        tracemalloc.start()
        try:
            lg = line_graph_of(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 12 MB here; the neighbor masks of this line graph alone would
        # hold E**2 / 2 bits, over 150 MB.
        assert peak < 40 * 10**6, f"peak {peak / 10**6:.1f} MB"
        assert lg.edge_count == n and "masks" not in lg.__dict__


class TestEulerCircuit:
    def test_covers_every_edge_once(self):
        ct = require_conjugated(octahedron())
        circuit = euler_circuit(ct)
        assert circuit.length == 12
        assert sorted(circuit.edge_ids) == list(range(1, 13))
        assert circuit.vertices[0] == circuit.vertices[-1]

    def test_steps_are_incident(self):
        ct = require_conjugated(octahedron())
        c = euler_circuit(ct)
        g = ct.graph
        for i, eid in enumerate(c.edge_ids):
            assert {c.vertices[i], c.vertices[i + 1]} == set(g.edges[eid - 1])

    def test_deterministic(self):
        ct = require_conjugated(octahedron())
        assert euler_circuit(ct) == euler_circuit(ct)

    def test_triangle(self, named_graphs):
        # from vertex 0 the smallest-id edge is taken at every step
        c = euler_circuit(require_conjugated(named_graphs["triangle"]))
        assert c.edge_ids == (1, 2, 3)
        assert c.vertices == (0, 1, 2, 0)


class TestOrientation:
    def test_every_edge_oriented_once(self):
        ct = require_conjugated(octahedron())
        oriented = orient_along_circuit(ct, euler_circuit(ct))
        assert sorted(oriented.arc_of_edge) == list(range(1, 13))
        arcs = oriented.arc_of_edge.values()
        out_degrees = Counter(tail for tail, _ in arcs)
        in_degrees = Counter(head for _, head in arcs)
        assert in_degrees == out_degrees  # balanced by construction

    def test_arcs_match_graph_edges(self):
        ct = require_conjugated(octahedron())
        oriented = orient_along_circuit(ct, euler_circuit(ct))
        for eid, (tail, head) in oriented.arc_of_edge.items():
            assert set(ct.graph.edges[eid - 1]) == {tail, head}

    def test_foreign_circuit_rejected(self, named_graphs):
        ct = require_conjugated(octahedron())
        bogus = EulerCircuit(vertices=(0, 1, 0), edge_ids=(1, 1))
        with pytest.raises(CircuitMismatchError):
            orient_along_circuit(ct, bogus)

    # Each circuit below has the graph's length, so only the per-edge
    # checks can refuse it.

    @pytest.mark.parametrize("eid", [0, 13, -1])
    def test_unknown_edge_id_rejected(self, eid):
        ct = require_conjugated(octahedron())
        c = euler_circuit(ct)
        ids = list(c.edge_ids)
        ids[3] = eid
        with pytest.raises(CircuitMismatchError, match=f"unknown edge id {eid}$"):
            orient_along_circuit(ct, EulerCircuit(c.vertices, tuple(ids)))

    def test_edge_off_its_step_rejected(self):
        ct = require_conjugated(octahedron())
        c = euler_circuit(ct)
        ids = list(c.edge_ids)
        ids[0], ids[1] = ids[1], ids[0]
        # The first step now carries the circuit's second edge, which joins
        # walk vertices 1 and 2, never 0 and 1: in a simple graph the walk
        # cannot return along its first edge.
        tail, head = c.vertices[:2]
        with pytest.raises(
            CircuitMismatchError, match=f"edge {ids[0]} does not join {tail} and {head}"
        ):
            orient_along_circuit(ct, EulerCircuit(c.vertices, tuple(ids)))

    def test_edge_traversed_twice_rejected(self):
        # Back and forth along edge 1 = (0, 1): every step joins its tail
        # and head, and the walk closes after 12 steps.
        ct = require_conjugated(octahedron())
        bogus = EulerCircuit(vertices=(0, 1) * 6 + (0,), edge_ids=(1,) * 12)
        with pytest.raises(CircuitMismatchError, match="edge 1 traversed twice"):
            orient_along_circuit(ct, bogus)

    def test_reversed_circuit_orients_every_edge_backwards(self):
        ct = require_conjugated(octahedron())
        c = euler_circuit(ct)
        back = EulerCircuit(c.vertices[::-1], c.edge_ids[::-1])
        forward = orient_along_circuit(ct, c).arc_of_edge
        backward = orient_along_circuit(ct, back).arc_of_edge
        assert {eid: (h, t) for eid, (t, h) in forward.items()} == backward


class TestStackedTriangulation:
    def test_zero_inserts_is_triangle(self):
        t, _ = generate_stacked_triangulation(0, seed=1)
        assert t.vertex_count == 3
        assert t.edge_count == 3

    def test_counts_grow_linearly(self):
        t, _ = generate_stacked_triangulation(5, seed=2)
        assert t.vertex_count == 8
        assert t.edge_count == 18

    def test_all_faces_are_triangles(self):
        t, triples = generate_stacked_triangulation(4, seed=3)
        faces, ok = faces_and_genus_check(t, chained_rotation(t, triples))
        assert ok
        assert all(len(f) == 3 for f in faces)

    @pytest.mark.parametrize("inserts", range(7))
    def test_returned_faces_are_the_traced_faces(self, inserts):
        t, faces = generate_stacked_triangulation(inserts, seed=inserts)
        traced, _ = faces_and_genus_check(t, chained_rotation(t, faces))

        def cyclic_forms(cycles):
            # Each cycle from its smallest vertex, keeping its orientation.
            out = []
            for c in cycles:
                i = c.index(min(c))
                out.append(tuple(c[i:]) + tuple(c[:i]))
            return sorted(out)

        assert cyclic_forms(faces) == cyclic_forms(
            [tuple(tail for tail, _, _ in f) for f in traced]
        )

    def test_deterministic_per_seed(self):
        a = generate_stacked_triangulation(6, seed=9)
        b = generate_stacked_triangulation(6, seed=9)
        assert a == b

    @pytest.mark.parametrize("inserts", [0, 1, 7])
    def test_graph_equals_the_checked_build(self, inserts):
        t, _ = generate_stacked_triangulation(inserts, seed=inserts)
        checked = UndirectedGraph(t.vertex_count, t.edges)
        assert (t, t.degrees) == (checked, checked.degrees)

    def test_seed_changes_result(self):
        graphs = {generate_stacked_triangulation(6, seed=s)[0].edges for s in range(8)}
        assert len(graphs) > 1


class TestMedialGraph:
    def test_k4_gives_octahedron(self):
        mg, mrot = medial_graph(*generate_stacked_triangulation(1, seed=1))
        assert oracles.isomorphic_brute(6, mg.edges, 6, octahedron().edges)

    def test_four_regular_and_planar(self):
        for seed in (1, 5, 9):
            t, faces = generate_stacked_triangulation(4, seed=seed)
            mg, mrot = medial_graph(t, faces)
            assert set(mg.degrees) == {4}
            assert mg.vertex_count == t.edge_count
            _, ok = faces_and_genus_check(mg, mrot)
            assert ok
            checked = UndirectedGraph(mg.vertex_count, mg.edges)
            assert (mg, mg.degrees) == (checked, checked.degrees)

    def test_cycle_returns_itself(self, named_graphs):
        faces = [(0, 1, 2, 3), (3, 2, 1, 0)]
        mg, mrot = medial_graph(named_graphs["c4"], faces)
        assert mg == named_graphs["c4"]
        assert mrot.orders == ((1, 4), (1, 2), (2, 3), (3, 4))

    def test_low_degree_non_cycle_rejected(self, named_graphs):
        # P4 has degree-1 endpoints: neither a cycle nor min degree 3
        with pytest.raises(ValueError):
            medial_graph(named_graphs["path4"], [(0, 1, 2, 3, 2, 1)])

    def test_unverified_embedding_rejected(self, named_graphs):
        # The two faces of a toroidal K4 break Euler's formula for the plane.
        k4 = named_graphs["k4"]
        twisted = RotationSystem([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 6, 5)])
        faces, ok = faces_and_genus_check(k4, twisted)
        assert not ok and len(faces) == 2
        cycles = [tuple(tail for tail, _, _ in f) for f in faces]
        with pytest.raises(ValueError, match="planar"):
            medial_graph(k4, cycles)

    def test_edge_on_one_corner_rejected(self):
        # Without the last face, its edges lie on one corner each; the
        # first of them in edge order is named.
        t, faces = generate_stacked_triangulation(3, seed=4)
        a, b, c = faces[-1]
        first = min(t.edges.index(tuple(sorted(e))) for e in ((a, b), (b, c), (c, a)))
        message = f"edge {t.edges[first]} is not on exactly two face corners"
        with pytest.raises(ValueError, match=re.escape(message)):
            medial_graph(t, faces[:-1])

    @pytest.mark.parametrize("faces_of", [
        lambda faces: faces + faces,
        lambda faces: faces[:-1] + faces[:1],
        lambda faces: [faces[0]] * len(faces),
    ])
    def test_duplicated_faces_rejected(self, faces_of):
        # The first face's darts are checked from its last step, v to w.
        t, faces = generate_stacked_triangulation(3, seed=4)
        _, v, w = faces[0]
        edge = tuple(sorted((v, w)))
        with pytest.raises(ValueError, match=re.escape(f"edge {edge} is traversed twice")):
            medial_graph(t, faces_of(faces))

    def test_face_along_a_non_edge_rejected(self, named_graphs):
        # The octahedron has no edge between antipodes 0 and 5.
        g = named_graphs["octahedron"]
        with pytest.raises(ValueError, match=re.escape("face (0, 1, 5) steps along a non-edge")):
            medial_graph(g, [(0, 1, 5)] * 8)

    def test_empty_face_rejected(self):
        t, faces = generate_stacked_triangulation(3, seed=4)
        with pytest.raises(ValueError, match="a face is empty"):
            medial_graph(t, faces[:-1] + [()])

    def test_face_turning_back_rejected(self, named_graphs):
        # Each dart of K4 lies on one corner and V - E + F = 2, but the
        # digon (2, 3) turns back at both ends, so edge (2, 3) would be its
        # own medial neighbour.
        k4 = named_graphs["k4"]
        faces = [(0, 1, 2), (0, 2, 1, 3), (0, 3, 1), (2, 3)]
        with pytest.raises(ValueError, match=r"edge \(2, 3\) does not have four distinct"):
            medial_graph(k4, faces)

    def test_repeated_neighbour_rejected(self):
        # Two copies of K4 (vertices 2..5 and 6..9), each with vertex 0
        # joined to two of its vertices and vertex 1 to the other two,
        # glued at 0 and 1, with the faces of each copy's own plane
        # embedding.  Every dart lies on one corner and V - E + F =
        # 10 - 20 + 12 = 2, but the corners at 0 split its edges into two
        # cycles of two, so edge (0, 2) would meet edge (0, 3) twice.
        faces = [
            (2, 4, 3), (2, 5, 4), (2, 0, 3, 5), (2, 3, 0), (3, 4, 1, 5), (4, 5, 1),
            (6, 8, 7), (6, 9, 8), (6, 0, 7, 9), (6, 7, 0), (7, 8, 1, 9), (8, 9, 1),
        ]
        edges = {tuple(sorted((f[i - 1], f[i]))) for f in faces for i in range(len(f))}
        t = UndirectedGraph(10, sorted(edges))
        assert set(t.degrees) == {4} and t.edge_count == 20
        with pytest.raises(ValueError, match=r"edge \(0, 2\) does not have four distinct"):
            medial_graph(t, faces)

    @pytest.mark.parametrize("inserts", range(1, 8))
    def test_given_faces_match_the_traced_oracle(self, inserts):
        for seed in range(4):
            t, faces = generate_stacked_triangulation(inserts, 31 * inserts + seed)
            mg, mrot = medial_graph(t, faces)
            assert (mg.vertex_count, list(mg.edges), list(mrot.orders)) == (
                oracles.medial_traced(
                    t.vertex_count, t.edges, chained_rotation(t, faces).orders
                )
            )
            # Face order and starting corners do not change the result.
            shuffled = [f[1:] + f[:1] for f in reversed(faces)]
            assert medial_graph(t, shuffled) == (mg, mrot)


def chained_rotation(t, faces):
    """The rotation of ``t`` that its oriented faces chain into."""
    return RotationSystem(
        oracles.rotation_from_oriented_faces(t.vertex_count, t.edges, faces)
    )


class TestSubdivision:
    def _medial_ct(self, inserts, seed):
        return require_conjugated(
            *medial_graph(*generate_stacked_triangulation(inserts, seed))
        )

    def _subdivided_ct(self, ct, count, seed):
        # subdivide_edges does not validate its result; the test does.
        out = validate_conjugated(*subdivide_edges(ct.graph, ct.rotation, count, seed))
        assert isinstance(out, ConjugatedTriangulation), out
        return out

    def test_counts_and_degrees(self):
        ct = self._medial_ct(3, seed=4)
        before = Counter(ct.graph.degrees)
        out = self._subdivided_ct(ct, 5, seed=7)
        after = Counter(out.graph.degrees)
        assert out.graph.vertex_count == ct.graph.vertex_count + 5
        assert out.graph.edge_count == ct.graph.edge_count + 5
        assert after[4] == before[4]
        assert after[2] == before.get(2, 0) + 5

    def test_planarity_preserved(self):
        ct = self._medial_ct(2, seed=2)
        out = self._subdivided_ct(ct, 4, seed=3)
        assert out.validation.check("planarity").status == "pass"

    def test_zero_is_identity(self):
        ct = self._medial_ct(2, seed=2)
        out = self._subdivided_ct(ct, 0, seed=5)
        assert out.graph == ct.graph

    def test_too_many_rejected(self):
        ct = self._medial_ct(1, seed=1)
        with pytest.raises(ValueError):
            subdivide_edges(ct.graph, ct.rotation, ct.graph.edge_count + 1, seed=1)

    def test_deterministic(self):
        ct = self._medial_ct(2, seed=8)
        first = self._subdivided_ct(ct, 3, seed=5)
        assert first.graph == self._subdivided_ct(ct, 3, seed=5).graph


@settings(max_examples=30, deadline=None)
@given(
    inserts=st.integers(0, 6),
    subs=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_recipe_cells_always_yield_valid_instances(inserts, subs, seed):
    ct = require_conjugated(*medial_graph(*generate_stacked_triangulation(inserts, seed)))
    subs = min(subs, ct.graph.edge_count)
    out = validate_conjugated(*subdivide_edges(ct.graph, ct.rotation, subs, seed + 1))
    assert isinstance(out, ConjugatedTriangulation), out
    assert out.validation.passed
    assert set(out.graph.degrees) <= {2, 4}
