import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conjtri.graphs import (
    RotationSystem,
    UndirectedGraph,
    are_isomorphic,
    degree_profile,
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
        lg = line_graph_of(named_graphs["c4"])
        assert are_isomorphic(lg, named_graphs["c4"])[0]

    def test_k4_maps_to_octahedron(self, named_graphs):
        lg = line_graph_of(named_graphs["k4"])
        assert are_isomorphic(lg, octahedron())[0]

    def test_degree_formula(self, named_graphs):
        g = named_graphs["bowtie"]
        lg = line_graph_of(g)
        for eid in range(1, g.edge_count + 1):
            u, v = g.edge_by_id(eid)
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
            assert {c.vertices[i], c.vertices[i + 1]} == set(g.edge_by_id(eid))

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
        d = oriented.arcs
        assert d.in_degrees == d.out_degrees  # balanced by construction

    def test_arcs_match_graph_edges(self):
        ct = require_conjugated(octahedron())
        oriented = orient_along_circuit(ct, euler_circuit(ct))
        for eid, (tail, head) in oriented.arc_of_edge.items():
            assert set(ct.graph.edge_by_id(eid)) == {tail, head}

    def test_foreign_circuit_rejected(self, named_graphs):
        ct = require_conjugated(octahedron())
        bogus = EulerCircuit(vertices=(0, 1, 0), edge_ids=(1, 1))
        with pytest.raises(CircuitMismatchError):
            orient_along_circuit(ct, bogus)


class TestStackedTriangulation:
    def test_zero_inserts_is_triangle(self):
        t, rot = generate_stacked_triangulation(0, seed=1)
        assert t.vertex_count == 3
        assert t.edge_count == 3

    def test_counts_grow_linearly(self):
        t, _ = generate_stacked_triangulation(5, seed=2)
        assert t.vertex_count == 8
        assert t.edge_count == 18

    def test_all_faces_are_triangles(self):
        t, rot = generate_stacked_triangulation(4, seed=3)
        faces, ok = faces_and_genus_check(t, rot)
        assert ok
        assert all(len(f) == 3 for f in faces)

    def test_deterministic_per_seed(self):
        a = generate_stacked_triangulation(6, seed=9)
        b = generate_stacked_triangulation(6, seed=9)
        assert a == b

    def test_seed_changes_result(self):
        graphs = {generate_stacked_triangulation(6, seed=s)[0].edges for s in range(8)}
        assert len(graphs) > 1


class TestMedialGraph:
    def test_k4_gives_octahedron(self):
        t, rot = generate_stacked_triangulation(1, seed=1)
        mg, mrot = medial_graph(t, rot)
        assert are_isomorphic(mg, octahedron())[0]

    def test_four_regular_and_planar(self):
        for seed in (1, 5, 9):
            t, rot = generate_stacked_triangulation(4, seed=seed)
            mg, mrot = medial_graph(t, rot)
            assert set(mg.degrees) == {4}
            assert mg.vertex_count == t.edge_count
            _, ok = faces_and_genus_check(mg, mrot)
            assert ok

    def test_cycle_returns_itself(self, named_graphs):
        rot = RotationSystem([(1, 4), (1, 2), (2, 3), (3, 4)])
        mg, mrot = medial_graph(named_graphs["c4"], rot)
        assert mg == named_graphs["c4"]

    def test_low_degree_non_cycle_rejected(self, named_graphs):
        # P4 has degree-1 endpoints: neither a cycle nor min degree 3
        rot = RotationSystem([(1,), (1, 2), (2, 3), (3,)])
        with pytest.raises(ValueError):
            medial_graph(named_graphs["path4"], rot)

    def test_unverified_embedding_rejected(self, named_graphs):
        twisted = RotationSystem([(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 6, 5)])
        with pytest.raises(ValueError):
            medial_graph(named_graphs["k4"], twisted)


class TestSubdivision:
    def _medial_ct(self, inserts, seed):
        t, rot = generate_stacked_triangulation(inserts, seed)
        mg, mrot = medial_graph(t, rot)
        return require_conjugated(mg, mrot)

    def _subdivided_ct(self, ct, count, seed):
        # subdivide_edges does not validate its result; the test does.
        out = validate_conjugated(*subdivide_edges(ct.graph, ct.rotation, count, seed))
        assert isinstance(out, ConjugatedTriangulation), out
        return out

    def test_counts_and_degrees(self):
        ct = self._medial_ct(3, seed=4)
        before = degree_profile(ct.graph).histogram
        out = self._subdivided_ct(ct, 5, seed=7)
        after = degree_profile(out.graph).histogram
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
    t, rot = generate_stacked_triangulation(inserts, seed)
    mg, mrot = medial_graph(t, rot)
    ct = require_conjugated(mg, mrot)
    subs = min(subs, ct.graph.edge_count)
    out = validate_conjugated(*subdivide_edges(ct.graph, ct.rotation, subs, seed + 1))
    assert isinstance(out, ConjugatedTriangulation), out
    assert out.validation.passed
    assert set(degree_profile(out.graph).histogram) <= {2, 4}
