import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conjtri import _core_py, coloring, core
from conjtri.construct import (
    ConjugatedTriangulation,
    generate_stacked_triangulation,
    line_graph_of,
    medial_graph,
    validate_conjugated,
)
from conjtri.graphio import parse_graph_file
from conjtri.graphs import (
    RotationSystem,
    SizeLimitError,
    UndirectedGraph,
    faces_and_genus_check,
)
from conjtri.scan import GenRecipe, ScanConfig, generate_corpus, run_hypothesis_scan
from conjtri.coloring import (
    EdgeColoring,
    VertexColoring,
    chromatic_class,
    chromatic_number,
    coloring_bounds,
    decide_k_coloring,
    edge_coloring_of,
    exhaustive_chromatic_number,
    greedy_clique,
    greedy_coloring,
    kempe_edge_coloring,
    misra_gries_edge_coloring,
    parity_proves_class_two,
    tait_coloring,
    two_coloring,
    verify_edge_coloring,
    verify_vertex_coloring,
)
from test_scan import SMALL_RECIPE


def random_graph(rng, n_max=8, p=0.45):
    n = rng.randrange(1, n_max + 1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return UndirectedGraph(n, edges)


def mycielski(levels):
    n, edges = 2, [(0, 1)]
    for _ in range(levels):
        m = n
        out = list(edges)
        for u, v in edges:
            out.append((u, m + v))
            out.append((v, m + u))
        for i in range(m):
            out.append((m + i, 2 * m))
        n, edges = 2 * m + 1, out
    return UndirectedGraph(n, edges)


KNOWN_GAMMA = {
    "triangle": 3,
    "path4": 2,
    "c4": 2,
    "c5": 3,
    "k4": 4,
    "k5": 5,
    "octahedron": 3,
    "bowtie": 3,
    "petersen": 3,
}

KNOWN_CHI = {
    "triangle": 3,
    "path4": 2,
    "c4": 2,
    "c5": 3,
    "k4": 3,
    "k5": 5,
    "octahedron": 4,
    "bowtie": 4,
    "petersen": 4,
}


class TestChromaticNumber:
    def test_known_values(self, named_graphs):
        for name, want in KNOWN_GAMMA.items():
            got = chromatic_number(named_graphs[name])
            assert got.value == want, name
            assert got.lower == got.upper == want

    def test_witness_is_proper_and_tight(self, named_graphs):
        for name in KNOWN_GAMMA:
            res = chromatic_number(named_graphs[name])
            assert verify_vertex_coloring(named_graphs[name], res.witness) == []
            assert res.witness.palette_size == res.value

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            g = random_graph(rng)
            want = oracles.chromatic_number_inclusion_exclusion(
                g.vertex_count, g.edges
            )
            assert chromatic_number(g).value == want

    def test_empty_and_edgeless(self):
        assert chromatic_number(UndirectedGraph(0, [])).value == 0
        assert chromatic_number(UndirectedGraph(4, [])).value == 1

    def test_size_cap(self):
        g = UndirectedGraph(61, [(i, i + 1) for i in range(60)])
        with pytest.raises(SizeLimitError):
            chromatic_number(g)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_agrees_with_both_oracles(self, seed):
        g = random_graph(random.Random(seed), n_max=7)
        ie = oracles.chromatic_number_inclusion_exclusion(g.vertex_count, g.edges)
        literal = oracles.chromatic_number_assignment(g.vertex_count, g.edges)
        assert ie == literal
        assert chromatic_number(g).value == ie


class TestChromaticClass:
    def test_known_values(self, named_graphs):
        for name, want in KNOWN_CHI.items():
            res = chromatic_class(named_graphs[name])
            assert res.value == want, name

    def test_witness_is_proper(self, named_graphs):
        g = named_graphs["petersen"]
        res = chromatic_class(g)
        assert verify_edge_coloring(g, res.witness) == []
        assert set(res.witness.colors) == set(range(1, g.edge_count + 1))

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            g = random_graph(rng, n_max=6)
            if g.edge_count == 0:
                continue
            want = oracles.edge_chromatic_inclusion_exclusion(
                g.vertex_count, list(g.edges)
            )
            assert chromatic_class(g).value == want
            checked += 1

    def test_edge_cap(self):
        g = UndirectedGraph(62, [(i, i + 1) for i in range(61)])
        with pytest.raises(SizeLimitError):
            chromatic_class(g)

    def test_hard_case_class_two(self):
        k7 = UndirectedGraph(7, list(itertools.combinations(range(7), 2)))
        res = chromatic_class(k7)
        assert res.value == 7  # odd complete graphs exceed their degree

    def test_vizing_caps_the_upper_bound_of_an_aborted_search(self, monkeypatch):
        # The greedy coloring of L(K6) uses 7 colors; Vizing gives Delta + 1 = 6.
        k6 = UndirectedGraph(6, list(itertools.combinations(range(6), 2)))
        # K6 is class 1, so the Kempe step settles it unless its cap is 0.
        unpatched = chromatic_class(k6)
        assert (unpatched.value, unpatched.certificate) == (5, "kempe")
        monkeypatch.setattr(coloring, "KEMPE_STEPS_PER_EDGE", 0)
        res = chromatic_class(k6, node_budget=1)
        assert res.value is None
        assert (res.lower, res.upper) == (5, 6)
        assert res.lower <= chromatic_class(k6).value <= res.upper
        # The upper bound's witness is the Misra-Gries completion.
        greedy = greedy_coloring(line_graph_of(k6))
        assert res.witness == edge_coloring_of(misra_gries_edge_coloring(k6, greedy))
        assert verify_edge_coloring(k6, res.witness) == []
        assert set(res.witness.colors.values()) == set(range(6))
        assert chromatic_class(UndirectedGraph(0, [])).upper == 0


def random_two_four_graph(rng, n_max=8):
    """Simple graph with every degree 2 or 4, from a rejected configuration
    model: stubs are paired at random until no loop or parallel edge appears."""
    while True:
        n = rng.randrange(3, n_max + 1)
        degrees = [rng.choice((2, 4)) for _ in range(n)]
        stubs = [v for v, d in enumerate(degrees) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == len(stubs) // 2 and all(u != v for u, v in pairs):
            return UndirectedGraph(n, sorted(pairs))


def subdivided(g, times):
    """``g`` with one degree-2 vertex put on each of its first ``times`` edges."""
    n, edges = g.vertex_count, list(g.edges)
    for i in range(times):
        u, v = edges[i]
        edges[i] = (u, n + i)
        edges.append((n + i, v))
    return UndirectedGraph(n + times, edges)


def _kernel(impl_name):
    if impl_name == "pure":
        return _core_py
    try:
        from conjtri import _core  # type: ignore[attr-defined]
    except ImportError:
        pytest.skip("compiled kernel not built")
    return _core


class TestParityCertificate:
    def test_sound_on_connected_atlas_graphs(self):
        fired = 0
        for n, edges in oracles.connected_atlas_graphs():
            g = UndirectedGraph(n, edges)
            if not parity_proves_class_two(g):
                continue
            fired += 1
            want = max(g.degrees) + 1
            assert oracles.edge_chromatic_inclusion_exclusion(n, edges) == want, edges
            res = chromatic_class(g)
            assert (res.value, res.certificate) == (want, "parity")
        assert fired == 18

    def test_sound_on_random_two_four_graphs(self):
        rng = random.Random(53)
        fired = 0
        for _ in range(80):
            g = random_two_four_graph(rng)
            want = oracles.edge_chromatic_inclusion_exclusion(
                g.vertex_count, list(g.edges)
            )
            res = chromatic_class(g)
            assert res.value == want
            if parity_proves_class_two(g):
                fired += 1
                assert want == max(g.degrees) + 1
                assert res.certificate == "parity"
            else:
                # The Kempe step runs when the greedy coloring needs more
                # than Delta colors; here it settles exactly the class-1 graphs.
                delta = max(g.degrees)
                runs = greedy_coloring(line_graph_of(g)).palette_size > delta
                kempe = runs and want == delta
                assert res.certificate == ("kempe" if kempe else None)
        assert fired > 10

    def test_two_four_rule(self, named_graphs):
        k5, octa = named_graphs["k5"], named_graphs["octahedron"]
        assert parity_proves_class_two(k5)  # |V2| = 0, |V4| = 5
        assert not parity_proves_class_two(octa)  # |V2| = 0, |V4| = 6
        assert parity_proves_class_two(subdivided(octa, 1))  # |V2| = 1
        assert parity_proves_class_two(subdivided(k5, 1))
        assert not parity_proves_class_two(subdivided(octa, 2))
        assert parity_proves_class_two(named_graphs["c5"])
        assert not parity_proves_class_two(named_graphs["c4"])
        assert not parity_proves_class_two(UndirectedGraph(3, []))
        assert chromatic_class(subdivided(octa, 1)).value == 5

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_k5_skips_the_four_color_refutation(self, impl_name, monkeypatch):
        monkeypatch.setattr(core, "decide_coloring", _kernel(impl_name).decide_coloring)
        k5 = UndirectedGraph(5, list(itertools.combinations(range(5), 2)))
        res = chromatic_class(k5)
        assert (res.value, res.lower, res.upper) == (5, 5, 5)
        assert res.certificate == "parity"
        assert verify_edge_coloring(k5, res.witness) == []
        # No decision ran: the witness is the Misra-Gries completion of the
        # greedy coloring, which uses 7 colors, and searching costs nodes.
        lg = line_graph_of(k5)
        greedy = greedy_coloring(lg)
        assert greedy.palette_size == 7
        assert res.witness == edge_coloring_of(misra_gries_edge_coloring(k5, greedy))
        assert res.nodes == 0
        assert decide_k_coloring(lg, 5)[2] > 0
        assert chromatic_number(lg).nodes > 0

    def test_k5_node_count_is_backend_independent(self, monkeypatch):
        k5 = UndirectedGraph(5, list(itertools.combinations(range(5), 2)))
        counts = []
        for impl_name in ("pure", "compiled"):
            monkeypatch.setattr(
                core, "decide_coloring", _kernel(impl_name).decide_coloring
            )
            res = chromatic_class(k5)
            counts.append((res.nodes, res.witness))
        assert counts[0] == counts[1]


def _kempe_runs(g):
    """The greedy line-graph coloring when chromatic_class runs the Kempe
    step on ``g``, else None."""
    if not g.edge_count or parity_proves_class_two(g):
        return None
    greedy = greedy_coloring(line_graph_of(g))
    return greedy if greedy.palette_size > max(g.degrees) else None


def _check_kempe(g, greedy, want):
    """Run the Kempe step from ``greedy``, check what it returns against
    the exact value ``want``, and say whether it settled chi."""
    delta = max(g.degrees)
    witness, steps = kempe_edge_coloring(g, greedy)
    res = chromatic_class(g)
    if witness is None:
        # On the graphs tested, the step gives up only on class-2 graphs.
        assert want == delta + 1
        assert steps == coloring.KEMPE_STEPS_PER_EDGE * g.edge_count
        assert res.certificate is None and res.value == want
        return False
    assert verify_edge_coloring(g, witness) == []
    assert witness.palette_size == delta
    assert len(set(witness.colors.values())) == delta
    assert want == delta
    assert (res.value, res.lower, res.upper, res.nodes) == (delta, delta, delta, 0)
    assert (res.witness, res.certificate) == (witness, "kempe")
    return True


_HASHSEED_SCRIPT = """
import json
from conjtri.coloring import chromatic_class
from conjtri.graphio import parse_graph_file
from conjtri.scan import GenRecipe, generate_corpus
out = {}
recipe = GenRecipe(inserts=(3,), subdivisions=(0, 2), replicates=4)
for iid, blob in generate_corpus(recipe):
    res = chromatic_class(parse_graph_file(blob)[0])
    if res.certificate == "kempe":
        out[iid] = sorted(res.witness.colors.items())
print(json.dumps(out, sort_keys=True))
"""


class TestKempeStep:
    def test_settles_every_class_one_atlas_graph(self):
        outcomes = []
        for n, edges in oracles.connected_atlas_graphs():
            g = UndirectedGraph(n, edges)
            greedy = _kempe_runs(g)
            if greedy is not None:
                want = oracles.edge_chromatic_inclusion_exclusion(n, edges)
                outcomes.append(_check_kempe(g, greedy, want))
        # All 235 class-1 graphs are settled; the 22 class-2 ones give up.
        assert (outcomes.count(True), outcomes.count(False)) == (235, 22)

    def test_settles_random_two_four_graphs(self):
        rng = random.Random(59)
        outcomes = []
        for _ in range(200):
            g = random_two_four_graph(rng)
            greedy = _kempe_runs(g)
            if greedy is not None:
                want = oracles.edge_chromatic_inclusion_exclusion(
                    g.vertex_count, list(g.edges)
                )
                outcomes.append(_check_kempe(g, greedy, want))
        assert (outcomes.count(True), outcomes.count(False)) == (16, 2)

    def test_petersen_exhausts_the_cap_and_falls_back_to_search(self, named_graphs):
        g = named_graphs["petersen"]  # 3-regular, class 2, parity silent
        greedy = _kempe_runs(g)
        assert greedy is not None
        witness, steps = kempe_edge_coloring(g, greedy)
        assert witness is None
        assert steps == coloring.KEMPE_STEPS_PER_EDGE * g.edge_count == 300
        res = chromatic_class(g)
        assert (res.value, res.certificate) == (4, None)
        assert res.nodes > 0

    def test_an_improper_witness_is_rejected(self, named_graphs, monkeypatch):
        g = named_graphs["octahedron"]
        bogus = EdgeColoring({eid: 0 for eid in range(1, g.edge_count + 1)}, 4)
        monkeypatch.setattr(coloring, "kempe_edge_coloring", lambda *a: (bogus, 1))
        res = chromatic_class(g)
        assert (res.value, res.certificate) == (4, None)
        assert res.nodes > 0
        assert verify_edge_coloring(g, res.witness) == []

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        runs = []
        for seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _HASHSEED_SCRIPT],
                env=dict(os.environ, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            )
            runs.append(json.loads(out.stdout))
        assert runs[0] == runs[1]
        assert len(runs[0]) >= 4

    def test_worker_count_does_not_change_kempe_witnesses(self, tmp_path):
        reports = [
            run_hypothesis_scan(
                ScanConfig(
                    recipe=SMALL_RECIPE,
                    timeout_ms=2000,
                    jobs=jobs,
                    counterexample_dir=str(tmp_path / "cex"),
                )
            )
            for jobs in (1, 2)
        ]

        def strip(rec):
            d = rec.to_dict()
            d.pop("timings_ms")
            return d

        one, two = ([strip(r) for r in rep.instances] for rep in reports)
        assert one == two
        assert any("Kempe" in d["hypotheses"]["H11"]["detail"] for d in one)


def partial_edge_coloring(g, rng, share):
    """A proper coloring of the line graph of ``g``: each edge, in random
    order, takes with probability ``share`` a random color up to Delta that
    its ends leave free.  The others get distinct colors above Delta, which
    ``misra_gries_edge_coloring`` reads as uncolored."""
    delta = max(g.degrees, default=0)
    used = [set() for _ in range(g.vertex_count)]
    colors = [0] * g.edge_count
    spare = delta + 1
    order = list(range(g.edge_count))
    rng.shuffle(order)
    for i in order:
        u, v = g.edges[i]
        free = sorted(set(range(delta + 1)) - used[u] - used[v])
        if free and rng.random() < share:
            colors[i] = rng.choice(free)
            used[u].add(colors[i])
            used[v].add(colors[i])
        else:
            colors[i], spare = spare, spare + 1
    return VertexColoring(tuple(colors), max(colors, default=-1) + 1)


def _check_misra_gries(g, start):
    """Complete ``start`` and check the result; True when the completion
    had edges to color."""
    delta = max(g.degrees, default=0)
    res = misra_gries_edge_coloring(g, start)
    assert oracles.is_proper_edge_coloring(g.edges, res.colors)
    assert res.palette_size <= delta + 1
    assert all(0 <= c < res.palette_size for c in res.colors)
    assert misra_gries_edge_coloring(g, start) == res
    # A proper coloring with at most Delta + 1 colors comes back unchanged.
    assert misra_gries_edge_coloring(g, res) is res
    if start.palette_size <= delta + 1:
        assert res is start
        return False
    return True


class TestMisraGries:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    def test_completes_any_proper_partial_coloring(self, seed, share):
        rng = random.Random(seed)
        g = random_graph(rng, n_max=10, p=rng.random())
        _check_misra_gries(g, partial_edge_coloring(g, rng, share))

    def test_completes_every_connected_atlas_graph(self):
        completed = 0
        for n, edges in oracles.connected_atlas_graphs():
            g = UndirectedGraph(n, edges)
            delta = max(g.degrees, default=0)
            uncolored = VertexColoring(
                tuple(range(delta + 1, delta + 1 + g.edge_count)),
                delta + 1 + g.edge_count,
            )
            greedy = greedy_coloring(line_graph_of(g))
            assert _check_misra_gries(g, uncolored) == (g.edge_count > 0)
            completed += _check_misra_gries(g, greedy)
        # The graphs whose greedy line-graph coloring uses more than
        # Delta + 1 colors.
        assert completed == 36

    def test_an_improper_result_raises(self, named_graphs, monkeypatch):
        k5 = named_graphs["k5"]
        monkeypatch.setattr(coloring, "verify_edge_coloring", lambda g, c: [(1, 2)])
        with pytest.raises(AssertionError, match="improper"):
            misra_gries_edge_coloring(k5, greedy_coloring(line_graph_of(k5)))
        # chromatic_class does not fall back to the search.
        with pytest.raises(AssertionError, match="improper"):
            chromatic_class(k5)

    def test_parity_instances_need_no_search(self, named_graphs, tait_recipe, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(core, "decide_coloring", refuse)
        graphs = [named_graphs["k5"], subdivided(named_graphs["octahedron"], 1)]
        graphs += [ct.graph for ct, _ in tait_recipe if parity_proves_class_two(ct.graph)]
        completed = 0
        for g in graphs:
            assert parity_proves_class_two(g)
            k = max(g.degrees) + 1
            res = chromatic_class(g)
            assert (res.value, res.lower, res.upper, res.nodes) == (k, k, k, 0)
            assert res.certificate == "parity"
            assert verify_edge_coloring(g, res.witness) == []
            assert set(res.witness.colors.values()) == set(range(k))
            completed += greedy_coloring(line_graph_of(g)).palette_size > k
        assert len(graphs) > 20 and completed > 5

    def test_star_lower_bound_skips_the_triangle_refutation(self):
        # Parity is silent and the greedy line-graph coloring uses Delta = 4
        # colors, but the greedy clique of the line graph is a triangle.
        recipe = GenRecipe(inserts=(1,), subdivisions=(3,), replicates=33, base_seed=1)
        iid, blob = generate_corpus(recipe)[-1]
        assert iid == "gen-i1-s3-r32"
        g = parse_graph_file(blob)[0]
        lg = line_graph_of(g)
        assert len(greedy_clique(lg)) == 3 < max(g.degrees) == 4
        assert greedy_coloring(lg).palette_size == 4
        res = chromatic_class(g)
        assert (res.value, res.lower, res.upper, res.nodes) == (4, 4, 4, 0)
        assert verify_edge_coloring(g, res.witness) == []


class TestBounds:
    def test_brooks_general(self, named_graphs):
        assert coloring_bounds(named_graphs["petersen"]).brooks == 3

    def test_brooks_complete_exception(self, named_graphs):
        assert coloring_bounds(named_graphs["k4"]).brooks == 4

    def test_brooks_odd_cycle_exception(self, named_graphs):
        assert coloring_bounds(named_graphs["c5"]).brooks == 3
        assert coloring_bounds(named_graphs["c4"]).brooks == 2

    def test_shannon(self, named_graphs):
        assert coloring_bounds(named_graphs["octahedron"]).shannon == 6
        assert coloring_bounds(named_graphs["triangle"]).shannon == 3

    def test_bounds_dominate_exact_values(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_graph(rng, n_max=7)
            b = coloring_bounds(g)
            gamma = chromatic_number(g).value
            assert gamma <= b.greedy
            assert gamma <= max(b.brooks, 1)
            if g.edge_count:
                assert chromatic_class(g).value <= b.shannon


class TestGreedy:
    def test_clique_is_a_clique(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(rng)
            clique = greedy_clique(g)
            for u, v in itertools.combinations(clique, 2):
                assert g.masks[u] >> v & 1

    def test_greedy_coloring_proper(self):
        rng = random.Random(41)
        for _ in range(30):
            g = random_graph(rng)
            vc = greedy_coloring(g)
            assert verify_vertex_coloring(g, vc) == []


class TestDecide:
    def test_statuses(self, named_graphs):
        sat, witness, _ = decide_k_coloring(named_graphs["c5"], 3)
        assert sat == core.SAT
        assert verify_vertex_coloring(named_graphs["c5"], witness) == []
        unsat, none, _ = decide_k_coloring(named_graphs["c5"], 2)
        assert unsat == core.UNSAT
        assert none is None

    def test_budget_abort(self):
        g = mycielski(4)  # needs 6 colors; refuting 5 takes ~450k nodes
        status, witness, nodes = decide_k_coloring(g, 5, node_budget=500)
        assert status == core.ABORTED
        assert witness is None
        # the node that trips the budget is itself counted
        assert 0 < nodes <= 501

    def test_abort_is_deterministic(self):
        g = mycielski(4)
        a = decide_k_coloring(g, 5, node_budget=500)
        b = decide_k_coloring(g, 5, node_budget=500)
        assert a == b

    def test_indeterminate_result_keeps_bounds(self):
        g = mycielski(4)
        res = chromatic_number(g, node_budget=500)
        assert res.value is None
        assert res.witness is None
        assert 2 <= res.lower <= res.upper
        # the unbounded run must land inside the reported bracket
        exact = chromatic_number(g).value
        assert res.lower <= exact <= res.upper


class TestVerifiers:
    def test_vertex_violations_listed(self, named_graphs):
        g = named_graphs["triangle"]
        bad = verify_vertex_coloring(g, VertexColoring((0, 0, 1), 2))
        assert bad == [1]  # edge 1 = (0, 1)

    def test_vertex_coverage_required(self, named_graphs):
        with pytest.raises(ValueError):
            verify_vertex_coloring(named_graphs["triangle"], VertexColoring((0,), 1))

    def test_edge_violations_listed(self, named_graphs):
        g = named_graphs["path4"]  # edges 1=(0,1) 2=(1,2) 3=(2,3)
        bad = verify_edge_coloring(g, EdgeColoring({1: 0, 2: 0, 3: 1}, 2))
        assert bad == [(1, 2)]

    def test_edge_coverage_required(self, named_graphs):
        with pytest.raises(ValueError):
            verify_edge_coloring(named_graphs["path4"], EdgeColoring({1: 0}, 1))


class TestExhaustiveVerifier:
    def test_matches_main_solver(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_graph(rng, n_max=6)
            assert exhaustive_chromatic_number(g) == chromatic_number(g).value

    def test_size_cap(self):
        g = UndirectedGraph(9, [(i, i + 1) for i in range(8)])
        with pytest.raises(SizeLimitError):
            exhaustive_chromatic_number(g, max_vertices=8)


def drawn_embedding(points, edges):
    """Validated instance of a straight-line drawing: each rotation row
    lists a vertex's edges by the angle of the edge."""
    g = UndirectedGraph(len(points), edges)

    def angle(v, eid):
        a, b = g.edges[eid - 1]
        w = a + b - v
        return math.atan2(points[w][1] - points[v][1], points[w][0] - points[v][0])

    rot = RotationSystem(
        sorted(ids, key=lambda eid: angle(v, eid))
        for v, ids in enumerate(g.incident_edge_ids)
    )
    ct = validate_conjugated(g, rot)
    assert isinstance(ct, ConjugatedTriangulation), ct
    return ct


def icosahedron_medial():
    """Medial graph of the icosahedron (30 vertices, 60 edges).  The
    smallest-last greedy coloring uses 4 colors on it, and 5 or more on the
    graph H of either face class, so the Tait step gives up."""
    upper, lower = [1, 2, 3, 4, 5], [6, 7, 8, 9, 10]
    faces = []
    for i in range(5):
        a, b = upper[i], upper[(i + 1) % 5]
        c, d = lower[i], lower[(i + 1) % 5]
        faces += [(0, a, b), (11, d, c), (a, c, b), (b, c, d)]
    edges = {tuple(sorted((f[i - 1], f[i]))) for f in faces for i in range(3)}
    t = UndirectedGraph(12, sorted(edges))
    ct = validate_conjugated(*medial_graph(t, faces))
    assert isinstance(ct, ConjugatedTriangulation)
    return ct


def four_color_bound(g):
    """A proper coloring with 4 colors: a 3-coloring with one vertex moved to
    a fourth color.  Passed as ``greedy``, it makes the certificates run."""
    three = chromatic_number(g)
    assert three.value == 3
    colors = list(three.witness.colors)
    colors[0] = 3
    return VertexColoring(tuple(colors), 4)


@pytest.fixture(scope="module")
def tait_recipe():
    """Validated instances of a small recipe, with their greedy colorings."""
    recipe = GenRecipe(inserts=tuple(range(7)), subdivisions=(0, 1, 2, 3), replicates=3)
    out = []
    for _, blob in generate_corpus(recipe):
        ct = validate_conjugated(*parse_graph_file(blob))
        out.append((ct, greedy_coloring(ct.graph)))
    return out


class TestTaitCertificate:
    def test_recipe_witnesses_are_proper_and_exact(self, tait_recipe):
        tait = 0
        for ct, greedy in tait_recipe:
            g = ct.graph
            res = chromatic_number(g, greedy=greedy, faces=ct.faces)
            assert verify_vertex_coloring(g, res.witness) == []
            assert res.value == oracles.chromatic_number_backtrack(
                g.vertex_count, g.edges
            )
            assert res.nodes == 0
            if greedy.palette_size > 3:
                tait += 1
                assert (res.value, res.certificate) == (3, "tait")
                assert res.witness == tait_coloring(g, ct.faces)
        assert tait >= 20

    def test_search_agrees_where_tait_decides(self, tait_recipe):
        for ct, greedy in tait_recipe:
            if greedy.palette_size > 3:
                searched = chromatic_number(ct.graph, greedy=greedy)
                assert searched.value == 3 and searched.nodes > 0
                # A subdivided instance may have no triangle left.
                assert searched.certificate in (None, "odd_cycle")

    def test_medial_of_a_triangulation_is_certified_by_its_vertex_class(self):
        # For the octahedron (the medial of K4) H is K4, which takes all 4
        # colors, so each vertex reads the XOR of two distinct colors.
        ct = validate_conjugated(*medial_graph(*generate_stacked_triangulation(1, 1)))
        witness = tait_coloring(ct.graph, ct.faces)
        assert verify_vertex_coloring(ct.graph, witness) == []
        assert witness.palette_size == 3 and set(witness.colors) == {0, 1, 2}

    def test_face_meeting_a_vertex_twice_in_one_class_uses_the_other(self, named_graphs):
        # The bowtie's outer face meets the cut vertex twice; the smaller
        # class is that face alone, so the two triangles' class certifies.
        points = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
        ct = drawn_embedding(points, named_graphs["bowtie"].edges)
        witness = tait_coloring(ct.graph, ct.faces)
        assert verify_vertex_coloring(ct.graph, witness) == []

    def test_face_meeting_a_vertex_twice_in_both_classes_falls_back(self):
        # A square with a triangle hung inside at vertex 0 and one outside at
        # vertex 2: the square's inner face meets 0 twice, its outer face 2.
        points = [(0, 0), (4, 0), (4, 4), (0, 4), (1, 0.5), (0.5, 1), (5, 6), (6, 5)]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (0, 5),
                 (2, 6), (6, 7), (2, 7)]
        ct = drawn_embedding(points, edges)
        assert tait_coloring(ct.graph, ct.faces) is None
        res = chromatic_number(ct.graph, greedy=four_color_bound(ct.graph), faces=ct.faces)
        # The greedy clique is an edge here; the odd cycle gives the 3.
        assert (res.value, res.certificate) == (3, "odd_cycle")
        assert res.nodes > 0
        assert verify_vertex_coloring(ct.graph, res.witness) == []

    def test_h_the_greedy_coloring_cannot_four_color_falls_back(self):
        ct = icosahedron_medial()
        g = ct.graph
        greedy = greedy_coloring(g)
        assert greedy.palette_size == 4
        assert tait_coloring(g, ct.faces) is None
        res = chromatic_number(g, greedy=greedy, faces=ct.faces)
        assert (res.value, res.certificate) == (3, None)
        assert res.nodes > 0
        assert verify_vertex_coloring(g, res.witness) == []
        assert res.value == oracles.chromatic_number_backtrack(g.vertex_count, g.edges)

    def test_no_rotation_means_no_faces_and_a_search(self, tait_recipe):
        ct, greedy = next(p for p in tait_recipe if p[1].palette_size > 3)
        bare = validate_conjugated(ct.graph)
        assert bare.faces is None
        res = chromatic_number(bare.graph, greedy=greedy, faces=bare.faces)
        assert (res.value, res.certificate) == (3, None)
        assert res.nodes > 0

    def test_an_improper_witness_is_rejected(self, tait_recipe, monkeypatch):
        ct, greedy = next(p for p in tait_recipe if p[1].palette_size > 3)
        monkeypatch.setattr(coloring, "verify_vertex_coloring", lambda g, c: [1])
        assert tait_coloring(ct.graph, ct.faces) is None

    def test_other_degrees_are_refused(self, named_graphs):
        k4 = named_graphs["k4"]
        rot = RotationSystem([(1, 2, 3), (1, 5, 4), (2, 4, 6), (3, 6, 5)])
        faces, ok = faces_and_genus_check(k4, rot)
        assert ok
        assert tait_coloring(k4, faces) is None


class TestBipartiteStep:
    def test_two_coloring_agrees_with_the_oracle_and_the_search(self):
        for n, edges in oracles.connected_atlas_graphs():
            g = UndirectedGraph(n, edges)
            if not edges:
                continue
            first = greedy_clique(g)[0]
            witness = two_coloring(g, first)
            bipartite = oracles.chromatic_number_backtrack(n, edges) <= 2
            assert (witness is not None) == bipartite
            if bipartite:
                # On a connected graph the 2-coloring that gives ``first``
                # color 0 is unique, so it is the search's witness too.
                assert witness == decide_k_coloring(g, 2)[1]

    def test_bipartite_certificate_replaces_the_two_color_search(self, named_graphs):
        c4 = named_graphs["c4"]
        loose = VertexColoring((0, 1, 0, 2), 3)  # proper, one color too many
        res = chromatic_number(c4, greedy=loose)
        assert (res.value, res.lower, res.upper, res.nodes) == (2, 2, 2, 0)
        assert res.certificate == "bipartite"
        assert res.witness == decide_k_coloring(c4, 2)[1]

    def test_odd_cycle_skips_the_two_color_search(self, named_graphs):
        c5 = named_graphs["c5"]
        res = chromatic_number(c5)
        assert (res.value, res.nodes, res.certificate) == (3, 0, "odd_cycle")
        assert res.witness == greedy_coloring(c5)

    def test_disconnected_graphs(self):
        # Two components: each starts from its own root with color 0.
        g = UndirectedGraph(5, [(0, 1), (3, 4), (2, 3)])
        assert two_coloring(g, 3).colors == (0, 1, 1, 0, 1)
        odd = UndirectedGraph(7, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
        assert two_coloring(odd) is None
