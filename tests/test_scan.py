"""Corpus generation, per-instance evaluation, and the full scan pipeline."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tracemalloc
from collections import Counter

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from conjtri.coloring import (
    ChromaticResult,
    EdgeColoring,
    greedy_coloring,
    misra_gries_edge_coloring,
    verify_edge_coloring,
)
from conjtri.construct import ConjugatedTriangulation, line_graph_of, validate_conjugated
from conjtri.graphio import parse_graph_file, serialize_graph_file
from conjtri.graphs import RotationSystem, UndirectedGraph
from conjtri import scan as scan_module
from conjtri.scan import (
    GenRecipe,
    HYPOTHESES,
    ScanConfig,
    ScanInputError,
    _threshold_verdict,
    evaluate_instance,
    generate_corpus,
    report_schema,
    run_hypothesis_scan,
    write_report,
)

SMALL_RECIPE = GenRecipe(
    inserts=(0, 1, 2), subdivisions=(0, 2), replicates=2, base_seed=11
)


def _blob(g: UndirectedGraph) -> bytes:
    return serialize_graph_file(g)


def _octahedron() -> UndirectedGraph:
    non_edges = {(0, 5), (1, 3), (2, 4)}
    return UndirectedGraph(
        6,
        [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in non_edges
        ],
    )


def _k5() -> UndirectedGraph:
    return UndirectedGraph(5, list(itertools.combinations(range(5), 2)))


def _k5_edge_subdivided_twice() -> UndirectedGraph:
    """K5 with its edge 3-4 replaced by the path 3-5-6-4.  The parity lemma
    is silent (two degree-2 vertices), but the five degree-4 vertices span
    9 > 2 * 4 edges, so chi = 5, and the Kempe step gives up."""
    edges = [e for e in itertools.combinations(range(5), 2) if e != (3, 4)]
    return UndirectedGraph(7, edges + [(3, 5), (5, 6), (4, 6)])


class TestGenRecipe:
    def test_defaults_are_valid(self):
        r = GenRecipe()
        assert r.max_vertices_bound() <= 60
        assert r.max_edges_bound() <= 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"inserts": ()},
            {"inserts": (-1, 0)},
            {"subdivisions": ()},
            {"subdivisions": (0, -2)},
            {"replicates": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GenRecipe(**kwargs)

    def test_subdivisions_fit_the_smallest_cell(self):
        # One insert grows K4, whose medial (the octahedron) has 12 edges.
        GenRecipe(inserts=(1,), subdivisions=(12,))
        with pytest.raises(ValueError, match=r"\b13\b.*\b12 edges"):
            GenRecipe(inserts=(1,), subdivisions=(13,))
        # With 0 inserts the smallest cell is the triangle itself.
        GenRecipe(inserts=(0, 5), subdivisions=(3,))
        with pytest.raises(ValueError, match=r"\b4\b.*\b3 edges"):
            GenRecipe(inserts=(0, 5), subdivisions=(0, 4))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"inserts": (1, 2, 1)}, "inserts repeat the value 1;"),
            ({"subdivisions": (0, 3, 3)}, "subdivisions repeat the value 3;"),
        ],
    )
    def test_rejects_repeated_values(self, kwargs, message):
        # Repeated values would name two cells, and their counterexample
        # files, alike.
        with pytest.raises(ValueError, match=message):
            GenRecipe(**kwargs)

    def test_bounds_track_the_largest_cell(self):
        r = GenRecipe(inserts=(0, 4), subdivisions=(0, 3), replicates=1)
        assert r.max_edges_bound() == 6 + 24 + 3
        assert r.max_vertices_bound() == 3 + 12 + 3


class TestScanConfig:
    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            ScanConfig()
        with pytest.raises(ValueError):
            ScanConfig(source_files=("x.conj",), recipe=SMALL_RECIPE)

    def test_rejects_unknown_hypothesis(self):
        with pytest.raises(ValueError):
            ScanConfig(recipe=SMALL_RECIPE, hypotheses=("H10", "H99"))

    @pytest.mark.parametrize("kwargs", [{"timeout_ms": 0}, {"jobs": 0}])
    def test_rejects_bad_limits(self, kwargs):
        with pytest.raises(ValueError):
            ScanConfig(recipe=SMALL_RECIPE, **kwargs)

    def test_rejects_recipe_exceeding_caps(self):
        with pytest.raises(ValueError):
            ScanConfig(recipe=GenRecipe(inserts=(20,)), max_edges=60)

    @pytest.mark.parametrize("name", ["max_vertices", "max_edges"])
    def test_rejects_caps_above_the_kernel_limit(self, name):
        with pytest.raises(ValueError, match=f"{name} 65 .* limit of 64"):
            ScanConfig(source_files=("x.conj",), **{name: 65})
        ScanConfig(source_files=("x.conj",), **{name: 64})

    def test_node_budget_is_deterministic_time_metering(self):
        cfg = ScanConfig(recipe=SMALL_RECIPE, timeout_ms=250)
        assert cfg.node_budget == 250 * 100


class TestCorpus:
    def test_default_recipe_size(self, default_corpus):
        # 9 insert counts x 4 subdivision counts x 3 replicates
        assert len(default_corpus) == 108

    def test_ids_unique_and_stable(self, default_corpus):
        ids = [iid for iid, _ in default_corpus]
        assert len(set(ids)) == len(ids)
        assert ids[0] == "gen-i0-s0-r0"
        assert "gen-i8-s3-r2" in ids

    def test_every_instance_is_conjugated(self, default_corpus):
        for iid, ct in default_corpus:
            degrees = set(ct.graph.degrees)
            assert degrees <= {2, 4}, iid
            assert ct.validation.passed, iid

    @pytest.mark.parametrize(
        "inserts, replicates", [(9, 48), (4, 40), (6, 48)], ids=str
    )
    def test_benchmark_recipes_yield_valid_instances(self, inserts, replicates):
        # The recipes of the scan-deep, scan-files and scan-pure benchmark
        # workloads at seed 1.  Generation does not validate its output.
        recipe = GenRecipe(
            inserts=tuple(range(inserts + 1)),
            subdivisions=(0, 1, 2, 3),
            replicates=replicates,
            base_seed=1,
        )
        corpus = generate_corpus(recipe)
        assert len(corpus) == (inserts + 1) * 4 * replicates
        for iid, blob in corpus:
            outcome = validate_conjugated(*parse_graph_file(blob))
            assert isinstance(outcome, ConjugatedTriangulation), (iid, outcome)
            assert outcome.validation.check("planarity").status == "pass", iid

    def test_generation_is_deterministic(self):
        assert generate_corpus(SMALL_RECIPE) == generate_corpus(SMALL_RECIPE)

    def test_seed_changes_the_corpus(self):
        a = generate_corpus(GenRecipe(inserts=(4,), subdivisions=(2,), replicates=2, base_seed=1))
        b = generate_corpus(GenRecipe(inserts=(4,), subdivisions=(2,), replicates=2, base_seed=2))
        assert [blob for _, blob in a] != [blob for _, blob in b]

    def test_generated_bytes_are_pinned(self):
        # sha256 over every (id, file) pair of a recipe that reaches 10
        # inserts (66-edge medials), as the corner-chaining construction
        # wrote them.  A change to generation, the seeds or the file format
        # moves it.
        recipe = GenRecipe(
            inserts=tuple(range(11)), subdivisions=(0, 1, 2, 3), replicates=3
        )
        digest = hashlib.sha256()
        for iid, blob in generate_corpus(recipe):
            digest.update(iid.encode() + b"\n" + blob)
        assert digest.hexdigest() == (
            "9d94d3a69548fe6b46e174862918969bf6fb8361d9a4edd1906dc4cfd5f31d71"
        )

    def test_replicates_differ_within_a_cell(self):
        corpus = generate_corpus(
            GenRecipe(inserts=(6,), subdivisions=(0,), replicates=3, base_seed=5)
        )
        assert len({blob for _, blob in corpus}) > 1


class TestThresholdVerdict:
    def _res(self, value, lower, upper):
        return ChromaticResult(value, lower, upper, None, 0)

    def test_exact_value(self):
        assert _threshold_verdict(self._res(3, 3, 3), 3, "gamma")[0] == "pass"
        assert _threshold_verdict(self._res(4, 4, 4), 3, "gamma")[0] == "fail"

    def test_aborted_but_bounded(self):
        verdict, detail = _threshold_verdict(self._res(None, 2, 3), 3, "gamma")
        assert verdict == "pass" and "aborted" in detail
        verdict, detail = _threshold_verdict(self._res(None, 4, 6), 3, "gamma")
        assert verdict == "fail" and "aborted" in detail

    def test_straddling_bounds_are_indeterminate(self):
        verdict, detail = _threshold_verdict(self._res(None, 3, 4), 3, "gamma")
        assert verdict == "indeterminate"
        assert "straddle" in detail


class TestEvaluateInstance:
    def test_square(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rec = evaluate_instance("c4", _blob(g), HYPOTHESES, 2000, 60, 60)
        assert rec.valid
        assert rec.gamma["value"] == 2
        assert rec.chi["value"] == 2
        for h in ("H10", "H11", "H12", "H13"):
            assert rec.hypotheses[h]["verdict"] == "pass", h
        assert rec.degree_histogram == {2: 4}

    def test_octahedron(self):
        rec = evaluate_instance("octa", _blob(_octahedron()), HYPOTHESES, 2000, 60, 60)
        assert rec.valid
        assert rec.gamma["value"] == 3
        assert rec.chi["value"] == 4
        assert rec.hypotheses["H10"]["verdict"] == "pass"
        assert rec.hypotheses["H11"]["verdict"] == "pass"

    def test_h13_mirrors_h10(self):
        rec = evaluate_instance("octa", _blob(_octahedron()), HYPOTHESES, 2000, 60, 60)
        assert rec.hypotheses["H13"]["verdict"] == rec.hypotheses["H10"]["verdict"]
        assert "restates" in rec.hypotheses["H13"]["detail"]

    def test_gamma_failure_carries_oracle_confirmation(self):
        rec = evaluate_instance("k5", _blob(_k5()), HYPOTHESES, 2000, 60, 60)
        assert rec.valid  # 4-regular, connected; no rotation so planarity skipped
        assert rec.hypotheses["H10"]["verdict"] == "fail"
        assert "exhaustive oracle confirms gamma = 5" in rec.hypotheses["H10"]["detail"]
        assert rec.hypotheses["H11"]["verdict"] == "pass"  # chi(K5) = 5 <= 6

    def test_parity_lemma_settles_chi_without_refutation(self, monkeypatch):
        monkeypatch.setattr(scan_module, "NODES_PER_MS", 1)  # one node per decision
        # No search runs, so a budget of one node settles it too.
        for timeout_ms in (2000, 1):
            rec = evaluate_instance("k5", _blob(_k5()), ("H11",), timeout_ms, 60, 60)
            assert rec.chi == {"value": 5, "lower": 5, "upper": 5}
            assert rec.nodes["chi"] == 0
            assert rec.hypotheses["H11"] == {
                "verdict": "pass",
                "detail": "chi = 5 <= 6 (parity lemma lower bound, Vizing upper bound)",
            }

    def test_exhausted_budget_leaves_vizing_bounds_where_parity_is_silent(
        self, monkeypatch
    ):
        monkeypatch.setattr(scan_module, "NODES_PER_MS", 1)  # one node per decision
        g = _k5_edge_subdivided_twice()
        rec = evaluate_instance("k5-s2", _blob(g), ("H11",), 1, 60, 60)
        assert rec.valid
        assert rec.chi == {"value": None, "lower": 4, "upper": 5}
        assert rec.nodes["chi"] == 2  # the node that trips the budget counts
        assert rec.hypotheses["H11"] == {
            "verdict": "pass",
            "detail": "chi upper bound 5 <= 6 (exact search aborted)",
        }

    def test_vizing_settles_h11_when_the_budget_is_exhausted(self, monkeypatch):
        monkeypatch.setattr(scan_module, "NODES_PER_MS", 1)  # one node per decision
        g = _k5_edge_subdivided_twice()
        rec = evaluate_instance("k5-s2", _blob(g), ("H11",), 1, 60, 60)
        assert rec.chi == {"value": None, "lower": 4, "upper": 5}
        assert rec.hypotheses["H11"]["verdict"] == "pass"
        # The greedy coloring of the line graph uses 6 colors; the witness
        # is its Misra-Gries completion to Delta + 1 = 5.
        assert rec.bounds["greedy_edge"] == 6
        greedy = greedy_coloring(line_graph_of(g))
        completed = misra_gries_edge_coloring(g, greedy).colors
        colors = {int(eid): c for eid, c in rec.witnesses["h11_edge_coloring"].items()}
        assert colors == dict(enumerate(completed, start=1))
        assert set(colors.values()) == set(range(5))
        assert verify_edge_coloring(g, EdgeColoring(colors, 5)) == []

    def test_no_parity_note_when_the_lemma_is_silent(self):
        rec = evaluate_instance("octa", _blob(_octahedron()), ("H11",), 2000, 60, 60)
        detail = rec.hypotheses["H11"]["detail"]
        assert detail == "chi = 4 <= 6 (Kempe-chain witness, Delta lower bound)"
        assert "parity" not in detail

    def test_h10_detail_names_the_tait_certificate(self):
        recipe = GenRecipe(inserts=(3,), subdivisions=(0,), replicates=1)
        [(iid, blob)] = generate_corpus(recipe)
        rec = evaluate_instance(iid, blob, ("H10", "H13"), 2000, 60, 60)
        assert rec.bounds["greedy_vertex"] == 4
        assert (rec.gamma["value"], rec.nodes["gamma"]) == (3, 0)
        assert rec.hypotheses["H10"] == {
            "verdict": "pass",
            "detail": "gamma = 3 <= 3 (Tait face-coloring witness, odd-cycle lower bound)",
        }
        assert rec.hypotheses["H13"]["detail"].endswith(
            "odd-cycle lower bound) (H13 restates H10)"
        )
        # Without rotation lines there are no faces, and the search decides.
        bare = _blob(parse_graph_file(blob)[0])
        rec = evaluate_instance(iid, bare, ("H10",), 2000, 60, 60)
        assert rec.gamma["value"] == 3 and rec.nodes["gamma"] > 0
        assert rec.hypotheses["H10"]["detail"] == "gamma = 3 <= 3"

    def test_h10_detail_names_the_odd_cycle(self):
        c5 = UndirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        rec = evaluate_instance("c5", _blob(c5), ("H10",), 2000, 60, 60)
        assert rec.nodes["gamma"] == 0
        assert rec.hypotheses["H10"] == {
            "verdict": "pass",
            "detail": "gamma = 3 <= 3 (odd-cycle lower bound 3)",
        }

    def test_formerly_indeterminate_instance_is_exact(self):
        # Refuting a 4-edge-coloring used up the whole node budget here and
        # left chi in [4, 5]; with one degree-2 vertex the lemma settles it.
        recipe = GenRecipe(inserts=(9,), subdivisions=(1,), replicates=1)
        [(iid, blob)] = generate_corpus(recipe)
        assert iid == "gen-i9-s1-r0"
        rec = evaluate_instance(iid, blob, HYPOTHESES, 5000, 64, 64)
        assert rec.chi == {"value": 5, "lower": 5, "upper": 5}
        assert "parity lemma" in rec.hypotheses["H11"]["detail"]
        assert rec.nodes["chi"] == 0

    def test_kempe_witness_settles_the_last_indeterminate_instance(self):
        # Refuting a 4-edge-coloring here used up the whole 500,001-node
        # budget and left chi in [4, 5]; the parity lemma is silent at
        # |V2| = 3, and a verified Kempe-chain witness settles chi = 4.
        recipe = GenRecipe(inserts=(9,), subdivisions=(3,), replicates=24, base_seed=1)
        iid, blob = generate_corpus(recipe)[-1]
        assert iid == "gen-i9-s3-r23"
        rec = evaluate_instance(iid, blob, ("H11",), 5000, 64, 64)
        assert rec.chi == {"value": 4, "lower": 4, "upper": 4}
        assert rec.nodes["chi"] == 0
        assert rec.hypotheses["H11"] == {
            "verdict": "pass",
            "detail": "chi = 4 <= 6 (Kempe-chain witness, Delta lower bound)",
        }
        colors = {int(eid): c for eid, c in rec.witnesses["h11_edge_coloring"].items()}
        assert set(colors.values()) == set(range(4))
        graph, _ = parse_graph_file(blob)
        assert verify_edge_coloring(graph, EdgeColoring(colors, 4)) == []

    def test_invalid_instance_skips_everything(self):
        k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
        rec = evaluate_instance("k4", _blob(k4), HYPOTHESES, 2000, 60, 60)
        assert not rec.valid
        assert "degrees" in rec.validation_failures
        assert all(v["verdict"] == "skipped" for v in rec.hypotheses.values())
        assert rec.gamma["value"] is None

    def test_oversized_instance_skips_with_error(self):
        rec = evaluate_instance("octa", _blob(_octahedron()), HYPOTHESES, 2000, 4, 60)
        assert rec.valid
        assert rec.error is not None and "exceeds" in rec.error
        assert all(v["verdict"] == "skipped" for v in rec.hypotheses.values())

    def test_witnesses_are_checkable(self):
        g = _octahedron()
        rec = evaluate_instance("octa", _blob(g), HYPOTHESES, 2000, 60, 60)
        colors = rec.witnesses["h10_coloring"]
        assert colors is not None
        for u, v in g.edges:
            assert colors[u] != colors[v]
        ec = rec.witnesses["h11_edge_coloring"]
        assert ec is not None and len(ec) == g.edge_count
        # adjacent edges (sharing an endpoint) must differ
        for e1 in range(1, g.edge_count + 1):
            for e2 in range(e1 + 1, g.edge_count + 1):
                if set(g.edges[e1 - 1]) & set(g.edges[e2 - 1]):
                    assert ec[str(e1)] != ec[str(e2)]

    def test_h12_pass_ships_pairs(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rec = evaluate_instance("c4", _blob(g), HYPOTHESES, 2000, 60, 60)
        assert rec.hypotheses["H12"]["verdict"] == "pass"
        pairs = rec.witnesses["h12_pairs"]
        assert set(pairs) == {"1", "2", "3", "4"}
        for first, second in pairs.values():
            assert first != second

    def test_hypothesis_subset_only_evaluates_requested(self):
        g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        rec = evaluate_instance("c4", _blob(g), ("H11",), 2000, 60, 60)
        assert set(rec.hypotheses) == {"H11"}


@st.composite
def graphs_with_an_isolated_vertex(draw) -> bytes:
    """The file of a graph on 1..7 vertices of which at least one is
    isolated, with or without rotation lines; a file with rotation lines
    lists or leaves out the empty rows."""
    n = draw(st.integers(1, 7))
    lone = draw(st.integers(0, n - 1))
    pairs = list(itertools.combinations([v for v in range(n) if v != lone], 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = UndirectedGraph(n, edges)
    if not draw(st.booleans()):
        return serialize_graph_file(g)
    rot = RotationSystem([draw(st.permutations(ids)) for ids in g.incident_edge_ids])
    lines = serialize_graph_file(g, rot).splitlines(keepends=True)
    if draw(st.booleans()):
        lines = [x for x in lines if not (x.startswith(b"r ") and len(x.split()) == 2)]
    return b"".join(lines)


C4_AND_LONE_VERTEX = b"p conj 5 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
TRIANGLE_AND_FOUR_LONE_VERTICES = b"p conj 7 3\ne 1 2\ne 2 3\ne 1 3\n"


class TestIsolatedVertices:
    """A graph with more vertices than edge endpoints (V > 2E) is decided
    from its edge list.  Whichever path it takes, a graph with an isolated
    vertex must get the record that full validation gives."""

    @settings(max_examples=200, deadline=None)
    @given(graphs_with_an_isolated_vertex())
    @example(b"p conj 1 0\n")
    @example(b"p conj 1 0\nr 1\n")
    @example(b"p conj 2 0\nr 2\n")
    @example(C4_AND_LONE_VERTEX)
    @example(C4_AND_LONE_VERTEX + b"r 1 1 4\nr 2 1 2\nr 3 2 3\nr 4 3 4\n")
    @example(TRIANGLE_AND_FOUR_LONE_VERTICES)
    @example(TRIANGLE_AND_FOUR_LONE_VERTICES + b"r 1 1 3\nr 2 1 2\nr 3 2 3\n")
    @example(b"p conj 5 2\ne 1 2\ne 2 3\nr 1 1\nr 2 1 2\nr 3 2\nr 4\n")
    def test_record_matches_full_validation(self, blob):
        graph, rot = parse_graph_file(blob)
        assert 0 in graph.degrees
        report = validate_conjugated(graph, rot)
        rec = evaluate_instance("g", blob, HYPOTHESES, 2000, 60, 60)
        assert rec.degree_histogram == Counter(graph.degrees)
        assert not rec.valid and not isinstance(report, ConjugatedTriangulation)
        assert rec.validation_failures == [
            c.name for c in report.checks if c.status == "fail"
        ]
        assert rec.planarity == report.check("planarity").status
        assert rec.error is None
        assert all(v["verdict"] == "skipped" for v in rec.hypotheses.values())

    @pytest.mark.parametrize(
        "blob,limit_mb",
        [(b"p conj 1000000 0\n", 1), (b"p conj 1000000 0\nr 1\n", 32)],
    )
    def test_memory_is_bounded_by_the_file(self, blob, limit_mb):
        tracemalloc.start()
        try:
            rec = evaluate_instance("hostile", blob, HYPOTHESES, 2000, 60, 60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 10**6, f"peak {peak / 10**6:.1f} MB"
        assert rec.degree_histogram == {0: 1_000_000}
        assert rec.validation_failures[:2] == ["degrees", "connected"]

    @pytest.mark.parametrize(
        "blob",
        [b"p conj 100000 0\n", b"p conj 1000000 0\nr 1\n", TRIANGLE_AND_FOUR_LONE_VERTICES],
    )
    def test_no_per_vertex_structure_is_built(self, monkeypatch, blob):
        for name in ("masks", "incident_edge_ids"):
            monkeypatch.setattr(UndirectedGraph, name, _forbidden(name))
        rec = evaluate_instance("hostile", blob, HYPOTHESES, 2000, 60, 60)
        assert rec.validation_failures[0] == "degrees"


def _forbidden(name):
    def get(self):
        raise AssertionError(f"UndirectedGraph.{name} was built")

    return property(get)


@pytest.fixture(scope="module")
def small_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    config = ScanConfig(
        recipe=SMALL_RECIPE,
        timeout_ms=2000,
        counterexample_dir=str(out / "cex"),
        output=str(out / "report.json"),
    )
    report = run_hypothesis_scan(config)
    write_report(report, config.output)
    return config, report


class TestRunScan:
    def test_instances_in_corpus_order(self, small_scan):
        _, report = small_scan
        expected = [iid for iid, _ in generate_corpus(SMALL_RECIPE)]
        assert [rec.id for rec in report.instances] == expected

    def test_chi_never_searches(self, small_scan):
        _, report = small_scan
        assert all(rec.nodes["chi"] == 0 for rec in report.instances)
        # Parity instances whose greedy line-graph coloring needs more than
        # Delta + 1 colors, where the witness is built rather than searched.
        built = [
            rec
            for rec in report.instances
            if "parity" in rec.hypotheses["H11"]["detail"]
            and rec.bounds["greedy_edge"] > max(rec.degree_histogram) + 1
        ]
        assert len(built) >= 2

    def test_summary_counts_match_instances(self, small_scan):
        _, report = small_scan
        summary = report.summary()
        assert summary["instances"] == len(report.instances)
        assert summary["valid_instances"] == sum(r.valid for r in report.instances)
        for h in HYPOTHESES:
            tally = {"pass": 0, "fail": 0, "indeterminate": 0, "skipped": 0}
            for rec in report.instances:
                tally[rec.hypotheses[h]["verdict"]] += 1
            assert summary["verdicts"][h] == tally
        assert summary["counterexamples"] == [
            rec.id for rec in report.instances if rec.failed_hypotheses
        ]

    def test_report_validates_against_schema(self, small_scan):
        config, _ = small_scan
        payload = json.loads(open(config.output, encoding="utf-8").read())
        jsonschema.validate(payload, report_schema())

    def test_counterexamples_replay_to_the_same_verdicts(self, small_scan):
        config, report = small_scan
        replayed = 0
        for rec in report.instances:
            if not rec.failed_hypotheses:
                continue
            with open(rec.counterexample_file, "rb") as fh:
                blob = fh.read()
            again = evaluate_instance(
                rec.id, blob, config.hypotheses, config.timeout_ms, 60, 60
            )
            assert {h: v["verdict"] for h, v in again.hypotheses.items()} == {
                h: v["verdict"] for h, v in rec.hypotheses.items()
            }
            replayed += 1
        assert replayed >= 1  # the corpus does produce counterexamples

    def test_worker_count_does_not_change_results(self, small_scan, tmp_path):
        config, report = small_scan
        parallel = ScanConfig(
            recipe=SMALL_RECIPE,
            timeout_ms=2000,
            jobs=2,
            counterexample_dir=str(tmp_path / "cex2"),
        )
        report2 = run_hypothesis_scan(parallel)

        def strip(rec):
            d = rec.to_dict()
            d.pop("timings_ms")
            d.pop("counterexample_file")
            return d

        assert [strip(r) for r in report.instances] == [
            strip(r) for r in report2.instances
        ]

    def test_scan_from_files(self, tmp_path):
        a = tmp_path / "octa.conj"
        b = tmp_path / "c4.conj"
        a.write_bytes(_blob(_octahedron()))
        b.write_bytes(
            _blob(UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        )
        config = ScanConfig(
            source_files=(str(a), str(b)),
            timeout_ms=2000,
            counterexample_dir=str(tmp_path / "cex"),
        )
        report = run_hypothesis_scan(config)
        assert [r.id for r in report.instances] == ["octa.conj", "c4.conj"]
        by_id = {r.id: r for r in report.instances}
        assert by_id["octa.conj"].gamma["value"] == 3
        assert by_id["c4.conj"].hypotheses["H12"]["verdict"] == "pass"

    @pytest.mark.parametrize("explicit", [False, True])
    def test_no_counterexample_directory_without_a_failure(self, tmp_path, explicit):
        c4 = tmp_path / "c4.conj"
        c4.write_bytes(_blob(UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])))
        cex = str(tmp_path / "cex") if explicit else None
        report = run_hypothesis_scan(
            ScanConfig(
                source_files=(str(c4),),
                timeout_ms=2000,
                output=str(tmp_path / "report.json"),
                counterexample_dir=cex,
            )
        )
        assert not report.summary()["counterexamples"]
        assert sorted(os.listdir(tmp_path)) == ["c4.conj"]

    def test_missing_file_raises_scan_input_error(self, tmp_path):
        config = ScanConfig(
            source_files=(str(tmp_path / "absent.conj"),), timeout_ms=1000
        )
        with pytest.raises(ScanInputError):
            run_hypothesis_scan(config)

    def test_rerun_is_bit_identical_outside_timings(self, small_scan):
        config, report = small_scan
        again = run_hypothesis_scan(
            ScanConfig(
                recipe=SMALL_RECIPE,
                timeout_ms=2000,
                counterexample_dir=config.counterexample_dir,
                output=config.output,
            )
        )

        def strip(rec):
            d = rec.to_dict()
            d.pop("timings_ms")
            return d

        assert [strip(r) for r in report.instances] == [
            strip(r) for r in again.instances
        ]


# Functions whose calls a scan must not repeat per instance.
COUNTED = {
    "parse_graph_file": "conjtri.graphio",
    "line_graph_of": "conjtri.construct",
    "validate_conjugated": "conjtri.construct",
    "greedy_coloring": "conjtri.coloring",
}


@pytest.fixture
def build_counts(monkeypatch):
    """Count calls to each function in COUNTED, wrapped at every
    module-global name conjtri looks it up by."""
    counts = dict.fromkeys(COUNTED, 0)
    for name, home in COUNTED.items():
        fn = getattr(sys.modules[home], name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("conjtri") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    return counts


class TestBuildOnce:
    def test_generated_scan(self, build_counts, tmp_path):
        config = ScanConfig(
            recipe=SMALL_RECIPE, timeout_ms=2000, counterexample_dir=str(tmp_path)
        )
        report = run_hypothesis_scan(config)
        n = len(report.instances)
        assert n == 12 and all(r.valid for r in report.instances)
        assert build_counts == {
            "parse_graph_file": n,
            "line_graph_of": n,
            "greedy_coloring": 2 * n,
            # generation does not validate; evaluation validates once
            "validate_conjugated": n,
        }

    def test_file_scan(self, build_counts, tmp_path):
        paths = []
        for iid, blob in generate_corpus(SMALL_RECIPE):
            path = tmp_path / f"{iid}.conj"
            path.write_bytes(blob)
            paths.append(str(path))
        bad = tmp_path / "two-triangles.conj"
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        bad.write_bytes(_blob(UndirectedGraph(6, triangles)))
        paths.append(str(bad))
        for counter in build_counts:
            build_counts[counter] = 0  # generation above is not the scan's work
        report = run_hypothesis_scan(
            ScanConfig(
                source_files=tuple(paths),
                timeout_ms=2000,
                counterexample_dir=str(tmp_path / "cex"),
            )
        )
        valid = sum(r.valid for r in report.instances)
        assert valid == len(paths) - 1
        assert build_counts == {
            "parse_graph_file": len(paths),
            "line_graph_of": valid,
            "greedy_coloring": 2 * valid,
            "validate_conjugated": len(paths),
        }

    def test_malformed_file_names_the_instance(self, tmp_path):
        good = tmp_path / "a.conj"
        good.write_bytes(_blob(_octahedron()))
        bad = tmp_path / "b.conj"
        bad.write_bytes(b"p conj 3 3\ne 1 2\ne 2 3\ne 1 x\n")
        config = ScanConfig(source_files=(str(good), str(bad)), timeout_ms=1000)
        with pytest.raises(ScanInputError, match="^b.conj: line 4: edge endpoints"):
            run_hypothesis_scan(config)


def _count_calls(monkeypatch, owner, name, before=None):
    """Count the calls of ``owner.name``, also at every conjtri module-global
    name that holds the same function; ``before`` runs ahead of each."""
    fn = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        if before is not None:
            before()
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("conjtri") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


class TestEmbeddingOnce:
    """Each embedding is traced once and each rotation checked at most once
    per instance, generation builds its graphs and rotations from its own
    face corners, and the gamma stage of a generated scan runs no search."""

    def test_generated_scan(self, monkeypatch, tmp_path):
        from conjtri import core, graphs

        in_gamma = [False]

        def no_search_in_gamma():
            assert not in_gamma[0], "core.decide_coloring ran under the gamma stage"

        traces = _count_calls(monkeypatch, graphs, "faces_and_genus_check")
        checks = _count_calls(monkeypatch, RotationSystem, "mismatched_vertex")
        checked_graphs = _count_calls(monkeypatch, UndirectedGraph, "__init__")
        _count_calls(monkeypatch, core, "decide_coloring", before=no_search_in_gamma)
        gamma_stage = scan_module.chromatic_number

        def gamma(*args, **kwargs):
            in_gamma[0] = True
            try:
                return gamma_stage(*args, **kwargs)
            finally:
                in_gamma[0] = False

        monkeypatch.setattr(scan_module, "chromatic_number", gamma)
        recipe = GenRecipe(inserts=tuple(range(5)), replicates=2, base_seed=3)
        report = run_hypothesis_scan(
            ScanConfig(recipe=recipe, timeout_ms=2000, counterexample_dir=str(tmp_path))
        )
        n = len(report.instances)
        assert n == 40 and all(r.valid for r in report.instances)
        assert traces[0] == n  # validation's trace; generation traces none
        assert checks[0] <= n  # the parser's check of the listed rows
        assert checked_graphs[0] == n  # the parser's; generation trusts its own
        # Corner chaining left the package for the test oracles.
        assert not [
            name
            for name, mod in sys.modules.items()
            if name.startswith("conjtri")
            and hasattr(mod, "rotation_from_oriented_faces")
        ]
        assert all(r.nodes["gamma"] == 0 for r in report.instances)
        assert any("Tait" in r.hypotheses["H10"]["detail"] for r in report.instances)


class TestReportSerialization:
    def test_schema_is_wellformed(self):
        schema = report_schema()
        jsonschema.Draft202012Validator.check_schema(schema)

    def test_to_dict_shape(self, tmp_path):
        config = ScanConfig(
            recipe=GenRecipe(inserts=(0,), subdivisions=(0,), replicates=1),
            timeout_ms=500,
            counterexample_dir=str(tmp_path / "cex"),
        )
        payload = run_hypothesis_scan(config).to_dict()
        assert set(payload) == {"summary", "instances", "config", "version"}
        assert payload["config"]["source"] == "generated"
        assert payload["config"]["node_budget_per_decision"] == 500 * 100
        assert payload["config"]["h12_reading"]
        jsonschema.validate(payload, report_schema())
