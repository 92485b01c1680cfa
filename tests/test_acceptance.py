"""Acceptance gate: eleven checks, one printed verdict line each.

Each test prints ``[PASS]``/``[FAIL]`` with a short factual summary, visible
even under pytest's output capture, so a plain ``pytest tests/test_acceptance.py``
run reads as a checklist.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time

import jsonschema
import pytest

import oracles
from conjtri.abstract_r import (
    enumerate_asymmetric_p4,
    enumerate_r_candidates,
    enumerate_symmetric_p4,
)
from conjtri.coloring import chromatic_class, chromatic_number
from conjtri.construct import euler_circuit, line_graph_of, orient_along_circuit
from conjtri.graphs import UndirectedGraph
from conjtri.pairs import (
    PairColor,
    StarConfig,
    count_neighbor_pair_colorings,
    induce_edge_coloring,
    ordered_pairs,
    recover_vertex_coloring,
)
from conjtri.scan import (
    GenRecipe,
    ScanConfig,
    evaluate_instance,
    report_schema,
    run_hypothesis_scan,
    write_report,
)


@contextlib.contextmanager
def _verdict(capsys, number: int, label: str):
    """Print one checklist line; the note dict may add a detail string."""
    note: dict = {}
    t0 = time.perf_counter()
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {number:02d} {label}")
        raise
    detail = f": {note['detail']}" if "detail" in note else ""
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"[PASS] {number:02d} {label}{detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def corpus_numbers(default_corpus):
    """Exact chromatic data for every generated instance, computed once."""
    return [
        (iid, ct, chromatic_number(ct.graph), chromatic_class(ct.graph))
        for iid, ct in default_corpus
    ]


def test_criterion_01_six_arc_census_has_a_unique_candidate(capsys):
    with _verdict(capsys, 1, "six-arc digraph census uniqueness") as note:
        t0 = time.perf_counter()
        results = {k: enumerate_r_candidates(k) for k in (1, 2, 3, 4)}
        elapsed = time.perf_counter() - t0
        survivors = [
            (k, m) for k, enum in results.items() for m in enum.passing
        ]
        assert len(survivors) == 1
        k, survivor = survivors[0]
        assert k == 3
        assert survivor.row_sums == (2, 2, 2)
        assert elapsed < 1.0
        searched = "/".join(str(results[k].searched) for k in (1, 2, 3, 4))
        note["detail"] = (
            f"searched {searched} matrices; one survivor at k=3, "
            "row sums (2,2,2)"
        )


def test_criterion_02_symmetric_census_partition_matches_brute_force(capsys):
    with _verdict(capsys, 2, "symmetric 4x4 census partition") as note:
        census = enumerate_symmetric_p4()
        assert len(census.matrices) == 20

        graphs = []
        for m in census.matrices:
            edges = [
                (i, j)
                for i in range(4)
                for j in range(i + 1, 4)
                if m.entries[i][j]
            ]
            graphs.append(UndirectedGraph(4, edges))
        groups: list[list[int]] = []
        for idx, g in enumerate(graphs):
            for group in groups:
                if oracles.isomorphic_brute(
                    4, g.edges, 4, graphs[group[0]].edges
                ):
                    group.append(idx)
                    break
            else:
                groups.append([idx])
        assert {frozenset(g) for g in groups} == {
            frozenset(ix) for ix in census.iso_classes.values()
        }
        assert sorted(census.class_sizes.values()) == [4, 4, 12]
        note["detail"] = (
            f"20 matrices; class sizes {census.class_sizes} agree with the "
            f"brute-force partition; square-symmetry orbits observed: "
            f"{census.square_orbit_count} (reported, not asserted)"
        )


def test_criterion_03_asymmetric_census_finds_nothing(capsys):
    with _verdict(capsys, 3, "asymmetric 4x4 census impossibility") as note:
        t0 = time.perf_counter()
        census = enumerate_asymmetric_p4()
        elapsed = time.perf_counter() - t0
        assert census.verdict == 0
        assert census.matching == ()
        assert all(v == 0 for v in census.condition_counts.values())
        assert census.row_variant_count == 6
        assert elapsed < 1.0
        note["detail"] = (
            f"0 of {census.searched} constrained matrices match any "
            "termwise condition; 6 row-sum variants"
        )


def test_criterion_04_edge_palette_never_exceeds_six(capsys, corpus_numbers):
    with _verdict(capsys, 4, "edge colors stay within six on the corpus") as note:
        assert len(corpus_numbers) >= 100
        assert all(ct.validation.passed for _, ct, _, _ in corpus_numbers)
        for iid, _, _, chi in corpus_numbers:
            assert chi.exact, iid
            assert chi.value <= 6, iid
        note["detail"] = (
            f"{len(corpus_numbers)} valid instances; exact edge chromatic "
            f"numbers range {min(c.value for _, _, _, c in corpus_numbers)}"
            f"..{max(c.value for _, _, _, c in corpus_numbers)}"
        )


def test_criterion_05_vertex_palette_never_exceeds_four(capsys, corpus_numbers):
    with _verdict(capsys, 5, "vertex colors stay within four on the corpus") as note:
        for iid, _, gamma, _ in corpus_numbers:
            assert gamma.exact, iid
            assert gamma.value <= 4, iid
        note["detail"] = (
            f"exact chromatic numbers range "
            f"{min(g.value for _, _, g, _ in corpus_numbers)}"
            f"..{max(g.value for _, _, g, _ in corpus_numbers)}"
        )


def test_criterion_06_triangles_force_a_third_color(capsys, corpus_numbers):
    with _verdict(capsys, 6, "triangle instances need three colors") as note:
        with_triangle = 0
        two_color_triangle_free = []
        for iid, ct, gamma, _ in corpus_numbers:
            g = ct.graph
            if oracles.triangles_brute(g.vertex_count, g.edges):
                with_triangle += 1
                assert gamma.value >= 3, iid
            elif gamma.value == 2:
                two_color_triangle_free.append(iid)
        note["detail"] = (
            f"{with_triangle} instances contain a triangle, every one has at "
            f"least three colors; {len(two_color_triangle_free)} triangle-free "
            "two-colorable instances logged, not counted as failures"
        )


def test_criterion_07_line_graph_degrees_are_two_four_or_six(capsys, default_corpus):
    with _verdict(capsys, 7, "line-graph degrees land in {2, 4, 6}") as note:
        seen: set[int] = set()
        for iid, ct in default_corpus:
            degrees = set(line_graph_of(ct.graph).degrees)
            assert degrees <= {2, 4, 6}, iid
            seen |= degrees
        note["detail"] = f"observed degree set {sorted(seen)} over the corpus"


def test_criterion_08_solver_agrees_with_the_exhaustive_oracle(capsys):
    with _verdict(capsys, 8, "exact solver equals assignment oracle") as note:
        t0 = time.perf_counter()
        graphs = oracles.connected_atlas_graphs(7)
        mismatches = 0
        for n, edges in graphs:
            g = UndirectedGraph(n, edges)
            want_gamma = oracles.chromatic_number_inclusion_exclusion(n, edges)
            if chromatic_number(g).value != want_gamma:
                mismatches += 1
            lg = line_graph_of(g)
            want_chi = oracles.chromatic_number_inclusion_exclusion(
                lg.vertex_count, lg.edges
            )
            if chromatic_class(g).value != want_chi:
                mismatches += 1
        elapsed = time.perf_counter() - t0
        assert mismatches == 0
        assert elapsed < 600.0
        note["detail"] = (
            f"{len(graphs)} connected graphs up to 7 vertices, both "
            "chromatic quantities, 0 mismatches"
        )


def test_criterion_09_pair_coloring_roundtrips_exactly(capsys, corpus_numbers):
    with _verdict(capsys, 9, "pair coloring round-trip on 3-color witnesses") as note:
        roundtrips = 0
        proper = 0
        for iid, ct, gamma, _ in corpus_numbers:
            if gamma.value != 3:
                continue
            vc = gamma.witness
            oriented = orient_along_circuit(ct, euler_circuit(ct))
            induced = induce_edge_coloring(oriented, vc)
            assert induced.coloring.distinct_pairs <= 6, iid
            back = recover_vertex_coloring(oriented, induced.coloring)
            assert back.colors == vc.colors, iid
            roundtrips += 1
            proper += induced.proper
        assert roundtrips > 0
        note["detail"] = (
            f"{roundtrips} witnesses recovered exactly with at most six pair "
            f"colors; induced edge-properness rate {proper}/{roundtrips} "
            "(reported, no target)"
        )


def test_criterion_10_neighbor_census_is_order_stable(capsys):
    with _verdict(capsys, 10, "neighbor-coloring count at a (4,4) edge") as note:
        center = PairColor(0, 1)
        census = count_neighbor_pair_colorings(StarConfig(4, 4, center))
        derived = census.count

        # Independent recount with the alphabet walked in reverse order.
        reversed_alphabet = list(reversed(ordered_pairs(3)))
        recount = 0
        for combo in itertools.product(reversed_alphabet, repeat=6):
            left, right = combo[:3], combo[3:]
            ok = True
            for side, endpoint in ((left, 0), (right, 1)):
                if any(not p.contains(endpoint) for p in side):
                    ok = False
                    break
                if len(set(side)) != len(side) or center in side:
                    ok = False
                    break
            recount += ok
        assert recount == derived

        # And by counting each side with permutations.
        per_side = 1
        for endpoint in (0, 1):
            pool = [
                p
                for p in ordered_pairs(3)
                if p.contains(endpoint) and p != center
            ]
            per_side *= sum(1 for _ in itertools.permutations(pool, 3))
        assert per_side == derived

        claimed = 16
        relation = "confirms" if derived == claimed else "differs from"
        note["detail"] = (
            f"enumeration gives {derived} admissible colorings, {relation} "
            f"the conjectured {claimed}; count stable across orderings"
        )


def test_criterion_11_scan_is_robust_end_to_end(capsys, tmp_path):
    with _verdict(capsys, 11, "full corpus scan with replayable findings") as note:
        config = ScanConfig(
            recipe=GenRecipe(),
            timeout_ms=60000,
            counterexample_dir=str(tmp_path / "counterexamples"),
            output=str(tmp_path / "report.json"),
        )
        report = run_hypothesis_scan(config)
        write_report(report, config.output)

        payload = json.loads(open(config.output, encoding="utf-8").read())
        jsonschema.validate(payload, report_schema())

        for rec in report.instances:
            assert rec.timings_ms["total"] <= 60000, rec.id

        replayed = 0
        for rec in report.instances:
            if not rec.failed_hypotheses:
                continue
            with open(rec.counterexample_file, "rb") as fh:
                blob = fh.read()
            again = evaluate_instance(
                rec.id,
                blob,
                config.hypotheses,
                config.timeout_ms,
                config.max_vertices,
                config.max_edges,
            )
            assert {h: v["verdict"] for h, v in again.hypotheses.items()} == {
                h: v["verdict"] for h, v in rec.hypotheses.items()
            }, rec.id
            replayed += 1

        summary = report.summary()
        verdict_bits = ", ".join(
            f"{h} {v['pass']}p/{v['fail']}f/{v['indeterminate']}i"
            for h, v in summary["verdicts"].items()
        )
        note["detail"] = (
            f"{summary['instances']} instances scanned; {verdict_bits}; "
            f"{replayed} counterexample files replay to identical verdicts "
            "(recorded findings, not errors)"
        )
