"""Exhaustive censuses over six-arc digraphs and 4x4 placement matrices.

The headline numbers (one surviving candidate, 20 = 12 + 4 + 4, five
square orbits, zero asymmetric matches out of 216) are all re-derived here
by independent scans written differently from the library code.
"""

from __future__ import annotations

import itertools
import random

import pytest

from conjtri.abstract_r import (
    ARC_TOTAL,
    AdjacencyMatrix,
    canonical_form,
    check_r_requirements,
    chi_of_candidate,
    directed_girth,
    enumerate_asymmetric_p4,
    enumerate_r_candidates,
    enumerate_symmetric_p4,
    find_directed_triangle,
    format_matrix,
    gamma_of_candidate,
    matrices_with_total,
    rho,
    TERMWISE_TARGETS,
)
from conjtri.graphs import UndirectedGraph

from oracles import digraph_isomorphic_brute, isomorphic_brute


def _matrix(rows: list[list[int]]) -> AdjacencyMatrix:
    return AdjacencyMatrix(rows)


DOUBLED_TRIANGLE = _matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
DOUBLED_EDGE = _matrix([[0, 1], [1, 0]])
DOUBLED_STAR = _matrix(
    [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]
)
DOUBLED_PATH = _matrix(
    [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
)


class TestRequirements:
    def test_doubled_triangle_passes_everything(self):
        report = check_r_requirements(DOUBLED_TRIANGLE)
        assert report.passed
        assert report.failures() == ()
        assert report.directed_girth == 2  # opposite arcs form 2-cycles

    def test_doubled_edge_fails_total_triangle_and_degree(self):
        report = check_r_requirements(DOUBLED_EDGE)
        assert not report.passed
        assert set(report.failures()) == {
            "r1_arc_total",
            "r3_directed_triangle",
            "r5_degree_parity",
        }
        # It is still balanced and connected, with matching margins.
        assert report.requirement("r2_euler_circuit").ok
        assert report.requirement("r4_row_col_match").ok

    @pytest.mark.parametrize("matrix", [DOUBLED_STAR, DOUBLED_PATH])
    def test_doubled_trees_fail_only_on_triangles_and_degrees(self, matrix):
        report = check_r_requirements(matrix)
        assert "r3_directed_triangle" in report.failures()
        assert "r5_degree_parity" in report.failures()
        assert report.requirement("r1_arc_total").ok
        assert report.requirement("r2_euler_circuit").ok
        assert report.requirement("r4_row_col_match").ok

    def test_evidence_strings_present(self):
        report = check_r_requirements(DOUBLED_EDGE)
        for req in report.requirements:
            assert req.evidence

    def test_r5_reading_is_recorded(self):
        report = check_r_requirements(DOUBLED_EDGE)
        assert "even" in report.r5_reading and ">= 4" in report.r5_reading

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            check_r_requirements(AdjacencyMatrix([]))


class TestGirthAndTriangles:
    def test_pure_three_cycle(self):
        d = _matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert directed_girth(d) == 3
        assert find_directed_triangle(d) is not None

    def test_acyclic_has_no_girth(self):
        d = _matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert directed_girth(d) is None
        assert find_directed_triangle(d) is None

    def test_two_cycle_girth(self):
        assert directed_girth(DOUBLED_EDGE) == 2

    def test_triangle_detection_ignores_two_cycles(self):
        # A digraph whose only cycles are 2-cycles has no directed triangle.
        assert find_directed_triangle(DOUBLED_PATH) is None

    def test_girth_reported_alongside_requirements(self):
        report = check_r_requirements(DOUBLED_PATH)
        assert report.directed_girth == 2


class TestMatricesWithTotal:
    def test_counts(self):
        assert sum(1 for _ in matrices_with_total(1)) == 0
        assert sum(1 for _ in matrices_with_total(2)) == 0
        assert sum(1 for _ in matrices_with_total(3)) == 1
        assert sum(1 for _ in matrices_with_total(4)) == 924  # C(12, 6)

    def test_matrices_are_zero_diagonal_with_six_arcs(self):
        for m in matrices_with_total(4):
            assert all(m.entries[i][i] == 0 for i in range(4))
            assert m.total == ARC_TOTAL

    def test_order_is_deterministic(self):
        first = [m.entries for m in matrices_with_total(4)]
        second = [m.entries for m in matrices_with_total(4)]
        assert first == second


class TestCandidateEnumeration:
    def test_searched_counts(self):
        assert [enumerate_r_candidates(k).searched for k in (1, 2, 3, 4)] == [
            0,
            0,
            1,
            924,
        ]

    def test_unique_survivor_is_the_doubled_triangle(self):
        for k in (1, 2, 4):
            assert enumerate_r_candidates(k).passing == ()
        e3 = enumerate_r_candidates(3)
        assert len(e3.passing) == 1
        assert len(e3.representatives) == 1
        survivor = e3.representatives[0]
        assert survivor.entries == DOUBLED_TRIANGLE.entries
        assert survivor.row_sums == (2, 2, 2)
        assert survivor.col_sums == (2, 2, 2)

    def test_k_out_of_range(self):
        for k in (0, 5, -1):
            with pytest.raises(ValueError):
                enumerate_r_candidates(k)

    def test_order_four_failure_is_forced_by_counting(self):
        # Six arcs contribute total degree 12; four vertices need >= 16.
        assert 2 * ARC_TOTAL < 4 * 4
        for m in matrices_with_total(4):
            report = check_r_requirements(m)
            assert not report.requirement("r5_degree_parity").ok

    def test_full_rescan_with_independent_checkers(self):
        """Re-judge every order-3 and order-4 candidate with checkers written
        from scratch and confirm the same pass/fail verdicts."""

        def independent_pass(m: AdjacencyMatrix) -> bool:
            k = m.order
            arcs = [
                (i, j)
                for i in range(k)
                for j in range(k)
                if m.entries[i][j]
            ]
            if len(arcs) != 6:
                return False
            ins = [sum(m.entries[i][v] for i in range(k)) for v in range(k)]
            outs = [sum(m.entries[v][j] for j in range(k)) for v in range(k)]
            if ins != outs:
                return False
            support = {v for a in arcs for v in a}
            if support:
                reach = {min(support)}
                while True:
                    grown = {
                        w
                        for u, v in arcs
                        if u in reach or v in reach
                        for w in (u, v)
                    }
                    if grown <= reach:
                        break
                    reach |= grown
                if reach != support:
                    return False
            if not any(
                m.entries[a][b] and m.entries[b][c] and m.entries[c][a]
                for a, b, c in itertools.permutations(range(k), 3)
            ):
                return False
            if tuple(ins) != m.col_sums or tuple(outs) != m.row_sums:
                return False
            return all((i + o) % 2 == 0 and i + o >= 4 for i, o in zip(ins, outs))

        for k in (3, 4):
            for m in matrices_with_total(k):
                mine = independent_pass(m)
                lib = check_r_requirements(m).passed
                assert mine == lib, m.entries


class TestCanonicalForm:
    """Isomorphism by relabelling agrees with the brute-force oracle."""

    @staticmethod
    def _agree(a: AdjacencyMatrix, b: AdjacencyMatrix) -> bool:
        want = digraph_isomorphic_brute(a.order, a.arcs, b.order, b.arcs)
        assert (canonical_form(a) == canonical_form(b)) == want, (a.entries, b.entries)
        return want

    def test_passing_candidates(self):
        for k in (3, 4):
            passing = enumerate_r_candidates(k).passing
            for a, b in itertools.product(passing, repeat=2):
                self._agree(a, b)

    def test_fixed_seed_six_arc_pairs(self):
        # Half the pairs are a matrix and a random relabelling of it, so
        # both verdicts occur.
        rng = random.Random(13)
        pool = list(matrices_with_total(4))
        verdicts = set()
        for _ in range(500):
            a = rng.choice(pool)
            if rng.random() < 0.5:
                b = rng.choice(pool)
            else:
                p = rng.sample(range(4), 4)
                b = AdjacencyMatrix(
                    [[a.entries[p[i]][p[j]] for j in range(4)] for i in range(4)]
                )
            verdicts.add(self._agree(a, b))
        assert verdicts == {True, False}


class TestCandidateInvariants:
    def test_survivor_parameters(self):
        survivor = enumerate_r_candidates(3).representatives[0]
        assert gamma_of_candidate(survivor) == 3  # underlying K3
        assert rho(survivor) == 4
        assert chi_of_candidate(survivor) == 6  # any two of six arcs meet

    def test_doubled_edge_parameters(self):
        assert gamma_of_candidate(DOUBLED_EDGE) == 2
        assert rho(DOUBLED_EDGE) == 2
        assert chi_of_candidate(DOUBLED_EDGE) == 2

    def test_rho_matches_shannon_consistency(self):
        # chi of the survivor hits the multigraph bound floor(3 * rho / 2).
        survivor = enumerate_r_candidates(3).representatives[0]
        assert chi_of_candidate(survivor) == (3 * rho(survivor)) // 2

    def test_underlying_simple_graph_of_doubled_path(self):
        g = DOUBLED_PATH.underlying_simple_graph()
        assert g.vertex_count == 4
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_arc_conflict_graph_of_survivor_is_complete(self):
        conflict = DOUBLED_TRIANGLE.arc_conflict_graph()
        assert conflict.vertex_count == 6
        assert conflict.edge_count == 15

    def test_total_degrees(self):
        assert DOUBLED_STAR.total_degrees() == (6, 2, 2, 2)


def _support_graph(m: AdjacencyMatrix) -> UndirectedGraph:
    edges = [
        (i, j) for i in range(4) for j in range(i + 1, 4) if m.entries[i][j]
    ]
    return UndirectedGraph(4, edges)


class TestSymmetricCensus:
    def test_twenty_matrices(self):
        census = enumerate_symmetric_p4()
        assert len(census.matrices) == 20
        for m in census.matrices:
            assert m.entries == tuple(zip(*m.entries))  # symmetric
            assert all(m.entries[i][i] == 0 for i in range(4))
            assert m.total == 6  # three mutual connections

    def test_class_sizes(self):
        census = enumerate_symmetric_p4()
        assert census.class_sizes == {
            "path": 12,
            "star": 4,
            "triangle_plus_vertex": 4,
        }

    def test_classes_partition_the_census(self):
        census = enumerate_symmetric_p4()
        seen = sorted(i for ix in census.iso_classes.values() for i in ix)
        assert seen == list(range(20))

    def test_classes_agree_with_brute_isomorphism(self):
        census = enumerate_symmetric_p4()
        graphs = [_support_graph(m) for m in census.matrices]
        for ix in census.iso_classes.values():
            rep = graphs[ix[0]]
            for other in ix[1:]:
                assert isomorphic_brute(4, rep.edges, 4, graphs[other].edges)
        reps = {name: graphs[ix[0]] for name, ix in census.iso_classes.items()}
        for a, b in itertools.combinations(reps.values(), 2):
            assert not isomorphic_brute(4, a.edges, 4, b.edges)

    def test_five_square_orbits_of_size_four(self):
        census = enumerate_symmetric_p4()
        assert census.square_orbit_count == 5
        assert sorted(len(o) for o in census.square_orbits) == [4, 4, 4, 4, 4]
        seen = sorted(i for o in census.square_orbits for i in o)
        assert seen == list(range(20))

    def test_square_orbits_refine_iso_classes(self):
        # D4 is a subgroup of S4, so each orbit sits inside one class.
        census = enumerate_symmetric_p4()
        class_of = {
            i: name for name, ix in census.iso_classes.items() for i in ix
        }
        for orbit in census.square_orbits:
            assert len({class_of[i] for i in orbit}) == 1

    def test_full_relabeling_invariance(self):
        # Applying any permutation of the four classes maps each matrix to
        # another census member in the same isomorphism class.
        census = enumerate_symmetric_p4()
        supports = [
            frozenset(
                (i, j)
                for i in range(4)
                for j in range(i + 1, 4)
                if m.entries[i][j]
            )
            for m in census.matrices
        ]
        index_of = {s: i for i, s in enumerate(supports)}
        class_of = {
            i: name for name, ix in census.iso_classes.items() for i in ix
        }
        for idx, support in enumerate(supports):
            for perm in itertools.permutations(range(4)):
                image = frozenset(
                    (min(perm[i], perm[j]), max(perm[i], perm[j]))
                    for i, j in support
                )
                assert class_of[index_of[image]] == class_of[idx]


class TestAsymmetricCensus:
    def test_searched_and_verdict(self):
        census = enumerate_asymmetric_p4()
        assert census.searched == 216
        assert census.verdict == 0
        assert census.matching == ()
        assert all(v == 0 for v in census.condition_counts.values())
        assert set(census.condition_counts) == set(TERMWISE_TARGETS)

    def test_six_row_sum_variants(self):
        census = enumerate_asymmetric_p4()
        assert census.row_variant_count == 6
        expected = sorted(set(itertools.permutations((1, 1, 2, 2))))
        assert list(census.row_sum_vectors) == expected

    def test_independent_recount_of_search_space(self):
        count = 0
        variants = set()
        for m in matrices_with_total(4):
            rows, cols = m.row_sums, m.col_sums
            if all(x in (1, 2) for x in rows + cols):
                count += 1
                variants.add(rows)
        census = enumerate_asymmetric_p4()
        assert count == census.searched == 216
        assert variants == set(census.row_sum_vectors)

    def test_zero_matches_is_arithmetically_forced(self):
        # Termwise sums always add to 12 (six arcs counted by row plus by
        # column); two targets add to 16 and 14, and the third needs a term
        # equal to 0, impossible when every margin is 1 or 2.
        assert [sum(t) for t in TERMWISE_TARGETS] == [16, 14, 12]
        assert min(TERMWISE_TARGETS[2]) == 0
        for m in matrices_with_total(4):
            rows, cols = m.row_sums, m.col_sums
            if all(x in (1, 2) for x in rows + cols):
                termwise = [r + c for r, c in zip(rows, cols)]
                assert sum(termwise) == 12
                assert min(termwise) >= 2


class TestFormatMatrix:
    def test_shape_and_margins(self):
        text = format_matrix(DOUBLED_TRIANGLE)
        lines = text.splitlines()
        assert len(lines) == 5  # 3 rows + rule + column sums
        for line in lines[:3]:
            assert line.endswith("|  2")
        assert lines[4].endswith("|  6")

    def test_contains_entries(self):
        text = format_matrix(DOUBLED_STAR)
        assert "0  1  1  1" in text
        assert "|  3" in text
