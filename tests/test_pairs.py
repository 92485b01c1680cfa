"""Ordered-pair color algebra: induction, recovery, and the local census."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtri.coloring import VertexColoring, chromatic_number, verify_vertex_coloring
from conjtri.construct import euler_circuit, orient_along_circuit, require_conjugated
from conjtri.graphs import UndirectedGraph
from conjtri.pairs import (
    ConflictError,
    ImproperColoringError,
    PairColor,
    PairEdgeColoring,
    PartialError,
    StarConfig,
    count_neighbor_pair_colorings,
    induce_edge_coloring,
    ordered_pairs,
    recover_vertex_coloring,
    sibling_constraint_graph,
)
from conjtri.scan import GenRecipe
from conftest import validated_corpus


def _oriented(g: UndirectedGraph):
    h = require_conjugated(g)
    return orient_along_circuit(h, euler_circuit(h))


def _cycle(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _bowtie() -> UndirectedGraph:
    return UndirectedGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def _induced_is_proper_brute(oh, colors: tuple[int, ...]) -> bool:
    """Independent properness check: scan every pair of incident edges."""
    g = oh.base.graph
    pairs = {
        eid: (colors[t], colors[h]) for eid, (t, h) in oh.arc_of_edge.items()
    }
    for v in range(g.vertex_count):
        inc = g.incident_edge_ids[v]
        for a, b in itertools.combinations(inc, 2):
            if pairs[a] == pairs[b]:
                return False
    return True


class TestOrderedPairs:
    def test_count_is_k_times_k_minus_one(self):
        for k in range(1, 6):
            assert len(ordered_pairs(k)) == k * (k - 1)

    def test_three_color_alphabet(self):
        alphabet = ordered_pairs(3)
        assert alphabet == [
            PairColor(0, 1),
            PairColor(0, 2),
            PairColor(1, 0),
            PairColor(1, 2),
            PairColor(2, 0),
            PairColor(2, 1),
        ]

    def test_all_distinct(self):
        assert len(set(ordered_pairs(4))) == 12

    def test_rejects_empty_palette(self):
        with pytest.raises(ValueError):
            ordered_pairs(0)


class TestPairColor:
    def test_monochromatic_rejected(self):
        with pytest.raises(ValueError):
            PairColor(1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PairColor(-1, 0)

    def test_contains(self):
        p = PairColor(0, 2)
        assert p.contains(0) and p.contains(2) and not p.contains(1)

    def test_reversed(self):
        assert PairColor(0, 2).reversed() == PairColor(2, 0)

    def test_sortable(self):
        shuffled = [PairColor(2, 0), PairColor(0, 1), PairColor(1, 2)]
        assert sorted(shuffled) == [
            PairColor(0, 1),
            PairColor(1, 2),
            PairColor(2, 0),
        ]


class TestPairEdgeColoring:
    def test_palette_range_enforced(self):
        with pytest.raises(ValueError):
            PairEdgeColoring({1: PairColor(0, 3)}, base_palette=3)

    def test_distinct_pairs(self):
        pc = PairEdgeColoring(
            {1: PairColor(0, 1), 2: PairColor(1, 0), 3: PairColor(0, 1)},
            base_palette=3,
        )
        assert pc.distinct_pairs == 2

    def test_hashable(self):
        a = PairEdgeColoring({1: PairColor(0, 1)}, 3)
        b = PairEdgeColoring({1: PairColor(0, 1)}, 3)
        assert len({a, b}) == 1


class TestInduce:
    def test_triangle_rainbow(self):
        oh = _oriented(_cycle(3))
        out = induce_edge_coloring(oh, VertexColoring((0, 1, 2), 3))
        assert out.proper
        assert out.violations == ()
        assert out.coloring.distinct_pairs == 3
        # vc colors vertex v with v, so each pair reads off (tail, head).
        for eid, (t, h) in oh.arc_of_edge.items():
            assert out.coloring.pairs[eid] == PairColor(t, h)
        assert set(out.coloring.pairs.values()) == {
            PairColor(0, 1),
            PairColor(1, 2),
            PairColor(2, 0),
        }

    def test_alternating_square_is_proper_with_two_pairs(self):
        # On a circuit-oriented cycle consecutive arcs share head=tail, so
        # equal pairs on adjacent edges are impossible; 2 base colors suffice.
        oh = _oriented(_cycle(4))
        out = induce_edge_coloring(oh, VertexColoring((0, 1, 0, 1), 2))
        assert out.proper
        assert out.coloring.distinct_pairs == 2

    def test_bowtie_violations_at_the_cut_vertex(self):
        oh = _oriented(_bowtie())
        out = induce_edge_coloring(oh, VertexColoring((0, 1, 2, 0, 1), 3))
        assert not out.proper
        # Both out-arcs of vertex 2 aim at color 0, both in-arcs come from
        # color 1 — two clashes, reported as sorted edge-id pairs.
        assert out.violations == ((2, 4), (3, 5))

    def test_bowtie_has_a_proper_choice_too(self):
        oh = _oriented(_bowtie())
        out = induce_edge_coloring(oh, VertexColoring((0, 1, 2, 1, 0), 3))
        assert out.proper

    def test_improper_base_coloring_rejected(self):
        oh = _oriented(_cycle(3))
        with pytest.raises(ImproperColoringError) as info:
            induce_edge_coloring(oh, VertexColoring((0, 0, 1), 3))
        assert info.value.violating_edges == (1,)

    def test_pairs_never_exceed_six_letters(self, small_corpus):
        for _, h in small_corpus:
            oh = orient_along_circuit(h, euler_circuit(h))
            res = chromatic_number(h.graph)
            vc = VertexColoring(res.witness.colors, 3)
            out = induce_edge_coloring(oh, vc)
            assert out.coloring.distinct_pairs <= 6


class TestRecover:
    def test_roundtrip_on_named_cycles(self):
        for n in (3, 4, 5, 7):
            oh = _oriented(_cycle(n))
            res = chromatic_number(oh.base.graph)
            vc = VertexColoring(res.witness.colors, 3)
            out = induce_edge_coloring(oh, vc)
            back = recover_vertex_coloring(oh, out.coloring)
            assert back.colors == vc.colors

    def test_roundtrip_on_corpus(self, small_corpus):
        for _, h in small_corpus:
            oh = orient_along_circuit(h, euler_circuit(h))
            res = chromatic_number(h.graph)
            vc = VertexColoring(res.witness.colors, max(res.witness.colors) + 1)
            out = induce_edge_coloring(oh, vc)
            back = recover_vertex_coloring(oh, out.coloring)
            assert back.colors == vc.colors

    def test_recovered_coloring_is_proper_by_construction(self):
        oh = _oriented(_bowtie())
        out = induce_edge_coloring(oh, VertexColoring((0, 1, 2, 1, 0), 3))
        back = recover_vertex_coloring(oh, out.coloring)
        assert verify_vertex_coloring(oh.base.graph, back) == []

    def test_conflicting_assertions_are_pinpointed(self):
        oh = _oriented(_cycle(3))
        assert oh.arc_of_edge == {1: (0, 1), 2: (1, 2), 3: (2, 0)}
        # Arc e2 says vertex 2 wears color 2; arc e3 says color 1.
        pc = PairEdgeColoring(
            {1: PairColor(0, 1), 2: PairColor(1, 2), 3: PairColor(1, 0)},
            base_palette=3,
        )
        with pytest.raises(ConflictError) as info:
            recover_vertex_coloring(oh, pc)
        assert info.value.vertex == 2
        assert {info.value.have, info.value.want} == {1, 2}

    def test_missing_arcs_are_reported(self):
        oh = _oriented(_cycle(3))
        pc = PairEdgeColoring({1: PairColor(0, 1)}, base_palette=3)
        with pytest.raises(PartialError) as info:
            recover_vertex_coloring(oh, pc)
        assert info.value.missing_arcs == (2, 3)

    @given(st.integers(3, 12), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property_on_cycles(self, n, seed):
        import random

        rng = random.Random(seed)
        oh = _oriented(_cycle(n))
        # Build a random proper coloring directly: walk the cycle.
        colors = [0] * n
        for v in range(1, n):
            colors[v] = rng.choice([c for c in range(3) if c != colors[v - 1]])
        if colors[n - 1] == colors[0]:
            colors[n - 1] = next(
                c for c in range(3) if c not in (colors[n - 2], colors[0])
            )
        vc = VertexColoring(tuple(colors), 3)
        out = induce_edge_coloring(oh, vc)
        assert recover_vertex_coloring(oh, out.coloring).colors == vc.colors


class TestSiblingReduction:
    """`sibling_constraint_graph` must agree with brute force: some proper
    3-coloring induces a proper pair coloring iff the augmented graph is
    3-colorable."""

    def _brute_exists(self, oh) -> bool:
        g = oh.base.graph
        for colors in itertools.product(range(3), repeat=g.vertex_count):
            if any(colors[u] == colors[v] for u, v in g.edges):
                continue
            if _induced_is_proper_brute(oh, colors):
                return True
        return False

    def _reduced_exists(self, oh) -> bool:
        res = chromatic_number(sibling_constraint_graph(oh))
        return res.value <= 3

    def test_bowtie_augmentation_edges(self):
        oh = _oriented(_bowtie())
        sib = sibling_constraint_graph(oh)
        base = set(_bowtie().edges)
        extra = set(sib.edges) - base
        # Vertex 2 has out-arcs to 0 and 3 and in-arcs from 1 and 4.
        assert extra == {(0, 3), (1, 4)}

    def test_cycles_always_admit_proper_induction(self):
        for n in (3, 4, 5, 6, 9):
            oh = _oriented(_cycle(n))
            sib = sibling_constraint_graph(oh)
            assert set(sib.edges) == set(oh.base.graph.edges)  # nothing added
            assert self._reduced_exists(oh)

    @pytest.mark.parametrize("builder", [_bowtie, lambda: _cycle(5)])
    def test_agrees_with_brute_force_on_named(self, builder):
        oh = _oriented(builder())
        assert self._brute_exists(oh) == self._reduced_exists(oh)

    def test_agrees_with_brute_force_on_small_corpus(self):
        recipe = GenRecipe(
            inserts=(0, 1), subdivisions=(0, 1), replicates=1, base_seed=7
        )
        checked = 0
        for _, h in validated_corpus(recipe):
            if h.graph.vertex_count > 10:
                continue
            oh = orient_along_circuit(h, euler_circuit(h))
            assert self._brute_exists(oh) == self._reduced_exists(oh)
            checked += 1
        assert checked >= 2


class TestStarConfig:
    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            StarConfig(3, 2, PairColor(0, 1))

    def test_tiny_palette_rejected(self):
        with pytest.raises(ValueError):
            StarConfig(2, 2, PairColor(0, 1), base_palette=1)

    def test_center_outside_palette_rejected(self):
        with pytest.raises(ValueError):
            StarConfig(2, 2, PairColor(0, 3), base_palette=3)


class TestNeighborCensus:
    """Local star counts over the 6-letter alphabet.  The (4,4) value is the
    one a larger claim leans on; the others pin the machinery."""

    CENTER = PairColor(0, 1)

    @pytest.mark.parametrize(
        "left,right,expected",
        [(1, 1, 1), (2, 2, 9), (2, 4, 18), (4, 2, 18), (4, 4, 36)],
    )
    def test_frozen_counts(self, left, right, expected):
        census = count_neighbor_pair_colorings(StarConfig(left, right, self.CENTER))
        assert census.count == expected
        assert len(census.assignments) == census.count

    def test_counts_independent_of_center_choice(self):
        values = {
            count_neighbor_pair_colorings(StarConfig(4, 4, c)).count
            for c in ordered_pairs(3)
        }
        assert values == {36}

    def test_independent_recount_by_permutations(self):
        # Count each side separately: admissible side assignments are ordered
        # selections of distinct pairs containing the endpoint color and
        # avoiding the center; sides are independent.
        center = self.CENTER
        for left, right in [(2, 2), (2, 4), (4, 4), (1, 2)]:
            per_side = []
            for degree, endpoint in ((left, center.first), (right, center.second)):
                pool = [
                    p
                    for p in ordered_pairs(3)
                    if p.contains(endpoint) and p != center
                ]
                per_side.append(
                    sum(1 for _ in itertools.permutations(pool, degree - 1))
                )
            expected = per_side[0] * per_side[1]
            census = count_neighbor_pair_colorings(StarConfig(left, right, center))
            assert census.count == expected

    def test_count_stable_under_alphabet_reordering(self):
        # Independent recount walking the alphabet in reverse: the admissible
        # set is order-free, so the tally must not move.
        cfg = StarConfig(4, 4, self.CENTER)
        alphabet = list(reversed(ordered_pairs(3)))
        count = 0
        for combo in itertools.product(alphabet, repeat=6):
            left, right = combo[:3], combo[3:]
            ok = True
            for side, endpoint in ((left, cfg.center.first), (right, cfg.center.second)):
                if any(not p.contains(endpoint) for p in side):
                    ok = False
                    break
                if len(set(side)) != len(side) or cfg.center in side:
                    ok = False
                    break
            count += ok
        assert count == count_neighbor_pair_colorings(cfg).count == 36

    def test_assignments_satisfy_their_own_constraints(self):
        cfg = StarConfig(4, 4, self.CENTER)
        census = count_neighbor_pair_colorings(cfg)
        for left, right in census.assignments:
            for side, endpoint in ((left, 0), (right, 1)):
                assert all(p.contains(endpoint) for p in side)
                assert len(set(side)) == len(side)
                assert cfg.center not in side
        assert len(set(census.assignments)) == census.count
