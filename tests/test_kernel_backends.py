"""The compiled and pure-Python search kernels must be interchangeable.

Everything downstream (chromatic numbers, the hypothesis scan, node-budget
determinism) assumes the two backends return byte-identical results:
same status, same witness, same node count.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtri import _core_py, core


def _compiled_or_skip():
    try:
        from conjtri import _core  # type: ignore[attr-defined]
    except ImportError:
        pytest.skip("compiled kernel not built")
    return _core


def _random_masks(n: int, density: float, rng: random.Random) -> list[int]:
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def _both(n, masks, k, pinned, node_budget=0, deadline=0.0):
    compiled = _compiled_or_skip()
    a = compiled.decide_coloring(n, masks, k, pinned, node_budget, deadline)
    b = _core_py.decide_coloring(n, masks, k, pinned, node_budget, deadline)
    return a, b


class TestBackendParity:
    def test_random_instances_identical(self):
        rng = random.Random(404)
        for trial in range(60):
            n = rng.randint(1, 14)
            masks = _random_masks(n, rng.uniform(0.1, 0.8), rng)
            k = rng.randint(1, 5)
            pinned = [-1] * n
            a, b = _both(n, masks, k, pinned)
            assert a == b, f"trial {trial}: {a} != {b}"

    def test_pinned_instances_identical(self):
        rng = random.Random(405)
        for trial in range(40):
            n = rng.randint(2, 12)
            masks = _random_masks(n, 0.5, rng)
            k = rng.randint(2, 4)
            pinned = [-1] * n
            for v in rng.sample(range(n), rng.randint(1, n // 2 + 1)):
                pinned[v] = rng.randrange(k)
            a, b = _both(n, masks, k, pinned)
            assert a == b, f"trial {trial}: {a} != {b}"

    def test_budgeted_aborts_identical(self):
        # A hard instance: complement-free random graph asked for too few
        # colors, so the search has to churn before the budget trips.
        rng = random.Random(406)
        n = 18
        masks = _random_masks(n, 0.6, rng)
        for budget in (1, 7, 50, 300):
            a, b = _both(n, masks, 3, [-1] * n, node_budget=budget)
            assert a == b
            status, witness, nodes = a
            if status == core.ABORTED:
                assert witness is None
                assert nodes <= budget + 1

    def test_node_counts_match_exactly(self):
        compiled = _compiled_or_skip()
        rng = random.Random(407)
        for _ in range(30):
            n = rng.randint(4, 13)
            masks = _random_masks(n, 0.45, rng)
            k = rng.randint(2, 4)
            res_c = compiled.decide_coloring(n, masks, k, [-1] * n, 0, 0.0)
            res_p = _core_py.decide_coloring(n, masks, k, [-1] * n, 0, 0.0)
            assert res_c[2] == res_p[2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_agreement(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        masks = _random_masks(n, 0.5, rng)
        k = rng.randint(1, 4)
        a, b = _both(n, masks, k, [-1] * n)
        assert a == b


def _complete_masks(n: int) -> list[int]:
    full = (1 << n) - 1
    return [full & ~(1 << v) for v in range(n)]


class TestBoundaryParity:
    """The kernels accept n, k <= 64; the top of that range needs all 64
    bits of a color mask, so both twins must agree there too."""

    @pytest.mark.parametrize("n", [63, 64])
    @pytest.mark.parametrize("k", [63, 64])
    def test_complete_graph(self, n, k):
        a, b = _both(n, _complete_masks(n), k, [-1] * n)
        assert a == b
        status, witness, nodes = a
        if k >= n:
            assert status == core.SAT and sorted(witness) == list(range(n))
            assert nodes == n
        else:
            assert (status, witness) == (core.UNSAT, None)

    @pytest.mark.parametrize("n", [63, 64])
    def test_top_color_pinned(self, n):
        pinned = [-1] * n
        pinned[n - 1] = 63
        a, b = _both(n, _complete_masks(n), 64, pinned)
        assert a == b
        assert a[0] == core.SAT and a[1][n - 1] == 63

    @pytest.mark.parametrize("n", [63, 64])
    def test_sparse_graph_many_colors(self, n):
        rng = random.Random(409 + n)
        masks = _random_masks(n, 0.1, rng)
        for k in (63, 64):
            a, b = _both(n, masks, k, [-1] * n)
            assert a == b and a[0] == core.SAT


class TestKernelContract:
    """Edge cases both backends must honour."""

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_size_limits(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        with pytest.raises(ValueError):
            impl.decide_coloring(65, [0] * 65, 3, [-1] * 65, 0, 0.0)
        with pytest.raises(ValueError):
            impl.decide_coloring(2, [0, 0], 65, [-1, -1], 0, 0.0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_zero_colors(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # No colors: colorable iff there are no vertices.
        assert impl.decide_coloring(0, [], 0, [], 0, 0.0) == (core.SAT, [], 0)
        assert impl.decide_coloring(2, [2, 1], 0, [-1, -1], 0, 0.0) == (
            core.UNSAT,
            None,
            0,
        )

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_conflicting_pins(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # Adjacent vertices pinned to the same color: refuted with no search.
        status, witness, nodes = impl.decide_coloring(2, [2, 1], 3, [0, 0], 0, 0.0)
        assert (status, witness, nodes) == (core.UNSAT, None, 0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_pin_out_of_range(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        status, witness, nodes = impl.decide_coloring(1, [0], 2, [5], 0, 0.0)
        assert (status, witness, nodes) == (core.UNSAT, None, 0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_witness_respects_pins(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # Path on 4 vertices with both ends pinned.
        masks = [0b0010, 0b0101, 0b1010, 0b0100]
        status, witness, _ = impl.decide_coloring(4, masks, 2, [1, -1, -1, 0], 0, 0.0)
        assert status == core.SAT
        assert witness[0] == 1 and witness[3] == 0
        for v in range(4):
            rest = masks[v]
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert witness[v] != witness[w]


class TestBackendSelection:
    def test_backend_name_reports_selection(self):
        # The documented rule: CONJTRI_PURE forces the pure twin; otherwise
        # the compiled extension is used whenever it imports.
        if os.environ.get("CONJTRI_PURE"):
            expected = "pure"
        else:
            try:
                from conjtri import _core  # type: ignore[attr-defined]  # noqa: F401
            except ImportError:
                expected = "pure"
            else:
                expected = "compiled"
        assert core.backend_name() == expected
        # The reported name must be the module that actually does the work.
        supplier = {"compiled": "conjtri._core", "pure": "conjtri._core_py"}
        assert core.decide_coloring.__module__ == supplier[expected]

    def test_compiled_extension_is_built(self):
        _compiled_or_skip()  # the package ships a compiled kernel

    def test_env_var_forces_pure_backend(self):
        env = dict(os.environ, CONJTRI_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", "import conjtri.core as c; print(c.backend_name())"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "pure"

    def test_forced_pure_backend_matches_in_process_result(self):
        rng = random.Random(408)
        n = 10
        masks = _random_masks(n, 0.5, rng)
        here = core.decide_coloring(n, masks, 3, [-1] * n, 0, 0.0)
        script = (
            "import conjtri.core as c\n"
            f"print(c.decide_coloring({n}, {masks!r}, 3, {[-1] * n!r}, 0, 0.0))\n"
        )
        env = dict(os.environ, CONJTRI_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == repr(here)
