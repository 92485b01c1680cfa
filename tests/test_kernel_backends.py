"""The compiled and pure-Python search kernels must be interchangeable.

Everything downstream (chromatic numbers, the hypothesis scan, node-budget
determinism) assumes the two backends return byte-identical results:
same status, same witness, same node count.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conjtri
from conjtri import _core_py, core

KERNEL_C = Path(conjtri.__file__).with_name("_core.c")


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


def _child_env() -> dict:
    """Environment for a child interpreter that imports this checkout."""
    paths = [str(Path(conjtri.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _both(n, masks, k, pinned, node_budget=0):
    compiled = _compiled_or_skip()
    a = compiled.decide_coloring(n, masks, k, pinned, node_budget)
    b = _core_py.decide_coloring(n, masks, k, pinned, node_budget)
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
            res_c = compiled.decide_coloring(n, masks, k, [-1] * n, 0)
            res_p = _core_py.decide_coloring(n, masks, k, [-1] * n, 0)
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
            impl.decide_coloring(65, [0] * 65, 3, [-1] * 65, 0)
        with pytest.raises(ValueError):
            impl.decide_coloring(2, [0, 0], 65, [-1, -1], 0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_zero_colors(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # No colors: colorable iff there are no vertices.
        assert impl.decide_coloring(0, [], 0, [], 0) == (core.SAT, [], 0)
        assert impl.decide_coloring(2, [2, 1], 0, [-1, -1], 0) == (
            core.UNSAT,
            None,
            0,
        )

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_conflicting_pins(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # Adjacent vertices pinned to the same color: refuted with no search.
        status, witness, nodes = impl.decide_coloring(2, [2, 1], 3, [0, 0], 0)
        assert (status, witness, nodes) == (core.UNSAT, None, 0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_pin_out_of_range(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        status, witness, nodes = impl.decide_coloring(1, [0], 2, [5], 0)
        assert (status, witness, nodes) == (core.UNSAT, None, 0)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_witness_respects_pins(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        # Path on 4 vertices with both ends pinned.
        masks = [0b0010, 0b0101, 0b1010, 0b0100]
        status, witness, _ = impl.decide_coloring(4, masks, 2, [1, -1, -1, 0], 0)
        assert status == core.SAT
        assert witness[0] == 1 and witness[3] == 0
        for v in range(4):
            rest = masks[v]
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert witness[v] != witness[w]

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    @pytest.mark.parametrize(
        "n, masks",
        [
            (2, [4, 1]),  # bit 2 names a third vertex
            (63, [1 << 63] + [0] * 62),
            (64, [1 << 64] + [0] * 63),  # a 65th bit
            (2, [0, -2]),
        ],
    )
    def test_rejects_masks_outside_the_graph(self, impl_name, n, masks):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        with pytest.raises(ValueError, match="mask of vertex"):
            impl.decide_coloring(n, masks, 3, [-1] * n)
        # Checked before the k <= 0 shortcut.
        with pytest.raises(ValueError, match="mask of vertex"):
            impl.decide_coloring(n, masks, 0, [-1] * n)

    def test_rejects_negative_vertex_count_pure(self):
        for k in (2, 0):
            with pytest.raises(ValueError, match="non-negative"):
                _core_py.decide_coloring(-1, [], k, [])

    def test_rejects_negative_vertex_count_compiled(self):
        _compiled_or_skip()
        # In a child process, so that a kernel which crashes on a negative
        # n fails this test instead of ending the whole run.
        script = (
            "from conjtri import _core\n"
            "for k in (2, 0):\n"
            "    try:\n"
            "        _core.decide_coloring(-1, [], k, [])\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["vertex count must be non-negative"] * 2

    @pytest.mark.parametrize(
        "args",
        [
            (65, [0] * 65, 3, [-1] * 65),
            (2, [0, 0], 65, [-1, -1]),
            (2, [4, 1], 3, [-1, -1]),
            (64, [0] * 63 + [1 << 64], 0, [-1] * 64),
            (3, [2, -1, 0], 3, [-1] * 3),
        ],
    )
    def test_error_messages_match(self, args):
        compiled = _compiled_or_skip()
        with pytest.raises(ValueError) as pure_err:
            _core_py.decide_coloring(*args)
        with pytest.raises(ValueError) as compiled_err:
            compiled.decide_coloring(*args)
        assert str(compiled_err.value) == str(pure_err.value)

    @pytest.mark.parametrize("impl_name", ["pure", "compiled"])
    def test_accepts_all_64_bits(self, impl_name):
        impl = _core_py if impl_name == "pure" else _compiled_or_skip()
        full = (1 << 64) - 1
        status, witness, nodes = impl.decide_coloring(64, [full] * 64, 64, [-1] * 64)
        assert status == core.SAT and sorted(witness) == list(range(64))
        assert nodes == 64
        assert impl.decide_coloring(64, [full] * 64, 63, [-1] * 64)[:2] == (
            core.UNSAT,
            None,
        )


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
        here = core.decide_coloring(n, masks, 3, [-1] * n, 0)
        script = (
            "import conjtri.core as c\n"
            f"print(c.decide_coloring({n}, {masks!r}, 3, {[-1] * n!r}, 0))\n"
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


# Run by TestSanitizedBuild in a child process: argv[1] is the sanitized
# build of _core.c.  Any undefined behaviour aborts the child.
_SANITIZED_CHECKS = textwrap.dedent(
    """
    import importlib.util
    import random
    import sys

    from conjtri import _core_py

    spec = importlib.util.spec_from_file_location("conjtri._core", sys.argv[1])
    kernel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel)

    def same(*args):
        a = kernel.decide_coloring(*args)
        b = _core_py.decide_coloring(*args)
        assert a == b, (args, a, b)
        return a

    def complete(n):
        return [((1 << n) - 1) & ~(1 << v) for v in range(n)]

    for n in (63, 64):
        assert same(n, complete(n), 64, [-1] * n)[0] == 1
        assert same(n, complete(n), 63, [-1] * n)[0] == (1 if n == 63 else 0)
        pinned = [-1] * n
        pinned[n - 1] = 63
        assert same(n, complete(n), 64, pinned)[1][n - 1] == 63
    assert same(64, [(1 << 64) - 1] * 64, 64, [-1] * 64)[0] == 1
    for args in ((-1, [], 2, []), (64, [1 << 64] + [0] * 63, 64, [-1] * 64),
                 (63, [1 << 63] + [0] * 62, 3, [-1] * 63), (2, [4, 1], 3, [-1, -1])):
        try:
            kernel.decide_coloring(*args)
        except ValueError:
            pass
        else:
            raise AssertionError(args)

    rng = random.Random(410)
    for trial in range(300):
        n = rng.choice((rng.randint(0, 14), rng.randint(58, 64)))
        density = rng.uniform(0.1, 0.8) if n <= 14 else rng.uniform(0.0, 0.1)
        masks = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        k = rng.randint(0, 5) if n <= 14 else rng.randint(1, 64)
        pinned = [rng.randrange(-1, k + 1) if rng.random() < 0.2 else -1 for _ in range(n)]
        same(n, masks, k, pinned, rng.choice((0, 0, 1, 40)))
    print("ok")
    """
)


def _ubsan_toolchain():
    """A C compiler with a static UBSan runtime and the Python headers, or
    None when this host has no such toolchain."""
    cc = shutil.which("cc")
    include = Path(sysconfig.get_paths()["include"])
    if cc is None or not (include / "Python.h").is_file():
        return None
    probe = subprocess.run(
        [cc, "-print-file-name=libubsan.a"], capture_output=True, text=True, timeout=60
    )
    runtime = probe.stdout.strip()
    if probe.returncode != 0 or not os.path.isabs(runtime) or not os.path.isfile(runtime):
        return None
    return cc, include


class TestSanitizedBuild:
    """The hand-written kernel must compile warning-free and run without
    undefined behaviour (for example a 64-bit shift by 64) at the edges of
    its domain."""

    def test_kernel_runs_clean_under_ubsan(self, tmp_path):
        toolchain = _ubsan_toolchain()
        if toolchain is None:
            pytest.skip("no C compiler with a UBSan runtime found")
        cc, include = toolchain
        so = tmp_path / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
        build = subprocess.run(
            [
                cc, "-shared", "-fPIC", "-Wall", "-Werror",
                "-fsanitize=undefined", "-fno-sanitize-recover=all", "-static-libubsan",
                f"-I{include}", str(KERNEL_C), "-o", str(so),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert build.returncode == 0, build.stderr
        run = subprocess.run(
            [sys.executable, "-c", _SANITIZED_CHECKS, str(so)],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "runtime error" not in run.stderr
        assert run.stdout.strip() == "ok"


# Run by TestCompiledReferences in a child process, so that a kernel which
# crashes on one of these calls fails that test instead of ending the run.
_LEAK_CHECKS = textwrap.dedent(
    """
    import gc
    import json
    import random
    import sys
    import tracemalloc

    from conjtri import _core as kernel

    rng = random.Random(411)
    n = 14
    masks = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    # Pins of 1000 and more are outside the small-int cache, so their
    # reference counts belong to this script alone.
    unpinned = [-1000 - v for v in range(n)]
    over_k = [1000 + v for v in range(n)]
    calls = [
        ((n, masks, 64, unpinned), None),  # SAT
        ((n, masks, 2, unpinned), None),  # UNSAT after search
        ((n, masks, 3, unpinned, 1), None),  # ABORTED
        ((n, masks, 3, over_k), None),  # pin >= k
        ((n, masks, 3, [1 << 70] * n), None),
        ((n, masks, 0, unpinned), None),  # k <= 0
        ((0, masks, 0, unpinned), None),
        ((65, masks, 3, unpinned), ValueError),
        ((n, masks, 65, unpinned), ValueError),
        ((-1, masks, 3, unpinned), ValueError),
        ((n, [-1] + masks[1:], 3, unpinned), ValueError),
        ((n, [1 << n] + masks[1:], 3, unpinned), ValueError),
        ((64, [1 << 64] * 64, 3, unpinned), ValueError),
        ((n + 1, masks, 3, unpinned), IndexError),
        ((n, masks, 3, unpinned[:-1]), IndexError),
        ((n, masks[:-1] + ["x"], 3, unpinned), TypeError),
        ((n, masks, 3, unpinned[:-1] + [0.5]), TypeError),
        ((n, None, 3, unpinned), TypeError),
        (("n", masks, 3, unpinned), TypeError),
        ((n, masks, 3), TypeError),
    ]
    watched = [masks, unpinned, over_k, *[m for m in masks if m > 256], *unpinned, *over_k]

    def run(rounds):
        for _ in range(rounds):
            for args, error in calls:
                try:
                    kernel.decide_coloring(*args)
                except Exception as exc:
                    assert error is not None and type(exc) is error, (args, exc)
                else:
                    assert error is None, args

    run(5)
    gc.collect()
    before = [sys.getrefcount(obj) for obj in watched]
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    run(1000)
    gc.collect()
    growth = tracemalloc.get_traced_memory()[0] - start
    tracemalloc.stop()
    after = [sys.getrefcount(obj) for obj in watched]
    print(json.dumps({"calls": 1000 * len(calls), "growth": growth, "refcounts_kept": after == before}))
    """
)


class TestCompiledReferences:
    """Every path through the compiled kernel, errors included, must leave
    the reference counts of its arguments as they were and free what it
    allocates."""

    def test_no_leaks_over_many_calls(self):
        _compiled_or_skip()
        run = subprocess.run(
            [sys.executable, "-c", _LEAK_CHECKS],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["calls"] >= 20_000
        assert result["refcounts_kept"]
        assert result["growth"] < 4096, f"{result['growth']} bytes retained"
