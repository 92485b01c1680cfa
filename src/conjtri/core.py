"""Search-kernel backend selection.

The compiled kernel, a hand-written C extension (``_core.c``), is preferred;
the pure-Python twin is used when the extension is missing or when
CONJTRI_PURE is set in the environment.  Both implement the same algorithm
and return identical results.
"""

from __future__ import annotations

import os

SAT = 1
UNSAT = 0
ABORTED = -1

# Most vertices and colors either kernel accepts (one bit each in a uint64).
KERNEL_LIMIT = 64

if os.environ.get("CONJTRI_PURE"):
    from . import _core_py as _impl

    BACKEND = "pure"
else:
    try:
        from . import _core as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _core_py as _impl

        BACKEND = "pure"

decide_coloring = _impl.decide_coloring


def backend_name() -> str:
    return BACKEND
