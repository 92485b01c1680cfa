"""scanbench/tracing.py wraps program functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "scanbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("scanbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_layer():
    # A renamed layer function would only show as a failed `--trace` run.
    layers = _tracing().LAYERS
    missing = [
        f"conjtri.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"conjtri.{layer}"), name, None))
    ]
    assert not missing
    assert sum(map(len, layers.values())) >= 10
    assert callable(importlib.import_module("conjtri.core").decide_coloring)
