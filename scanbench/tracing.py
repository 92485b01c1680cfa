"""Outside-in layer tracing for one `conjtri scan`.

The public functions of each layer are wrapped at every module-global name
the program looks them up by (a function imported into `conjtri.scan` and
`conjtri.coloring` is wrapped there as well as at home), together with
`conjtri.core.decide_coloring`, `json.dump` and `jsonschema.validate`.
`jsonschema` is imported lazily inside `write_report`, so its `validate` is
wrapped when that import happens, which keeps its import cost where an
untraced scan pays it.

Each call becomes a span (name, parent span, start, end, info) kept in
memory. Self time is a span's duration minus that of its direct child spans.
The three search stages are gamma (`chromatic_number`), chi
(`chromatic_class`, whose inner `chromatic_number` on the line graph is
folded into it) and H12 (`decide_k_coloring`); kernel nodes count towards
the outermost stage they ran under.
"""

from __future__ import annotations

import builtins
import json
import statistics
import sys
import time

LAYERS = {
    "graphio": ("parse_graph_file", "serialize_graph_file"),
    "construct": ("validate_conjugated", "line_graph_of", "euler_circuit", "orient_along_circuit"),
    "coloring": (
        "greedy_coloring",
        "coloring_bounds",
        "chromatic_number",
        "chromatic_class",
        "decide_k_coloring",
    ),
    "pairs": ("sibling_constraint_graph", "induce_edge_coloring"),
    "scan": ("generate_corpus", "evaluate_instance", "run_hypothesis_scan", "write_report"),
}
STAGES = ("coloring.chromatic_number", "coloring.chromatic_class", "coloring.decide_k_coloring")
ABORTED = -1

# Extra data kept per span, from (args, result).
INFO = {
    "core.decide_coloring": lambda args, res: (res[0], res[2]),
    "coloring.chromatic_class": lambda args, res: res.value is None,
    "scan.evaluate_instance": lambda args, res: args[0],
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, info]
        self._stack = []
        self._undo = []
        self._import = builtins.__import__
        self._depth = 0

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                res = fn(*args, **kwargs)
                if info is not None:
                    span[4] = info(args, res)
                return res
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _patch(self, obj, attr, wrapper):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def install(self) -> None:
        from conjtri import core

        wrappers = {}
        for short, names in LAYERS.items():
            mod = sys.modules["conjtri." + short]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{short}.{fname}", fn))
        fn = core.decide_coloring
        wrappers[id(fn)] = (fn, self.wrap("core.decide_coloring", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "conjtri" and not modname.startswith("conjtri."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._patch(json, "dump", self.wrap("scan.json_dump", json.dump))
        if "jsonschema" in sys.modules:
            self._wrap_jsonschema(sys.modules["jsonschema"])
        else:
            self._patch(builtins, "__import__", self._import_hook)

    def _wrap_jsonschema(self, mod) -> None:
        self._patch(mod, "validate", self.wrap("scan.schema_check", mod.validate))

    def _import_hook(self, *args, **kwargs):
        # Wrap once the outermost import that loaded jsonschema has returned,
        # so the package is complete.
        self._depth += 1
        try:
            mod = self._import(*args, **kwargs)
        finally:
            self._depth -= 1
        if self._depth == 0 and "jsonschema" in sys.modules:
            builtins.__import__ = self._import
            self._wrap_jsonschema(sys.modules["jsonschema"])
        return mod

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)
        builtins.__import__ = self._import

    def dump(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_s", "end_s", "info"],
                    "spans": [[n, p, s - t0, e - t0, i] for n, p, s, e, i in self.spans],
                },
                fh,
            )

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        stage = [None] * len(spans)
        for i, (name, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                stage[i] = stage[parent]
            if stage[i] is None and name in STAGES:
                stage[i] = name
        calls, self_s, total_s, nodes = {}, {}, {}, {}
        aborted = indeterminate = 0
        eval_ms = []
        for i, (name, parent, start, end, info) in enumerate(spans):
            label = stage[i] if name in STAGES else name
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + (end - start) - child[i]
            total_s[label] = total_s.get(label, 0.0) + (end - start)
            if name == "core.decide_coloring":
                status, n = info
                nodes[stage[i]] = nodes.get(stage[i], 0) + n
                nodes[name] = nodes.get(name, 0) + n
                aborted += n if status == ABORTED else 0
            elif name == "coloring.chromatic_class":
                indeterminate += bool(info)
            elif name == "scan.evaluate_instance":
                eval_ms.append((end - start) * 1000)

        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for key in (
            "graphio.parse_graph_file",
            "construct.validate_conjugated",
            "construct.line_graph_of",
            "coloring.greedy_coloring",
            "core.decide_coloring",
        ):
            put(key + ".calls", calls.get(key, 0), "count")
        for key in (
            "graphio.parse_graph_file",
            "graphio.serialize_graph_file",
            "construct.validate_conjugated",
            "construct.line_graph_of",
            "construct.euler_circuit",
            "construct.orient_along_circuit",
            "coloring.greedy_coloring",
            "coloring.coloring_bounds",
            *STAGES,
            "core.decide_coloring",
            "pairs.sibling_constraint_graph",
            "pairs.induce_edge_coloring",
            "scan.evaluate_instance",
            "scan.run_hypothesis_scan",
            "scan.write_report",
            "scan.schema_check",
            "scan.json_dump",
        ):
            put(key + ".self_ms", self_s.get(key, 0.0) * 1000, "ms")
        for key in (*STAGES, "core.decide_coloring"):
            put(key + ".nodes", nodes.get(key, 0), "count")
        put("coloring.chromatic_class.indeterminate", indeterminate, "count")
        put("core.decide_coloring.aborted_nodes", aborted, "count")
        kernel_s = self_s.get("core.decide_coloring", 0.0)
        put(
            "core.decide_coloring.nodes_per_s",
            nodes.get("core.decide_coloring", 0) / kernel_s if kernel_s else 0.0,
            "1/s",
        )
        put("scan.generate_corpus.ms", total_s.get("scan.generate_corpus", 0.0) * 1000, "ms")
        if len(eval_ms) >= 2:
            q = statistics.quantiles(eval_ms, n=100)
            put("scan.evaluate_instance.p50_ms", statistics.median(eval_ms), "ms")
            put("scan.evaluate_instance.p95_ms", q[94], "ms")
        return out
