"""Corpus generation and the hypothesis scan.

Four claims are checked per instance:

  H10  the graph has a proper 3-coloring (exact chromatic number <= 3)
  H11  its line graph has a proper 6-coloring (edge chromatic number <= 6)
  H12  some proper 3-coloring induces, along the canonical Euler
       orientation, a proper ordered-pair edge coloring
  H13  restates H10; evaluated identically and reported under both names

Verdicts are pass / fail / indeterminate; a timeout is never a refutation.
Search effort is metered in deterministic node budgets (NODES_PER_MS nodes
per configured millisecond), so the same config and seeds give the same
verdicts on any machine and any worker count.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from . import __version__
from .construct import (
    ConjugatedTriangulation,
    ValidationReport,
    euler_circuit,
    generate_stacked_triangulation,
    line_graph_of,
    medial_graph,
    orient_along_circuit,
    subdivide_edges,
    validate_conjugated,
)
from .coloring import (
    ChromaticResult,
    DEFAULT_EDGE_CAP,
    DEFAULT_VERTEX_CAP,
    chromatic_class,
    chromatic_number,
    coloring_bounds,
    decide_k_coloring,
    exhaustive_chromatic_number,
    greedy_coloring,
)
from .pairs import induce_edge_coloring, sibling_constraint_graph
from .graphio import GraphFormatError, parse_graph_file, serialize_graph_file
from . import core

HYPOTHESES = ("H10", "H11", "H12", "H13")
VERTEX_COLOR_TARGET = 3
EDGE_COLOR_TARGET = 6
NODES_PER_MS = 100
H12_READING = (
    "induced by one global proper 3-coloring along the canonical Euler "
    "orientation (smallest-edge-first circuit)"
)
ORACLE_RECHECK_MAX_VERTICES = 8
# What the H10/H13 detail adds for each certificate of the gamma value.
GAMMA_CERTIFICATE_NOTES = {
    "bipartite": " (breadth-first 2-coloring witness)",
    "odd_cycle": " (odd-cycle lower bound 3)",
    "tait": " (Tait face-coloring witness, odd-cycle lower bound)",
}


class ScanInputError(Exception):
    """Corpus source unreadable or malformed; everything else is per-instance data."""


@dataclass(frozen=True)
class GenRecipe:
    """Corpus recipe: medial graphs of randomly grown stacked triangulations,
    with a sprinkle of degree-2 vertices from edge subdivision."""

    inserts: tuple[int, ...] = tuple(range(9))
    subdivisions: tuple[int, ...] = (0, 1, 2, 3)
    replicates: int = 3
    base_seed: int = 2026

    def __post_init__(self):
        if not self.inserts or min(self.inserts) < 0:
            raise ValueError("inserts must be a non-empty tuple of non-negatives")
        if not self.subdivisions or min(self.subdivisions) < 0:
            raise ValueError("subdivisions must be a non-empty tuple of non-negatives")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        for name in ("inserts", "subdivisions"):
            repeated = [x for x, n in Counter(getattr(self, name)).items() if n > 1]
            if repeated:
                raise ValueError(
                    f"{name} repeat the value {repeated[0]}; two cells would "
                    f"share instance ids"
                )
        # The smallest cell is the triangle (3 edges, its own medial) when
        # 0 inserts are asked for, else a medial graph with 6 + 6i edges.
        fewest = 3 if 0 in self.inserts else 6 + 6 * min(self.inserts)
        if max(self.subdivisions) > fewest:
            raise ValueError(
                f"{max(self.subdivisions)} subdivisions exceed the {fewest} "
                f"edges of the smallest cell (inserts {min(self.inserts)})"
            )

    def max_edges_bound(self) -> int:
        # The medial of a triangulation grown by i inserts has 6 + 6i edges.
        return 6 + 6 * max(self.inserts) + max(self.subdivisions)

    def max_vertices_bound(self) -> int:
        return 3 + 3 * max(self.inserts) + max(self.subdivisions)


@dataclass(frozen=True)
class ScanConfig:
    source_files: tuple[str, ...] = ()
    recipe: Optional[GenRecipe] = None
    hypotheses: tuple[str, ...] = HYPOTHESES
    timeout_ms: int = 2000
    jobs: int = 1
    output: Optional[str] = None
    counterexample_dir: Optional[str] = None
    max_vertices: int = DEFAULT_VERTEX_CAP
    max_edges: int = DEFAULT_EDGE_CAP

    def __post_init__(self):
        if bool(self.source_files) == bool(self.recipe):
            raise ValueError("configure exactly one of source_files or recipe")
        bad = [h for h in self.hypotheses if h not in HYPOTHESES]
        if bad:
            raise ValueError(f"unknown hypotheses {bad}")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in ("max_vertices", "max_edges"):
            if getattr(self, name) > core.KERNEL_LIMIT:
                raise ValueError(
                    f"{name} {getattr(self, name)} exceeds the search kernel "
                    f"limit of {core.KERNEL_LIMIT}"
                )
        if self.recipe is not None:
            if self.recipe.max_edges_bound() > self.max_edges:
                raise ValueError(
                    f"recipe can reach {self.recipe.max_edges_bound()} edges, "
                    f"cap is {self.max_edges}"
                )
            if self.recipe.max_vertices_bound() > self.max_vertices:
                raise ValueError(
                    f"recipe can reach {self.recipe.max_vertices_bound()} vertices, "
                    f"cap is {self.max_vertices}"
                )

    @property
    def node_budget(self) -> int:
        return self.timeout_ms * NODES_PER_MS


@dataclass
class InstanceRecord:
    id: str
    vertices: int
    edges: int
    degree_histogram: dict[int, int]
    planarity: str
    valid: bool
    validation_failures: list[str]
    gamma: dict
    chi: dict
    bounds: dict
    hypotheses: dict[str, dict]
    witnesses: dict
    counterexample_file: Optional[str]
    timings_ms: dict
    nodes: dict
    error: Optional[str]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "vertices": self.vertices,
            "edges": self.edges,
            "degree_histogram": {str(d): n for d, n in sorted(self.degree_histogram.items())},
            "planarity": self.planarity,
            "valid": self.valid,
            "validation_failures": list(self.validation_failures),
            "gamma": dict(self.gamma),
            "chi": dict(self.chi),
            "bounds": dict(self.bounds),
            "hypotheses": {h: dict(v) for h, v in self.hypotheses.items()},
            "witnesses": dict(self.witnesses),
            "counterexample_file": self.counterexample_file,
            "timings_ms": dict(self.timings_ms),
            "nodes": dict(self.nodes),
            "error": self.error,
        }

    @property
    def failed_hypotheses(self) -> list[str]:
        return [h for h, v in self.hypotheses.items() if v["verdict"] == "fail"]


@dataclass(frozen=True)
class ScanReport:
    config: ScanConfig
    instances: tuple[InstanceRecord, ...]

    def summary(self) -> dict:
        verdicts = {
            h: {"pass": 0, "fail": 0, "indeterminate": 0, "skipped": 0}
            for h in self.config.hypotheses
        }
        for rec in self.instances:
            for h, v in rec.hypotheses.items():
                verdicts[h][v["verdict"]] += 1
        return {
            "instances": len(self.instances),
            "valid_instances": sum(1 for r in self.instances if r.valid),
            "verdicts": verdicts,
            "counterexamples": [
                r.id for r in self.instances if r.failed_hypotheses
            ],
        }

    def to_dict(self) -> dict:
        cfg = self.config
        recipe = None
        if cfg.recipe is not None:
            recipe = {
                "inserts": list(cfg.recipe.inserts),
                "subdivisions": list(cfg.recipe.subdivisions),
                "replicates": cfg.recipe.replicates,
                "base_seed": cfg.recipe.base_seed,
            }
        return {
            "version": __version__,
            "summary": self.summary(),
            "config": {
                "source": "files" if cfg.source_files else "generated",
                "files": list(cfg.source_files),
                "recipe": recipe,
                "hypotheses": list(cfg.hypotheses),
                "timeout_ms": cfg.timeout_ms,
                "jobs": cfg.jobs,
                "max_vertices": cfg.max_vertices,
                "max_edges": cfg.max_edges,
                "node_budget_per_decision": cfg.node_budget,
                "h12_reading": H12_READING,
                "counterexample_dir": cfg.counterexample_dir,
                "output": cfg.output,
            },
            "instances": [rec.to_dict() for rec in self.instances],
        }


def _derive_seed(base: int, *parts: int) -> int:
    x = base & 0xFFFFFFFF
    for p in parts:
        x = (x * 1_000_003 + p + 0x9E3779B9) & 0xFFFFFFFF
    return x


def generate_corpus(recipe: GenRecipe) -> list[tuple[str, bytes]]:
    """Deterministic corpus: one serialized graph file per (inserts,
    subdivisions, replicate) cell, ids stable across runs.  The bytes are
    those ``--input`` reads; ``evaluate_instance`` validates them.  Each
    triangulation hands its face triples to ``medial_graph``, which writes
    the medial's rotation rows from their corners, so generation traces no
    faces, builds no graph through the checked constructor, and writes the
    rotations it builds without a check."""
    out = []
    for i in recipe.inserts:
        for s in recipe.subdivisions:
            for r in range(recipe.replicates):
                tri_seed = _derive_seed(recipe.base_seed, i, s, r, 0)
                sub_seed = _derive_seed(recipe.base_seed, i, s, r, 1)
                medial = medial_graph(*generate_stacked_triangulation(i, tri_seed))
                g, grot = subdivide_edges(*medial, s, sub_seed)
                blob = serialize_graph_file(g, grot, trusted=True)
                out.append((f"gen-i{i}-s{s}-r{r}", blob))
    return out


def _null_chromatic() -> dict:
    return {"value": None, "lower": 0, "upper": 0}


def _chromatic_dict(res: ChromaticResult) -> dict:
    return {"value": res.value, "lower": res.lower, "upper": res.upper}


def _threshold_verdict(res: ChromaticResult, t: int, label: str) -> tuple[str, str]:
    if res.value is not None:
        if res.value <= t:
            return "pass", f"{label} = {res.value} <= {t}"
        return "fail", f"{label} = {res.value} > {t}"
    if res.upper <= t:
        return "pass", f"{label} upper bound {res.upper} <= {t} (exact search aborted)"
    if res.lower > t:
        return "fail", f"{label} lower bound {res.lower} > {t} (exact search aborted)"
    return (
        "indeterminate",
        f"{label} bounds [{res.lower}, {res.upper}] straddle {t} within budget",
    )


def _skip_all(hypotheses: tuple[str, ...], detail: str) -> dict[str, dict]:
    return {h: {"verdict": "skipped", "detail": detail} for h in hypotheses}


def _empty_witnesses() -> dict:
    return {
        "h10_coloring": None,
        "h11_edge_coloring": None,
        "h12_coloring": None,
        "h12_pairs": None,
    }


def evaluate_instance(
    instance_id: str,
    blob: bytes,
    hypotheses: tuple[str, ...],
    timeout_ms: int,
    max_vertices: int,
    max_edges: int,
) -> InstanceRecord:
    """Full per-instance pipeline; pure given its arguments.

    Each derived object (line graph, greedy colorings) is built once and
    reused for the bounds, the searches and the fallback witnesses.  A
    malformed blob raises ScanInputError naming the instance."""
    t_total = time.perf_counter()
    budget = timeout_ms * NODES_PER_MS
    try:
        graph, rotation = parse_graph_file(blob)
    except GraphFormatError as exc:
        raise ScanInputError(f"{instance_id}: {exc}") from None
    ct: Optional[ConjugatedTriangulation] = None
    if graph.vertex_count > 2 * graph.edge_count:
        # The degrees sum to 2E < V, so some vertex is isolated.  It fails
        # "degrees" and is a component of its own beside any other vertex; a
        # lone vertex is connected and traces one face.  So the verdicts
        # follow from V, and a header that declares many vertices costs
        # nothing per vertex.  Below the bound, validation is linear in E.
        degree = Counter(chain.from_iterable(graph.edges))
        histogram = Counter(degree.values())
        histogram[0] = graph.vertex_count - len(degree)
        several = graph.vertex_count > 1
        planarity = "skipped" if rotation is None else ("fail" if several else "pass")
        failures = ["degrees"]
        if several:
            failures.append("connected")
        if planarity == "fail":
            failures.append("planarity")
    else:
        outcome = validate_conjugated(graph, rotation)
        if isinstance(outcome, ConjugatedTriangulation):
            ct = outcome
            report: ValidationReport = outcome.validation
        else:
            report = outcome
        histogram = Counter(graph.degrees)
        planarity = report.check("planarity").status
        failures = [c.name for c in report.checks if c.status == "fail"]

    rec = InstanceRecord(
        id=instance_id,
        vertices=graph.vertex_count,
        edges=graph.edge_count,
        degree_histogram=dict(histogram),
        planarity=planarity,
        valid=ct is not None,
        validation_failures=failures,
        gamma=_null_chromatic(),
        chi=_null_chromatic(),
        bounds={"brooks": 0, "shannon_edge": 0, "greedy_vertex": 0, "greedy_edge": 0},
        hypotheses=_skip_all(hypotheses, "instance is not a conjugated triangulation"),
        witnesses=_empty_witnesses(),
        counterexample_file=None,
        timings_ms={"gamma": 0.0, "chi": 0.0, "h12": 0.0, "total": 0.0},
        nodes={"gamma": 0, "chi": 0, "h12": 0},
        error=None,
    )
    if ct is None:
        rec.timings_ms["total"] = (time.perf_counter() - t_total) * 1000
        return rec

    if graph.vertex_count > max_vertices or graph.edge_count > max_edges:
        rec.error = (
            f"instance size {graph.vertex_count}V/{graph.edge_count}E exceeds "
            f"caps {max_vertices}V/{max_edges}E"
        )
        rec.hypotheses = _skip_all(hypotheses, rec.error)
        rec.timings_ms["total"] = (time.perf_counter() - t_total) * 1000
        return rec

    greedy = greedy_coloring(graph)
    lg = line_graph_of(graph)
    lg_greedy = greedy_coloring(lg)
    vb = coloring_bounds(graph, greedy)
    rec.bounds = {
        "brooks": vb.brooks,
        "shannon_edge": vb.shannon,
        "greedy_vertex": vb.greedy,
        "greedy_edge": lg_greedy.palette_size,
    }

    t0 = time.perf_counter()
    gamma = chromatic_number(
        graph, max_vertices, node_budget=budget, greedy=greedy, faces=ct.faces
    )
    rec.timings_ms["gamma"] = (time.perf_counter() - t0) * 1000
    rec.gamma = _chromatic_dict(gamma)
    rec.nodes["gamma"] = gamma.nodes

    t0 = time.perf_counter()
    chi = chromatic_class(graph, max_edges, node_budget=budget, lg=lg, greedy=lg_greedy)
    rec.timings_ms["chi"] = (time.perf_counter() - t0) * 1000
    rec.chi = _chromatic_dict(chi)
    rec.nodes["chi"] = chi.nodes

    if "H10" in hypotheses or "H13" in hypotheses:
        verdict, detail = _threshold_verdict(gamma, VERTEX_COLOR_TARGET, "gamma")
        detail += GAMMA_CERTIFICATE_NOTES.get(gamma.certificate, "")
        if verdict == "fail" and graph.vertex_count <= ORACLE_RECHECK_MAX_VERTICES:
            confirmed = exhaustive_chromatic_number(
                graph, max_vertices=ORACLE_RECHECK_MAX_VERTICES
            )
            detail += f"; exhaustive oracle confirms gamma = {confirmed}"
        if verdict == "pass":
            witness = gamma.witness or greedy
            rec.witnesses["h10_coloring"] = list(witness.colors)
        for name in ("H10", "H13"):
            if name in hypotheses:
                note = "" if name == "H10" else " (H13 restates H10)"
                rec.hypotheses[name] = {"verdict": verdict, "detail": detail + note}

    if "H11" in hypotheses:
        verdict, detail = _threshold_verdict(chi, EDGE_COLOR_TARGET, "chi")
        if chi.certificate == "parity":
            detail += " (parity lemma lower bound, Vizing upper bound)"
        elif chi.certificate == "kempe":
            detail += " (Kempe-chain witness, Delta lower bound)"
        if verdict == "pass":
            # chi.upper <= EDGE_COLOR_TARGET, and chi.witness meets chi.upper.
            rec.witnesses["h11_edge_coloring"] = {
                str(eid): c for eid, c in sorted(chi.witness.colors.items())
            }
        rec.hypotheses["H11"] = {"verdict": verdict, "detail": detail}

    if "H12" in hypotheses:
        t0 = time.perf_counter()
        oriented = orient_along_circuit(ct, euler_circuit(ct))
        augmented = sibling_constraint_graph(oriented)
        status, witness, nodes = decide_k_coloring(
            augmented, VERTEX_COLOR_TARGET, max_vertices, node_budget=budget
        )
        rec.nodes["h12"] = nodes
        if status == core.SAT:
            induced = induce_edge_coloring(oriented, witness)
            if not induced.proper:
                raise AssertionError(
                    "sibling-constraint reduction produced an improper pair coloring"
                )
            rec.witnesses["h12_coloring"] = list(witness.colors)
            rec.witnesses["h12_pairs"] = {
                str(eid): [p.first, p.second]
                for eid, p in sorted(induced.coloring.pairs.items())
            }
            rec.hypotheses["H12"] = {
                "verdict": "pass",
                "detail": "a proper 3-coloring induces a proper pair coloring",
            }
        elif status == core.UNSAT:
            rec.hypotheses["H12"] = {
                "verdict": "fail",
                "detail": (
                    "no proper 3-coloring induces a proper pair coloring "
                    "under the canonical Euler orientation"
                ),
            }
        else:
            rec.hypotheses["H12"] = {
                "verdict": "indeterminate",
                "detail": "augmented 3-colorability undecided within budget",
            }
        rec.timings_ms["h12"] = (time.perf_counter() - t0) * 1000

    rec.timings_ms["total"] = (time.perf_counter() - t_total) * 1000
    return rec


def _worker(args: tuple) -> InstanceRecord:
    return evaluate_instance(*args)


def _load_corpus(config: ScanConfig) -> list[tuple[str, bytes]]:
    """Instance ids and raw bytes; parsing happens once, per instance."""
    if config.source_files:
        corpus = []
        for path in config.source_files:
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except OSError as exc:
                raise ScanInputError(f"cannot read {path}: {exc}") from None
            corpus.append((os.path.basename(path), blob))
        return corpus
    return generate_corpus(config.recipe)


def run_hypothesis_scan(config: ScanConfig) -> ScanReport:
    """Evaluate every corpus instance; results merge in corpus order no
    matter how many workers ran them."""
    corpus = _load_corpus(config)
    tasks = [
        (
            iid,
            blob,
            config.hypotheses,
            config.timeout_ms,
            config.max_vertices,
            config.max_edges,
        )
        for iid, blob in corpus
    ]
    if config.jobs == 1 or len(tasks) <= 1:
        records = [_worker(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            records = list(pool.map(_worker, tasks, chunksize=4))

    failing = [rec for rec in records if rec.failed_hypotheses]
    if failing:
        directory = config.counterexample_dir
        if directory is None:
            base = os.path.dirname(config.output) if config.output else "."
            directory = os.path.join(base, "counterexamples")
        os.makedirs(directory, exist_ok=True)
        blob_by_id = dict(corpus)
        for rec in failing:
            path = os.path.join(directory, f"{rec.id}.conj")
            with open(path, "wb") as fh:
                fh.write(blob_by_id[rec.id])
            rec.counterexample_file = path
    return ScanReport(config=config, instances=tuple(records))


def report_schema() -> dict:
    from importlib.resources import files

    return json.loads(
        files("conjtri").joinpath("report_schema.json").read_text("utf-8")
    )


def check_report(payload: dict) -> None:
    """Raise ``report_check.ReportSchemaError``, naming the JSON path of the
    first violation, unless ``payload`` matches report_schema.json."""
    from .report_check import report_checker

    report_checker()(payload)


def write_report(report: ScanReport, path: str) -> None:
    """Check the report against its schema, then write it; a report that
    fails the check is not written and ``path`` is not opened."""
    payload = report.to_dict()
    check_report(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
