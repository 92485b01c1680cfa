"""Command line front end.

Exit codes: 0 = run completed (hypothesis failures are results, not errors),
1 = usage error or a scan report that fails its schema check,
2 = unreadable input or malformed graph/JSON data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from .graphs import SizeLimitError
from .construct import (
    euler_circuit,
    line_graph_of,
    orient_along_circuit,
    require_conjugated,
    validate_conjugated,
    ConjugatedTriangulation,
    NotConjugatedError,
)
from .coloring import chromatic_class, chromatic_number
from .pairs import (
    ConflictError,
    PairColor,
    PairEdgeColoring,
    PartialError,
    induce_edge_coloring,
    recover_vertex_coloring,
)
from .abstract_r import (
    chi_of_candidate,
    enumerate_asymmetric_p4,
    enumerate_r_candidates,
    enumerate_symmetric_p4,
    format_matrix,
    gamma_of_candidate,
    rho,
)
from .graphio import GraphFormatError, parse_graph_file, serialize_graph_file
from .scan import (
    HYPOTHESES,
    NODES_PER_MS,
    GenRecipe,
    ScanConfig,
    ScanInputError,
    check_report,
    generate_corpus,
    run_hypothesis_scan,
    write_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
# `validate` lists at most this many entries of a check's details, and at
# most this many vertices of a listed component, so its output is bounded
# whatever V the header declares; "details_total" counts every entry.
DETAIL_LIMIT = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, data: bytes) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _emit_json(path: str, payload) -> None:
    _write_output(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _load_graph(args):
    return parse_graph_file(_read_input(args.input))


def _budget(args) -> int:
    return args.timeout_ms * NODES_PER_MS


def _cmd_validate(args) -> int:
    graph, rotation = _load_graph(args)
    outcome = validate_conjugated(graph, rotation)
    report = (
        outcome.validation
        if isinstance(outcome, ConjugatedTriangulation)
        else outcome
    )
    _emit_json(
        args.output,
        {
            "valid": report.passed,
            "vertices": graph.vertex_count,
            "edges": graph.edge_count,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "details": [
                        d[:DETAIL_LIMIT] if isinstance(d, tuple) else d
                        for d in c.details[:DETAIL_LIMIT]
                    ],
                    "details_total": len(c.details),
                }
                for c in report.checks
            ],
        },
    )
    return EXIT_OK


def _cmd_gamma(args) -> int:
    graph, rotation = _load_graph(args)
    # A file whose rotation validates hands its traced faces to the Tait step.
    faces = None
    if rotation is not None:
        outcome = validate_conjugated(graph, rotation)
        if isinstance(outcome, ConjugatedTriangulation):
            faces = outcome.faces
    res = chromatic_number(graph, args.max_n, node_budget=_budget(args), faces=faces)
    _emit_json(
        args.output,
        {
            "gamma": res.value,
            "lower": res.lower,
            "upper": res.upper,
            "nodes": res.nodes,
            "certificate": res.certificate,
            "witness": list(res.witness.colors) if res.witness else None,
        },
    )
    return EXIT_OK


def _cmd_chi(args) -> int:
    graph, _ = _load_graph(args)
    res = chromatic_class(graph, args.max_n, node_budget=_budget(args))
    witness = None
    if res.witness is not None:
        witness = {str(eid): c for eid, c in sorted(res.witness.colors.items())}
    _emit_json(
        args.output,
        {
            "chi": res.value,
            "lower": res.lower,
            "upper": res.upper,
            "nodes": res.nodes,
            "certificate": res.certificate,
            "witness": witness,
        },
    )
    return EXIT_OK


def _cmd_linegraph(args) -> int:
    graph, _ = _load_graph(args)
    lg = line_graph_of(graph)
    _write_output(args.output, serialize_graph_file(lg))
    return EXIT_OK


def _cmd_euler(args) -> int:
    graph, rotation = _load_graph(args)
    ct = require_conjugated(graph, rotation)
    circuit = euler_circuit(ct)
    _emit_json(
        args.output,
        {
            "length": circuit.length,
            "vertices": [v + 1 for v in circuit.vertices],
            "edge_ids": list(circuit.edge_ids),
        },
    )
    return EXIT_OK


def _cmd_induce(args) -> int:
    graph, rotation = _load_graph(args)
    ct = require_conjugated(graph, rotation)
    oriented = orient_along_circuit(ct, euler_circuit(ct))
    res = chromatic_number(
        graph, args.max_n, node_budget=_budget(args), faces=ct.faces
    )
    if res.value is None or res.value > 3:
        _emit_json(
            args.output,
            {
                "error": "no proper 3-coloring available",
                "gamma": res.value,
                "lower": res.lower,
                "upper": res.upper,
            },
        )
        return EXIT_OK
    induced = induce_edge_coloring(oriented, res.witness)
    _emit_json(
        args.output,
        {
            "coloring": list(res.witness.colors),
            "arcs": {
                str(eid): [t + 1, h + 1]
                for eid, (t, h) in sorted(oriented.arc_of_edge.items())
            },
            "pairs": {
                str(eid): [p.first, p.second]
                for eid, p in sorted(induced.coloring.pairs.items())
            },
            "proper": induced.proper,
            "violations": [list(v) for v in induced.violations],
        },
    )
    return EXIT_OK


def _cmd_recover(args) -> int:
    graph, rotation = _load_graph(args)
    ct = require_conjugated(graph, rotation)
    oriented = orient_along_circuit(ct, euler_circuit(ct))
    try:
        raw = json.loads(_read_input(args.pairs).decode("utf-8"))
        pairs = {
            int(eid): PairColor(int(ab[0]), int(ab[1]))
            for eid, ab in raw["pairs"].items()
        }
        pc = PairEdgeColoring(pairs, int(raw.get("base_palette", 3)))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        print(f"malformed pairs file: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    try:
        vc = recover_vertex_coloring(oriented, pc)
    except ConflictError as exc:
        _emit_json(
            args.output,
            {
                "recovered": None,
                "conflict": {
                    "vertex": exc.vertex + 1,
                    "colors": [exc.have, exc.want],
                },
            },
        )
        return EXIT_OK
    except PartialError as exc:
        _emit_json(
            args.output,
            {"recovered": None, "missing_arcs": list(exc.missing_arcs)},
        )
        return EXIT_OK
    _emit_json(args.output, {"recovered": list(vc.colors), "conflict": None})
    return EXIT_OK


def _cmd_enum_rk(args) -> int:
    ks = [args.k] if args.k else [1, 2, 3, 4]
    out = []
    for k in ks:
        enum = enumerate_r_candidates(k)
        out.append(
            {
                "k": k,
                "searched": enum.searched,
                "passing": len(enum.passing),
                "candidates": [
                    {
                        "matrix": [list(r) for r in m.entries],
                        "row_sums": list(m.row_sums),
                        "gamma": gamma_of_candidate(m),
                        "rho": rho(m),
                        "chi": chi_of_candidate(m),
                        "pretty": format_matrix(m),
                    }
                    for m in enum.representatives
                ],
            }
        )
    _emit_json(args.output, {"results": out})
    return EXIT_OK


def _cmd_enum_p4(args) -> int:
    sym = enumerate_symmetric_p4()
    asym = enumerate_asymmetric_p4()
    payload = {
        "symmetric": {
            "count": len(sym.matrices),
            "class_sizes": sym.class_sizes,
            "square_orbit_count": sym.square_orbit_count,
            "square_orbits": [list(o) for o in sym.square_orbits],
        },
        "asymmetric": {
            "searched": asym.searched,
            "row_variant_count": asym.row_variant_count,
            "row_sum_vectors": [list(v) for v in asym.row_sum_vectors],
            "condition_counts": {
                "-".join(map(str, k)): v for k, v in asym.condition_counts.items()
            },
            "verdict": asym.verdict,
        },
    }
    if args.full:
        payload["symmetric"]["matrices"] = [
            format_matrix(m) for m in sym.matrices
        ]
    _emit_json(args.output, payload)
    return EXIT_OK


def _corpus_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".conj")
        )
    return [path]


def _cmd_scan(args) -> int:
    hypotheses = tuple(args.hypotheses.split(",")) if args.hypotheses else HYPOTHESES
    kwargs = dict(
        hypotheses=hypotheses,
        timeout_ms=args.timeout_ms,
        jobs=args.jobs,
        output=None if args.output == "-" else args.output,
        counterexample_dir=args.counterexample_dir,
        max_vertices=args.max_n,
        max_edges=args.max_n,
    )
    if args.gen:
        config = ScanConfig(recipe=_recipe_from_args(args), **kwargs)
    else:
        if args.input == "-":
            raise ScanInputError("scan needs --gen or --input FILE|DIR")
        config = ScanConfig(source_files=tuple(_corpus_files(args.input)), **kwargs)
    report = run_hypothesis_scan(config)
    if args.output == "-":
        payload = report.to_dict()
        check_report(payload)
        _emit_json("-", payload)
    else:
        write_report(report, args.output)
    summary = report.summary()
    print(
        "scanned {instances} instances, {valid_instances} valid, "
        "{n} counterexample(s)".format(n=len(summary["counterexamples"]), **summary),
        file=sys.stderr,
    )
    return EXIT_OK


def _recipe_from_args(args) -> GenRecipe:
    return GenRecipe(
        inserts=tuple(range(args.inserts + 1)),
        subdivisions=tuple(range(args.subdivisions + 1)),
        replicates=args.replicates,
        base_seed=args.seed,
    )


def _cmd_gen(args) -> int:
    if args.output == "-":
        raise ScanInputError("gen writes a directory; pass --output DIR")
    recipe = _recipe_from_args(args)
    os.makedirs(args.output, exist_ok=True)
    files = []
    for iid, blob in generate_corpus(recipe):
        path = os.path.join(args.output, f"{iid}.conj")
        with open(path, "wb") as fh:
            fh.write(blob)
        files.append(path)
    _emit_json("-", {"count": len(files), "files": files})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the shared flags it reads; --output is common.
    inp = _Parser(add_help=False)
    inp.add_argument("--input", default="-", help="graph file, or '-' for stdin")
    out = _Parser(add_help=False)
    out.add_argument("--output", default="-", help="output path, or '-' for stdout")
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=2026, help="generator seed")
    search = _Parser(add_help=False)
    search.add_argument(
        "--timeout-ms",
        type=int,
        default=5000,
        help=(
            "per-decision search budget in milliseconds, metered as a "
            f"deterministic {NODES_PER_MS} nodes/ms"
        ),
    )
    search.add_argument(
        "--max-n", type=int, default=60, help="vertex and edge cap for exact solvers"
    )
    jobs = _Parser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, help="worker processes")

    parser = _Parser(prog="conjtri", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=[*parents, out], help=summary)
        p.set_defaults(func=func)
        return p

    command("validate", _cmd_validate, [inp], "structural checks for one graph")
    command("gamma", _cmd_gamma, [inp, search], "exact chromatic number")
    command("chi", _cmd_chi, [inp, search], "exact edge chromatic number")
    command(
        "linegraph", _cmd_linegraph, [inp], "emit the line graph as a graph file"
    )
    command("euler", _cmd_euler, [inp], "deterministic Euler circuit")
    command(
        "induce",
        _cmd_induce,
        [inp, search],
        "3-color, orient along the Euler circuit, emit pair coloring",
    )
    p_recover = command(
        "recover", _cmd_recover, [inp], "rebuild a vertex coloring from pairs"
    )
    p_recover.add_argument(
        "--pairs", required=True, help="JSON file with a 'pairs' object"
    )
    p_rk = command("enum-rk", _cmd_enum_rk, [], "six-arc digraph census for k=1..4")
    p_rk.add_argument("--k", type=int, choices=(1, 2, 3, 4), default=None)
    p_p4 = command(
        "enum-p4", _cmd_enum_p4, [], "symmetric and asymmetric 4x4 censuses"
    )
    p_p4.add_argument("--full", action="store_true", help="include all 20 matrices")
    p_scan = command(
        "scan", _cmd_scan, [inp, seed, search, jobs], "hypothesis scan over a corpus"
    )
    p_scan.add_argument("--gen", action="store_true", help="use the generated corpus")
    p_scan.add_argument(
        "--hypotheses", default=None, help="comma list, default H10,H11,H12,H13"
    )
    p_scan.add_argument("--counterexample-dir", default=None)
    _add_recipe_flags(p_scan)
    p_gen = command(
        "gen", _cmd_gen, [seed], "write the generated corpus to a directory"
    )
    _add_recipe_flags(p_gen)
    return parser


def _add_recipe_flags(p) -> None:
    p.add_argument("--inserts", type=int, default=8, help="max face inserts (0..N)")
    p.add_argument(
        "--subdivisions", type=int, default=3, help="max edge subdivisions (0..N)"
    )
    p.add_argument("--replicates", type=int, default=3, help="seeds per size cell")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ScanInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (NotConjugatedError, SizeLimitError, ValueError) as exc:
        # ValueError covers report_check.ReportSchemaError: a report that
        # fails its schema check is never written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
