"""End-to-end command line tests driven through ``cli.main``."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import sys

import jsonschema
import pytest

from conjtri import cli
from conjtri import scan as scan_module
from conjtri.construct import ConjugatedTriangulation, validate_conjugated
from conjtri.graphio import parse_graph_file, serialize_graph_file
from conjtri.graphs import UndirectedGraph
from conjtri.scan import report_schema


def _write_graph(path, g: UndirectedGraph) -> str:
    path.write_bytes(serialize_graph_file(g))
    return str(path)


def _octahedron() -> UndirectedGraph:
    non_edges = {(0, 5), (1, 3), (2, 4)}
    return UndirectedGraph(
        6,
        [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if (u, v) not in non_edges
        ],
    )


def _c4() -> UndirectedGraph:
    return UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _run_json(capsys, argv) -> dict:
    code = cli.main(argv)
    assert code == 0
    return json.loads(capsys.readouterr().out)


class TestBasicCommands:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_validate_valid(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "octa.conj", _octahedron())
        out = _run_json(capsys, ["validate", "--input", path])
        assert out["valid"] is True
        assert out["vertices"] == 6 and out["edges"] == 12
        assert {c["name"] for c in out["checks"]} >= {"degrees", "connected"}

    def test_validate_invalid_is_still_exit_zero(self, tmp_path, capsys):
        k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
        path = _write_graph(tmp_path / "k4.conj", k4)
        out = _run_json(capsys, ["validate", "--input", path])
        assert out["valid"] is False
        failed = [c["name"] for c in out["checks"] if c["status"] == "fail"]
        assert "degrees" in failed

    def test_gamma(self, tmp_path, capsys):
        c5 = UndirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        path = _write_graph(tmp_path / "c5.conj", c5)
        out = _run_json(capsys, ["gamma", "--input", path])
        assert out["gamma"] == 3
        witness = out["witness"]
        for u, v in c5.edges:
            assert witness[u] != witness[v]

    def test_chi(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        out = _run_json(capsys, ["chi", "--input", path])
        assert out["chi"] == 2
        assert set(out["witness"]) == {"1", "2", "3", "4"}

    @pytest.mark.parametrize(
        "graph, chi, certificate",
        [
            (_octahedron(), 4, "kempe"),
            (UndirectedGraph(5, list(itertools.combinations(range(5), 2))), 5, "parity"),
        ],
        ids=["octahedron", "k5"],
    )
    def test_chi_names_its_certificate(self, tmp_path, capsys, graph, chi, certificate):
        path = _write_graph(tmp_path / "g.conj", graph)
        out = _run_json(capsys, ["chi", "--input", path])
        assert (out["chi"], out["certificate"]) == (chi, certificate)
        # A Kempe witness, or parity with the Misra-Gries witness, replaces
        # the search.
        assert out["nodes"] == 0
        assert len(set(out["witness"].values())) == chi

    def test_validate_output_is_bounded(self, tmp_path, capsys):
        # 16 bytes declaring 100,000 isolated vertices: every vertex fails
        # "degrees" and is a component of its own.
        path = tmp_path / "wide.conj"
        path.write_bytes(b"p conj 100000 0\n")
        assert cli.main(["validate", "--input", str(path)]) == 0
        text = capsys.readouterr().out
        assert len(text) < 4096
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        assert checks["degrees"]["details"] == list(range(cli.DETAIL_LIMIT))
        assert checks["degrees"]["details_total"] == 100_000
        assert checks["connected"]["details"] == [[v] for v in range(cli.DETAIL_LIMIT)]
        assert checks["connected"]["details_total"] == 100_000

    def test_validate_caps_a_listed_component(self, tmp_path, capsys):
        n = 2000
        two_cycles = UndirectedGraph(
            2 * n,
            [(i, (i + 1) % n) for i in range(n)]
            + [(n + i, n + (i + 1) % n) for i in range(n)],
        )
        path = _write_graph(tmp_path / "two.conj", two_cycles)
        out = _run_json(capsys, ["validate", "--input", path])
        connected = next(c for c in out["checks"] if c["name"] == "connected")
        assert connected["details_total"] == 2
        assert connected["details"] == [
            list(range(cli.DETAIL_LIMIT)),
            list(range(n, n + cli.DETAIL_LIMIT)),
        ]

    def test_gamma_names_its_certificate(self, tmp_path, capsys):
        recipe = scan_module.GenRecipe(inserts=(3,), subdivisions=(0,), replicates=1)
        [(_, blob)] = scan_module.generate_corpus(recipe)
        path = tmp_path / "medial.conj"
        path.write_bytes(blob)
        out = _run_json(capsys, ["gamma", "--input", str(path)])
        assert (out["gamma"], out["nodes"], out["certificate"]) == (3, 0, "tait")
        graph, _ = parse_graph_file(blob)
        for u, v in graph.edges:
            assert out["witness"][u] != out["witness"][v]
        # The same graph without its rotation lines is searched.
        bare = _write_graph(tmp_path / "bare.conj", graph)
        out = _run_json(capsys, ["gamma", "--input", bare])
        assert (out["gamma"], out["certificate"]) == (3, None)
        assert out["nodes"] > 0
        c5 = UndirectedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        out = _run_json(capsys, ["gamma", "--input", _write_graph(tmp_path / "c5.conj", c5)])
        assert (out["gamma"], out["nodes"], out["certificate"]) == (3, 0, "odd_cycle")

    def test_gamma_reads_stdin(self, capsys, monkeypatch):
        blob = serialize_graph_file(_c4())
        monkeypatch.setattr(
            sys, "stdin", type("S", (), {"buffer": io.BytesIO(blob)})()
        )
        out = _run_json(capsys, ["gamma"])
        assert out["gamma"] == 2

    def test_output_to_file(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        dest = tmp_path / "out.json"
        assert cli.main(["gamma", "--input", path, "--output", str(dest)]) == 0
        assert json.loads(dest.read_text())["gamma"] == 2
        assert capsys.readouterr().out == ""

    def test_linegraph(self, tmp_path, capsys):
        tri = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        path = _write_graph(tmp_path / "tri.conj", tri)
        code = cli.main(["linegraph", "--input", path])
        assert code == 0
        lg, rot = parse_graph_file(capsys.readouterr().out.encode())
        assert lg.vertex_count == 3 and lg.edge_count == 3  # L(C3) = C3
        assert rot is None

    def test_euler(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "octa.conj", _octahedron())
        out = _run_json(capsys, ["euler", "--input", path])
        assert out["length"] == 12
        assert len(out["edge_ids"]) == 12
        assert sorted(out["edge_ids"]) == list(range(1, 13))
        assert out["vertices"][0] == out["vertices"][-1]
        assert min(out["vertices"]) >= 1  # 1-based like the file format


class TestPairCommands:
    def test_induce(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        out = _run_json(capsys, ["induce", "--input", path])
        assert out["proper"] is True
        assert out["violations"] == []
        assert set(out["pairs"]) == {"1", "2", "3", "4"}
        for eid, (t, h) in out["arcs"].items():
            first, second = out["pairs"][eid]
            assert out["coloring"][t - 1] == first
            assert out["coloring"][h - 1] == second

    def test_recover_roundtrip(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        induced = _run_json(capsys, ["induce", "--input", path])
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps({"pairs": induced["pairs"]}))
        out = _run_json(
            capsys, ["recover", "--input", path, "--pairs", str(pairs_file)]
        )
        assert out["recovered"] == induced["coloring"]
        assert out["conflict"] is None

    def test_recover_conflict_reported_one_based(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(
            json.dumps(
                {
                    "pairs": {
                        "1": [0, 1],
                        "2": [1, 0],
                        "3": [1, 2],
                        "4": [2, 0],
                    }
                }
            )
        )
        out = _run_json(
            capsys, ["recover", "--input", path, "--pairs", str(pairs_file)]
        )
        assert out["recovered"] is None
        assert out["conflict"]["vertex"] == 3  # vertex index 2, 1-based
        assert set(out["conflict"]["colors"]) == {0, 1}

    def test_recover_missing_arcs(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps({"pairs": {"1": [0, 1]}}))
        out = _run_json(
            capsys, ["recover", "--input", path, "--pairs", str(pairs_file)]
        )
        assert out["recovered"] is None
        assert out["missing_arcs"] == [2, 3, 4]

    def test_recover_malformed_pairs_is_format_error(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text(json.dumps({"pairs": {"1": [0, 0]}}))
        code = cli.main(["recover", "--input", path, "--pairs", str(pairs_file)])
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_recover_unparseable_json(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        pairs_file = tmp_path / "pairs.json"
        pairs_file.write_text("not json at all")
        assert (
            cli.main(["recover", "--input", path, "--pairs", str(pairs_file)]) == 2
        )


class TestEnumCommands:
    def test_enum_rk_single_k(self, capsys):
        out = _run_json(capsys, ["enum-rk", "--k", "3"])
        (res,) = out["results"]
        assert res["k"] == 3
        assert res["searched"] == 1
        assert res["passing"] == 1
        (cand,) = res["candidates"]
        assert cand["row_sums"] == [2, 2, 2]
        assert cand["gamma"] == 3 and cand["rho"] == 4 and cand["chi"] == 6
        assert "|" in cand["pretty"]

    def test_enum_rk_all(self, capsys):
        out = _run_json(capsys, ["enum-rk"])
        by_k = {r["k"]: r for r in out["results"]}
        assert set(by_k) == {1, 2, 3, 4}
        assert [by_k[k]["searched"] for k in (1, 2, 3, 4)] == [0, 0, 1, 924]
        assert [by_k[k]["passing"] for k in (1, 2, 3, 4)] == [0, 0, 1, 0]

    def test_enum_p4(self, capsys):
        out = _run_json(capsys, ["enum-p4"])
        assert out["symmetric"]["count"] == 20
        assert out["symmetric"]["class_sizes"] == {
            "path": 12,
            "star": 4,
            "triangle_plus_vertex": 4,
        }
        assert out["symmetric"]["square_orbit_count"] == 5
        assert out["asymmetric"]["searched"] == 216
        assert out["asymmetric"]["row_variant_count"] == 6
        assert out["asymmetric"]["verdict"] == 0
        assert all(v == 0 for v in out["asymmetric"]["condition_counts"].values())

    def test_enum_p4_full_includes_matrices(self, capsys):
        out = _run_json(capsys, ["enum-p4", "--full"])
        assert len(out["symmetric"]["matrices"]) == 20

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["enum-rk"], "a1d4b54e60aeccceb8aefdd32b1fa27aa71088bc2a949d830ea9296545520345"),
            (
                ["enum-p4", "--full"],
                "806aff3d024d3698a0628759b8fe9208f23a6aa256e32913d02b7031729ad4f8",
            ),
        ],
    )
    def test_census_stdout_is_pinned(self, capsysbinary, argv, digest):
        # The exact bytes the censuses print, so a change of candidate
        # representation or isomorphism test cannot alter them unnoticed.
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


class TestScanAndGen:
    def test_gen_writes_corpus(self, tmp_path, capsys):
        dest = tmp_path / "corpus"
        out = _run_json(
            capsys,
            [
                "gen",
                "--output",
                str(dest),
                "--inserts",
                "1",
                "--subdivisions",
                "1",
                "--replicates",
                "1",
            ],
        )
        assert out["count"] == 4  # (0..1 inserts) x (0..1 subdivisions) x 1
        for name in out["files"]:
            with open(name, "rb") as fh:
                parse_graph_file(fh.read())

    def test_gen_files_are_valid_instances(self, tmp_path, capsys):
        # Generation does not validate what it writes; this test does.
        dest = tmp_path / "corpus"
        argv = ["gen", "--output", str(dest), "--inserts", "4", "--replicates", "2"]
        out = _run_json(capsys, [*argv, "--seed", "3"])
        assert out["count"] == 5 * 4 * 2
        recipe = scan_module.GenRecipe(
            inserts=tuple(range(5)), replicates=2, base_seed=3
        )
        blobs = dict(scan_module.generate_corpus(recipe))
        for name in out["files"]:
            with open(name, "rb") as fh:
                data = fh.read()
            outcome = validate_conjugated(*parse_graph_file(data))
            assert isinstance(outcome, ConjugatedTriangulation), (name, outcome)
            assert outcome.validation.check("planarity").status == "pass", name
            assert data == blobs[os.path.basename(name)[: -len(".conj")]]

    @pytest.mark.parametrize("command", ["gen", "scan"])
    def test_too_many_subdivisions_is_usage_error(self, tmp_path, capsys, command):
        dest = tmp_path / "out"
        argv = [command, "--inserts", "0", "--subdivisions", "4", "--output", str(dest)]
        if command == "scan":
            argv.append("--gen")
        assert cli.main(argv) == 1
        assert "4 subdivisions exceed the 3 edges" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("command", ["gen", "scan"])
    def test_repeated_recipe_values_are_usage_error(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # The flags give ranges, so only a recipe built otherwise repeats a
        # value; the command must still refuse it before writing anything.
        monkeypatch.setattr(
            cli,
            "_recipe_from_args",
            lambda args: scan_module.GenRecipe(inserts=(1, 1), subdivisions=(0,)),
        )
        dest = tmp_path / "out"
        argv = [command, "--output", str(dest)]
        if command == "scan":
            argv.append("--gen")
        assert cli.main(argv) == 1
        assert "inserts repeat the value 1" in capsys.readouterr().err
        assert not dest.exists()

    def test_scan_gen_writes_valid_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli.main(
            [
                "scan",
                "--gen",
                "--inserts",
                "1",
                "--subdivisions",
                "1",
                "--replicates",
                "1",
                "--timeout-ms",
                "2000",
                "--output",
                str(report_path),
                "--counterexample-dir",
                str(tmp_path / "cex"),
            ]
        )
        assert code == 0
        assert "scanned 4 instances" in capsys.readouterr().err
        payload = json.loads(report_path.read_text())
        jsonschema.validate(payload, report_schema())
        assert payload["summary"]["instances"] == 4

    def test_scan_directory_input(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        _run_json(
            capsys,
            [
                "gen",
                "--output",
                str(corpus),
                "--inserts",
                "0",
                "--subdivisions",
                "1",
                "--replicates",
                "1",
            ],
        )
        out = _run_json(
            capsys,
            [
                "scan",
                "--input",
                str(corpus),
                "--timeout-ms",
                "2000",
                "--counterexample-dir",
                str(tmp_path / "cex"),
            ],
        )
        assert out["summary"]["instances"] == 2
        assert out["config"]["source"] == "files"

    def test_scan_single_file_and_hypothesis_subset(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        out = _run_json(
            capsys,
            [
                "scan",
                "--input",
                path,
                "--hypotheses",
                "H10,H11",
                "--counterexample-dir",
                str(tmp_path / "cex"),
            ],
        )
        assert set(out["summary"]["verdicts"]) == {"H10", "H11"}
        assert out["summary"]["verdicts"]["H10"]["pass"] == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_scan_malformed_file_is_format_error_naming_it(self, tmp_path, capsys, jobs):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.conj", "c.conj"):  # each fails H12, a counterexample
            _write_graph(corpus / name, _octahedron())
        (corpus / "b.conj").write_text("p conj 3 3\ne 1 2\ne 2 3\ne 1 x\n")
        report, cex = tmp_path / "report.json", tmp_path / "cex"
        argv = ["scan", "--input", str(corpus), "--jobs", jobs]
        code = cli.main(argv + ["--output", str(report), "--counterexample-dir", str(cex)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: b.conj: line 4: edge endpoints must be integers" in err
        assert not report.exists()
        assert not cex.exists()

    def test_scan_without_source_is_format_error(self, capsys):
        assert cli.main(["scan"]) == 2
        assert "needs --gen or --input" in capsys.readouterr().err

    def test_scan_cap_above_kernel_limit_is_usage_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["scan", "--gen", "--inserts", "0", "--max-n", "80"]
        assert cli.main(argv + ["--output", str(report)]) == 1
        assert "limit of 64" in capsys.readouterr().err
        assert not report.exists()

    def test_scan_unknown_hypothesis_is_usage_error(self, tmp_path, capsys):
        path = _write_graph(tmp_path / "c4.conj", _c4())
        assert (
            cli.main(["scan", "--input", path, "--hypotheses", "H10,H99"]) == 1
        )

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_scan_report_failing_its_schema_is_not_written(
        self, tmp_path, capsys, monkeypatch, to_stdout
    ):
        real = scan_module.evaluate_instance

        def evaluate(*args):
            rec = real(*args)
            rec.nodes["chi"] = -1
            return rec

        monkeypatch.setattr(scan_module, "evaluate_instance", evaluate)
        report = tmp_path / "report.json"
        argv = ["scan", "--gen", "--inserts", "0", "--subdivisions", "0"]
        argv += ["--replicates", "1", "--counterexample-dir", str(tmp_path / "cex")]
        argv += ["--output", "-" if to_stdout else str(report)]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert "error: instances/0/nodes/chi: -1 is less than the minimum of 0" in err
        assert out == ""
        assert not report.exists()


class TestExitCodes:
    def test_missing_input_file(self, capsys):
        assert cli.main(["gamma", "--input", "/no/such/file.conj"]) == 2

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.conj"
        bad.write_text("p conj 2 1\ne 1 5\n")
        assert cli.main(["gamma", "--input", str(bad)]) == 2
        assert "outside" in capsys.readouterr().err

    def test_non_conjugated_input_is_usage_error(self, tmp_path, capsys):
        k4 = UndirectedGraph(4, list(itertools.combinations(range(4), 2)))
        path = _write_graph(tmp_path / "k4.conj", k4)
        assert cli.main(["euler", "--input", path]) == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--jobs", "2"],
            ["gamma", "--seed", "1"],
            ["chi", "--jobs", "2"],
            ["euler", "--max-n", "10"],
            ["recover", "--pairs", "p.json", "--timeout-ms", "10"],
            ["gen", "--input", "x.conj"],
            ["gen", "--jobs", "2"],
            ["enum-rk", "--input", "x.conj"],
            ["enum-p4", "--seed", "1"],
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err

    def test_benchmark_argv_forms_parse(self):
        # The command lines the benchmark harness passes, flag for flag.
        recipe = ["--inserts", "9", "--subdivisions", "3", "--replicates", "48",
                  "--seed", "1"]
        out = ["--output", "r.json", "--counterexample-dir", "cex"]
        parser = cli.build_parser()
        gen = parser.parse_args(["gen", "--output", "inputs", *recipe])
        assert (gen.func, gen.output, gen.seed) == (cli._cmd_gen, "inputs", 1)
        scan_gen = parser.parse_args(["scan", "--gen", *recipe, "--max-n", "64", *out])
        assert (scan_gen.gen, scan_gen.max_n, scan_gen.replicates) == (True, 64, 48)
        scan_files = parser.parse_args(
            ["scan", "--input", "inputs", "--max-n", "60", *out]
        )
        assert (scan_files.input, scan_files.counterexample_dir) == ("inputs", "cex")

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["enum-rk", "--k", "7"])
        assert info.value.code == 1

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 1
