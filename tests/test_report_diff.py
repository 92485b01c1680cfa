"""benchmarks/report_diff.py: field-level differences between scan reports."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conjtri.scan import (
    GenRecipe,
    ScanConfig,
    generate_corpus,
    run_hypothesis_scan,
    write_report,
)

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "report_diff.py"
RECIPE = GenRecipe(inserts=(0, 1), subdivisions=(0, 1), replicates=1, base_seed=5)


def _scan(directory: Path) -> Path:
    # Each scan reads its inputs and writes its report and counterexamples
    # under its own directory, so the absolute paths differ between runs.
    directory.mkdir()
    files = []
    for iid, blob in generate_corpus(RECIPE):
        path = directory / f"{iid}.conj"
        path.write_bytes(blob)
        files.append(str(path))
    config = ScanConfig(
        source_files=tuple(files),
        timeout_ms=2000,
        counterexample_dir=str(directory / "cex"),
        output=str(directory / "report.json"),
    )
    write_report(run_hypothesis_scan(config), config.output)
    return Path(config.output)


def _diff(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )


def test_reruns_in_other_directories_agree(tmp_path):
    a, b = _scan(tmp_path / "a"), _scan(tmp_path / "b")
    out = _diff(a, b)
    assert out.returncode == 0, out.stdout
    assert out.stdout.splitlines() == ["0 of 4 instances differ"]


def test_changed_fields_are_listed_per_instance(tmp_path):
    a = _scan(tmp_path / "a")
    report = json.loads(a.read_text())
    rec = report["instances"][2]
    rec["nodes"]["chi"] += 7
    rec["witnesses"]["h11_edge_coloring"]["1"] += 1
    rec["timings_ms"]["chi"] += 1.0
    report["summary"]["instances"] += 1
    b = tmp_path / "b.json"
    b.write_text(json.dumps(report))
    out = _diff(a, b)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "(summary): instances",
        f"{rec['id']}: nodes.chi, witnesses.h11_edge_coloring",
        "1 of 4 instances differ; by field: instances 1, nodes.chi 1, "
        "witnesses.h11_edge_coloring 1",
    ]
