#!/usr/bin/env python3
"""Layered benchmark of `conjtri scan`.

    python3 scanbench/run.py --workload scan-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark builds `conjtri._core` in
place from the checkout's own sources, writes the workload's inputs from
`--seed`, then runs `conjtri scan` in a fresh interpreter per scan, as
many times as fit in `--seconds` (at least once). Every report is checked
against values derived apart from the program (see checks.py), outside the
timed interval. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced scan with
`--trace 1`. An operation is one corpus instance of one scan.

Exit code 0 with a result line, or non-zero with a message on stderr when
the program cannot be built, the wrong kernel backend runs, or a scan exits
non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PKG = SRC / "conjtri"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

# The corpus recipe of each workload; the recipe seed is the --seed given
# to the benchmark. The sizes trade the spread of search_nodes over seeds,
# which heavy-tailed chi refutations make wide, against run time (README.md).
WORKLOADS = {
    "scan-deep": {"inserts": 9, "replicates": 48, "max_n": 64, "pure": False, "gen": True},
    "scan-files": {"inserts": 4, "replicates": 40, "max_n": 60, "pure": False, "gen": False},
    "scan-pure": {"inserts": 6, "replicates": 48, "max_n": 60, "pure": True, "gen": True},
}
SUBDIVISIONS = 3
# Invalid or hostile files added to the scan-files corpus, by kind.
HOSTILE_COUNTS = {"degree3": 4, "disconnected": 4, "overcap": 4, "header": 1}


class BenchError(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_kernel() -> Path:
    """Compile conjtri._core in place with the repository's own setup.py,
    unless the extension on disk was built from exactly these sources."""
    core_c = PKG / "_core.c"
    if not (ROOT / "setup.py").is_file() or not core_c.is_file():
        raise BenchError(f"no conjtri sources under {ROOT}; run from a checkout")
    so = PKG / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    digest = hashlib.sha256(sys.version.encode())
    for path in (ROOT / "setup.py", core_c, PKG / "_core.pyx"):
        if path.is_file():
            digest.update(path.read_bytes())
    stamp = BUILD_DIR / "core.stamp"
    if so.is_file() and stamp.is_file() and stamp.read_text() == f"{digest.hexdigest()} {sha256(so)}":
        return so
    BUILD_DIR.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force",
         "--build-temp", str(BUILD_DIR / "tmp"), "--build-lib", str(BUILD_DIR / "lib")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 or not so.is_file():
        raise BenchError(f"building conjtri._core failed:\n{proc.stderr[-2000:]}")
    stamp.write_text(f"{digest.hexdigest()} {sha256(so)}")
    return so


def child_env(pure: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CONJTRI_PURE", None)
    if pure:
        env["CONJTRI_PURE"] = "1"
    return env


def hostile_files(rng: random.Random, max_n: int) -> dict:
    """Inputs that must end as per-instance skips, never as a failed scan."""

    def cycle(n, start=0):
        return [(start + i, start + (i + 1) % n) for i in range(n)]

    def blob(n, edges):
        lines = [f"p conj {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
        return ("\n".join(lines) + "\n").encode()

    out = {}
    for k in range(HOSTILE_COUNTS["degree3"]):
        n = rng.randint(6, 14)
        out[f"bad-degree3-{k}.conj"] = blob(n, cycle(n) + [(0, n // 2)])
    for k in range(HOSTILE_COUNTS["disconnected"]):
        a, b = rng.randint(3, 9), rng.randint(3, 9)
        out[f"bad-disconnected-{k}.conj"] = blob(a + b, cycle(a) + [(a + u, a + v) for u, v in cycle(b)])
    for k in range(HOSTILE_COUNTS["overcap"]):
        n = rng.randint(max_n + 1, max_n + 30)
        out[f"bad-overcap-{k}.conj"] = blob(n, cycle(n))
    for k in range(HOSTILE_COUNTS["header"]):
        out[f"bad-header-{k}.conj"] = b"p conj 100000 0\n"
    return out


class Workload:
    def __init__(self, name: str, seed: int):
        spec = WORKLOADS[name]
        self.name, self.seed, self.spec = name, seed, spec
        self.dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
        self.report = self.dir / "report.json"
        self.ce_dir = self.dir / "counterexamples"
        self.env = child_env(spec["pure"])
        self.backend = "pure" if spec["pure"] else "compiled"
        recipe = ["--inserts", str(spec["inserts"]), "--subdivisions", str(SUBDIVISIONS),
                  "--replicates", str(spec["replicates"]), "--seed", str(seed)]
        out = ["--output", str(self.report), "--counterexample-dir", str(self.ce_dir)]
        self.corpus = self.dir / "inputs"
        self.recipe = recipe
        if spec["gen"]:
            self.argv = ["scan", "--gen", *recipe, "--max-n", str(spec["max_n"]), *out]
        else:
            self.argv = ["scan", "--input", str(self.corpus), "--max-n", str(spec["max_n"]), *out]
        self.inputs = {}

    def prepare(self) -> None:
        spec, corpus = self.spec, self.corpus
        shutil.rmtree(self.dir, ignore_errors=True)
        corpus.mkdir(parents=True)
        # The program's own generator writes the same bytes `scan --gen`
        # evaluates; they are the inputs the checks start from.
        proc = subprocess.run(
            [sys.executable, "-m", "conjtri.cli", "gen", "--output", str(corpus), *self.recipe],
            cwd=ROOT, env=child_env(False), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"conjtri gen failed:\n{proc.stderr[-2000:]}")
        if not spec["gen"]:
            for fname, data in hostile_files(random.Random(self.seed), spec["max_n"]).items():
                (corpus / fname).write_bytes(data)
        for path in sorted(corpus.iterdir()):
            iid = path.name if not spec["gen"] else path.name[: -len(".conj")]
            self.inputs[iid] = path.read_bytes()

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_child(wl: Workload, kernel: Path, backend: str, env: dict, trace: Path = None,
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--argv", json.dumps(wl.argv)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        shutil.rmtree(wl.ce_dir, ignore_errors=True)
        wl.report.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"scan child failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["backend"] != backend:
        raise BenchError(f"{wl.name} needs the {backend} kernel, got {out['backend']}")
    if backend == "compiled" and Path(out["kernel_file"]) != kernel.resolve():
        raise BenchError(f"kernel loaded from {out['kernel_file']}, built {kernel}")
    if not setup_only and out["exit_code"] != 0:
        raise BenchError(f"conjtri scan exited {out['exit_code']}:\n{proc.stderr[-2000:]}")
    return out


def strip_timings(rec: dict) -> str:
    return json.dumps({k: v for k, v in rec.items() if k != "timings_ms"}, sort_keys=True)


def report_head(report: dict) -> str:
    """Everything in a report but its instance records."""
    return json.dumps({k: v for k, v in report.items() if k != "instances"}, sort_keys=True)


class Checker:
    """Checks each scan's report; the first in full, later ones by equality
    with the first outside timing fields (a scan is deterministic)."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.first = None  # id -> record without timings
        self.head = None  # everything but the instances
        self.bad = set()  # ids whose first record fails a check
        self.problems = []  # report-level faults
        self.report = None

    def note(self, msg: str) -> None:
        if len(self.problems) < 20:
            print(f"check: {msg}", file=sys.stderr)
        self.problems.append(msg)

    def scan(self, report: dict) -> set:
        """Check one report; return the ids of the instances that fail."""
        wl = self.wl
        recs = {r["id"]: r for r in report["instances"]}
        head = report_head(report)
        bad = set(wl.inputs) - set(recs)
        if self.first is None:
            self.report = report
            self.head = head
            self.first = {iid: strip_timings(r) for iid, r in recs.items()}
            for msg in checks.check_summary(report):
                self.note(msg)
            extra = sorted(set(recs) - set(wl.inputs))
            if extra:
                self.note(f"report has instances that are not inputs: {extra[:5]}")
            exp = checks.Expect(max_n=wl.spec["max_n"],
                                node_budget=report["config"]["node_budget_per_decision"])
            for iid in set(recs) & set(wl.inputs):
                problems = checks.check_instance(recs[iid], wl.inputs[iid], exp)
                if problems:
                    self.bad.add(iid)
                    if len(self.bad) <= 10:
                        print(f"check: {iid}: {'; '.join(problems)}", file=sys.stderr)
        else:
            if head != self.head:
                self.note("summary or config differs between scans")
            bad |= {iid for iid, rec in recs.items() if self.first.get(iid) != strip_timings(rec)}
        bad |= self.bad
        # Counterexample files: exactly those of the failed instances, each
        # byte-identical to its input.
        listed = {iid: Path(r["counterexample_file"]) for iid, r in recs.items()
                  if r["counterexample_file"] is not None}
        on_disk = {p.name for p in wl.ce_dir.iterdir()} if wl.ce_dir.is_dir() else set()
        if on_disk != {p.name for p in listed.values()}:
            self.note("counterexample directory does not hold exactly the listed files")
        for iid, path in listed.items():
            if (path.parent != wl.ce_dir or path.name != f"{iid}.conj" or not path.is_file()
                    or path.read_bytes() != wl.inputs.get(iid)):
                bad.add(iid)
        return bad & set(wl.inputs)

    def agree(self, report: dict) -> set:
        """Ids whose record differs from the first scan's."""
        if report_head(report) != self.head:
            self.note("reference report differs in summary or config")
        recs = {r["id"]: r for r in report["instances"]}
        return {iid for iid, s in self.first.items() if iid not in recs or strip_timings(recs[iid]) != s}


def search_nodes(report: dict) -> int:
    return sum(r["nodes"]["gamma"] + r["nodes"]["chi"] + r["nodes"]["h12"] for r in report["instances"])


def median_metric(samples, key, unit):
    return {"value": statistics.median(s[key] for s in samples), "unit": unit}


def layer_metrics(traced: list, timed: list, checker: Checker) -> dict:
    """Medians of the traced scans' layer metrics, plus the tracing overhead.
    The traced node totals must match the report's."""
    layers = {}
    for key, first in traced[0]["layers"].items():
        value = statistics.median(t["layers"][key]["value"] for t in traced)
        layers[key] = {"value": value, "unit": first["unit"]}
    stages = {"coloring.chromatic_number.nodes": "gamma", "coloring.chromatic_class.nodes": "chi",
              "coloring.decide_k_coloring.nodes": "h12"}
    for key, stage in stages.items():
        if layers[key]["value"] != sum(r["nodes"][stage] for r in checker.report["instances"]):
            checker.note(f"traced {key} differs from the report's {stage} nodes")
    traced_s = statistics.median(t["scan_s"] for t in traced)
    untraced_s = statistics.median(t["scan_s"] for t in timed)
    layers["trace.scan_s"] = {"value": traced_s, "unit": "s"}
    layers["trace.untraced_scan_s"] = {"value": untraced_s, "unit": "s"}
    layers["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    kernel = build_kernel()
    sys.path.insert(0, str(SRC))  # checks.py fixes H12's orientation with conjtri's euler_circuit
    wl = Workload(args.workload, args.seed)
    try:
        wl.prepare()
        checker = Checker(wl)
        timed, traced, setups, failing = [], [], [], []
        attempted = 0
        RESULTS_DIR.mkdir(exist_ok=True)
        spans = RESULTS_DIR / f"{wl.name}-seed{wl.seed}-spans.json"
        passes = [None, spans] if args.trace else [None]
        measured = 0.0
        while True:
            round_s = 0.0
            for trace in passes:
                t0 = time.perf_counter()
                out = run_child(wl, kernel, wl.backend, wl.env, trace=trace)
                round_s += time.perf_counter() - t0
                (traced if trace else timed).append(out)
                setups.append(out["setup_s"])
                report = json.loads(wl.report.read_text())
                attempted += len(wl.inputs)
                failing.append(checker.scan(report))
            measured += round_s
            # Start another round only if it should end within the window.
            if measured + round_s > args.seconds:
                break
        for _ in range(SETUP_SAMPLES):
            setups.append(run_child(wl, kernel, wl.backend, wl.env, setup_only=True)["setup_s"])
        if wl.spec["pure"]:
            # The compiled twin must give the same report outside timings.
            run_child(wl, kernel, "compiled", child_env(False))
            differ = checker.agree(json.loads(wl.report.read_text()))
            if differ:
                print(f"check: backends disagree on {sorted(differ)[:10]}", file=sys.stderr)
            failing = [bad | differ for bad in failing]
        failed = sum(len(bad) for bad in failing)

        if args.trace:
            metrics = layer_metrics(traced, timed, checker)
        else:
            metrics = {
                "scan_s": median_metric(timed, "scan_s", "s"),
                "scan_cpu_s": median_metric(timed, "scan_cpu_s", "s"),
                "search_nodes": {"value": search_nodes(checker.report), "unit": "count"},
                "peak_rss_mb": median_metric(timed, "peak_rss_mb", "MB"),
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
        result = {"correct": not checker.problems, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        (RESULTS_DIR / f"{wl.name}-seed{wl.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "argv": wl.argv, "scans": timed + traced,
                        "setup_s": setups}, indent=1)
        )
    finally:
        wl.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
