"""Run one `conjtri scan` in a fresh interpreter and print what it cost.

    python3 scanbench/child.py --argv '["scan", ...]' [--trace FILE] [--setup-only]

The last line of standard output is a JSON object: `setup_s` (importing
`conjtri.cli` and selecting the kernel backend), `backend`, `kernel_file`,
and unless `--setup-only`: `exit_code`, `scan_s` (wall time of
`conjtri.cli.main`), `scan_cpu_s` (user plus system CPU over the same
interval) and `peak_rss_mb` (this process's peak resident memory, VmHWM). With
`--trace FILE` the public functions of each layer are wrapped, spans are
kept in memory and written to FILE after the scan, and `layers` holds the
per-layer metrics.
"""

import sys
import time

t_setup = time.perf_counter()
import conjtri.cli  # noqa: E402
from conjtri import core  # noqa: E402

backend = core.backend_name()
setup_s = time.perf_counter() - t_setup

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def peak_rss_kb() -> float:
    """Peak resident memory of this process image. `ru_maxrss` is not used:
    Linux carries the parent's peak over into it across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--argv", default="[]")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out = {
        "setup_s": setup_s,
        "backend": backend,
        "kernel_file": os.path.realpath(sys.modules[core.decide_coloring.__module__].__file__),
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        code = conjtri.cli.main(json.loads(args.argv))
        w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(
            exit_code=code,
            scan_s=w1 - w0,
            scan_cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            peak_rss_mb=peak_rss_kb() / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace)
            out["layers"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
