#!/usr/bin/env python3
"""List what differs between two scan reports.

    python benchmarks/report_diff.py A.json B.json

For each instance id (and for the report's "summary" and "config"), it
prints the fields whose values differ, skipping ``timings_ms`` and
absolute paths, alone or in lists, which name where a scan read or wrote
its files rather than what it found.  Numeric keys, such as edge ids in a
witness, are folded into their field, so a changed edge coloring reads as
one field.  The last line counts the differing instances per field.  Exits
1 on any difference and 0 when the reports agree.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path


def leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    else:
        yield path, obj


def masked(value):
    """``value`` with every absolute path, alone or in a list, masked."""
    if isinstance(value, list):
        return [masked(v) for v in value]
    if isinstance(value, str) and os.path.isabs(value):
        return "<absolute path>"
    return value


def differing_fields(a, b) -> list[str]:
    la, lb = dict(leaves(a)), dict(leaves(b))
    fields = set()
    for path in la.keys() | lb.keys():
        x, y = la.get(path, "<absent>"), lb.get(path, "<absent>")
        if "timings_ms" not in path and masked(x) != masked(y):
            fields.add(".".join(p for p in path if not p.isdigit()))
    return sorted(fields)


def report_diff(a: dict, b: dict) -> dict[str, list[str]]:
    """Differing fields by instance id, in the order of ``a`` then ``b``."""
    sides = []
    for report in (a, b):
        parts = {"(summary)": report["summary"], "(config)": report["config"]}
        parts.update((rec["id"], rec) for rec in report["instances"])
        sides.append(parts)
    out = {}
    for key in list(sides[0]) + [k for k in sides[1] if k not in sides[0]]:
        if key not in sides[0] or key not in sides[1]:
            out[key] = ["<only in %s>" % ("A" if key in sides[0] else "B")]
        elif fields := differing_fields(sides[0][key], sides[1][key]):
            out[key] = fields
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    diff = report_diff(a, b)
    for key, fields in diff.items():
        print(f"{key}: {', '.join(fields)}")
    counts = Counter(f for fields in diff.values() for f in fields)
    total = len(a["instances"])
    changed = sum(1 for key in diff if not key.startswith("("))
    summary = ", ".join(f"{f} {n}" for f, n in sorted(counts.items()))
    print(f"{changed} of {total} instances differ" + (f"; by field: {summary}" if summary else ""))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
