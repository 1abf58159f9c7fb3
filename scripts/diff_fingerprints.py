#!/usr/bin/env python3
"""Compare the deterministic outputs of two benchmark result files.

    python3 scripts/diff_fingerprints.py A.json B.json

A and B are ``perfbench/out/result_*.json`` files written by
``perfbench/run.py``. Runs are matched on world seed and mode, and every
field of their ``fingerprint`` (ATE, digests, bytes and message counts,
simulator events, keyframe round trips, consistency time, track
failures) is compared exactly. Each difference is printed; the exit
status is 1 if there is any, or if the files share no run, and 0
otherwise. The files are only read.
"""

from __future__ import annotations

import json
import sys


def fingerprints(path: str) -> dict[tuple[int, str], list[dict]]:
    """Every fingerprint of a result file, keyed by (world seed, mode)."""
    with open(path) as fh:
        record = json.load(fh)
    out: dict[tuple[int, str], list[dict]] = {}
    for run in record["runs"]:
        out.setdefault((run["world_seed"], run["mode"]), []).append(
            run["fingerprint"])
    return out


def _same(a, b) -> bool:
    """Exact equality of JSON values: 0 differs from 0.0, NaN equals NaN."""
    return json.dumps(a) == json.dumps(b)


def diff_values(path: str, a, b) -> list[str]:
    """One line per field where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        lines = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                lines.append(f"{path}.{key}: only in "
                             f"{'B' if key not in a else 'A'}")
            else:
                lines += diff_values(f"{path}.{key}", a[key], b[key])
        return lines
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        differing = [i for i, (x, y) in enumerate(zip(a, b)) if not _same(x, y)]
        if differing:
            i = differing[0]
            return [f"{path}: {len(differing)} of {len(a)} items differ, "
                    f"first [{i}] {a[i]!r} != {b[i]!r}"]
        return []
    return [] if _same(a, b) else [f"{path}: {a!r} != {b!r}"]


def compare(path_a: str, path_b: str) -> tuple[list[str], int]:
    """Difference lines and the number of (world seed, mode) keys shared."""
    fa, fb = fingerprints(path_a), fingerprints(path_b)
    lines = []
    for key in sorted(set(fa) | set(fb)):
        seed, mode = key
        if key not in fa or key not in fb:
            lines.append(f"world {seed} {mode}: only in "
                         f"{'B' if key not in fa else 'A'}")
            continue
        # Repeats of a world are identical within a file when its run
        # passed the determinism check; compare every pair anyway.
        for i, a in enumerate(fa[key]):
            for j, b in enumerate(fb[key]):
                lines += diff_values(f"world {seed} {mode} A[{i}] B[{j}]",
                                     a, b)
    shared = len(set(fa) & set(fb))
    if not shared:
        lines.append("the files share no (world seed, mode) run")
    return lines, shared


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: diff_fingerprints.py A.json B.json", file=sys.stderr)
        return 2
    lines, shared = compare(argv[0], argv[1])
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s) over {shared} shared world/mode key(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
