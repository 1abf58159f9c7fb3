#!/usr/bin/env python3
"""Alternating A/B benchmark runs of two checkouts of the repository.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S]

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once
in each checkout, each from its own directory; even pairs run the parent
first and odd pairs the change. The last line of each run's standard
output is its JSON result. For every metric of that JSON the summary
gives the median [q1, q3] of each side and the number of pairs the
change won, in the direction ``BENCHMARK.json`` of CHANGE_DIR declares
(``-`` where it declares none). Its ``claim`` column says whether a claim
of a gain in that metric would stand: at least 10 pairs, the change won
at least 9/10 of them (ties count for neither), and its median is better
than the parent's by more than the parent's q3 - q1. The exit status is 1 if any run reports
``correct: false`` or prints no JSON result, and 0 otherwise. The
checkouts are only run; their result files land in their own
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


MIN_CLAIM_PAIRS = 10


def last_json(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _value(result: dict | None, name: str) -> float | None:
    metric = (result or {}).get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def _cell(values: list[float]) -> str:
    if not values:
        return "-"
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summarize(pairs: list[tuple[dict | None, dict | None]],
              better: dict[str, str]) -> tuple[list[str], bool]:
    """Summary lines over (parent, change) results, and whether every run
    reported ``correct: true``. ``better`` maps a metric to "higher" or
    "lower"."""
    names: dict[str, None] = {}
    for pair in pairs:
        for r in pair:
            names.update(dict.fromkeys((r or {}).get("metrics", {})))
    lines = [f"{'metric':<16} {'parent median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30}  {'claim':<6}  change won"]
    for name in names:
        values = [(_value(p, name), _value(c, name)) for p, c in pairs]
        parent = [p for p, _ in values if p is not None]
        change = [c for _, c in values if c is not None]
        both = [(p, c) for p, c in values if p is not None and c is not None]
        claim = verdict = "-"
        if better.get(name) in ("higher", "lower"):
            sign = 1.0 if better[name] == "higher" else -1.0
            won = sum(1 for p, c in both if sign * (c - p) > 0)
            verdict = f"{won}/{len(both)} ({better[name]} is better)"
            claim = "fails"
            if len(both) >= MIN_CLAIM_PAIRS and 10 * won >= 9 * len(both):
                q1, med, q3 = quartiles(parent)
                if sign * (quartiles(change)[1] - med) > q3 - q1:
                    claim = "stands"
        lines.append(f"{name:<16} {_cell(parent):>30} {_cell(change):>30}"
                     f"  {claim:<6}  {verdict}")
    bad = [f"pair {i} {side}" for i, pair in enumerate(pairs)
           for side, r in zip(("parent", "change"), pair)
           if r is None or r.get("correct") is not True]
    if bad:
        lines.append("not correct: " + ", ".join(bad))
    return lines, not bad


def directions(checkout: Path) -> dict[str, str]:
    """Metric -> "higher"/"lower" from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    bench = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return last_json(proc.stdout) if proc.returncode == 0 else None


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"no perfbench/run.py under {checkout}")
    pairs = []
    for i in range(args.pairs):
        result = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result[side] = run_once(checkout.resolve(), args.workload,
                                    args.seed)
            metrics = (result[side] or {}).get("metrics", {})
            print(f"pair {i} {side}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in metrics.items()),
                file=sys.stderr, flush=True)
        pairs.append((result["parent"], result["change"]))
    lines, ok = summarize(pairs, directions(args.change))
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pair(s)")
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
