#!/usr/bin/env python3
"""Bytes that hold each replica's map at the end of one benchmark world.

    python3 scripts/map_memory.py --workload W [--seed S]

Runs world 0 of workload W (the world whose seed is S) through
``meshslam.runner``: on the workload's mesh, with its faults, when it is
distributed, and as the centralized oracle otherwise. It prints one row
per replica (each node's promoted maps) and one over all replicas:
keyframes, map points and observations, then the bytes of the points'
observer containers, of the point objects with their fields, and of the
keyframe columns. Bytes are ``sys.getsizeof``, each object counted once;
the keyframe ids inside observer containers are the keyframes' own and
not counted. Nothing is written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from meshslam import runner  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

COLUMNS = ("replica", "keyframes", "points", "observations", "observer_bytes",
           "point_bytes", "column_bytes")


def map_bytes(maps, seen: set[int]) -> dict[str, int]:
    """Counts and bytes of some maps; ``seen`` holds the ids of objects
    already counted and grows with the ones counted here."""

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    row = dict.fromkeys(COLUMNS[1:], 0)
    for m in maps:
        row["keyframes"] += len(m.keyframes)
        row["points"] += len(m.map_points)
        for kf in m.keyframes.values():
            row["observations"] += len(kf.mp_ids)
            row["column_bytes"] += sum(map(size, (
                kf.mp_ids, kf.landmark_ids, kf.ranges, kf.bearings)))
        for mp in m.map_points.values():
            row["observer_bytes"] += size(mp.observers)
            row["point_bytes"] += sum(map(size, (
                mp, mp.id, mp.x, mp.y, mp.origin_landmark)))
    return row


def run_world(workload, seed: int):
    """The runner's result for world 0 of a workload."""
    spec = workload.spec(seed)
    if workload.distributed:
        return runner.run_distributed(spec, workload.topology())
    return runner.run_centralized(spec)


def replica_rows(result) -> list[tuple[str, dict[str, int]]]:
    """One row per node of a run, in role order, then the total."""
    seen: set[int] = set()
    rows = [(role.value, map_bytes(node.state.slam.values(), seen))
            for role, node in sorted(result.nodes.items(),
                                     key=lambda item: item[0].value)]
    total = {c: sum(row[c] for _, row in rows) for c in COLUMNS[1:]}
    return [*rows, ("all", total)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    result = run_world(WORKLOADS[args.workload], args.seed)
    print(f"{args.workload} seed {args.seed}")
    print(" ".join(f"{c:>14}" for c in COLUMNS))
    for name, row in replica_rows(result):
        print(f"{name:>14} " + " ".join(f"{row[c]:>14}" for c in COLUMNS[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
