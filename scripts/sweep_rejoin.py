#!/usr/bin/env python3
"""Partition sweep: cut one role from both peers, heal it, check the mesh.

    python scripts/sweep_rejoin.py [--worlds loop two_segment] [--seeds 1-8]
        [--roles tr lm lc] [--durations 300:1000:50] [--jobs 1]

Each run is the catalog ``default_scenario`` of one world and seed on the
default three-node mesh. At 4000 ms virtual the cut role loses both of its
links, and D ms later both heal. The script prints every run that raises
(with the exception) and every run that ends diverged, then one summary
row per world and cut role. ``--durations`` takes ``start:stop:step``
(stop included) or a comma-separated list, ``--seeds`` a range ``a-b`` or
a list. The exit status is 1 if any run raised, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meshslam.config import TopologySpec  # noqa: E402
from meshslam.policy import Role  # noqa: E402
from meshslam.runner import run_distributed  # noqa: E402
from meshslam.scenarios import TrajectoryKind, default_scenario  # noqa: E402

CUT_AT_MS = 4000.0
ROLES = [Role.TRACKING, Role.MAPPING, Role.LOOP]


def _int_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _durations(text: str) -> list[float]:
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    return [float(v) for v in text.split(",")]


def run_one(job: tuple[str, int, str, float]) -> tuple[str, str]:
    """(outcome, detail) of one cut: "ok", "diverged" or "raised"."""
    world, seed, role, duration = job
    cut = Role(role)
    peers = " ".join(f"{cut.value} {other.value}"
                     for other in ROLES if other is not cut)
    with tempfile.TemporaryDirectory() as tmp:
        faults = Path(tmp) / "cut.faults"
        faults.write_text(f"{CUT_AT_MS} partition {peers}\n"
                          f"{CUT_AT_MS + duration} heal {peers}\n")
        topology = TopologySpec(roles=list(ROLES),
                                fault_schedule=str(faults))
        spec = default_scenario(TrajectoryKind(world), seed=seed)
        try:
            result = run_distributed(spec, topology)
        except Exception as exc:  # every failure is a finding to report
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return "raised", (f"{type(exc).__name__}: {exc} "
                              f"({Path(where.filename).name}:{where.lineno})")
    if result.metrics.diverged:
        digests = set(result.metrics.digests.values())
        return "diverged", f"{len(digests)} distinct digests"
    return "ok", ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--worlds", nargs="+", default=["loop", "two_segment"],
                        choices=[k.value for k in TrajectoryKind])
    parser.add_argument("--seeds", type=_int_list, default=_int_list("1-8"))
    parser.add_argument("--roles", nargs="+", default=[r.value for r in ROLES],
                        choices=[r.value for r in ROLES])
    parser.add_argument("--durations", type=_durations,
                        default=_durations("300:1000:50"))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    jobs = [(world, seed, role, duration)
            for world in args.worlds for role in args.roles
            for duration in args.durations for seed in args.seeds]
    if args.jobs == 1:
        outcomes = list(map(run_one, jobs))
    else:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            outcomes = pool.map(run_one, jobs, chunksize=1)

    counts: Counter = Counter()
    for (world, seed, role, duration), (outcome, detail) in zip(jobs, outcomes):
        counts[world, role, outcome] += 1
        if outcome != "ok":
            print(f"{outcome:<9}{world:<12} seed {seed:<3} cut {role} "
                  f"D={duration:g} ms: {detail}")
    print(f"{'world':<12}{'cut':<5}{'runs':>6}{'raised':>8}{'diverged':>10}")
    for world in args.worlds:
        for role in args.roles:
            runs = sum(counts[world, role, o]
                       for o in ("ok", "raised", "diverged"))
            print(f"{world:<12}{role:<5}{runs:>6}"
                  f"{counts[world, role, 'raised']:>8}"
                  f"{counts[world, role, 'diverged']:>10}")
    totals = Counter(outcome for outcome, _ in outcomes)
    print(f"{len(jobs)} runs, {totals['raised']} raised, "
          f"{totals['diverged']} diverged")
    return 1 if totals["raised"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
