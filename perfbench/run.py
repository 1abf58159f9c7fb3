#!/usr/bin/env python3
"""meshslam benchmark: whole runs of three workloads, checked and timed.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Each run of a world happens in a fresh worker process with BLAS pinned to
one thread. A workload's inputs are its ``worlds`` worlds, whose seeds derive
from ``--seed``. A run makes one pass over them plus a repeat of the
first world, to check determinism, and further passes while
``--seconds`` allows.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the first world and prints the per-layer
metrics plus the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

BLAS_THREADS = 1
PINNED_ENV = {name: str(BLAS_THREADS) for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORLD_SEED_STRIDE = 1_000_003
WALL_LIMIT_S = 170.0
PARITY_TOL_M = 0.02

END_TO_END_UNITS = {
    "frames_per_s": "1/s", "setup_s": "s", "tr_frame_ms_p50": "ms",
    "tr_frame_ms_p98": "ms", "busiest_node_s": "s", "peak_rss_mb": "MB",
    "ate_m": "m", "track_failures": "count", "net_kb_per_frame": "KiB",
    "kf_roundtrip_ms_p50": "ms", "kf_roundtrip_ms_p90": "ms",
    "consistency_s": "s",
}
# Reported in the JSON result; the rest are printed only, because they are
# deterministic per world (the determinism check gates them), zero on most
# runs, or undefined on the centralized workload. The per-frame tracking
# percentiles are printed only because their spread across runs on
# two_segment_x2_faults (0.11-0.24 of the median for p50, 0.17-0.30 for
# p98, over three sets of ten seeds) reaches the 0.25 bound the other
# metrics get.
JSON_END_TO_END = ("frames_per_s", "setup_s", "busiest_node_s",
                   "peak_rss_mb")


def world_seeds(seed: int, count: int) -> list[int]:
    """World 0 is the seed itself, so seed 1 includes the catalog's world 1."""
    return [seed + WORLD_SEED_STRIDE * j for j in range(count)]


def percentile(values, q):
    return float(np.percentile(values, q))


def environment(seed: int, seeds: list[int]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "world_seeds": seeds,
    }


def git_sha() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Launcher:
    """Launches worker processes and keeps every result and failure."""

    def __init__(self, workload, started: float):
        self.workload = workload
        self.started = started
        self.results: list[dict] = []
        self.failures: list[str] = []
        self.failed_runs: set[int] = set()
        self.attempted = 0

    def remaining(self) -> float:
        return WALL_LIMIT_S - (time.monotonic() - self.started)

    def launch(self, world_seed: int, mode: str) -> dict | None:
        run = self.attempted
        self.attempted += 1
        if self.remaining() <= 0:
            return self.fail(run, world_seed, mode, "no time left in the run")
        env = {**os.environ, **PINNED_ENV}
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload.name,
               str(world_seed), mode]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            return self.fail(run, world_seed, mode, "timed out")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(run, world_seed, mode,
                             f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if "error" in result:
            return self.fail(run, world_seed, mode,
                             result["error"].strip().splitlines()[-1])
        result["run"] = run
        self.results.append(result)
        return result

    def fail(self, run: int, world_seed: int, mode: str, reason: str) -> None:
        self.failed_runs.add(run)
        self.failures.append(f"run {run}, world {world_seed} ({mode}): {reason}")
        return None

    def check(self, r: dict, ref: dict | None) -> None:
        """Correctness of one run; ref is the reference run of the parity
        world, given for runs of that world."""
        reasons = []
        if r["diverged"]:
            reasons.append("replicas diverged")
        if not r["reaches_last_frame"]:
            reasons.append("trajectory stops before the last frame")
        if self.workload.expect_no_updates and r["updates"]:
            reasons.append(f"unexpected global updates {r['updates']}")
        if ref is not None:
            lost = sorted(set(ref["updates"]) - set(r["updates"]))
            if lost:
                reasons.append(f"global updates {lost} fired in the "
                               f"{ref['mode']} run but not here")
        if r["ate_m"] is None:
            reasons.append("no ATE (trajectory does not associate)")
        elif (ref is not None and ref["ate_m"] is not None
              and r["ate_m"] > ref["ate_m"] + PARITY_TOL_M):
            reasons.append(f"ATE {r['ate_m']:.4f} m > {ref['mode']} "
                           f"{ref['ate_m']:.4f} + {PARITY_TOL_M} m")
        if r["mode"] == "traced":
            # Every map's first optimization plus one per loop or merge.
            gba_calls = r["layers"]["metrics"]["bundle.gba.calls"]
            if gba_calls < 1 + len(r["updates"]):
                reasons.append(f"{gba_calls} GBA calls traced for "
                               f"{len(r['updates'])} global updates")
        for reason in reasons:
            self.fail(r["run"], r["world_seed"], r["mode"], reason)

    def check_mechanism(self) -> None:
        """Each expected global-update kind fires in some world of the run.
        Not in every world: on some two_segment worlds the oracle finds no
        loop candidate either."""
        runs = [r for r in self.results if r["mode"] in ("plain", "traced")]
        for kind in self.workload.expect_updates:
            if runs and not any(kind in r["updates"] for r in runs):
                for r in runs:
                    self.fail(r["run"], r["world_seed"], r["mode"],
                              f"no world fired a '{kind}' global update")

    def passed(self, mode: str) -> list[dict]:
        return [r for r in self.results
                if r["mode"] == mode and r["run"] not in self.failed_runs]

    def check_determinism(self) -> None:
        first: dict[int, str] = {}
        for r in self.results:
            if r["mode"] not in ("plain", "traced"):
                continue  # reference runs compute a different world
            fp = json.dumps(r["fingerprint"], sort_keys=True)
            if fp != first.setdefault(r["world_seed"], fp):
                self.fail(r["run"], r["world_seed"], r["mode"],
                          "deterministic outputs differ from the first run")


def run_plan(launcher: Launcher, first_pass: list[tuple[int, str]],
             cycle: list[tuple[int, str]], seconds: float,
             ref: dict | None, parity_world: int) -> None:
    """Run the first pass, then whole cycles while --seconds allows."""
    measure_start = time.monotonic()
    durations: list[float] = []
    queue = list(first_pass)
    while True:
        for world_seed, mode in queue:
            t0 = time.monotonic()
            r = launcher.launch(world_seed, mode)
            durations.append(time.monotonic() - t0)
            if r is not None:
                launcher.check(r, ref if world_seed == parity_world else None)
        need = len(cycle) * statistics.median(durations)
        if (time.monotonic() - measure_start + need > seconds
                or need > launcher.remaining() - 5.0):
            return
        queue = cycle


def least_disturbed(results: list[dict]) -> dict[int, dict]:
    """Per world, the repeat with the shortest run. The runs are
    deterministic and interference from other load only slows them, so
    the least disturbed repeat is the best estimate of their cost."""
    best: dict[int, dict] = {}
    for r in results:
        ws = r["world_seed"]
        if ws not in best or r["run_s"] < best[ws]["run_s"]:
            best[ws] = r
    return best


def end_to_end(workload, plain: list[dict]) -> dict[str, float]:
    best = list(least_disturbed(plain).values())
    frames = sum(r["frames"] for r in best)
    m = {
        "frames_per_s": frames / sum(r["run_s"] for r in best),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "tr_frame_ms_p50": statistics.fmean(r["frame_ms_p50"] for r in best),
        "tr_frame_ms_p98": statistics.fmean(r["frame_ms_p98"] for r in best),
        "busiest_node_s": statistics.fmean(max(r["busy_s"].values())
                                           for r in best),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ate_m": statistics.fmean(r["ate_m"] for r in best),
        "track_failures": sum(r["fingerprint"]["track_failures"] for r in best),
    }
    if workload.distributed:
        roundtrip = [ms for r in best
                     for ms in r["fingerprint"]["kf_roundtrip_ms"]]
        m.update({
            "net_kb_per_frame": sum(r["fingerprint"]["out_bytes"]
                                    for r in best) / 1024.0 / frames,
            "kf_roundtrip_ms_p50": percentile(roundtrip, 50),
            "kf_roundtrip_ms_p90": percentile(roundtrip, 90),
            "consistency_s": max(r["fingerprint"]["consistency_s"]
                                 for r in best),
        })
    return m


PER_LAYER_UNITS = {"calls": "count", "bytes": "bytes", "s": "s",
                   "self_s": "s", "us_p50": "us", "ms_p50": "ms",
                   "ms_max": "ms", "vars_p50": "count", "vars_max": "count",
                   "hit_ratio": "ratio", "staged_ratio": "ratio",
                   "duplicate_ratio": "ratio", "us_per_event": "us",
                   "events": "count", "frames_sent": "count",
                   "frames_delivered": "count", "frames_dropped": "count",
                   "overhead_pct": "%"}


# Per-layer rows printed but kept out of the JSON result: wall times of
# layers that some workload never calls, so they read exactly 0 on every
# run of it (network and replication on the centralized workload; loop
# closing and merging where none fires), and the pause length, which is
# virtual time and so the same on every run.
PRINT_ONLY_LAYER = frozenset({
    "loops.close_loop.self_s", "loops.merge_maps.self_s",
    "messages.decode.s", "wire.encode.s", "wire.decode.s",
    "transport.publish.s", "simnet.self_s", "simnet.us_per_event",
    "state.apply_new_keyframe.s", "state.apply_map_batch.s",
    "state.collect_dirty.s", "node.busy_s.lm", "node.busy_s.lc",
    "node.pause_ms_total",
})


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("node.busy_s."):
        return "s"
    if name.startswith("node."):
        return "virtual_ms" if last == "pause_ms_total" else "count"
    return PER_LAYER_UNITS[last]


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Rows of the least disturbed traced run of world 0; busy times come
    from the least disturbed untraced run."""
    (best_plain,) = least_disturbed(plain).values()
    (best,) = least_disturbed(traced).values()
    m: dict[str, float] = {"scenarios.generate.s": best["gen_s"]}
    m.update(best["layers"]["metrics"])
    for role in ("tr", "lm", "lc"):
        m[f"node.busy_s.{role}"] = best_plain["busy_s"].get(role, 0.0)
    for name, value in best["node"].items():
        m[f"node.{name}"] = value
    m["trace.overhead_pct"] = 100.0 * (1.0 - best_plain["run_s"] / best["run_s"])
    return m


def print_table(title: str, metrics: dict[str, float], unit_of) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit_of(name)}")


def self_test() -> int:
    """Wrapping reaches every layer: GBA dominates the loop workload and
    local BA the lawnmower one, each measured as self time."""
    from workloads import WORKLOADS

    failures = []
    # workload, layer with the largest self time, least GBA calls, most
    # GBA share of the run
    expectations = (("loop_x3_oracle", "bundle.gba", 2, 1.0),
                    ("lawnmower_x4_3node", "bundle.lba", 1, 0.01))
    for name, largest, min_gba_calls, gba_share_max in expectations:
        launcher = Launcher(WORKLOADS[name], time.monotonic())
        r = launcher.launch(1, "traced")
        if r is None:
            failures += launcher.failures
            continue
        layers = r["layers"]
        top = sorted(layers["self_s"].items(), key=lambda kv: -kv[1])[:4]
        print(f"{name}: largest self time {top}, "
              f"GBA {layers['gba_share']:.2%} of run, "
              f"{layers['metrics']['bundle.gba.calls']} GBA calls")
        if layers["largest_self"] != largest:
            failures.append(f"{name}: largest layer {layers['largest_self']}"
                            f", expected {largest}")
        if layers["metrics"]["bundle.gba.calls"] < min_gba_calls:
            failures.append(f"{name}: fewer than {min_gba_calls} GBA calls")
        if layers["gba_share"] > gba_share_max:
            failures.append(f"{name}: GBA is {layers['gba_share']:.2%} of run")
    for f in failures:
        print(f"FAIL {f}")
    print("self-test", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # Exit through SystemExit on SIGTERM, so a running worker is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "meshslam").is_dir():
        print(f"error: no meshslam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.self_test:
        return self_test()
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    launcher = Launcher(workload, time.monotonic())
    seeds = world_seeds(args.seed, workload.worlds)
    env = environment(args.seed, seeds)
    print("env", json.dumps(env))

    # Parity reference for world 0. Under faults it is the same mesh without
    # them: two_segment's 3-node ATE differs from the oracle's by -0.05 to
    # +0.03 m with or without faults (seeds 1-10), so the oracle gap there
    # is printed, not gated.
    parity_mode = "fault_free" if workload.has_faults else "oracle"
    references: dict[str, dict] = {}
    if workload.distributed:
        for mode in dict.fromkeys(["oracle", parity_mode]):
            ref = launcher.launch(seeds[0], mode)
            if ref is not None:
                references[mode] = ref
    if args.trace:
        cycle = [(seeds[0], "plain"), (seeds[0], "traced")]
        first_pass = cycle
    else:
        cycle = [(ws, "plain") for ws in seeds]
        first_pass = cycle + [(seeds[0], "plain")]
    run_plan(launcher, first_pass, cycle, args.seconds,
             references.get(parity_mode), seeds[0])
    launcher.check_determinism()
    if not args.trace:
        launcher.check_mechanism()

    for r in launcher.results:
        print(f"world {r['world_seed']} {r['mode']}: run {r['run_s']:.3f} s, "
              f"setup {r['setup_s']:.3f} s, ATE {r['ate_m']} m, "
              f"updates {r['updates']}")
    world0 = [r for r in launcher.results if r["mode"] in ("plain", "traced")
              and r["world_seed"] == seeds[0] and r["ate_m"] is not None]
    for mode, ref in references.items():
        ref_ate = ref["ate_m"]
        if world0 and ref_ate is not None:
            ate = world0[-1]["ate_m"]
            gated = (f"fails above +{PARITY_TOL_M} m" if mode == parity_mode
                     else "not gated")
            print(f"parity world {seeds[0]}: ATE {ate:.4f} m, {mode} "
                  f"{ref_ate:.4f} m, gap {ate - ref_ate:+.4f} m ({gated})")

    # Metrics come from the runs that passed every check.
    plain, traced = launcher.passed("plain"), launcher.passed("traced")
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if args.trace and plain and traced:
        metrics = per_layer(plain, traced)
        print_table(f"per-layer metrics (world {seeds[0]}, least disturbed "
                    f"of {len(traced)} traced runs)", metrics,
                    per_layer_unit)
        (best,) = least_disturbed(traced).values()
        top = sorted(best["layers"]["self_s"].items(),
                     key=lambda kv: -kv[1])[:5]
        print("largest self times:", ", ".join(f"{n} {s:.3f} s" for n, s in top))
        metrics = {name: value for name, value in metrics.items()
                   if name not in PRINT_ONLY_LAYER}
        units = {name: per_layer_unit(name) for name in metrics}
    elif not args.trace and plain:
        e2e = end_to_end(workload, plain)
        print_table(f"end-to-end metrics ({len(plain)} runs of "
                    f"{len(seeds)} worlds, {plain[0]['frames']} frames each)",
                    e2e, END_TO_END_UNITS.get)
        metrics = {name: e2e[name] for name in JSON_END_TO_END}
        units = END_TO_END_UNITS
    for failure in launcher.failures:
        print(f"FAILED {failure}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "workload": workload.name, "trace": args.trace,
              "failures": launcher.failures, "metrics": metrics,
              "runs": launcher.results}
    (OUT_DIR / f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not launcher.failures,
        "attempted": launcher.attempted,
        "failed": len(launcher.failed_runs),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
