"""Command-line entry points: run, oracle, eval, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from meshslam.config import load_topology
from meshslam.evaluate import evaluate_ate, load_trajectory, save_trajectory
from meshslam.runner import (
    CSV_HEADER,
    RunResult,
    report,
    run_centralized,
    run_distributed,
)
from meshslam.scenarios import scenario_from_file


def _write_outputs(out_dir: Path, result: RunResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    save_trajectory(out_dir / "est_tr.txt", result.estimate)
    save_trajectory(out_dir / "gt.txt", result.ground_truth)
    (out_dir / "metrics.csv").write_text(report(result.metrics, "csv"))
    with (out_dir / "events.log").open("w") as fh:
        for t, role, name, details in result.events:
            fh.write(f"{t:.3f} {role.value} {name} {details}\n")
    if result.sim is not None:
        with (out_dir / "traffic.csv").open("w") as fh:
            fh.write("node,direction,kind,bytes,count,duration_s\n")
            for node, direction, kind, nbytes, count, dur in result.sim.account.rows():
                fh.write(f"{node},{direction},{kind},{nbytes},{count},{dur:.3f}\n")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = scenario_from_file(args.scenario, seed_override=args.seed)
    topology = load_topology(args.topology)
    result = run_distributed(spec, topology)
    _write_outputs(Path(args.out), result)
    sys.stdout.write(report(result.metrics, "text"))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = scenario_from_file(args.scenario, seed_override=args.seed)
    result = run_centralized(spec)
    _write_outputs(Path(args.out), result)
    sys.stdout.write(report(result.metrics, "text"))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    est = load_trajectory(args.est)
    gt = load_trajectory(args.gt)
    ate = evaluate_ate(est, gt, with_scale=not args.no_scale)
    sys.stdout.write(f"{ate:.6f}\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    metrics_file = Path(args.in_dir) / "metrics.csv"
    if not metrics_file.exists():
        sys.stderr.write(f"no metrics.csv under {args.in_dir}\n")
        return 1
    content = metrics_file.read_text()
    if args.format == "csv":
        sys.stdout.write(content)
        return 0
    lines = content.strip().split("\n")
    if lines == [""]:
        sys.stderr.write(f"{metrics_file} is empty\n")
        return 1
    if lines[0] != CSV_HEADER:
        sys.stderr.write("unrecognized metrics header\n")
        return 1
    if len(lines) != 2:
        sys.stderr.write(f"metrics.csv holds {len(lines) - 1} data rows, "
                         "expected 1\n")
        return 1
    keys, values = CSV_HEADER.split(","), lines[1].split(",")
    if len(values) != len(keys):
        sys.stderr.write(f"metrics row has {len(values)} fields, the header "
                         f"{len(keys)}\n")
        return 1
    for key, value in zip(keys, values):
        sys.stdout.write(f"{key:>15}: {value}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshslam",
        description="Distributed keyframe SLAM over a simulated network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulated multi-node run")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--topology", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="centralized in-process run")
    p_oracle.add_argument("--scenario", required=True)
    p_oracle.add_argument("--seed", type=int, default=None)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_eval = sub.add_parser("eval", help="trajectory error of est vs gt")
    p_eval.add_argument("--est", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--no-scale", action="store_true")
    p_eval.set_defaults(fn=_cmd_eval)

    p_report = sub.add_parser("report", help="render a run directory's metrics")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.add_argument("--format", choices=("csv", "text"), default="text")
    p_report.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
