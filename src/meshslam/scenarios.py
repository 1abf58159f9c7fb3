"""Synthetic worlds with ground truth: landmark fields and trajectories.

Frames are sampled at a fixed 20 Hz. Identical spec and seed give a
byte-identical frame stream; every random draw comes from one seeded
generator in a fixed order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshslam.config import parse_kv_file
from meshslam.core.types import Frame, Observation, SlamError
from meshslam.geometry import Pose2, range_bearing, wrap_angle

FRAME_RATE_HZ = 20.0


class EmptyWorld(SlamError):
    """No landmark was ever observable along the trajectory."""


class TrajectoryKind(enum.Enum):
    LOOP = "loop"
    LAWNMOWER = "lawnmower"
    FIGURE_EIGHT = "figure_eight"
    TWO_SEGMENT = "two_segment"


@dataclass(frozen=True)
class ScenarioSpec:
    trajectory: TrajectoryKind
    n_frames: int
    landmark_count: int
    bbox: tuple[float, float, float, float]  # x0, y0, x1, y1
    sensor_range: float
    sigma_range: float
    sigma_bearing: float
    sigma_odometry: float
    seed: int


def _loop_poses(spec: ScenarioSpec) -> list[Pose2]:
    x0, y0, x1, y1 = spec.bbox
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    radius = 0.35 * min(x1 - x0, y1 - y0)
    n = spec.n_frames
    poses = []
    for k in range(n):
        phi = 2.0 * math.pi * k / (n - 1)
        poses.append(Pose2(cx + radius * math.cos(phi),
                           cy + radius * math.sin(phi),
                           wrap_angle(phi + math.pi / 2.0)))
    return poses


def _figure_eight_poses(spec: ScenarioSpec) -> list[Pose2]:
    x0, y0, x1, y1 = spec.bbox
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    a = 0.4 * (x1 - x0)
    b = 0.35 * (y1 - y0)
    n = spec.n_frames
    poses = []
    for k in range(n):
        t = 2.0 * math.pi * k / (n - 1)
        x = cx + a * math.sin(t)
        y = cy + b * math.sin(t) * math.cos(t)
        dx = a * math.cos(t)
        dy = b * math.cos(2.0 * t)
        poses.append(Pose2(x, y, math.atan2(dy, dx)))
    return poses


def _polyline_poses(waypoints: list[tuple[float, float]], n: int) -> list[Pose2]:
    segs = []
    total = 0.0
    for (ax, ay), (bx, by) in zip(waypoints[:-1], waypoints[1:]):
        length = math.hypot(bx - ax, by - ay)
        segs.append((ax, ay, bx, by, length))
        total += length
    poses = []
    for k in range(n):
        s = total * k / (n - 1)
        acc = 0.0
        for ax, ay, bx, by, length in segs:
            if s <= acc + length or (ax, ay, bx, by, length) == segs[-1]:
                f = 0.0 if length == 0 else (s - acc) / length
                f = min(max(f, 0.0), 1.0)
                heading = math.atan2(by - ay, bx - ax)
                poses.append(Pose2(ax + f * (bx - ax), ay + f * (by - ay),
                                   heading))
                break
            acc += length
    return poses


def _lawnmower_poses(spec: ScenarioSpec) -> list[Pose2]:
    x0, y0, x1, y1 = spec.bbox
    mx, my = 0.18 * (x1 - x0), 0.18 * (y1 - y0)
    left, right = x0 + mx, x1 - mx
    rows = 4
    ys = [y0 + my + i * (y1 - y0 - 2 * my) / (rows - 1) for i in range(rows)]
    waypoints = []
    for i, y in enumerate(ys):
        if i % 2 == 0:
            waypoints += [(left, y), (right, y)]
        else:
            waypoints += [(right, y), (left, y)]
    return _polyline_poses(waypoints, spec.n_frames)


def _two_segment_poses(spec: ScenarioSpec) -> tuple[list[Pose2], set[int]]:
    """Two corridors joined by a blind transit, rejoining at the end.

    The sensor blanks while crossing between corridors, and the corridor
    separation exceeds twice the sensor range, so tracking cannot
    re-acquire the first map: a second map starts on the far corridor
    and only overlaps the first again on the final descent, which is
    what the merge machinery needs.
    """
    x0, y0, x1, y1 = spec.bbox
    mx = 0.14 * (x1 - x0)
    my = 0.25 * (y1 - y0)
    left, right = x0 + mx, x1 - mx
    y_a, y_b = y0 + my, y1 - my
    waypoints = [(left, y_a), (right, y_a),          # corridor A, eastbound
                 (right, y_b),                       # blind transit north
                 (left, y_b),                        # corridor B, westbound
                 (left, y_a),                        # descent into A's start
                 (left + 0.12 * (x1 - x0), y_a)]     # settle on A's corridor
    seg_lengths = [math.hypot(bx - ax, by - ay)
                   for (ax, ay), (bx, by) in zip(waypoints[:-1], waypoints[1:])]
    total = sum(seg_lengths)
    transit_lo = seg_lengths[0]
    transit_hi = seg_lengths[0] + seg_lengths[1]
    poses = _polyline_poses(waypoints, spec.n_frames)
    blackout = set()
    for k in range(spec.n_frames):
        s = total * k / (spec.n_frames - 1)
        if transit_lo < s < transit_hi:
            blackout.add(k)
    return poses, blackout


def generate_scenario(spec: ScenarioSpec
                      ) -> tuple[list[Frame], list[tuple[float, float, float, float]]]:
    """Produce the frame stream and the ground-truth trajectory record."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x0, y0, x1, y1 = spec.bbox
    lx = rng.uniform(x0, x1, spec.landmark_count)
    ly = rng.uniform(y0, y1, spec.landmark_count)

    blackout: set[int] = set()
    if spec.trajectory is TrajectoryKind.LOOP:
        poses = _loop_poses(spec)
    elif spec.trajectory is TrajectoryKind.FIGURE_EIGHT:
        poses = _figure_eight_poses(spec)
    elif spec.trajectory is TrajectoryKind.LAWNMOWER:
        poses = _lawnmower_poses(spec)
    else:
        poses, blackout = _two_segment_poses(spec)

    frames: list[Frame] = []
    ground_truth = []
    any_obs = False
    prev: Pose2 | None = None
    for k, pose in enumerate(poses):
        t = k / FRAME_RATE_HZ
        ground_truth.append((t, pose.x, pose.y, pose.theta))
        if prev is None:
            delta = Pose2()
        else:
            delta = pose.relative_to(prev)
            noise = rng.normal(0.0, spec.sigma_odometry, 3)
            delta = Pose2(delta.x + noise[0], delta.y + noise[1],
                          wrap_angle(delta.theta + noise[2]))
        observations: list[Observation] = []
        if k not in blackout:
            dx = lx - pose.x
            dy = ly - pose.y
            dist = np.hypot(dx, dy)
            visible = np.flatnonzero(dist <= spec.sensor_range)
            for idx in visible:
                rng_true, brg_true = range_bearing(pose, float(lx[idx]),
                                                   float(ly[idx]))
                noisy_r = rng_true + float(rng.normal(0.0, spec.sigma_range)) \
                    if spec.sigma_range > 0 else rng_true
                noisy_b = brg_true + float(rng.normal(0.0, spec.sigma_bearing)) \
                    if spec.sigma_bearing > 0 else brg_true
                if noisy_r <= 0.0:
                    noisy_r = 1e-6
                observations.append(Observation(int(idx), noisy_r,
                                                wrap_angle(noisy_b)))
        if observations:
            any_obs = True
        frames.append(Frame(k, t, delta, tuple(observations)))
        prev = pose
    if not any_obs:
        raise EmptyWorld("no landmark observable in any frame")
    return frames, ground_truth


def scenario_from_file(path: str | Path, seed_override: int | None = None
                       ) -> ScenarioSpec:
    """Scenario file of ``key = value`` lines. An absent key takes its
    default; a key this function does not read raises ValueError."""
    entries = dict(parse_kv_file(path))
    get = entries.pop  # each key read is removed; the rest are unknown
    bbox = tuple(float(tok) for tok in get("bbox", "-12 -12 12 12").split())
    if len(bbox) != 4:
        raise ValueError("bbox needs 4 numbers: x0 y0 x1 y1")
    seed = int(get("seed", "0"))
    if seed_override is not None:
        seed = seed_override
    spec = ScenarioSpec(
        trajectory=TrajectoryKind(get("trajectory", "loop")),
        n_frames=int(get("n_frames", "400")),
        landmark_count=int(get("landmarks", "300")),
        bbox=bbox,  # type: ignore[arg-type]
        sensor_range=float(get("sensor_range", "6.0")),
        sigma_range=float(get("sigma_range", "0.02")),
        sigma_bearing=float(get("sigma_bearing", "0.01")),
        sigma_odometry=float(get("sigma_odom", "0.005")),
        seed=seed,
    )
    if entries:
        raise ValueError(f"unknown scenario key(s): {sorted(entries)}")
    return spec


def default_scenario(kind: TrajectoryKind, seed: int = 1,
                     n_frames: int | None = None, **noise) -> ScenarioSpec:
    """Catalog entries sized so every global-update kind can fire."""
    base = dict(
        n_frames=320, landmark_count=300, bbox=(-12.0, -12.0, 12.0, 12.0),
        sensor_range=6.0, sigma_range=0.02, sigma_bearing=0.01,
        sigma_odometry=0.005,
    )
    if kind is TrajectoryKind.TWO_SEGMENT:
        base.update(n_frames=400, bbox=(-14.0, -8.0, 14.0, 8.0),
                    sensor_range=3.5, landmark_count=450)
    if kind is TrajectoryKind.LAWNMOWER:
        base.update(n_frames=360)
    if n_frames is not None:
        base["n_frames"] = n_frames
    base.update(noise)
    return ScenarioSpec(trajectory=kind, seed=seed, **base)  # type: ignore[arg-type]
