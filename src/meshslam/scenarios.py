"""Synthetic worlds with ground truth: landmark fields and trajectories.

Frames are sampled at a fixed 20 Hz. Identical spec and seed give a
byte-identical frame stream; every random draw comes from one seeded
generator in a fixed order: the landmark field, then per frame the
odometry noise and one block of observation noise.

The block is ``rng.standard_normal((n_visible, draws))``, one row per
visible landmark in ascending id order and one column per positive sigma
(range, then bearing), so its C order is the order of the per-landmark
scalar draws it replaces; ``0.0 + sigma * z`` is the IEEE operation
``rng.normal(0.0, sigma)`` performs. Range and bearing stay on scalar
``math.hypot``/``math.atan2`` mapped over Python floats: numpy's
``hypot`` and ``arctan2`` differ from them in the last bit on some
inputs, and frames must equal those of a per-landmark scalar loop.

A frame keeps its observations as the id, range and bearing arrays the
generator computes (see ``Frame``), not as one ``Observation`` object per
measurement: a long run holds tens of thousands of measurements, and the
arrays take a fraction of the objects' memory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshslam.config import parse_kv_file
from meshslam.core.types import Frame, SlamError
from meshslam.geometry import Pose2, wrap_angle

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

    def __post_init__(self) -> None:
        if not self.n_frames >= 2:
            raise ValueError(f"n_frames must be >= 2: {self.n_frames!r}")
        if not self.landmark_count >= 1:
            raise ValueError(
                f"landmark_count must be >= 1: {self.landmark_count!r}")
        if not (math.isfinite(self.sensor_range) and self.sensor_range > 0):
            raise ValueError(
                f"sensor_range must be finite and > 0: {self.sensor_range!r}")
        for name in ("sigma_range", "sigma_bearing", "sigma_odometry"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0: {value!r}")
        box = self.bbox
        if not (len(box) == 4 and all(map(math.isfinite, box))
                and box[0] < box[2] and box[1] < box[3]):
            raise ValueError(
                f"bbox must be 4 finite numbers with x0 < x1, y0 < y1: {box!r}")


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


def _trajectory(spec: ScenarioSpec) -> tuple[list[Pose2], set[int]]:
    """Ground-truth poses and the frames whose sensor is blanked."""
    if spec.trajectory is TrajectoryKind.LOOP:
        return _loop_poses(spec), set()
    if spec.trajectory is TrajectoryKind.FIGURE_EIGHT:
        return _figure_eight_poses(spec), set()
    if spec.trajectory is TrajectoryKind.LAWNMOWER:
        return _lawnmower_poses(spec), set()
    return _two_segment_poses(spec)


def _wrap_angles(t: np.ndarray) -> np.ndarray:
    """``wrap_angle`` over an array, bit for bit: fmod is exact, and the
    branch adds are the same IEEE additions."""
    t = np.fmod(t, 2.0 * math.pi)
    return np.where(t <= -math.pi, t + 2.0 * math.pi,
                    np.where(t > math.pi, t - 2.0 * math.pi, t))


def _observe(spec: ScenarioSpec, rng: np.random.Generator, pose: Pose2,
             ids: np.ndarray, lx: np.ndarray, ly: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Noisy ranges and bearings of landmarks ``ids`` (ascending), drawing
    the frame's noise block."""
    dx = (lx[ids] - pose.x).tolist()
    dy = (ly[ids] - pose.y).tolist()
    r = np.array(list(map(math.hypot, dx, dy)))
    b = _wrap_angles(np.array(list(map(math.atan2, dy, dx))) - pose.theta)
    draws = (spec.sigma_range > 0) + (spec.sigma_bearing > 0)
    if draws:
        columns = iter(rng.standard_normal((len(dx), draws)).T)
        if spec.sigma_range > 0:
            r = r + (0.0 + spec.sigma_range * next(columns))
        if spec.sigma_bearing > 0:
            b = b + (0.0 + spec.sigma_bearing * next(columns))
    r[r <= 0.0] = 1e-6
    return r, _wrap_angles(b)


def generate_scenario(spec: ScenarioSpec
                      ) -> tuple[list[Frame], list[tuple[float, float, float, float]]]:
    """Produce the frame stream and the ground-truth trajectory record."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x0, y0, x1, y1 = spec.bbox
    lx = rng.uniform(x0, x1, spec.landmark_count)
    ly = rng.uniform(y0, y1, spec.landmark_count)
    poses, blackout = _trajectory(spec)
    # Each frame measures distances only in the x-window around the pose.
    # The 1 m margin keeps rounding at the window's edge from dropping one.
    reach = spec.sensor_range + 1.0

    # Frames that see nothing share one set of (read-only) empty columns.
    no_ids, no_values = np.empty(0, dtype=np.int64), np.empty(0)

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
        ids, ranges, bearings = no_ids, no_values, no_values
        if k not in blackout:
            # Ascending ids, which is the noise draw order.
            near = np.flatnonzero((lx >= pose.x - reach)
                                  & (lx <= pose.x + reach))
            dist = np.hypot(lx[near] - pose.x, ly[near] - pose.y)
            seen = near[dist <= spec.sensor_range]
            if len(seen):
                ids = seen
                ranges, bearings = _observe(spec, rng, pose, ids, lx, ly)
                any_obs = True
        frames.append(Frame(k, t, delta, ids, ranges, bearings))
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
