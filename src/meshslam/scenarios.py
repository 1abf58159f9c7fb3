"""Synthetic worlds with ground truth: landmark fields and trajectories.

Frames are sampled at a fixed 20 Hz. Identical spec and seed give a
byte-identical frame stream, equal to that of a per-landmark scalar loop
(the reference in the tests). Every random draw comes from one seeded
generator: first the landmark field, then one ``rng.standard_normal(n)``
per chunk of ``GEN_CHUNK_FRAMES`` consecutive frames. A chunk's draw
covers, frame by frame, the frame's 3 odometry values (frame 0 has none)
and then its observation block: one row per visible landmark in ascending
id order and one column per positive sigma (range, then bearing). The
generator's draws are sequential, so this is the order of the scalar
draws it replaces, and ``0.0 + sigma * z`` is the IEEE operation
``rng.normal(0.0, sigma)`` performs.

Visibility is decided as the scalar loop decides it, by
``np.hypot(lx - x, ly - y) <= sensor_range``. A chunk first takes the
landmarks in its poses' bounding box widened by the range, then keeps the
(frame, landmark) pairs within a squared-distance bound widened by a
relative 1e-9. That pre-test only drops pairs far outside the range; the rounding
of a squared distance could decide a pair at the edge differently from
``hypot``, so the exact test still runs on what survives. Range and
bearing stay on scalar ``math.hypot``/``math.atan2`` mapped over Python
floats: numpy's ``hypot`` and ``arctan2`` differ from them in the last bit
on some inputs.

A frame keeps its observations as id, range and bearing columns (see
``Frame``), not as one ``Observation`` object per measurement: a long run
holds tens of thousands of measurements, and the columns take a fraction
of the objects' memory. The columns are read-only slices of their chunk's
arrays, which are read-only too.
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
# Frames generated per vectorised pass (see the module docstring).
GEN_CHUNK_FRAMES = 32


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
        for name in ("n_frames", "landmark_count", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int: {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0: {self.seed!r}")
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
    # s never decreases, so one cursor walks the segments; acc is the
    # length before segment i, summed in segment order.
    poses = []
    i, acc = 0, 0.0
    for k in range(n):
        s = total * k / (n - 1)
        while i < len(segs) - 1 and s > acc + segs[i][4]:
            acc += segs[i][4]
            i += 1
        ax, ay, bx, by, length = segs[i]
        f = 0.0 if length == 0 else (s - acc) / length
        f = min(max(f, 0.0), 1.0)
        heading = math.atan2(by - ay, bx - ax)
        poses.append(Pose2(ax + f * (bx - ax), ay + f * (by - ay), heading))
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


def _chunk_frames(spec: ScenarioSpec, rng: np.random.Generator,
                  lx: np.ndarray, ly: np.ndarray, poses: list[Pose2],
                  blackout: set[int], start: int, stop: int) -> list[Frame]:
    """Frames ``start`` up to ``stop``, drawing their noise."""
    m = stop - start
    chunk = poses[start:stop]
    px = np.array([p.x for p in chunk])
    py = np.array([p.y for p in chunk])
    # Candidates lie in the chunk's bounding box widened by the sensor
    # range; the 1 m margin keeps rounding at the box's edge from dropping
    # one.
    reach = spec.sensor_range + 1.0
    cand = np.flatnonzero((lx >= px.min() - reach) & (lx <= px.max() + reach)
                          & (ly >= py.min() - reach) & (ly <= py.max() + reach))
    # Squared-distance pre-test of every frame against every candidate. Its
    # bound is widened relatively, so it keeps every pair the exact test
    # below accepts.
    d2 = lx[cand] - px[:, None]
    d2 *= d2
    dy2 = ly[cand] - py[:, None]
    dy2 *= dy2
    d2 += dy2
    near = d2 <= (spec.sensor_range * (1.0 + 1e-9)) ** 2
    del d2, dy2
    near &= np.array([k not in blackout for k in range(start, stop)])[:, None]
    # Pairs come row-major: frame by frame, each frame's ids ascending.
    rows, cols = np.nonzero(near)
    ids = cand[cols]
    dx = lx[ids] - px[rows]
    dy = ly[ids] - py[rows]
    seen = np.hypot(dx, dy) <= spec.sensor_range
    rows, ids, dx, dy = rows[seen], ids[seen], dx[seen], dy[seen]
    counts = np.bincount(rows, minlength=m)
    ends = np.cumsum(counts)
    n = len(ids)
    dx, dy = dx.tolist(), dy.tolist()
    r = np.fromiter(map(math.hypot, dx, dy), float, n)
    b = _wrap_angles(np.fromiter(map(math.atan2, dy, dx), float, n)
                     - np.array([p.theta for p in chunk])[rows])
    del dx, dy

    # One draw in the scalar loop's order: per frame, 3 odometry values
    # (frame 0 has none), then one value per sigma for each observation.
    first = 1 if start == 0 else 0  # leading chunk frames without odometry
    draws = (spec.sigma_range > 0) + (spec.sigma_bearing > 0)
    z = rng.standard_normal(3 * (m - first) + draws * n)
    odo_at = 3 * np.arange(m - first) + draws * (ends - counts)[first:]
    odometry = 0.0 + spec.sigma_odometry * z[odo_at[:, None] + np.arange(3)]
    at = 3 * (rows + 1 - first) + draws * np.arange(n)
    if spec.sigma_range > 0:
        r = r + (0.0 + spec.sigma_range * z[at])
        at += 1
    if spec.sigma_bearing > 0:
        b = b + (0.0 + spec.sigma_bearing * z[at])
    r[r <= 0.0] = 1e-6
    b = _wrap_angles(b)
    # Frames hold views of these; a read-only base keeps them read-only.
    for column in (ids, r, b):
        column.flags.writeable = False

    frames = []
    noise = zip(*odometry.T)  # np.float64 triples, as rng.normal gives
    lo = 0
    for k, hi in zip(range(start, stop), ends.tolist()):
        if k == 0:
            delta = Pose2()
        else:
            rel = poses[k].relative_to(poses[k - 1])
            n0, n1, n2 = next(noise)
            delta = Pose2(rel.x + n0, rel.y + n1, wrap_angle(rel.theta + n2))
        frames.append(Frame(k, k / FRAME_RATE_HZ, delta, ids[lo:hi],
                            r[lo:hi], b[lo:hi]))
        lo = hi
    return frames


def generate_scenario(spec: ScenarioSpec
                      ) -> tuple[list[Frame], list[tuple[float, float, float, float]]]:
    """Produce the frame stream and the ground-truth trajectory record."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x0, y0, x1, y1 = spec.bbox
    lx = rng.uniform(x0, x1, spec.landmark_count)
    ly = rng.uniform(y0, y1, spec.landmark_count)
    poses, blackout = _trajectory(spec)
    frames: list[Frame] = []
    for start in range(0, len(poses), GEN_CHUNK_FRAMES):
        frames += _chunk_frames(spec, rng, lx, ly, poses, blackout, start,
                                min(start + GEN_CHUNK_FRAMES, len(poses)))
    if not any(len(f.landmark_ids) for f in frames):
        raise EmptyWorld("no landmark observable in any frame")
    ground_truth = [(k / FRAME_RATE_HZ, p.x, p.y, p.theta)
                    for k, p in enumerate(poses)]
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
