import math
from dataclasses import replace

import numpy as np
import pytest

from meshslam.config import NodeConfig
from meshslam.core.types import Frame, Observation
from meshslam.geometry import Pose2, range_bearing, wrap_angle
from meshslam.policy import Role
from meshslam.runner import run_centralized
from meshslam.scenarios import (
    FRAME_RATE_HZ,
    GEN_CHUNK_FRAMES,
    EmptyWorld,
    ScenarioSpec,
    TrajectoryKind,
    _polyline_poses,
    _trajectory,
    default_scenario,
    generate_scenario,
)


def test_loop_trajectory_closes_exactly():
    spec = default_scenario(TrajectoryKind.LOOP, seed=1, n_frames=400,
                            sigma_range=0.0, sigma_bearing=0.0,
                            sigma_odometry=0.0)
    _, gt = generate_scenario(spec)
    t0, x0, y0, th0 = gt[0]
    t1, x1, y1, th1 = gt[-1]
    assert math.hypot(x1 - x0, y1 - y0) < 1e-9
    assert abs(th1 - th0) < 1e-9


def test_same_spec_same_seed_is_byte_identical():
    spec = default_scenario(TrajectoryKind.FIGURE_EIGHT, seed=9)
    frames_a, gt_a = generate_scenario(spec)
    frames_b, gt_b = generate_scenario(spec)
    assert frames_a == frames_b
    assert gt_a == gt_b
    other = default_scenario(TrajectoryKind.FIGURE_EIGHT, seed=10)
    frames_c, _ = generate_scenario(other)
    assert frames_a != frames_c


def test_two_segment_has_observation_gap_and_two_maps():
    spec = default_scenario(TrajectoryKind.TWO_SEGMENT, seed=1)
    frames, _ = generate_scenario(spec)
    gap = [f.frame_id for f in frames if not f.observations]
    assert gap, "expected a sensor blackout window"
    assert gap == list(range(gap[0], gap[0] + len(gap)))

    # With merging disabled, the centralized run ends with two maps.
    from dataclasses import replace
    cfg = replace(NodeConfig(), loop_enabled=False)
    result = run_centralized(spec, cfg)
    assert len(result.nodes[Role.TRACKING].state.slam) == 2


def test_empty_world_rejected():
    # One landmark and a sensor range no pose can come within.
    spec = ScenarioSpec(TrajectoryKind.LOOP, 50, 1, (-5, -5, 5, 5),
                        1e-9, 0.0, 0.0, 0.0, 1)
    with pytest.raises(EmptyWorld):
        generate_scenario(spec)


def test_frames_run_at_20_hz():
    spec = default_scenario(TrajectoryKind.LOOP, seed=2, n_frames=40)
    frames, _ = generate_scenario(spec)
    assert len(frames) == 40
    deltas = [b.timestamp - a.timestamp for a, b in zip(frames, frames[1:])]
    for d in deltas:
        assert abs(d - 0.05) < 1e-12
    ids = [f.frame_id for f in frames]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def reference_generate(spec: ScenarioSpec):
    """The per-landmark scalar loop the generator's noise blocks replace:
    all-landmark distance test, one ``rng.normal`` per sigma per visible
    landmark, scalar ``range_bearing``. Frames come as (frame_id,
    timestamp, odometry_delta, observations) tuples."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    x0, y0, x1, y1 = spec.bbox
    lx = rng.uniform(x0, x1, spec.landmark_count)
    ly = rng.uniform(y0, y1, spec.landmark_count)
    poses, blackout = _trajectory(spec)
    frames, ground_truth = [], []
    prev = None
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
        observations = []
        if k not in blackout:
            dist = np.hypot(lx - pose.x, ly - pose.y)
            for idx in np.flatnonzero(dist <= spec.sensor_range):
                r, b = range_bearing(pose, float(lx[idx]), float(ly[idx]))
                if spec.sigma_range > 0:
                    r = r + float(rng.normal(0.0, spec.sigma_range))
                if spec.sigma_bearing > 0:
                    b = b + float(rng.normal(0.0, spec.sigma_bearing))
                if r <= 0.0:
                    r = 1e-6
                observations.append(Observation(int(idx), r, wrap_angle(b)))
        frames.append((k, t, delta, tuple(observations)))
        prev = pose
    return frames, ground_truth


def _scaled(kind: TrajectoryKind, seed: int, k: int) -> ScenarioSpec:
    base = default_scenario(kind, seed=seed)
    return replace(base, n_frames=base.n_frames * k,
                   landmark_count=base.landmark_count * k * k,
                   bbox=tuple(v * k for v in base.bbox))


_LOOP = default_scenario(TrajectoryKind.LOOP, seed=4)
IDENTITY_SPECS = [
    *(_scaled(kind, seed, k) for kind in TrajectoryKind
      for seed in (1, 2, 3) for k in (1, 2)),
    replace(_LOOP, sigma_range=0.0),
    replace(_LOOP, sigma_bearing=0.0),
    replace(_LOOP, sigma_range=0.0, sigma_bearing=0.0),
    # Noise large enough to push ranges through zero onto the clamp.
    replace(_LOOP, sigma_range=5.0),
    # Small enough that some frames see nothing.
    replace(_LOOP, sensor_range=0.5),
    # Chunk boundaries: one short chunk, a whole one, and one frame past it.
    *(replace(_LOOP, n_frames=n) for n in (
        2, GEN_CHUNK_FRAMES - 1, GEN_CHUNK_FRAMES, GEN_CHUNK_FRAMES + 1)),
    # Sparse enough that a whole chunk sees nothing.
    replace(_LOOP, landmark_count=20, sensor_range=3.0),
    # The world of loop_x3_oracle, seed 1.
    _scaled(TrajectoryKind.LOOP, 1, 3),
]


@pytest.mark.parametrize("spec", IDENTITY_SPECS,
                         ids=lambda s: f"{s.trajectory.value}-{s.seed}-"
                         f"{s.n_frames}-{s.sigma_range}-{s.sigma_bearing}-"
                         f"{s.sensor_range}")
def test_generator_equals_scalar_reference(spec):
    frames, ground_truth = generate_scenario(spec)
    want, want_truth = reference_generate(spec)
    assert ground_truth == want_truth
    assert repr(ground_truth) == repr(want_truth)
    got = [(f.frame_id, f.timestamp, f.odometry_delta, f.observations)
           for f in frames]
    assert got == want
    assert repr(got) == repr(want)
    assert frames == [Frame.from_observations(*row) for row in want]


def test_frame_columns_are_read_only():
    frames, _ = generate_scenario(default_scenario(TrajectoryKind.LOOP,
                                                   n_frames=4))
    frame = frames[1]
    assert len(frame.landmark_ids) > 0
    for column in (frame.landmark_ids, frame.ranges, frame.bearings):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    built = Frame.from_observations(0, 0.0, Pose2(),
                                    (Observation(3, 1.0, 0.5),))
    with pytest.raises(ValueError, match="read-only"):
        built.ranges[0] = 2.0


def test_generated_columns_cannot_be_made_writeable():
    # Frames view their chunk's arrays, which are read-only too; a frame's
    # column can therefore not be made writeable again, even when empty.
    frames, _ = generate_scenario(replace(_LOOP, sensor_range=0.5))
    for frame in frames:
        for column in (frame.landmark_ids, frame.ranges, frame.bearings):
            with pytest.raises(ValueError):
                column.flags.writeable = True


def test_frame_equality_compares_column_bytes():
    obs = (Observation(1, 2.0, 0.0), Observation(4, 3.0, -0.5))
    frame = Frame.from_observations(7, 0.35, Pose2(0.1, 0.0, 0.0), obs)
    assert frame == Frame.from_observations(7, 0.35, Pose2(0.1, 0.0, 0.0), obs)
    # -0.0 == 0.0 as a float, but not as bytes.
    assert frame != Frame.from_observations(
        7, 0.35, Pose2(0.1, 0.0, 0.0), (Observation(1, 2.0, -0.0), obs[1]))
    assert frame != Frame.from_observations(7, 0.35, Pose2(0.1, 0.0, 0.0),
                                            obs[:1])
    assert frame != Frame.from_observations(8, 0.35, Pose2(0.1, 0.0, 0.0), obs)


@pytest.mark.parametrize("ids, ranges, bearings, match", [
    (np.array([2, 1]), np.ones(2), np.zeros(2), "ascending"),
    (np.array([1, 1]), np.ones(2), np.zeros(2), "ascending"),
    (np.array([1, 2], dtype=np.int32), np.ones(2), np.zeros(2), "int64"),
    (np.array([1, 2]), np.ones(2, dtype=np.float32), np.zeros(2), "int64"),
    (np.array([1, 2]), np.ones(3), np.zeros(2), "one length"),
    (np.array([[1, 2]]), np.ones((1, 2)), np.zeros((1, 2)), "1-D"),
])
def test_frame_rejects_malformed_columns(ids, ranges, bearings, match):
    with pytest.raises(ValueError, match=match):
        Frame(0, 0.0, Pose2(), ids, ranges, bearings)


def test_identity_specs_cover_empty_frames_and_clamp():
    frames, _ = generate_scenario(replace(_LOOP, sensor_range=0.5))
    assert any(not f.observations for f in frames)
    assert any(f.observations for f in frames)
    frames, _ = generate_scenario(replace(_LOOP, sigma_range=5.0))
    assert any(o.range == 1e-6 for f in frames for o in f.observations)
    frames, _ = generate_scenario(replace(_LOOP, landmark_count=20,
                                          sensor_range=3.0))
    seen = [any(len(f.landmark_ids) for f in frames[k:k + GEN_CHUNK_FRAMES])
            for k in range(0, len(frames), GEN_CHUNK_FRAMES)]
    assert not all(seen) and any(seen)


def test_polyline_reaching_a_repeated_segment_moves_on():
    # The last segment repeats the first: frames on the middle segment
    # must not be clamped onto the first one's end.
    poses = _polyline_poses([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 7)
    assert poses == [Pose2(0.0, 0.0, 0.0), Pose2(0.5, 0.0, 0.0),
                     Pose2(1.0, 0.0, 0.0), Pose2(0.5, 0.0, math.pi),
                     Pose2(0.0, 0.0, math.pi), Pose2(0.5, 0.0, 0.0),
                     Pose2(1.0, 0.0, 0.0)]


@pytest.mark.parametrize("field, value", [
    ("n_frames", 1),
    ("landmark_count", 0),
    ("sensor_range", 0.0),
    ("sensor_range", math.inf),
    ("sigma_range", -0.1),
    ("sigma_bearing", math.inf),
    ("sigma_odometry", math.nan),
    ("bbox", (12.0, -12.0, -12.0, 12.0)),
    ("bbox", (-12.0, 12.0, 12.0, -12.0)),
    ("bbox", (-12.0, -12.0, math.nan, 12.0)),
    ("bbox", (-12.0, -12.0, 12.0)),
    ("n_frames", 2.5),
    ("n_frames", True),
    ("landmark_count", 3.0),
    ("seed", -1),
    ("seed", 1.5),
    ("seed", True),
])
def test_spec_rejects_bad_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        replace(default_scenario(TrajectoryKind.LOOP), **{field: value})
