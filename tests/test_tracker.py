import math

import numpy as np
from hypothesis import given, strategies as st

from meshslam.core import create_keyframe, initialize_map, should_create_keyframe, track_frame
from meshslam.core.types import TrackResult, TrackStatus
from meshslam.geometry import Pose2, wrap_angle

from conftest import grid_landmarks, make_frame


def build_map(landmarks, alloc, p1=Pose2(), p2=Pose2(0.4, 0.05, 0.02)):
    f1 = make_frame(0, p1, None, landmarks)
    f2 = make_frame(1, p2, p1, landmarks)
    return initialize_map(f1, f2, alloc), p2


def test_noiseless_track_is_exact(alloc):
    landmarks = grid_landmarks(20, spacing=1.5)
    m, p2 = build_map(landmarks, alloc)
    p3 = Pose2(0.9, 0.15, 0.05)
    f3 = make_frame(2, p3, p2, landmarks)
    tr = track_frame(m, p2, f3, window=10)
    assert tr.status is TrackStatus.OK
    assert abs(tr.pose.x - p3.x) < 1e-9
    assert abs(tr.pose.y - p3.y) < 1e-9
    assert abs(wrap_angle(tr.pose.theta - p3.theta)) < 1e-9


def test_unknown_landmarks_lose_track(alloc):
    near = grid_landmarks(20)
    m, p2 = build_map(near, alloc)
    far = {100 + i: (50.0 + i, 50.0) for i in range(15)}
    f3 = make_frame(2, Pose2(0.8, 0, 0), p2, far)
    tr = track_frame(m, p2, f3, window=10)
    assert tr.status is TrackStatus.LOST
    assert len(tr.matches) == 0


def grid_refine_oracle(rows, init, span=0.3, iters=5):
    """Independent solver: nested grid search over (x, y, theta)."""
    lx = np.array([r[0] for r in rows])
    ly = np.array([r[1] for r in rows])
    obs_r = np.array([r[2] for r in rows])
    obs_b = np.array([r[3] for r in rows])

    def cost(x, y, t):
        dx, dy = lx - x, ly - y
        rng = np.hypot(dx, dy)
        db = np.mod(np.arctan2(dy, dx) - t - obs_b + np.pi, 2 * np.pi) - np.pi
        return float(np.sum((rng - obs_r) ** 2) + np.sum(db ** 2))

    cx, cy, ct = init
    s, sa = span, span
    for _ in range(iters):
        xs = np.linspace(cx - s, cx + s, 11)
        ys = np.linspace(cy - s, cy + s, 11)
        ts = np.linspace(ct - sa, ct + sa, 11)
        best = (cost(cx, cy, ct), cx, cy, ct)
        for x in xs:
            for y in ys:
                for t in ts:
                    c = cost(x, y, t)
                    if c < best[0]:
                        best = (c, x, y, t)
        _, cx, cy, ct = best
        s *= 0.22
        sa *= 0.22
    return cx, cy, ct


def test_noisy_track_matches_grid_oracle(alloc):
    landmarks = grid_landmarks(25, spacing=1.2)
    rng = np.random.default_rng(3)
    m, p2 = build_map(landmarks, alloc)
    p3 = Pose2(0.8, 0.1, 0.04)
    f3 = make_frame(2, p3, p2, landmarks, rng=rng, sigma_r=0.02, sigma_b=0.01)
    tr = track_frame(m, p2, f3, window=10)
    assert tr.status is TrackStatus.OK
    assert len(tr.matches) == 25
    assert math.hypot(tr.pose.x - p3.x, tr.pose.y - p3.y) < 0.05

    rows = []
    for mp_id in sorted(tr.matches):
        mp = m.map_points[mp_id]
        o = f3.observations[tr.matches[mp_id]]
        assert mp.origin_landmark == o.landmark_id
        rows.append((mp.x, mp.y, o.range, o.bearing))
    gx, gy, gt = grid_refine_oracle(rows, (p3.x, p3.y, p3.theta))
    assert math.hypot(tr.pose.x - gx, tr.pose.y - gy) < 2e-3
    assert abs(wrap_angle(tr.pose.theta - gt)) < 2e-3


def test_keyframe_gate_paper_cases():
    tr = TrackResult(TrackStatus.OK, Pose2(), {}, tracked_ratio=0.75)
    assert should_create_keyframe(tr, 3) is True
    assert should_create_keyframe(tr, 1) is False
    at_threshold = TrackResult(TrackStatus.OK, Pose2(), {}, tracked_ratio=0.80)
    assert should_create_keyframe(at_threshold, 5) is False


@given(st.floats(0, 1), st.integers(0, 10))
def test_keyframe_gate_is_pure(ratio, elapsed):
    tr = TrackResult(TrackStatus.OK, Pose2(), {}, tracked_ratio=ratio)
    first = should_create_keyframe(tr, elapsed)
    assert all(should_create_keyframe(tr, elapsed) == first for _ in range(3))
    assert first == (elapsed >= 2 and ratio < 0.80)


def test_create_keyframe_spawns_unmatched_points(alloc):
    landmarks = grid_landmarks(20, spacing=1.2)
    m, p2 = build_map(landmarks, alloc)
    extra = dict(landmarks)
    for i in range(5):
        extra[100 + i] = (0.5 + 0.3 * i, 4.0)
    p3 = Pose2(0.8, 0.1, 0.0)
    f3 = make_frame(2, p3, p2, extra)
    tr = track_frame(m, p2, f3, window=10)
    assert tr.status is TrackStatus.OK

    # Oracle: the set difference of landmark ids decides new points. A
    # match names the frame row of its observation.
    frame_obs = f3.observations
    matched = {mp_id: frame_obs[row] for mp_id, row in tr.matches.items()}
    matched_landmarks = {o.landmark_id for o in matched.values()}
    assert all(m.map_points[mp_id].origin_landmark == o.landmark_id
               for mp_id, o in matched.items())
    expected_new = {o.landmark_id for o in frame_obs} - matched_landmarks
    kf, new_points = create_keyframe(f3, tr, alloc, m)
    assert {mp.origin_landmark for mp in new_points} == expected_new
    # The keyframe keeps each matched row's measurement under its map
    # point, and each unmatched row's under the point it spawned.
    assert {mp_id: kf.observations[mp_id] for mp_id in matched} == matched
    by_landmark = {o.landmark_id: o for o in frame_obs}
    for mp in new_points:
        assert kf.observations[mp.id] == by_landmark[mp.origin_landmark]
    assert len(kf.observations) == len(tr.matches) + len(new_points)
    assert kf.ref_point_count == len(tr.matches) + len(new_points)
    assert m.keyframes[kf.id] is kf


def test_create_keyframe_all_matched_adds_nothing(alloc):
    landmarks = grid_landmarks(20, spacing=1.2)
    m, p2 = build_map(landmarks, alloc)
    f3 = make_frame(2, Pose2(0.6, 0, 0), p2, landmarks)
    tr = track_frame(m, p2, f3, window=10)
    _, new_points = create_keyframe(f3, tr, alloc, m)
    assert new_points == []


def test_covisibility_threshold_inclusive_at_five(alloc):
    landmarks = grid_landmarks(20, spacing=1.2)
    m, p2 = build_map(landmarks, alloc)
    shared = set(sorted(landmarks)[:5])
    fresh = {200 + i: (i * 0.8, 5.0) for i in range(10)}
    world = {**{k: landmarks[k] for k in shared}, **fresh}
    p3 = Pose2(0.7, 0.1, 0.0)
    f3 = make_frame(2, p3, p2, world)
    tr = track_frame(m, p2, f3, window=10)
    assert len(tr.matches) == 5 < 10
    # Too few matches to track; force a result through the keyframe path.
    tr_ok = TrackResult(TrackStatus.OK, p3, tr.matches, 0.5)
    kf, _ = create_keyframe(f3, tr_ok, alloc, m)
    for other in m.keyframes:
        if other != kf.id:
            assert kf.covisible[other] == 5
            assert m.keyframes[other].covisible[kf.id] == 5
