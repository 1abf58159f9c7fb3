import math

import numpy as np
import pytest

from meshslam.core import initialize_map
from meshslam.core.types import Frame, InsufficientParallax
from meshslam.geometry import Pose2, back_project
from meshslam.ids import IdAllocator

from conftest import grid_landmarks, make_frame


def test_noiseless_init_recovers_landmarks(alloc):
    landmarks = grid_landmarks(30)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.5, 0.0, 0.02)
    f1 = make_frame(0, p1, None, landmarks)
    f2 = make_frame(1, p2, p1, landmarks)
    m = initialize_map(f1, f2, alloc)
    assert len(m.keyframes) == 2
    assert len(m.map_points) == 30
    assert not m.initialized_optimized
    for mp in m.map_points.values():
        lx, ly = landmarks[mp.origin_landmark]
        assert math.isclose(mp.x, lx, abs_tol=1e-9)
        assert math.isclose(mp.y, ly, abs_tol=1e-9)


def test_zero_motion_rejected(alloc):
    landmarks = grid_landmarks(30)
    p = Pose2(0, 0, 0)
    f1 = make_frame(0, p, None, landmarks)
    f2 = Frame.from_observations(1, 0.05, Pose2(), f1.observations)
    with pytest.raises(InsufficientParallax):
        initialize_map(f1, f2, alloc)


def test_too_few_common_landmarks_rejected(alloc):
    landmarks = grid_landmarks(19)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.5, 0, 0)
    f1 = make_frame(0, p1, None, landmarks)
    f2 = make_frame(1, p2, p1, landmarks)
    with pytest.raises(InsufficientParallax):
        initialize_map(f1, f2, alloc)


def test_noisy_init_matches_back_projection_oracle(alloc):
    sigma_r = 0.02
    landmarks = grid_landmarks(30)
    rng = np.random.default_rng(7)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.5, 0.1, 0.05)
    f1 = make_frame(0, p1, None, landmarks, rng=rng, sigma_r=sigma_r)
    f2 = make_frame(1, p2, p1, landmarks, rng=rng, sigma_r=sigma_r)
    m = initialize_map(f1, f2, IdAllocator(1))

    # Oracle: recompute the back-projection average independently. The
    # second keyframe sits at the odometry-composed pose, not ground truth.
    pose2 = Pose2().compose(f2.odometry_delta)
    obs1 = {o.landmark_id: o for o in f1.observations}
    obs2 = {o.landmark_id: o for o in f2.observations}
    for mp in m.map_points.values():
        a = back_project(Pose2(), obs1[mp.origin_landmark].range,
                         obs1[mp.origin_landmark].bearing)
        b = back_project(pose2, obs2[mp.origin_landmark].range,
                         obs2[mp.origin_landmark].bearing)
        assert math.isclose(mp.x, 0.5 * (a[0] + b[0]), abs_tol=1e-12)
        assert math.isclose(mp.y, 0.5 * (a[1] + b[1]), abs_tol=1e-12)
        # noisy estimate stays within 3 sigma of truth, per coordinate
        lx, ly = landmarks[mp.origin_landmark]
        assert abs(mp.x - lx) < 3 * sigma_r
        assert abs(mp.y - ly) < 3 * sigma_r


def test_keyframes_share_covisibility(alloc):
    landmarks = grid_landmarks(25)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.3, 0, 0)
    m = initialize_map(make_frame(0, p1, None, landmarks),
                       make_frame(1, p2, p1, landmarks), alloc)
    k1, k2 = sorted(m.keyframes)
    assert m.keyframes[k1].covisible[k2] == 25
    assert m.keyframes[k2].covisible[k1] == 25
    assert m.origin_kf == k1
