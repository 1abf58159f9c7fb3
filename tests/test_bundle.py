import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from meshslam.core import (
    create_keyframe,
    global_bundle_adjust,
    initialize_map,
    local_bundle_adjust,
    map_cost,
    track_frame,
)
from meshslam.core.bundle import _Problem
from meshslam.core.types import SingularSystem, TrackStatus
from meshslam.geometry import Pose2, wrap_angle
from meshslam.ids import IdAllocator

from conftest import grid_landmarks, make_frame


def build_chain(n_kfs, landmarks, alloc, rng=None, sigma_r=0.0, sigma_b=0.0):
    """A map grown by tracking a straight path; returns (map, poses)."""
    poses = [Pose2(0.35 * i, 0.02 * i, 0.01 * i) for i in range(n_kfs)]
    kw = dict(rng=rng, sigma_r=sigma_r, sigma_b=sigma_b)
    f0 = make_frame(0, poses[0], None, landmarks, **kw)
    f1 = make_frame(1, poses[1], poses[0], landmarks, **kw)
    m = initialize_map(f0, f1, alloc)
    for i in range(2, n_kfs):
        f = make_frame(i, poses[i], poses[i - 1], landmarks, **kw)
        tr = track_frame(m, poses[i - 1], f, window=10)
        assert tr.status is TrackStatus.OK
        create_keyframe(f, tr, alloc, m)
    return m, poses


def scipy_oracle(m, free_kfs, free_mps):
    """Independent dense least squares over the same window."""
    kf_index = {k: 3 * i for i, k in enumerate(free_kfs)}
    base = 3 * len(free_kfs)
    mp_index = {p: base + 2 * i for i, p in enumerate(free_mps)}

    rows = []
    for mid in free_mps:
        mp = m.map_points[mid]
        for kid in sorted(mp.observers):
            kf = m.keyframes.get(kid)
            if kf is None or mid not in kf.observations:
                continue
            o = kf.observations[mid]
            rows.append((kid, mid, o.range, o.bearing))

    x0 = np.zeros(base + 2 * len(free_mps))
    for k, c in kf_index.items():
        pose = m.keyframes[k].pose
        x0[c:c + 3] = (pose.x, pose.y, pose.theta)
    for p, c in mp_index.items():
        mp = m.map_points[p]
        x0[c:c + 2] = (mp.x, mp.y)

    def residuals(x):
        out = np.empty(2 * len(rows))
        for i, (kid, mid, obs_r, obs_b) in enumerate(rows):
            c = kf_index.get(kid)
            if c is None:
                pose = m.keyframes[kid].pose
                px, py, pt = pose.x, pose.y, pose.theta
            else:
                px, py, pt = x[c], x[c + 1], x[c + 2]
            mc = mp_index[mid]
            dx, dy = x[mc] - px, x[mc + 1] - py
            out[2 * i] = math.hypot(dx, dy) - obs_r
            b = math.atan2(dy, dx) - pt - obs_b
            out[2 * i + 1] = (b + math.pi) % (2 * math.pi) - math.pi
        return out

    sol = least_squares(residuals, x0, method="lm", xtol=1e-14, ftol=1e-14)
    return sol.x, kf_index, mp_index


def test_noiseless_lba_is_noop(alloc):
    landmarks = grid_landmarks(40, spacing=0.9)
    m, _ = build_chain(3, landmarks, alloc)
    before = {k: kf.pose for k, kf in m.keyframes.items()}
    center = sorted(m.keyframes)[-1]
    dirty_kfs, dirty_mps = local_bundle_adjust(m, center, 5)
    assert map_cost(m) < 1e-12
    for k, pose in before.items():
        assert abs(m.keyframes[k].pose.x - pose.x) < 1e-9
        assert abs(m.keyframes[k].pose.y - pose.y) < 1e-9
    assert center in dirty_kfs and len(dirty_mps) > 0


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_perturbed_pose_matches_scipy_oracle(seed):
    alloc = IdAllocator(1)
    landmarks = grid_landmarks(40, spacing=0.9)
    rng = np.random.default_rng(seed)
    m, _ = build_chain(4, landmarks, alloc, rng=rng, sigma_r=0.01, sigma_b=0.005)
    kfs = sorted(m.keyframes)
    center = kfs[-1]
    victim = m.keyframes[kfs[2]]
    victim.pose = Pose2(victim.pose.x + 0.1, victim.pose.y - 0.05,
                        victim.pose.theta + 0.02)

    window = sorted({center, *m.keyframes[center].covisible})[:5]
    window = sorted({center, *window})
    free_kfs = [k for k in window if k != window[0]]
    free_mps = sorted({mid for k in window for mid in m.keyframes[k].observations})

    local_bundle_adjust(m, center, 5)
    x_star, kf_index, mp_index = scipy_oracle(m, free_kfs, free_mps)
    for k, c in kf_index.items():
        pose = m.keyframes[k].pose
        assert abs(pose.x - x_star[c]) < 1e-6
        assert abs(pose.y - x_star[c + 1]) < 1e-6
        assert abs(wrap_angle(pose.theta - x_star[c + 2])) < 1e-6
    for p, c in mp_index.items():
        mp = m.map_points[p]
        assert abs(mp.x - x_star[c]) < 1e-6
        assert abs(mp.y - x_star[c + 1]) < 1e-6


def test_single_keyframe_window_only_moves_points(alloc):
    landmarks = grid_landmarks(25, spacing=1.1)
    m, _ = build_chain(2, landmarks, alloc)
    lone = sorted(m.keyframes)[0]
    # Detach covisibility so the window is just the center (gauge-fixed).
    for kf in m.keyframes.values():
        kf.covisible = {}
    poses_before = {k: kf.pose for k, kf in m.keyframes.items()}
    mp = next(iter(m.map_points.values()))
    true_x = mp.x
    mp.x += 0.2
    local_bundle_adjust(m, lone, 5)
    for k, pose in poses_before.items():
        assert m.keyframes[k].pose == pose
    # Displaced point snaps back to the noiseless optimum.
    assert abs(mp.x - true_x) < 1e-6


def test_singular_system_leaves_map_unmodified(alloc):
    landmarks = grid_landmarks(25, spacing=1.1)
    m, _ = build_chain(2, landmarks, alloc)
    kfs = sorted(m.keyframes)
    anchor, free = m.keyframes[kfs[0]], m.keyframes[kfs[1]]
    # Free pose (3 dof) plus its lone private point (2 dof) constrained by
    # a single observation (2 residuals): rank deficient by construction.
    keep = sorted(free.observations)[0]
    for mid in list(free.observations):
        if mid != keep:
            del free.observations[mid]
            m.map_points[mid].observers.discard(free.id)
    only_mp = m.map_points[keep]
    only_mp.observers = {free.id}
    anchor.observations.pop(keep, None)
    anchor.covisible = {free.id: 5}
    free.covisible = {anchor.id: 5}
    before_pose = free.pose
    before_xy = (only_mp.x, only_mp.y)
    with pytest.raises(SingularSystem):
        local_bundle_adjust(m, free.id, 5)
    assert free.pose == before_pose
    assert (only_mp.x, only_mp.y) == before_xy


def test_gba_noiseless_noop_and_flag(alloc):
    landmarks = grid_landmarks(40, spacing=0.9)
    m, _ = build_chain(3, landmarks, alloc)
    assert not m.initialized_optimized
    before = {k: kf.pose for k, kf in m.keyframes.items()}
    global_bundle_adjust(m)
    assert m.initialized_optimized
    for k, pose in before.items():
        assert abs(m.keyframes[k].pose.x - pose.x) < 1e-9
        assert abs(m.keyframes[k].pose.y - pose.y) < 1e-9


def test_gba_displaced_landmark_matches_oracle(alloc):
    landmarks = grid_landmarks(30, spacing=1.0)
    rng = np.random.default_rng(5)
    m, _ = build_chain(3, landmarks, alloc, rng=rng, sigma_r=0.01, sigma_b=0.005)
    mp = m.map_points[sorted(m.map_points)[0]]
    mp.x += 0.2

    free_kfs = [k for k in sorted(m.keyframes) if k != m.origin_kf]
    free_mps = sorted(m.map_points)
    global_bundle_adjust(m)
    x_star, kf_index, mp_index = scipy_oracle(m, free_kfs, free_mps)
    for k, c in kf_index.items():
        pose = m.keyframes[k].pose
        assert abs(pose.x - x_star[c]) < 1e-6
        assert abs(pose.y - x_star[c + 1]) < 1e-6
    for p, c in mp_index.items():
        assert abs(m.map_points[p].x - x_star[c]) < 1e-6
        assert abs(m.map_points[p].y - x_star[c + 1]) < 1e-6


def test_gauge_invariance_of_residual_cost(alloc):
    landmarks = grid_landmarks(30, spacing=1.0)
    rng = np.random.default_rng(9)
    m, _ = build_chain(4, landmarks, alloc, rng=rng, sigma_r=0.02, sigma_b=0.01)
    center = sorted(m.keyframes)[-1]
    local_bundle_adjust(m, center, 5)
    cost_a = map_cost(m)

    # Rigidly transform every pose and point; residuals must not change.
    t = Pose2(3.0, -2.0, 0.7)
    for kf in m.keyframes.values():
        kf.pose = t.compose(kf.pose)
    for mp in m.map_points.values():
        mp.x, mp.y = t.transform_point(mp.x, mp.y)
    assert abs(map_cost(m) - cost_a) < 1e-9


def test_monotone_cost_under_adjustment(alloc):
    landmarks = grid_landmarks(36, spacing=0.9)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        m, _ = build_chain(4, landmarks, IdAllocator(1), rng=rng,
                           sigma_r=0.03, sigma_b=0.015)
        center = sorted(m.keyframes)[-1]
        before = map_cost(m)
        local_bundle_adjust(m, center, 5)
        assert map_cost(m) <= before + 1e-12
        before_g = map_cost(m)
        global_bundle_adjust(m)
        assert map_cost(m) <= before_g + 1e-12


def _reference_normal_equations(p, x):
    """Scatter-add assembly, one observation block after another."""
    dx, dy, q, r, kt = p._geometry(x)
    res_r = r - p.obs_range
    bearing = np.arctan2(dy, dx) - kt - p.obs_bearing
    res_b = np.mod(bearing + np.pi, 2.0 * np.pi) - np.pi
    n = p.n_obs
    blocks = np.zeros((n, 2, 5))
    blocks[:, 0, 0] = -dx * (1.0 / r)
    blocks[:, 0, 1] = -dy * (1.0 / r)
    blocks[:, 0, 3] = dx * (1.0 / r)
    blocks[:, 0, 4] = dy * (1.0 / r)
    blocks[:, 1, 0] = dy * (1.0 / q)
    blocks[:, 1, 1] = -dx * (1.0 / q)
    blocks[:, 1, 2] = -1.0
    blocks[:, 1, 3] = -dy * (1.0 / q)
    blocks[:, 1, 4] = dx * (1.0 / q)
    cols = np.stack([p.kf_col, p.kf_col + 1, p.kf_col + 2,
                     p.mp_col, p.mp_col + 1], axis=1)
    fixed = ~p.free_mask
    blocks[fixed, :, 0:3] = 0.0
    cols[fixed, 0:3] = 0
    jtj_blocks = np.einsum("nij,nik->njk", blocks, blocks)
    jtr_blocks = np.einsum("nij,ni->nj", blocks,
                           np.stack([res_r, res_b], axis=1))
    jtj = np.zeros((p.n_vars, p.n_vars))
    jtr = np.zeros(p.n_vars)
    ci = np.broadcast_to(cols[:, :, None], (n, 5, 5))
    cj = np.broadcast_to(cols[:, None, :], (n, 5, 5))
    np.add.at(jtj, (ci, cj), jtj_blocks)
    np.add.at(jtr, cols, jtr_blocks)
    return jtj, jtr


def _reference_rows(m, kf_index, free_mps):
    """(kf column, observer pose, range, bearing) per residual pair, in
    (map point, observer) order, built one observation at a time."""
    rows = []
    for mid in free_mps:
        for kid in sorted(m.map_points[mid].observers):
            kf = m.keyframes.get(kid)
            if kf is None or mid not in kf.observations:
                continue
            o = kf.observations[mid]
            col = kf_index.get(kid, -1)
            pose = (kf.pose.x, kf.pose.y, kf.pose.theta) if col < 0 else (0.0,) * 3
            rows.append((col, *pose, o.range, o.bearing))
    return rows


@pytest.mark.parametrize("seed", [5, 19])
def test_problem_assembly_is_bitwise_the_scatter_add_reference(seed):
    alloc = IdAllocator(1)
    landmarks = grid_landmarks(40, spacing=0.9)
    rng = np.random.default_rng(seed)
    m, _ = build_chain(6, landmarks, alloc, rng=rng, sigma_r=0.02, sigma_b=0.01)
    kfs = sorted(m.keyframes)
    # The oldest two keyframes stay fixed, so fixed anchors are in play.
    free_kfs = kfs[2:]
    free_mps = sorted(m.map_points)
    p = _Problem(m, free_kfs, free_mps)
    assert p.free_mask.any() and not p.free_mask.all()

    ref = _reference_rows(m, p.kf_index, free_mps)
    got = list(zip(p.kf_col.tolist(), p.fixed_x.tolist(), p.fixed_y.tolist(),
                   p.fixed_t.tolist(), p.obs_range.tolist(),
                   p.obs_bearing.tolist()))
    assert got == ref

    x = p.pack()
    x = x + rng.normal(0.0, 0.01, x.shape)
    jtj, jtr = p.normal_equations(x)
    ref_jtj, ref_jtr = _reference_normal_equations(p, x)
    assert jtj.tobytes() == ref_jtj.tobytes()
    assert jtr.tobytes() == ref_jtr.tobytes()
    assert jtj.flags.c_contiguous and jtj.shape == ref_jtj.shape

    p.unpack(x)
    for i, kid in enumerate(free_kfs):
        pose = m.keyframes[kid].pose
        assert (pose.x, pose.y) == (x[3 * i], x[3 * i + 1])
        assert pose.theta == wrap_angle(float(x[3 * i + 2]))
    base = 3 * len(free_kfs)
    for i, mid in enumerate(free_mps):
        mp = m.map_points[mid]
        assert (mp.x, mp.y) == (x[base + 2 * i], x[base + 2 * i + 1])
