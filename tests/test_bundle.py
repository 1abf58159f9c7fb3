import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares

from meshslam.core import (
    covis,
    create_keyframe,
    global_bundle_adjust,
    initialize_map,
    local_bundle_adjust,
    map_cost,
    track_frame,
)
from meshslam.core import bundle
from meshslam.core.bundle import _Problem
from meshslam.core.types import (
    MapPoint,
    Observation,
    SingularSystem,
    TrackStatus,
)
from meshslam.geometry import Pose2, wrap_angle
from meshslam.ids import IdAllocator

from conftest import grid_landmarks, make_frame, observation_rows


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


def scipy_oracle(m, free_kfs, free_mps, skip=frozenset()):
    """Independent dense least squares over the same window, leaving out
    the (keyframe, map point) observations in skip."""
    kf_index = {k: 3 * i for i, k in enumerate(free_kfs)}
    base = 3 * len(free_kfs)
    mp_index = {p: base + 2 * i for i, p in enumerate(free_mps)}

    rows = []
    for mid in free_mps:
        mp = m.map_points[mid]
        for kid in sorted(mp.observers):
            kf = m.keyframes.get(kid)
            if kf is None or mid not in kf.observations or (kid, mid) in skip:
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
    m.set_observations(free.id, [row for row in observation_rows(free.observations)
                                 if row[0] == keep])
    assert list(free.observations) == [keep]
    only_mp = m.map_points[keep]
    m.set_observations(anchor.id, [row for row in observation_rows(anchor.observations)
                                   if row[0] != keep])
    assert keep not in anchor.observations
    # Replacing the columns moved the observers with them.
    assert only_mp.observers == (free.id,)
    assert all(free.id not in mp.observers
               for mid, mp in m.map_points.items() if mid != keep)
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


def _reference_jacobians(p, x):
    """Residuals (n, 2) and 2x5 Jacobian blocks (n, 2, 5) with columns
    [kf.x, kf.y, kf.theta, mp.x, mp.y]; a fixed observer's pose columns
    are zero."""
    dx, dy, q, r, kt = p._geometry(x)
    res = np.stack([r - p.obs_range,
                    np.mod(np.arctan2(dy, dx) - kt - p.obs_bearing + np.pi,
                           2.0 * np.pi) - np.pi], axis=1)
    blocks = np.zeros((p.n_obs, 2, 5))
    blocks[:, 0, 0] = -dx * (1.0 / r)
    blocks[:, 0, 1] = -dy * (1.0 / r)
    blocks[:, 0, 3] = dx * (1.0 / r)
    blocks[:, 0, 4] = dy * (1.0 / r)
    blocks[:, 1, 0] = dy * (1.0 / q)
    blocks[:, 1, 1] = -dx * (1.0 / q)
    blocks[:, 1, 2] = -1.0
    blocks[:, 1, 3] = -dy * (1.0 / q)
    blocks[:, 1, 4] = dx * (1.0 / q)
    blocks[~p.free_mask, :, 0:3] = 0.0
    return res, blocks


def _reference_blocks(p, x):
    """U, V, W and both gradient halves by scatter-add, one observation
    block after another."""
    res, blocks = _reference_jacobians(p, x)
    jc, jp = blocks[:, :, 0:3], blocks[:, :, 3:5]
    free = p.free_mask
    kf, mp = p.kf_slot[free], p.mp_slot
    n_kfs, n_mps = len(p.free_kfs), len(p.free_mps)
    u = np.zeros((n_kfs, 3, 3))
    np.add.at(u, kf, np.einsum("nij,nik->njk", jc[free], jc[free]))
    v = np.zeros((n_mps, 2, 2))
    np.add.at(v, mp, np.einsum("nij,nik->njk", jp, jp))
    w = np.einsum("nij,nik->njk", jc[free], jp[free])
    g_kf = np.zeros((n_kfs, 3))
    np.add.at(g_kf, kf, np.einsum("nij,ni->nj", jc[free], res[free]))
    g_mp = np.zeros((n_mps, 2))
    np.add.at(g_mp, mp, np.einsum("nij,ni->nj", jp, res))
    return u, v, w, g_kf, g_mp


def _dense_step(p, x):
    """The Gauss-Newton step from a dense J^T J, without elimination."""
    res, blocks = _reference_jacobians(p, x)
    jac = np.zeros((2 * p.n_obs, p.n_vars))
    base = 3 * len(p.free_kfs)
    for i in range(p.n_obs):
        if p.kf_slot[i] >= 0:
            c = 3 * p.kf_slot[i]
            jac[2 * i:2 * i + 2, c:c + 3] = blocks[i, :, 0:3]
        c = base + 2 * p.mp_slot[i]
        jac[2 * i:2 * i + 2, c:c + 2] = blocks[i, :, 3:5]
    return np.linalg.solve(jac.T @ jac, -(jac.T @ res.ravel()))


def _reference_rows(m, kf_index, free_mps):
    """(kf slot, observer pose, range, bearing) per residual pair, in
    (map point, observer) order, built one observation at a time."""
    rows = []
    for mid in free_mps:
        for kid in sorted(m.map_points[mid].observers):
            kf = m.keyframes.get(kid)
            if kf is None or mid not in kf.observations:
                continue
            o = kf.observations[mid]
            slot = kf_index.get(kid, -1)
            pose = (kf.pose.x, kf.pose.y, kf.pose.theta) if slot < 0 else (0.0,) * 3
            rows.append((slot, *pose, o.range, o.bearing))
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
    assert p.free_mps == free_mps

    kf_index = {kid: i for i, kid in enumerate(free_kfs)}
    ref = _reference_rows(m, kf_index, free_mps)
    got = list(zip(p.kf_slot.tolist(), p.fixed_x.tolist(), p.fixed_y.tolist(),
                   p.fixed_t.tolist(), p.obs_range.tolist(),
                   p.obs_bearing.tolist()))
    assert got == ref

    x = p.pack()
    x = x + rng.normal(0.0, 0.01, x.shape)
    got_blocks = p.blocks(x)
    ref_blocks = _reference_blocks(p, x)
    for name, a, b in zip(("U", "V", "W", "g_kf", "g_mp"), got_blocks,
                          ref_blocks):
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name

    p.unpack(x)
    for i, kid in enumerate(free_kfs):
        pose = m.keyframes[kid].pose
        assert (pose.x, pose.y) == (x[3 * i], x[3 * i + 1])
        assert pose.theta == wrap_angle(float(x[3 * i + 2]))
    base = 3 * len(free_kfs)
    for i, mid in enumerate(free_mps):
        mp = m.map_points[mid]
        assert (mp.x, mp.y) == (x[base + 2 * i], x[base + 2 * i + 1])


def _place_near(m, kf_id, mid, distance):
    """Move a map point to `distance` metres from a keyframe."""
    pose = m.keyframes[kf_id].pose
    mp = m.map_points[mid]
    mp.x, mp.y = pose.x + distance, pose.y


@pytest.mark.parametrize("case", ["anchors", "no_free_keyframe", "guard"])
def test_schur_step_matches_dense_solve(case):
    alloc = IdAllocator(1)
    landmarks = grid_landmarks(40, spacing=0.9)
    rng = np.random.default_rng(31)
    m, _ = build_chain(5, landmarks, alloc, rng=rng, sigma_r=0.02, sigma_b=0.01)
    kfs = sorted(m.keyframes)
    free_kfs = [] if case == "no_free_keyframe" else kfs[2:]
    free_mps = sorted(m.map_points)
    n_pairs = sum(len(m.map_points[mid].observers) for mid in free_mps)
    if case == "guard":
        shared = next(mid for mid in free_mps
                      if kfs[-1] in m.map_points[mid].observers
                      and len(m.map_points[mid].observers) > 2)
        _place_near(m, kfs[-1], shared, 1e-6)
    p = _Problem(m, free_kfs, free_mps)
    assert p.n_obs == n_pairs - (case == "guard")
    assert p.free_mps == free_mps

    x = p.pack()
    x = x + rng.normal(0.0, 0.01, x.shape)
    got = p.step(x)
    want = _dense_step(p, x)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_guard_drops_near_pairs_and_orphaned_points():
    alloc = IdAllocator(1)
    landmarks = grid_landmarks(40, spacing=0.9)
    rng = np.random.default_rng(13)
    m, _ = build_chain(4, landmarks, alloc, rng=rng, sigma_r=0.01, sigma_b=0.005)
    kfs = sorted(m.keyframes)
    center = kfs[-1]
    observers = {mid: m.map_points[mid].observers for mid in m.map_points}
    shared = next(mid for mid in sorted(observers)
                  if center in observers[mid] and len(observers[mid]) > 2)
    _place_near(m, center, shared, 1e-6)
    # A point back-projected from a range reading clamped to 1e-6 m.
    lone = max(m.map_points) + 1
    m.add_point(MapPoint(lone, 0.0, 0.0, 999))
    m.set_observations(center, observation_rows(m.keyframes[center].observations)
                       + [(lone, 999, 1e-6, 0.0)])
    assert m.map_points[lone].observers == (center,)
    assert m.keyframes[center].observations[lone] == Observation(999, 1e-6, 0.0)
    _place_near(m, center, lone, 1e-6)
    lone_xy = (m.map_points[lone].x, m.map_points[lone].y)

    window = sorted({center, *covis.strongest_covisible(m, center, 5)})
    free_kfs = window[1:]
    free_mps = sorted({mid for k in window for mid in m.keyframes[k].observations})
    local_bundle_adjust(m, center, 5)

    # The orphaned point is no variable; the rest is the least-squares
    # optimum over the observations that remain.
    assert (m.map_points[lone].x, m.map_points[lone].y) == lone_xy
    kept_mps = [mid for mid in free_mps if mid != lone]
    x_star, kf_index, mp_index = scipy_oracle(
        m, free_kfs, kept_mps, skip={(center, shared)})
    for k, c in kf_index.items():
        pose = m.keyframes[k].pose
        assert abs(pose.x - x_star[c]) < 1e-6
        assert abs(pose.y - x_star[c + 1]) < 1e-6
        assert abs(wrap_angle(pose.theta - x_star[c + 2])) < 1e-6
    for p, c in mp_index.items():
        mp = m.map_points[p]
        assert abs(mp.x - x_star[c]) < 1e-6
        assert abs(mp.y - x_star[c + 1]) < 1e-6


def _chain_state(m):
    """Every pose and point coordinate of a map, as bytes."""
    kfs = [(kf.pose.x, kf.pose.y, kf.pose.theta)
           for _, kf in sorted(m.keyframes.items())]
    mps = [(mp.x, mp.y) for _, mp in sorted(m.map_points.items())]
    return np.array(kfs).tobytes() + np.array(mps).tobytes()


def _recorded_gba(m, monkeypatch):
    """Run global_bundle_adjust on m, recording every reduced system S
    handed to the Cholesky factorization and every step."""
    systems, steps = [], []
    cholesky, step = np.linalg.cholesky, bundle._Problem.step

    def recording_cholesky(a):
        systems.append(a.copy())
        return cholesky(a)

    def recording_step(self, x):
        out = step(self, x)
        steps.append(out.copy())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "cholesky", recording_cholesky)
        patch.setattr(bundle._Problem, "step", recording_step)
        global_bundle_adjust(m)
    return systems, steps


def _noisy_chain(n_kfs, n_landmarks, seed):
    m, _ = build_chain(n_kfs, grid_landmarks(n_landmarks, spacing=0.9),
                       IdAllocator(1), rng=np.random.default_rng(seed),
                       sigma_r=0.02, sigma_b=0.01)
    return m


def _gba_problem(m):
    kfs = sorted(m.keyframes)
    return _Problem(m, [k for k in kfs if k != m.origin_kf],
                    sorted(m.map_points))


def test_row_blocks_sum_s_bitwise_as_one_block(monkeypatch):
    one = _noisy_chain(8, 40, seed=41)
    split = _noisy_chain(8, 40, seed=41)
    assert _chain_state(one) == _chain_state(split)
    p = _gba_problem(one)
    assert len(p._blocks) == 1
    # The origin's rows are fixed anchors beside the free ones.
    assert p.free_mask.any() and not p.free_mask.all()
    systems_one, steps_one = _recorded_gba(one, monkeypatch)

    monkeypatch.setattr(bundle, "SCHUR_BLOCK_PAIRS", 600)
    blocks = _gba_problem(split)._blocks
    assert len(blocks) >= 3 and any(hi - lo > 1 for lo, hi in blocks)
    systems_split, steps_split = _recorded_gba(split, monkeypatch)

    assert len(systems_one) == len(systems_split) > 1
    for a, b in zip(systems_one, systems_split):
        assert a.tobytes() == b.tobytes()
    assert len(steps_one) == len(steps_split)
    for a, b in zip(steps_one, steps_split):
        assert a.tobytes() == b.tobytes()
    assert _chain_state(one) == _chain_state(split)


def test_gba_peak_memory_is_bounded_by_the_row_blocks():
    m = _noisy_chain(30, 64, seed=43)
    p = _gba_problem(m)
    n_pairs = int(np.bincount(p.free_mp)[p.free_mp].sum())
    assert n_pairs >= 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        global_bundle_adjust(m)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Row blocks trace about 2.1 MB here; summing every pair at once
    # traced 18.4 MB.
    assert peak < 6e6, peak
