"""Gauss-Newton bundle adjustment over poses and landmarks.

Local adjustment optimizes a covisibility window around a center
keyframe; global adjustment optimizes a whole map. Both minimize squared
range-bearing residuals with a step-halving line search, so accepted
iterations never increase cost. A failed Cholesky factorization on the
first iteration reports a singular system and leaves the map intact.

A problem is gathered from the map once, in one pass over its free map
points, into flat per-residual arrays; the destination of every entry of
the normal equations is computed then too. Each iteration forms the
per-observation 2x5 Jacobian blocks as arrays and sums them into a dense
J^T J and J^T r with ``np.bincount``, which adds in index order, and the
dense system is solved through its Cholesky factor.
"""

from __future__ import annotations

import math

import numpy as np

from meshslam.core import covis
from meshslam.core.types import Map, SingularSystem
from meshslam.geometry import Pose2, wrap_angle
from meshslam.ids import KeyFrameId

LBA_MAX_ITERS = 10
LBA_COVISIBLE = 5  # strongest covisible keyframes in a local window
GBA_MAX_ITERS = 20
REL_TOL = 1e-6
MAX_HALVINGS = 12


class _Problem:
    """Packed variables and observation index arrays for one adjustment.

    Variables: 3 per free keyframe pose then 2 per free map point.
    Residuals: every observation of a free map point, by free or fixed
    (anchor) keyframes, in deterministic (map point, observer) order.
    """

    def __init__(self, m: Map, free_kfs: list[KeyFrameId], free_mps: list[int]):
        self.map = m
        self.free_kfs = free_kfs
        self.free_mps = free_mps
        self.kf_index = {kid: 3 * i for i, kid in enumerate(free_kfs)}
        base = 3 * len(free_kfs)
        self.mp_index = {mid: base + 2 * i for i, mid in enumerate(free_mps)}
        self.n_vars = base + 2 * len(free_mps)

        # One row per residual pair: (kf column or -1, point column,
        # observer pose x, y, theta, range, bearing).
        rows: list[tuple] = []
        append = rows.append
        keyframes_get = m.keyframes.get
        kf_index_get = self.kf_index.get
        for mid in free_mps:
            mp_col = self.mp_index[mid]
            for kid in sorted(m.map_points[mid].observers):
                kf = keyframes_get(kid)
                if kf is None:
                    continue
                o = kf.observations.get(mid)
                if o is None:
                    continue
                p = kf.pose
                append((kf_index_get(kid, -1), mp_col, p.x, p.y, p.theta,
                        o.range, o.bearing))

        self.n_obs = len(rows)
        table = np.array(rows, dtype=float).reshape(self.n_obs, 7).T
        self.kf_col = table[0].astype(int)
        self.mp_col = table[1].astype(int)
        self.free_mask = self.kf_col >= 0
        self.any_free = bool(self.free_mask.any())
        # The gather index of _geometry: fixed rows read column 0 and are
        # then replaced by their own pose.
        self._safe_col = np.where(self.free_mask, self.kf_col, 0)
        self.fixed_x = np.where(self.free_mask, 0.0, table[2])
        self.fixed_y = np.where(self.free_mask, 0.0, table[3])
        self.fixed_t = np.where(self.free_mask, 0.0, table[4])
        self.obs_range = table[5].copy()
        self.obs_bearing = table[6].copy()

        # Where each 2x5 Jacobian block lands: columns [kf.x, kf.y,
        # kf.theta, mp.x, mp.y]. A fixed observer's pose columns point at
        # 0 and carry zeroed entries, which accumulate harmlessly.
        cols = np.empty((self.n_obs, 5), dtype=int)
        cols[:, 0] = self.kf_col
        cols[:, 1] = self.kf_col + 1
        cols[:, 2] = self.kf_col + 2
        cols[:, 3] = self.mp_col
        cols[:, 4] = self.mp_col + 1
        self.fixed_mask = ~self.free_mask
        self.any_fixed = bool(self.fixed_mask.any())
        if self.any_fixed:
            cols[self.fixed_mask, 0:3] = 0
        nv = self.n_vars
        self._jtr_index = cols.ravel()
        self._jtj_index = (cols[:, :, None] * nv + cols[:, None, :]).ravel()

    def pack(self) -> np.ndarray:
        values: list[float] = []
        keyframes, map_points = self.map.keyframes, self.map.map_points
        for kid in self.free_kfs:
            p = keyframes[kid].pose
            values += (p.x, p.y, p.theta)
        for mid in self.free_mps:
            mp = map_points[mid]
            values += (mp.x, mp.y)
        return np.array(values, dtype=float)

    def unpack(self, x: np.ndarray) -> None:
        values = x.tolist()
        keyframes, map_points = self.map.keyframes, self.map.map_points
        for i, kid in enumerate(self.free_kfs):
            c = 3 * i
            keyframes[kid].pose = Pose2(values[c], values[c + 1],
                                        wrap_angle(values[c + 2]))
        base = 3 * len(self.free_kfs)
        for i, mid in enumerate(self.free_mps):
            c = base + 2 * i
            mp = map_points[mid]
            mp.x, mp.y = values[c], values[c + 1]

    def _geometry(self, x: np.ndarray):
        if self.any_free:
            safe = self._safe_col
            kx = np.where(self.free_mask, x[safe], self.fixed_x)
            ky = np.where(self.free_mask, x[safe + 1], self.fixed_y)
            kt = np.where(self.free_mask, x[safe + 2], self.fixed_t)
        else:
            kx, ky, kt = self.fixed_x, self.fixed_y, self.fixed_t
        px = x[self.mp_col]
        py = x[self.mp_col + 1]
        dx = px - kx
        dy = py - ky
        q = dx * dx + dy * dy
        return dx, dy, q, np.sqrt(q), kt

    def residuals(self, x: np.ndarray) -> np.ndarray:
        dx, dy, q, r, kt = self._geometry(x)
        res = np.empty(2 * self.n_obs)
        res[0::2] = r - self.obs_range
        bearing = np.arctan2(dy, dx) - kt - self.obs_bearing
        res[1::2] = np.mod(bearing + np.pi, 2.0 * np.pi) - np.pi
        return res

    def cost(self, x: np.ndarray) -> float:
        res = self.residuals(x)
        return float(res @ res)

    def normal_equations(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assemble J^T J and J^T r from per-observation 2x5 blocks."""
        dx, dy, q, r, kt = self._geometry(x)
        res_r = r - self.obs_range
        bearing = np.arctan2(dy, dx) - kt - self.obs_bearing
        res_b = np.mod(bearing + np.pi, 2.0 * np.pi) - np.pi

        n = self.n_obs
        inv_r = 1.0 / r
        inv_q = 1.0 / q

        # Block columns: [kf.x, kf.y, kf.theta, mp.x, mp.y]
        blocks = np.zeros((n, 2, 5))
        blocks[:, 0, 0] = -dx * inv_r
        blocks[:, 0, 1] = -dy * inv_r
        blocks[:, 0, 3] = dx * inv_r
        blocks[:, 0, 4] = dy * inv_r
        blocks[:, 1, 0] = dy * inv_q
        blocks[:, 1, 1] = -dx * inv_q
        blocks[:, 1, 2] = -1.0
        blocks[:, 1, 3] = -dy * inv_q
        blocks[:, 1, 4] = dx * inv_q

        if self.any_fixed:
            blocks[self.fixed_mask, :, 0:3] = 0.0

        jtj_blocks = np.einsum("nij,nik->njk", blocks, blocks)
        r2 = np.stack([res_r, res_b], axis=1)
        jtr_blocks = np.einsum("nij,ni->nj", blocks, r2)

        # bincount adds its weights in index order, one after another from
        # zero, so each entry sums the same terms in the same order as a
        # per-observation scatter-add would.
        nv = self.n_vars
        jtj = np.bincount(self._jtj_index, weights=jtj_blocks.ravel(),
                          minlength=nv * nv).reshape(nv, nv)
        jtr = np.bincount(self._jtr_index, weights=jtr_blocks.ravel(),
                          minlength=nv)
        return jtj, jtr


def _solve(problem: _Problem, max_iters: int) -> None:
    """Run Gauss-Newton to convergence or the iteration cap.

    Raises SingularSystem (state untouched) when the first normal system
    cannot be factorized.
    """
    if problem.n_vars == 0:
        return
    if problem.n_obs == 0:
        raise SingularSystem("no observations constrain the free variables")
    x = problem.pack()
    cost = problem.cost(x)
    if cost == 0.0:
        return
    for it in range(max_iters):
        jtj, jtr = problem.normal_equations(x)
        try:
            ell = np.linalg.cholesky(jtj)
        except np.linalg.LinAlgError:
            if it == 0:
                raise SingularSystem("rank-deficient normal equations") from None
            break
        z = np.linalg.solve(ell, -jtr)
        delta = np.linalg.solve(ell.T, z)
        step = 1.0
        new_cost = problem.cost(x + delta)
        halvings = 0
        while new_cost >= cost and halvings < MAX_HALVINGS:
            step *= 0.5
            halvings += 1
            new_cost = problem.cost(x + step * delta)
        if new_cost >= cost:
            break  # line search exhausted; stay at current optimum
        x = x + step * delta
        decreased = cost - new_cost
        cost = new_cost
        if decreased < REL_TOL * max(cost, 1e-300):
            break
    problem.unpack(x)


def local_bundle_adjust(m: Map, center: KeyFrameId,
                        n_covisible: int = LBA_COVISIBLE
                        ) -> tuple[set[KeyFrameId], set[int]]:
    """Optimize the window around center; returns the dirtied entity ids.

    The window is center plus its strongest covisible keyframes; every
    map point they observe is free. Keyframes outside the window that
    observe those points act as fixed anchors, and the oldest keyframe
    inside the window is held fixed to pin the gauge.
    """
    if center not in m.keyframes:
        raise KeyError(f"center {center} not in map")
    window = sorted({center, *covis.strongest_covisible(m, center, n_covisible)})
    oldest = window[0]
    free_kfs = [k for k in window if k != oldest]

    mp_ids: set[int] = set()
    for kid in window:
        mp_ids |= set(m.keyframes[kid].observations)
    free_mps = sorted(mid for mid in mp_ids if mid in m.map_points)

    problem = _Problem(m, free_kfs, free_mps)
    _solve(problem, LBA_MAX_ITERS)
    return set(window), set(free_mps)


def global_bundle_adjust(m: Map) -> tuple[set[KeyFrameId], set[int]]:
    """Optimize all poses and points of a map with its origin fixed.

    Marks the map as having had its initial keyframes optimized; every
    keyframe and point id is returned as dirtied even when already at the
    optimum, so that the flag flip still replicates.
    """
    all_kfs = sorted(m.keyframes)
    free_kfs = [k for k in all_kfs if k != m.origin_kf]
    free_mps = sorted(m.map_points)
    problem = _Problem(m, free_kfs, free_mps)
    _solve(problem, GBA_MAX_ITERS)
    m.initialized_optimized = True
    return set(all_kfs), set(free_mps)


def track_pose(kf_obs: list[tuple[float, float, float, float]], init: Pose2,
               max_iters: int = 20) -> tuple[Pose2, bool]:
    """Pose-only Gauss-Newton over fixed landmark positions.

    kf_obs rows are (landmark_x, landmark_y, range, bearing). Returns
    (pose, diverged); diverged is set after three consecutive cost
    increases, with the best-cost iterate kept.
    """
    lx = np.array([o[0] for o in kf_obs])
    ly = np.array([o[1] for o in kf_obs])
    obs_r = np.array([o[2] for o in kf_obs])
    obs_b = np.array([o[3] for o in kf_obs])
    n_res = 2 * len(lx)

    def residuals(px: float, py: float, pt: float):
        """Residuals at a pose, with the landmark offsets they came from."""
        ddx, ddy = lx - px, ly - py
        r = np.hypot(ddx, ddy)
        res = np.empty(n_res)
        res[0::2] = r - obs_r
        bearing = np.arctan2(ddy, ddx) - pt - obs_b
        res[1::2] = np.mod(bearing + np.pi, 2.0 * np.pi) - np.pi
        return res, ddx, ddy

    # The Jacobian's theta column is constant; the others are refilled
    # at every iterate.
    jac = np.empty((n_res, 3))
    jac[0::2, 2] = 0.0
    jac[1::2, 2] = -1.0

    x, y, t = init.x, init.y, init.theta
    best = (x, y, t)
    res, ddx, ddy = residuals(x, y, t)
    cost = float(res @ res)
    best_cost = cost
    increases = 0
    for _ in range(max_iters):
        q = ddx * ddx + ddy * ddy
        r = np.sqrt(q)
        jac[0::2, 0] = -ddx / r
        jac[0::2, 1] = -ddy / r
        jac[1::2, 0] = ddy / q
        jac[1::2, 1] = -ddx / q
        jtj = jac.T @ jac
        try:
            delta = np.linalg.solve(jtj, -(jac.T @ res))
        except np.linalg.LinAlgError:
            return Pose2(*best).normalized(), True
        x, y, t = x + delta[0], y + delta[1], t + delta[2]
        res, ddx, ddy = residuals(x, y, t)
        new_cost = float(res @ res)
        if new_cost > cost:
            increases += 1
            if increases >= 3:
                return Pose2(*best).normalized(), True
        else:
            increases = 0
            if new_cost < best_cost:
                best_cost = new_cost
                best = (x, y, t)
            if cost - new_cost < REL_TOL * max(new_cost, 1e-300):
                cost = new_cost
                break
        cost = new_cost
    return Pose2(*best).normalized(), False


def map_cost(m: Map) -> float:
    """Total squared residual of a map (diagnostic, used by invariants)."""
    total = 0.0
    for kf in m.keyframes.values():
        for mid, o in kf.observations.items():
            mp = m.map_points.get(mid)
            if mp is None:
                continue
            ddx, ddy = mp.x - kf.pose.x, mp.y - kf.pose.y
            rng = math.hypot(ddx, ddy)
            brg = wrap_angle(math.atan2(ddy, ddx) - kf.pose.theta - o.bearing)
            total += (rng - o.range) ** 2 + brg ** 2
    return total
