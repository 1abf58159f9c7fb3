"""Gauss-Newton bundle adjustment over poses and landmarks.

Local adjustment optimizes a covisibility window around a center
keyframe; global adjustment optimizes a whole map. Both minimize squared
range-bearing residuals with a step-halving line search, so accepted
iterations never increase cost. A first iteration whose point blocks or
reduced system are not positive definite reports a singular system and
leaves the map intact.

A problem is gathered from the map once into flat per-residual arrays:
one pass walks the observers of the free map points in ascending id
order and reads each one's observation columns, keeping the rows of
free points, and a counting pass then places the rows point by point,
each point's rows in ascending observer order. Ranges and bearings are
taken by indexing the columns, so the gather builds neither a Python
number per row nor a lookup table per keyframe, which would add to the
peak memory of a loop closure's adjustment. An observation whose
observer stands closer than ``MIN_BA_RANGE`` to its point is left out,
since its bearing Jacobian grows as the inverse of that distance, and a
free point left with no observation is not a variable. Each iteration
writes the products of every observation's 2x5 Jacobian block in closed
form and sums them with ``np.bincount``, which adds in index order, into
3x3 pose blocks U, 2x2 point blocks V, one 3x2 pose-point block W per
observation by a free keyframe, and the two gradient halves. The step
eliminates the points (Triggs et al., "Bundle Adjustment - A Modern
Synthesis", 1999, section 6): each V is inverted in closed form, the
reduced pose system S = U - W V^-1 W^T is summed over every ordered pair
of free observations sharing a point, only S is Cholesky-factorized, and
the point steps follow by back-substitution.

A loop closure's adjustment has tens of thousands of such pairs, and each
pair's indices and 3x3 product take a few hundred bytes, so the pairs are
never built for the whole problem at once. The step walks blocks of
consecutive free poses, each holding at most ``SCHUR_BLOCK_PAIRS`` pairs
(a local window fits in one): it builds the pairs whose first observation
is by a pose of the block, in the order a whole-problem list would hold
them, and sums them with one ``bincount`` into that block's rows of S. A
block is a set of S rows because a pair lands in the row of its first
pose: every entry of S then gets all of its terms from one block, summed
in the same order as in one whole-problem ``bincount``, so S is the same
to the bit whatever the block size.
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
MIN_BA_RANGE = 1e-3  # m; a nearer observation is left out of the problem
SCHUR_BLOCK_PAIRS = 4096  # free-row pairs summed into S per row block


class _Problem:
    """Packed variables, observation arrays and block indices for one
    adjustment.

    Variables: 3 per free keyframe pose then 2 per free map point that
    keeps an observation. Residuals: every observation of a free map
    point, by free or fixed (anchor) keyframes, in deterministic (map
    point, observer) order, except those closer than MIN_BA_RANGE.
    """

    def __init__(self, m: Map, free_kfs: list[KeyFrameId], free_mps: list[int]):
        self.map = m
        self.free_kfs = free_kfs
        n_kfs = len(free_kfs)
        kf_slot = {kid: i for i, kid in enumerate(free_kfs)}

        # The observers of the free points, walked once in ascending id
        # order: each one's rows of free points, with the point's index in
        # free_mps, and its pose.
        map_points, keyframes_get = m.map_points, m.keyframes.get
        points = [map_points[mid] for mid in free_mps]
        point_index = {mid: j for j, mid in enumerate(free_mps)}.get
        observers: set[KeyFrameId] = set()
        for mp in points:
            observers.update(mp.observers)
        sources: list[tuple[int, float, float, float]] = []  # slot, pose
        per_source: list[int] = []
        row_point: list[int] = []
        ranges, bearings = [np.empty(0)], [np.empty(0)]
        for kid in sorted(observers):
            kf = keyframes_get(kid)
            if kf is None:
                continue
            p = kf.pose
            rows = []
            for row, mid in enumerate(kf.mp_ids.tolist()):
                j = point_index(mid)
                if j is None:
                    continue
                mp = points[j]
                if (kid not in mp.observers
                        or math.hypot(mp.x - p.x, mp.y - p.y) < MIN_BA_RANGE):
                    continue
                rows.append(row)
                row_point.append(j)
            if rows:
                sources.append((kf_slot.get(kid, -1), p.x, p.y, p.theta))
                per_source.append(len(rows))
                ranges.append(kf.ranges[rows])
                bearings.append(kf.bearings[rows])
        # Rows go point-major, each point's rows in ascending observer order
        # as walked: a counting pass gives every row its place.
        per_point = np.bincount(np.array(row_point, dtype=np.intp),
                                minlength=len(free_mps))
        place = (np.cumsum(per_point) - per_point).tolist()
        order = [0] * len(row_point)
        for i, j in enumerate(row_point):
            order[place[j]] = i
            place[j] += 1
        order = np.array(order, dtype=np.intp)
        # A free point left with no row is no variable.
        kept = per_point > 0
        self.free_mps = [mid for mid, keep in zip(free_mps, kept.tolist())
                         if keep]
        n_mps = len(self.free_mps)
        self.n_vars = 3 * n_kfs + 2 * n_mps

        self.n_obs = len(order)
        source = np.repeat(np.array(sources, dtype=float).reshape(-1, 4),
                           per_source, axis=0)[order]
        self.kf_slot = source[:, 0].astype(int)
        self.mp_slot = np.repeat(np.arange(n_mps), per_point[kept])
        self.free_mask = self.kf_slot >= 0
        self.any_free = bool(self.free_mask.any())
        # The gather index of _geometry: fixed rows read slot 0 and are
        # then replaced by their own pose.
        self._kf_col = 3 * np.where(self.free_mask, self.kf_slot, 0)
        self._mp_col = 3 * n_kfs + 2 * self.mp_slot
        self.fixed_x = np.where(self.free_mask, 0.0, source[:, 1])
        self.fixed_y = np.where(self.free_mask, 0.0, source[:, 2])
        self.fixed_t = np.where(self.free_mask, 0.0, source[:, 3])
        self.obs_range = np.concatenate(ranges)[order]
        self.obs_bearing = np.concatenate(bearings)[order]

        # Rows observed by a free keyframe, with their slots. Rows come in
        # point order, so the free rows of one point are contiguous.
        self.free_rows = np.flatnonzero(self.free_mask)
        self.free_kf = self.kf_slot[self.free_rows]
        self.free_mp = self.mp_slot[self.free_rows]

        self._rows_per_kf = np.bincount(self.free_kf,
                                        minlength=n_kfs).astype(float)
        # Where the step's per-row pose and point terms land when summed.
        self._g_kf_index = (3 * self.free_kf[:, None] + np.arange(3)).ravel()
        self._free_g_mp_index = (2 * self.free_mp[:, None]
                                 + np.arange(2)).ravel()

        # Every ordered pair (a, b) of free rows that share a point enters
        # S at (pose a, pose b); b runs over the free rows of a's point,
        # which start at free row _first[a] and number _group[a].
        per_point = np.bincount(self.free_mp, minlength=n_mps)
        self._first = (np.cumsum(per_point) - per_point)[self.free_mp]
        self._group = per_point[self.free_mp]
        # Blocks of consecutive free poses, each closed before its pairs
        # would pass SCHUR_BLOCK_PAIRS (a pose with more is a block alone).
        pairs_per_kf = np.bincount(self.free_kf, weights=self._group,
                                   minlength=n_kfs).astype(int)
        starts: list[int] = []
        count = 0
        for kf, n in enumerate(pairs_per_kf.tolist()):
            if not starts or (count and count + n > SCHUR_BLOCK_PAIRS):
                starts.append(kf)
                count = 0
            count += n
        self._blocks = list(zip(starts, starts[1:] + [n_kfs]))
        self._last_block: tuple = (None, None)

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
            col = self._kf_col
            kx = np.where(self.free_mask, x[col], self.fixed_x)
            ky = np.where(self.free_mask, x[col + 1], self.fixed_y)
            kt = np.where(self.free_mask, x[col + 2], self.fixed_t)
        else:
            kx, ky, kt = self.fixed_x, self.fixed_y, self.fixed_t
        px = x[self._mp_col]
        py = x[self._mp_col + 1]
        dx = px - kx
        dy = py - ky
        q = dx * dx + dy * dy
        return dx, dy, q, np.sqrt(q), kt

    def _residual_pairs(self, dx, dy, r, kt) -> np.ndarray:
        """(range, bearing) residual per observation, shape (n_obs, 2)."""
        res = np.empty((self.n_obs, 2))
        res[:, 0] = r - self.obs_range
        bearing = np.arctan2(dy, dx) - kt - self.obs_bearing
        res[:, 1] = np.mod(bearing + np.pi, 2.0 * np.pi) - np.pi
        return res

    def residuals(self, x: np.ndarray) -> np.ndarray:
        dx, dy, q, r, kt = self._geometry(x)
        return self._residual_pairs(dx, dy, r, kt).ravel()

    def cost(self, x: np.ndarray) -> float:
        res = self.residuals(x)
        return float(res @ res)

    def blocks(self, x: np.ndarray):
        """The normal equations in blocks: U (F, 3, 3), V (P, 2, 2), W
        (one 3x2 per free row), and the gradient halves J^T r of poses
        (F, 3) and points (P, 2).

        An observation's residual has the Jacobian J_mp = [[a, b], [-c, d]]
        in its point, with (a, b) = (dx, dy) / r and (c, d) = (dy, dx) / r^2,
        and J_kf = [[-a, -b, 0], [c, -d, -1]] in its observer's pose. So
        every block entry is an entry of J_mp^T J_mp or J_mp^T r, or c, d or
        the bearing residual, up to sign.
        """
        dx, dy, q, r, kt = self._geometry(x)
        res = self._residual_pairs(dx, dy, r, kt)
        inv_r = 1.0 / r
        inv_q = 1.0 / q
        a, b = dx * inv_r, dy * inv_r
        c, d = dy * inv_q, dx * inv_q
        v00 = a * a + c * c
        v01 = a * b - c * d
        v11 = b * b + d * d
        g0 = a * res[:, 0] - c * res[:, 1]
        g1 = b * res[:, 0] + d * res[:, 1]

        # bincount adds its weights in index order, one after another from
        # zero, so each entry sums the same terms in the same order as a
        # per-observation scatter-add would.
        n_kfs, n_mps = len(self.free_kfs), len(self.free_mps)
        free = self.free_rows

        def per_point(values):
            return np.bincount(self.mp_slot, weights=values, minlength=n_mps)

        def per_pose(values):
            return np.bincount(self.free_kf, weights=values[free],
                               minlength=n_kfs)

        v = np.empty((n_mps, 2, 2))
        v[:, 0, 0] = per_point(v00)
        v[:, 0, 1] = v[:, 1, 0] = per_point(v01)
        v[:, 1, 1] = per_point(v11)
        g_mp = np.stack([per_point(g0), per_point(g1)], axis=1)

        u = np.empty((n_kfs, 3, 3))
        u[:, 0, 0] = per_pose(v00)
        u[:, 0, 1] = u[:, 1, 0] = per_pose(v01)
        u[:, 1, 1] = per_pose(v11)
        u[:, 0, 2] = u[:, 2, 0] = -per_pose(c)
        u[:, 1, 2] = u[:, 2, 1] = per_pose(d)
        u[:, 2, 2] = self._rows_per_kf
        g_kf = -np.stack([per_pose(g0), per_pose(g1), per_pose(res[:, 1])],
                         axis=1)

        w = np.empty((len(free), 3, 2))
        w[:, 0, 0] = -v00[free]
        w[:, 0, 1] = w[:, 1, 0] = -v01[free]
        w[:, 1, 1] = -v11[free]
        w[:, 2, 0] = c[free]
        w[:, 2, 1] = -d[free]
        return u, v, w, g_kf, g_mp

    def step(self, x: np.ndarray) -> np.ndarray:
        """The Gauss-Newton step, with the points eliminated.

        Raises np.linalg.LinAlgError when a point block or the reduced
        pose system is not positive definite.
        """
        u, v, w, g_kf, g_mp = self.blocks(x)
        v00, v01, v11 = v[:, 0, 0], v[:, 0, 1], v[:, 1, 1]
        det = v00 * v11 - v01 * v01
        if not ((v00 > 0.0) & (det > 0.0)).all():
            raise np.linalg.LinAlgError("point block not positive definite")
        i00, i01, i11 = v11 / det, -v01 / det, v00 / det

        # Reduced system S d_kf = W V^-1 g_mp - g_kf, with
        # S = U - W V^-1 W^T summed pair by pair, one row block at a time.
        at = self.free_mp
        wv = np.empty_like(w)
        wv[:, :, 0] = w[:, :, 0] * i00[at, None] + w[:, :, 1] * i01[at, None]
        wv[:, :, 1] = w[:, :, 0] * i01[at, None] + w[:, :, 1] * i11[at, None]
        n_kfs = len(self.free_kfs)
        side = 3 * n_kfs
        s = np.zeros((n_kfs, 3, n_kfs, 3))
        diag = np.arange(n_kfs)
        s[diag, :, diag, :] = u
        s = s.reshape(side, side)
        for lo, hi in self._blocks:
            block = s[3 * lo:3 * hi]  # a view: this writes the rows of s
            block -= self._pair_sums(wv, w, lo, hi)
        g_at = g_mp[at]
        wv_g = wv[:, :, 0] * g_at[:, 0, None] + wv[:, :, 1] * g_at[:, 1, None]
        rhs = np.bincount(self._g_kf_index, weights=wv_g.ravel(),
                          minlength=side) - g_kf.ravel()
        ell = np.linalg.cholesky(s)
        d_kf = np.linalg.solve(ell.T, np.linalg.solve(ell, rhs))

        # Back-substitution, point by point: V d_mp = -(g_mp + W^T d_kf).
        d_at = d_kf.reshape(n_kfs, 3)[self.free_kf]
        wt_d = (w[:, 0, :] * d_at[:, 0, None] + w[:, 1, :] * d_at[:, 1, None]
                + w[:, 2, :] * d_at[:, 2, None])
        h = g_mp + np.bincount(self._free_g_mp_index, weights=wt_d.ravel(),
                               minlength=g_mp.size).reshape(g_mp.shape)
        d_mp = np.stack([i00 * h[:, 0] + i01 * h[:, 1],
                         i01 * h[:, 0] + i11 * h[:, 1]], axis=1)
        return np.concatenate([d_kf, -d_mp.ravel()])

    def _block_pairs(self, lo: int, hi: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs (a, b) whose row a is observed by a pose in [lo, hi),
        in (a, b) order, and where each entry of their 3x3 blocks lands in
        the block's rows of S, raveled. The last block built is kept, so a
        one-block problem builds its pairs once."""
        if self._last_block[0] != (lo, hi):
            kf = self.free_kf
            a = np.flatnonzero((kf >= lo) & (kf < hi))
            group = self._group[a]
            pair_a = np.repeat(a, group)
            rank = np.arange(len(pair_a)) - np.repeat(
                np.cumsum(group) - group, group)
            pair_b = np.repeat(self._first[a], group) + rank
            # Entry (i, j) of a pair's block lands at row 3 (pose a - lo) + i
            # and column 3 pose b + j of the block's rows.
            side = 3 * len(self.free_kfs)
            corner = 3 * (kf[pair_a] - lo) * side + 3 * kf[pair_b]
            index = (corner[:, None]
                     + (side * np.arange(3)[:, None] + np.arange(3)).ravel())
            self._last_block = ((lo, hi), (pair_a, pair_b, index.ravel()))
        return self._last_block[1]

    def _pair_sums(self, wv: np.ndarray, w: np.ndarray, lo: int, hi: int
                   ) -> np.ndarray:
        """Rows 3 lo .. 3 hi of the sum of W_a V^-1 W_b^T over the block's
        pairs, shape (3 (hi - lo), 3 F)."""
        pair_a, pair_b, index = self._block_pairs(lo, hi)
        wv_a, w_b = wv[pair_a], w[pair_b]
        pairs = (wv_a[:, :, None, 0] * w_b[:, None, :, 0]
                 + wv_a[:, :, None, 1] * w_b[:, None, :, 1])
        n_rows, side = 3 * (hi - lo), 3 * len(self.free_kfs)
        return np.bincount(index, weights=pairs.ravel(),
                           minlength=n_rows * side).reshape(n_rows, side)


def _solve(problem: _Problem, max_iters: int) -> None:
    """Run Gauss-Newton to convergence or the iteration cap.

    Raises SingularSystem (state untouched) when the first step cannot be
    factorized.
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
        try:
            delta = problem.step(x)
        except np.linalg.LinAlgError:
            if it == 0:
                raise SingularSystem("rank-deficient normal equations") from None
            break
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
        mp_ids.update(m.keyframes[kid].mp_ids.tolist())
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


def track_pose(lx: np.ndarray, ly: np.ndarray, obs_r: np.ndarray,
               obs_b: np.ndarray, init: Pose2,
               max_iters: int = 20) -> tuple[Pose2, bool]:
    """Pose-only Gauss-Newton over fixed landmark positions.

    Row i is landmark (lx[i], ly[i]) seen at range obs_r[i] and bearing
    obs_b[i]. Returns (pose, diverged); diverged is set after three
    consecutive cost increases, with the best-cost iterate kept.
    """
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
        for mid, obs_r, obs_b in zip(kf.mp_ids.tolist(), kf.ranges.tolist(),
                                     kf.bearings.tolist()):
            mp = m.map_points.get(mid)
            if mp is None:
                continue
            ddx, ddy = mp.x - kf.pose.x, mp.y - kf.pose.y
            rng = math.hypot(ddx, ddy)
            brg = wrap_angle(math.atan2(ddy, ddx) - kf.pose.theta - obs_b)
            total += (rng - obs_r) ** 2 + brg ** 2
    return total
