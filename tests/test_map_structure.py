"""The map's structure version, the tracker's window cache and the
keyframe observation columns, under every structural write."""

import functools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshslam.core import create_keyframe, initialize_map, merge_maps, track_frame
from meshslam.core.loops import _fuse_pair
from meshslam.core.tracker import TRACK_WINDOW, cached_window, window_landmarks
from meshslam.core.types import (
    CandidateKind,
    InsufficientOverlap,
    KeyFrame,
    LoopCandidate,
    MapPoint,
    Observation,
    TrackStatus,
)
from meshslam.geometry import Pose2
from meshslam.ids import IdAllocator, KeyFrameId, MapId
from meshslam.messages import BatchKind, NewKeyFramePayload
from meshslam.node import SlamNode
from meshslam.state import (
    SystemState,
    apply_map_batch,
    apply_new_keyframe,
    canonical_digest,
    note_fusions,
    note_merge,
    split_batches,
)

from conftest import make_frame, observation_rows

# Two parallel corridors of landmarks; each is driven by its own map until
# a merge joins them.
LANDMARKS = {i: (0.4 * (i % 30) - 1.6, 0.7 * (i // 30) - 1.0)
             for i in range(120)}
CORRIDORS = ([Pose2(0.5 * i, -0.4, 0.0) for i in range(12)],
             [Pose2(0.5 * i + 0.25, 1.3, 0.0) for i in range(12)])


def _frame(frame_id, pose, prev):
    only = {lm for lm, (x, y) in LANDMARKS.items()
            if math.hypot(x - pose.x, y - pose.y) <= 3.0}
    return make_frame(frame_id, pose, prev, LANDMARKS, only=only)


def check_structure(m):
    """The cached window equals a fresh one; columns are ascending and
    read-only; each point's observers are a strictly ascending tuple, and
    together exactly the inverse of the columns."""
    if m.keyframes:
        assert cached_window(m, TRACK_WINDOW) == window_landmarks(m, TRACK_WINDOW)
    observed = set()
    for kf in m.keyframes.values():
        columns = (kf.mp_ids, kf.landmark_ids, kf.ranges, kf.bearings)
        assert not any(c.flags.writeable for c in columns)
        ids = kf.mp_ids.tolist()
        assert all(a < b for a, b in zip(ids, ids[1:]))
        observed |= {(kf.id, mid) for mid in ids}
    for mp in m.map_points.values():
        assert type(mp.observers) is tuple
        assert all(a < b for a, b in zip(mp.observers, mp.observers[1:]))
    observers = {(kid, mid) for mid, mp in m.map_points.items()
                 for kid in mp.observers}
    assert observed == observers


class World:
    """A tracking side that builds maps and a replica fed by its messages."""

    def __init__(self):
        self.alloc = IdAllocator(1)
        self.src = SystemState()
        self.dst = SystemState()
        self.next_pose = [0, 0]
        self.last_kf = [None, None]
        self.outbox: list[NewKeyFramePayload] = []
        self.epoch = 0

    def maps(self):
        return [*self.src.slam.values(), *self.dst.slam.values()]

    def extend(self, corridor):
        """Initialize or extend the corridor's map by one keyframe."""
        poses, i = CORRIDORS[corridor], self.next_pose[corridor]
        if i >= len(poses):
            return
        if self.last_kf[corridor] is None:
            self.next_pose[corridor] = 2
            m = initialize_map(_frame(100 * corridor, poses[0], None),
                               _frame(100 * corridor + 1, poses[1], poses[0]),
                               self.alloc)
            self.src.register_map(m)
            self.last_kf[corridor] = max(m.keyframes)
            self.outbox += [SlamNode._new_kf_payload(m, m.keyframes[k])
                            for k in sorted(m.keyframes)]
            return
        self.next_pose[corridor] = i + 1
        kf = self.src.find_keyframe(self.last_kf[corridor])
        m = self.src.slam[kf.map_id]
        frame = _frame(100 * corridor + i, poses[i], poses[i - 1])
        tr = track_frame(m, kf.pose, frame)
        if tr.status is not TrackStatus.OK:
            return
        new, _ = create_keyframe(frame, tr, self.alloc, m)
        self.src.kf_map_index[new.id] = m.map_id
        self.last_kf[corridor] = new.id
        self.outbox.append(SlamNode._new_kf_payload(m, new))

    def replicate(self, order):
        """Deliver every pending keyframe message, in a drawn order."""
        pending, self.outbox = self.outbox, []
        for payload in order.sample(pending, len(pending)):
            apply_new_keyframe(self.dst, payload)

    def publish_global(self, m, kind, fused=(), absorbed=None):
        """Send a global update of m's current state to the replica."""
        self.epoch += 1
        batches = split_batches(m, kind, self.epoch, 0, sorted(m.keyframes),
                                sorted(m.map_points), [4], final=True,
                                fused=tuple(sorted(fused)),
                                absorbed_map=absorbed,
                                set_init_optimized=True)
        for batch in batches:
            apply_map_batch(self.dst, batch)

    def fuse(self, pick):
        """Fuse two points of one map, as a loop closure does."""
        m = self.src.slam[min(self.src.slam)]
        ids = sorted(m.map_points)
        a, b = ids[pick % len(ids)], ids[(pick * 7 + 1) % len(ids)]
        if a == b:
            return
        fused = dict([_fuse_pair(m, a, b)])
        note_fusions(self.src, fused)
        self.publish_global(m, BatchKind.LC, fused.items())

    def merge(self, order, deliver=True):
        """Merge the corridor maps, as the loop closer does, delivering
        the pending keyframes first or leaving them in flight."""
        if len(self.src.slam) < 2:
            return
        if deliver:
            self.replicate(order)
        a, b = sorted(self.src.slam)
        kf_id = max(self.src.slam[b].keyframes)
        cand = LoopCandidate(CandidateKind.MERGE, kf_id, max(
            self.src.slam[a].keyframes), a, 1.0)
        try:
            record = merge_maps(self.src.slam, cand)
        except InsufficientOverlap:
            return
        note_merge(self.src, record.absorbed_map, record.map_id)
        note_fusions(self.src, record.fused)
        self.publish_global(self.src.slam[record.map_id], BatchKind.MM,
                            record.fused.items(), record.absorbed_map)


OPS = ("extend_a", "extend_b", "replicate", "fuse", "merge", "merge_in_flight",
       "promote")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 10**6)),
                min_size=1, max_size=14),
       st.randoms(use_true_random=False))
def test_every_structural_write_moves_the_version(steps, order):
    world = World()
    world.extend(0)
    for op, pick in steps:
        # Warm every cache, so that a write which leaves the version
        # alone shows as a stale window below.
        for m in world.maps():
            if m.keyframes:
                cached_window(m, TRACK_WINDOW)
        if op == "extend_a":
            world.extend(0)
        elif op == "extend_b":
            world.extend(1)
        elif op == "replicate":
            world.replicate(order)
        elif op == "fuse":
            world.fuse(pick)
        elif op == "merge":
            world.merge(order)
        elif op == "merge_in_flight":
            world.merge(order, deliver=False)
        else:
            m = world.src.slam[min(world.src.slam)]
            world.publish_global(m, BatchKind.GBA)
        for m in world.maps():
            check_structure(m)
    # Every keyframe in flight promotes once all have arrived.
    world.replicate(order)
    assert not world.dst.staged_kfs
    for m in world.maps():
        check_structure(m)


@pytest.mark.parametrize("seed", range(3))
def test_merge_in_flight_converges_on_the_replica(seed):
    # The replica holds the first corridor's map when the merge promotes,
    # and none of the second's keyframes. The second map has more
    # keyframes and survives, and merged points keep the first map's ids.
    world = World()
    world.extend(0)
    order = random.Random(seed)
    world.replicate(order)
    world.extend(1)
    world.extend(1)
    world.merge(order, deliver=False)
    (survivor,) = world.src.slam
    assert list(world.dst.slam) == [survivor]
    # The survivor's keyframes arrive after the merge, observing the
    # first map's points where theirs were fused.
    world.replicate(order)
    assert not world.dst.staged_kfs
    assert canonical_digest(world.dst) == canonical_digest(world.src)
    check_structure(world.dst.slam[survivor])


def test_window_is_rebuilt_only_when_the_structure_moves(alloc):
    poses = CORRIDORS[0]
    m = initialize_map(_frame(0, poses[0], None), _frame(1, poses[1], poses[0]),
                       alloc)
    frame = _frame(2, poses[2], poses[1])
    track_frame(m, poses[1], frame)
    key, value = m.track_cache
    assert key == (m.structure_version, TRACK_WINDOW)
    # Moving a pose or a point is no structural change.
    m.keyframes[max(m.keyframes)].pose = Pose2(9.0, 9.0, 0.0)
    m.map_points[min(m.map_points)].x += 1.0
    track_frame(m, poses[1], frame)
    assert m.track_cache[1] is value
    version = m.structure_version
    m.remove_point(min(m.map_points))
    assert m.structure_version == version + 1
    track_frame(m, poses[1], frame)
    assert m.track_cache[0] == (version + 1, TRACK_WINDOW)
    assert m.track_cache[1] == window_landmarks(m, TRACK_WINDOW)


def test_keyframe_columns_are_checked_and_read_only():
    kid, map_id = KeyFrameId(1, 0), MapId(1, 0)
    observations = {9: Observation(4, 2.5, 0.25), 3: Observation(7, 1.5, -0.5)}
    kf = KeyFrame.from_observations(kid, Pose2(), map_id, observations, 2)
    assert kf.mp_ids.tolist() == [3, 9]
    assert kf.observations == {3: observations[3], 9: observations[9]}
    assert kf == KeyFrame.from_rows(kid, Pose2(), map_id,
                                    observation_rows(observations), 2)
    with pytest.raises(ValueError):
        kf.ranges[0] = 0.0
    with pytest.raises(TypeError):
        kf.observations[5] = Observation(1, 1.0, 0.0)
    good = (kf.mp_ids, kf.landmark_ids, kf.ranges, kf.bearings)
    for bad in ((kf.mp_ids.astype(np.int64), *good[1:]),
                (kf.mp_ids[::-1].copy(), *good[1:]),
                (np.array([3, 3], dtype=np.uint64), *good[1:]),
                (*good[:3], kf.bearings[:1].copy())):
        with pytest.raises(ValueError):
            KeyFrame(kid, Pose2(), map_id, *bad)
    with pytest.raises(ValueError, match="ascending"):
        KeyFrame.from_rows(kid, Pose2(), map_id, [(3, 1, 1.0, 0.0),
                                                  (3, 2, 1.0, 0.0)])


def test_each_structural_writer_moves_the_version(alloc):
    poses = CORRIDORS[0]
    m = initialize_map(_frame(0, poses[0], None), _frame(1, poses[1], poses[0]),
                       alloc)
    kf = m.keyframes[max(m.keyframes)]
    spare = max(m.map_points)
    writes = {
        "set_observations": lambda: m.set_observations(kf.id, [
            row for row in observation_rows(kf.observations) if row[0] != spare]),
        "remove_point": lambda: m.remove_point(spare),
        "add_point": lambda: m.add_point(MapPoint(spare, 0.0, 0.0, 7)),
        "add_keyframe": lambda: m.add_keyframe(KeyFrame.from_rows(
            alloc.next_keyframe_id(), Pose2(), m.map_id, [])),
    }
    for name, write in writes.items():
        cached_window(m, TRACK_WINDOW)
        version = m.structure_version
        write()
        assert m.structure_version == version + 1, name
        assert cached_window(m, TRACK_WINDOW) == window_landmarks(
            m, TRACK_WINDOW), name


@functools.cache
def tracked_map_bytes_per_observation():
    """Traced bytes per observation of a tracker-built map of 100 keyframes
    and ~9200 observations, whole map (points and observers included)."""
    landmarks = {i: (0.5 * (i % 60), 0.5 * (i // 60) - 2.2) for i in range(540)}
    poses = [Pose2(0.25 * i, 0.0, 0.0) for i in range(100)]
    rng = np.random.default_rng(3)
    frames = []
    for i, pose in enumerate(poses):
        only = {lm for lm, (x, y) in landmarks.items()
                if math.hypot(x - pose.x, y - pose.y) <= 3.0}
        frames.append(make_frame(i, pose, poses[i - 1] if i else None,
                                 landmarks, only=only, rng=rng, sigma_r=0.01,
                                 sigma_b=0.005))
    alloc = IdAllocator(1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = initialize_map(frames[0], frames[1], alloc)
        last = m.keyframes[max(m.keyframes)].pose
        for frame in frames[2:]:
            tr = track_frame(m, last, frame)
            assert tr.status is TrackStatus.OK
            create_keyframe(frame, tr, alloc, m)
            last = tr.pose
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n_obs = sum(len(kf.observations) for kf in m.keyframes.values())
    assert len(m.keyframes) == 100 and n_obs > 9000
    return used / n_obs


def test_tracked_map_holds_few_bytes_per_observation():
    # CPython 3.11 and numpy 2.4: 292 with one Observation object and dict
    # entry per observation, 164 with columns.
    assert tracked_map_bytes_per_observation() < 200


def test_observer_tuples_keep_the_tracked_map_small():
    # One observer set per point took 164.5 bytes per observation; strictly
    # ascending tuples take 91.3 (CPython 3.11, numpy 2.4).
    assert tracked_map_bytes_per_observation() < 110
