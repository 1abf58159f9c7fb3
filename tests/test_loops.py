import math

import numpy as np
import pytest

from meshslam.core import (
    close_loop,
    create_keyframe,
    detect_loop_or_merge,
    initialize_map,
    merge_maps,
    track_frame,
)
from meshslam.core.loops import signature
from meshslam.core.types import (
    CandidateKind,
    InsufficientOverlap,
    InvalidCandidate,
    LoopCandidate,
    TrackStatus,
    UpdateKind,
)
from meshslam.core import covis
from meshslam.geometry import Pose2

from conftest import grid_landmarks, make_frame, observation_rows


def drive(m, poses, landmarks, alloc, start_idx, window=10, visible=None):
    """Track poses into an existing map, creating a keyframe per pose."""
    prev = poses[start_idx - 1] if start_idx > 0 else poses[0]
    last = prev
    for i in range(start_idx, len(poses)):
        only = None if visible is None else visible(poses[i])
        f = make_frame(i, poses[i], last, landmarks, only=only)
        tr = track_frame(m, last, f, window=window)
        assert tr.status is TrackStatus.OK
        create_keyframe(f, tr, alloc, m)
        last = poses[i]
    return last


def square_world():
    """Dense grid covering an 11x11 square route plus margins."""
    landmarks = {}
    idx = 0
    steps = 20
    for i in range(steps):
        for j in range(steps):
            landmarks[idx] = (-3.0 + i * 17.0 / (steps - 1),
                              -3.0 + j * 17.0 / (steps - 1))
            idx += 1
    return landmarks


def visible_within(pose, landmarks, radius):
    return {lm for lm, (lx, ly) in landmarks.items()
            if math.hypot(lx - pose.x, ly - pose.y) <= radius}


def test_exact_reobservation_is_loop(alloc):
    landmarks = grid_landmarks(30, spacing=0.8)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.4, 0, 0)
    m = initialize_map(make_frame(0, p1, None, landmarks),
                       make_frame(1, p2, p1, landmarks), alloc)
    k1, k2 = sorted(m.keyframes)
    # A distant keyframe re-observing exactly the same landmark set.
    f = make_frame(2, Pose2(0.2, 0.1, 0.0), p2, landmarks)
    tr = track_frame(m, p2, f, window=10)
    kf, _ = create_keyframe(f, tr, alloc, m)
    kf.covisible = {}
    m.keyframes[k1].covisible.pop(kf.id, None)
    m.keyframes[k2].covisible.pop(kf.id, None)
    cand = detect_loop_or_merge({m.map_id: m}, kf, tau=0.4)
    assert cand is not None
    assert cand.kind is CandidateKind.LOOP
    assert cand.similarity == 1.0
    assert cand.other_id == k1  # tie broken toward the smaller keyframe id


def test_disjoint_signatures_detect_nothing(alloc):
    lm_a = grid_landmarks(25)
    m = initialize_map(make_frame(0, Pose2(), None, lm_a),
                       make_frame(1, Pose2(0.4, 0, 0), Pose2(), lm_a), alloc)
    lm_b = {100 + i: (40 + (i % 5), 40 + i // 5) for i in range(25)}
    f = make_frame(2, Pose2(40, 40, 0), Pose2(0.4, 0, 0), lm_b)
    tr_matches = {}
    from meshslam.core.types import TrackResult
    tr = TrackResult(TrackStatus.OK, Pose2(40, 40, 0), tr_matches, 0.0)
    kf, _ = create_keyframe(f, tr, alloc, m)
    assert detect_loop_or_merge({m.map_id: m}, kf, tau=0.4) is None


def test_detector_matches_brute_force_argmax(alloc):
    """On an exhaustive scan the detector returns the true best candidate."""
    landmarks = square_world()
    poses = [Pose2(0.5 * i, 0.0, 0.0) for i in range(10)]
    radius = 4.0
    vis = lambda p: visible_within(p, landmarks, radius)
    f0 = make_frame(0, poses[0], None, landmarks, only=vis(poses[0]))
    f1 = make_frame(1, poses[1], poses[0], landmarks, only=vis(poses[1]))
    m = initialize_map(f0, f1, alloc)
    drive(m, poses, landmarks, alloc, 2, window=3, visible=vis)

    for kf_id in sorted(m.keyframes):
        kf = m.keyframes[kf_id]
        cand = detect_loop_or_merge({m.map_id: m}, kf, tau=0.05)
        best = brute_force_best({m.map_id: m}, kf, tau=0.05)
        if best is None:
            assert cand is None
        else:
            assert cand is not None
            assert (cand.other_id, cand.similarity) == best


def brute_force_best(maps, kf, tau):
    """(keyframe id, Jaccard) of the best candidate, from the signature
    of every keyframe outside kf's 2-hop neighborhood."""
    own = maps[kf.map_id]
    excluded = covis.covisible_within_hops(own, kf.id, 2)
    sig = signature(own, kf)
    best = None
    for map_id in sorted(maps):
        m = maps[map_id]
        for other_id in sorted(m.keyframes):
            if map_id == kf.map_id and other_id in excluded:
                continue
            other_sig = signature(m, m.keyframes[other_id])
            if not sig or not other_sig:
                continue
            j = len(sig & other_sig) / len(sig | other_sig)
            if j >= tau and (best is None or j > best[1]):
                best = (other_id, j)
    return best


def square_loop_map(alloc, side=10, sigma_r=0.015, sigma_b=0.008, seed=2):
    """Square loop with drift: revisit the start without in-window matches."""
    landmarks = square_world()
    rng = np.random.default_rng(seed)
    poses = []
    for i in range(side):
        poses.append(Pose2(i * 1.1, 0, 0))
    for i in range(side):
        poses.append(Pose2(11.0, i * 1.1, math.pi / 2))
    for i in range(side):
        poses.append(Pose2(11.0 - i * 1.1, 11.0, math.pi))
    for i in range(side):
        poses.append(Pose2(0.0, 11.0 - i * 1.1, -math.pi / 2))
    poses.append(Pose2(0.0, 0.4, -math.pi / 2))

    radius = 3.2
    vis = lambda p: visible_within(p, landmarks, radius)
    kw = dict(rng=rng, sigma_r=sigma_r, sigma_b=sigma_b)
    f0 = make_frame(0, poses[0], None, landmarks, only=vis(poses[0]), **kw)
    f1 = make_frame(1, poses[1], poses[0], landmarks, only=vis(poses[1]), **kw)
    m = initialize_map(f0, f1, alloc)
    last = poses[1]
    for i in range(2, len(poses)):
        f = make_frame(i, poses[i], last, landmarks, only=vis(poses[i]), **kw)
        tr = track_frame(m, last, f, window=4)
        assert tr.status is TrackStatus.OK, f"lost at {i}"
        create_keyframe(f, tr, alloc, m)
        last = poses[i]
    return m, poses


def test_close_loop_pulls_drift_down(alloc):
    m, poses = square_loop_map(alloc)
    last_kf = sorted(m.keyframes)[-1]
    cand = detect_loop_or_merge({m.map_id: m}, m.keyframes[last_kf], tau=0.4)
    assert cand is not None and cand.kind is CandidateKind.LOOP
    record = close_loop(m, cand)
    assert record.kind is UpdateKind.LC
    assert record.fused
    # After closure the end-of-loop keyframe sits near its true pose.
    end_pose = m.keyframes[last_kf].pose
    true_end = poses[-1]
    assert math.hypot(end_pose.x - true_end.x, end_pose.y - true_end.y) < 0.05


def test_close_loop_on_consistent_map_changes_nothing(alloc):
    landmarks = grid_landmarks(30, spacing=0.8)
    p1, p2 = Pose2(0, 0, 0), Pose2(0.4, 0, 0)
    m = initialize_map(make_frame(0, p1, None, landmarks),
                       make_frame(1, p2, p1, landmarks), alloc)
    f = make_frame(2, Pose2(0.8, 0, 0), p2, landmarks)
    tr = track_frame(m, p2, f, window=10)
    kf, _ = create_keyframe(f, tr, alloc, m)
    before = {k: v.pose for k, v in m.keyframes.items()}
    from meshslam.core.types import LoopCandidate
    cand = LoopCandidate(CandidateKind.LOOP, kf.id, sorted(m.keyframes)[0],
                         m.map_id, 1.0)
    close_loop(m, cand)
    for k, pose in before.items():
        after = m.keyframes[k].pose
        assert math.hypot(after.x - pose.x, after.y - pose.y) < 1e-6


def test_fusion_unions_observers(alloc):
    landmarks = grid_landmarks(30, spacing=0.8)
    m, _ = (initialize_map(make_frame(0, Pose2(), None, landmarks),
                           make_frame(1, Pose2(0.4, 0, 0), Pose2(), landmarks),
                           alloc), None)
    k1, k2 = sorted(m.keyframes)
    # Duplicate one landmark as a second map point observed by a new kf.
    f = make_frame(2, Pose2(0.8, 0, 0), Pose2(0.4, 0, 0), landmarks)
    tr = track_frame(m, Pose2(0.4, 0, 0), f, window=10)
    kf, _ = create_keyframe(f, tr, alloc, m)
    dup_src = sorted(m.map_points)[0]
    src = m.map_points[dup_src]
    from meshslam.core.types import MapPoint
    dup = MapPoint(2**64 - 1, src.x + 0.01, src.y, src.origin_landmark, ())
    m.add_point(dup)
    observations = dict(kf.observations)
    observations[dup.id] = observations.pop(dup_src)
    m.set_observations(kf.id, observation_rows(observations))
    assert dup.id in kf.observations and dup_src not in kf.observations

    from meshslam.core.loops import _fuse_pair
    dead, surv = _fuse_pair(m, dup.id, dup_src)
    assert surv == dup_src and dead == dup.id  # older point survives
    assert m.map_points[surv].observers == (k1, k2, kf.id)
    assert dup.id not in m.map_points
    assert surv in kf.observations


def two_corridor_maps(alloc):
    landmarks = {i: (0.4 * (i % 30) - 1.6, 0.7 * (i // 30) - 1.0)
                 for i in range(120)}
    vis = lambda p: visible_within(p, landmarks, 3.0)
    poses_a = [Pose2(0.5 * i, -0.4, 0.0) for i in range(12)]
    f0 = make_frame(0, poses_a[0], None, landmarks, only=vis(poses_a[0]))
    f1 = make_frame(1, poses_a[1], poses_a[0], landmarks, only=vis(poses_a[1]))
    m1 = initialize_map(f0, f1, alloc)
    drive(m1, poses_a, landmarks, alloc, 2, window=10, visible=vis)

    # Second map traverses the same corridor in a rotated local frame.
    poses_b = [Pose2(0.5 * i + 0.25, 1.3, 0.0) for i in range(12)]
    f0b = make_frame(20, poses_b[0], None, landmarks, only=vis(poses_b[0]))
    f1b = make_frame(21, poses_b[1], poses_b[0], landmarks, only=vis(poses_b[1]))
    m2 = initialize_map(f0b, f1b, alloc)
    drive(m2, poses_b, landmarks, alloc, 2, window=10, visible=vis)
    return m1, m2


def test_merge_maps_unifies_corridor(alloc):
    m1, m2 = two_corridor_maps(alloc)
    maps = {m1.map_id: m1, m2.map_id: m2}
    kf = m2.keyframes[sorted(m2.keyframes)[-1]]
    cand = detect_loop_or_merge(maps, kf, tau=0.4)
    assert cand is not None and cand.kind is CandidateKind.MERGE
    total_kfs = len(m1.keyframes) + len(m2.keyframes)
    record = merge_maps(maps, cand)
    assert record.kind is UpdateKind.MM
    assert len(maps) == 1
    surviving = maps[record.map_id]
    assert len(surviving.keyframes) == total_kfs
    # Fused landmarks coincide after alignment and adjustment.
    by_landmark = {}
    for mp in surviving.map_points.values():
        by_landmark.setdefault(mp.origin_landmark, []).append(mp)
    for mps in by_landmark.values():
        for a in mps:
            for b in mps:
                assert math.hypot(a.x - b.x, a.y - b.y) < 0.05


@pytest.mark.parametrize("tau", [0.05, 0.4])
def test_detector_matches_brute_force_across_maps(alloc, tau):
    m1, m2 = two_corridor_maps(alloc)
    maps = {m1.map_id: m1, m2.map_id: m2}
    hits = 0
    for m in (m1, m2):
        for kf_id in sorted(m.keyframes):
            kf = m.keyframes[kf_id]
            cand = detect_loop_or_merge(maps, kf, tau=tau)
            best = brute_force_best(maps, kf, tau)
            assert (None if cand is None
                    else (cand.other_id, cand.similarity)) == best
            hits += cand is not None
    assert hits > 0


def test_merge_rejects_thin_overlap(alloc):
    m1, m2 = two_corridor_maps(alloc)
    # Starve the overlap: drop all but 2 shared landmarks from map 2.
    shared = {mp.origin_landmark for mp in m1.map_points.values()} & \
             {mp.origin_landmark for mp in m2.map_points.values()}
    keep = sorted(shared)[:2]
    for mp_id in sorted(m2.map_points):
        mp = m2.map_points[mp_id]
        if mp.origin_landmark in shared and mp.origin_landmark not in keep:
            for kid in mp.observers:
                m2.set_observations(kid, [
                    row for row in observation_rows(m2.keyframes[kid].observations)
                    if row[0] != mp_id])
            m2.remove_point(mp_id)
    maps = {m1.map_id: m1, m2.map_id: m2}
    from meshslam.core.types import LoopCandidate
    kf = m2.keyframes[sorted(m2.keyframes)[0]]
    cand = LoopCandidate(CandidateKind.MERGE, kf.id,
                         sorted(m1.keyframes)[0], m1.map_id, 0.5)
    with pytest.raises(InsufficientOverlap):
        merge_maps(maps, cand)
    assert len(maps) == 2


def test_close_loop_refuses_a_merge_candidate(alloc):
    m1, m2 = two_corridor_maps(alloc)
    kf_id = sorted(m2.keyframes)[-1]
    cand = LoopCandidate(CandidateKind.MERGE, kf_id, sorted(m1.keyframes)[0],
                         m1.map_id, 0.5)
    before = {k: v.pose for k, v in m2.keyframes.items()}
    with pytest.raises(InvalidCandidate):
        close_loop(m2, cand)
    assert {k: v.pose for k, v in m2.keyframes.items()} == before


def test_merge_maps_refuses_a_candidate_within_one_map(alloc):
    m1, m2 = two_corridor_maps(alloc)
    maps = {m1.map_id: m1, m2.map_id: m2}
    sizes = (len(m1.keyframes), len(m2.keyframes))
    kf_id = sorted(m2.keyframes)[-1]
    loop = LoopCandidate(CandidateKind.LOOP, kf_id, sorted(m1.keyframes)[0],
                         m1.map_id, 0.5)
    same_map = LoopCandidate(CandidateKind.MERGE, kf_id,
                             sorted(m2.keyframes)[0], m2.map_id, 0.5)
    for cand in (loop, same_map):
        with pytest.raises(InvalidCandidate):
            merge_maps(maps, cand)
    assert maps == {m1.map_id: m1, m2.map_id: m2}
    assert (len(m1.keyframes), len(m2.keyframes)) == sizes
