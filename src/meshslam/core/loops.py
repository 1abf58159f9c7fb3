"""Long-term association: loop detection, loop closure, map merging."""

from __future__ import annotations

from meshslam.core import covis
from meshslam.core.alignment import apply_alignment, compute_alignment
from meshslam.core.bundle import global_bundle_adjust
from meshslam.core.types import (
    CandidateKind,
    GlobalUpdateRecord,
    InsufficientOverlap,
    InvalidCandidate,
    KeyFrame,
    LoopCandidate,
    Map,
    MapPoint,
    UpdateKind,
)
from meshslam.geometry import Pose2, wrap_angle
from meshslam.ids import KeyFrameId, MapId

DEFAULT_TAU = 0.4
MIN_MERGE_PAIRS = 3


def signature(m: Map, kf: KeyFrame) -> set[int]:
    """Ground-truth landmark ids behind a keyframe's observed map points."""
    map_points_get = m.map_points.get
    return {mp.origin_landmark for mp_id in kf.mp_ids.tolist()
            if (mp := map_points_get(mp_id)) is not None}


def detect_loop_or_merge(maps: dict[MapId, Map], kf: KeyFrame,
                         tau: float = DEFAULT_TAU) -> LoopCandidate | None:
    """Best landmark-overlap candidate outside kf's covisible neighborhood.

    Scores every keyframe of every map except those within two
    covisibility hops of kf; returns the highest-Jaccard keyframe at or
    above tau, ties going to the smaller keyframe id. Same-map hits are
    loop closures, cross-map hits are merge candidates. Only keyframes
    that observe a map point of one of kf's landmarks can overlap, so
    the candidates are the observers of those points (observers are the
    inverse of the keyframes' observations).
    """
    own_map = maps[kf.map_id]
    sig = signature(own_map, kf)
    if not sig:
        return None
    excluded = covis.covisible_within_hops(own_map, kf.id, 2)

    best: LoopCandidate | None = None
    for map_id in sorted(maps):
        m = maps[map_id]
        candidates: set[KeyFrameId] = set()
        for mp in m.map_points.values():
            if mp.origin_landmark in sig:
                candidates.update(mp.observers)
        for other_id in sorted(candidates):
            if map_id == kf.map_id and other_id in excluded:
                continue
            other = m.keyframes.get(other_id)
            if other is None:
                continue
            other_sig = signature(m, other)
            inter = len(sig & other_sig)
            jaccard = inter / len(sig | other_sig)
            if jaccard >= tau and (best is None or jaccard > best.similarity):
                kind = (CandidateKind.LOOP if map_id == kf.map_id
                        else CandidateKind.MERGE)
                best = LoopCandidate(kind, kf.id, other_id, map_id, jaccard)
    return best


def _age_key(mp: MapPoint) -> tuple[KeyFrameId, int]:
    return (mp.observers[0], mp.id)


def _fuse_pair(m: Map, a_id: int, b_id: int) -> tuple[int, int]:
    """Fuse two duplicate map points; the older one survives.

    Returns (dead_id, survivor_id).
    """
    a, b = m.map_points[a_id], m.map_points[b_id]
    dead, surv = (b, a) if _age_key(a) <= _age_key(b) else (a, b)
    fuse_map_points(m, dead.id, surv.id)
    return dead.id, surv.id


def fuse_map_points(m: Map, dead_id: int, surv_id: int) -> None:
    """Replace map point dead_id by surv_id in every observing keyframe.

    A keyframe observing both keeps the survivor's observation. A no-op
    unless both points are in the map and distinct.
    """
    dead = m.map_points.get(dead_id)
    surv = m.map_points.get(surv_id)
    if dead is None or surv is None or dead_id == surv_id:
        return
    for kf_id in dead.observers:
        kf = m.keyframes.get(kf_id)
        if kf is None:
            continue
        ids = kf.mp_ids.tolist()
        if dead_id in ids:
            rows = list(zip(ids, kf.landmark_ids.tolist(), kf.ranges.tolist(),
                            kf.bearings.tolist()))
            _, *obs = rows.pop(ids.index(dead_id))
            if surv_id not in ids:
                rows.append((surv_id, *obs))
            m.set_observations(kf_id, rows)
    m.remove_point(dead_id)


def absorb_map(surv: Map, lost: Map) -> None:
    """Re-home every keyframe and map point of lost under surv, as is."""
    for kf_id in sorted(lost.keyframes):
        kf = lost.keyframes[kf_id]
        kf.map_id = surv.map_id
        surv.add_keyframe(kf)
    for mp_id in sorted(lost.map_points):
        surv.add_point(lost.map_points[mp_id])


def _landmark_reps(m: Map, kf: KeyFrame | None = None) -> dict[int, int]:
    """One deterministic representative map point per landmark.

    Restricted to a keyframe's observations when kf is given, otherwise
    over the whole map.
    """
    reps: dict[int, int] = {}
    # A keyframe's ids are ascending already.
    ids = kf.mp_ids.tolist() if kf is not None else sorted(m.map_points)
    for mp_id in ids:
        mp = m.map_points.get(mp_id)
        if mp is None:
            continue
        lm = mp.origin_landmark
        if lm not in reps:
            reps[lm] = mp_id
    return reps


def close_loop(m: Map, cand: LoopCandidate) -> GlobalUpdateRecord:
    """Fuse duplicate landmarks between the two matched keyframes and run
    a global adjustment; the fusion itself is the loop constraint.

    Raises InvalidCandidate for a merge candidate.
    """
    if cand.kind is not CandidateKind.LOOP:
        raise InvalidCandidate(f"close_loop given a {cand.kind.value} candidate")
    kf = m.keyframes[cand.kf_id]
    other = m.keyframes[cand.other_id]
    reps_a = _landmark_reps(m, kf)
    reps_b = _landmark_reps(m, other)

    fused: dict[int, int] = {}
    for lm in sorted(set(reps_a) & set(reps_b)):
        a_id, b_id = reps_a[lm], reps_b[lm]
        if a_id == b_id or a_id not in m.map_points or b_id not in m.map_points:
            continue
        dead, surv = _fuse_pair(m, a_id, b_id)
        fused[dead] = surv

    covis.rebuild_covisibility(m)
    dirty_kfs, dirty_mps = global_bundle_adjust(m)
    return GlobalUpdateRecord(UpdateKind.LC, m.map_id, sorted(dirty_kfs),
                              sorted(dirty_mps), fused)


def merge_maps(maps: dict[MapId, Map], cand: LoopCandidate
               ) -> GlobalUpdateRecord:
    """Align, re-home, and fuse two maps; the smaller one is absorbed.

    Alignment pairs come from landmarks common to both maps (rigid, no
    scale). The map with more keyframes survives, ties going to the
    smaller map id. Raises InsufficientOverlap below 3 matched pairs, and
    InvalidCandidate unless cand is a merge candidate whose keyframe lies
    in another of the maps.
    """
    if cand.kind is not CandidateKind.MERGE:
        raise InvalidCandidate(f"merge_maps given a {cand.kind.value} candidate")
    m_a = maps[cand.other_map]  # the matched older map
    m_b = next((m for m in maps.values() if cand.kf_id in m.keyframes), None)
    if m_b is None or m_b is m_a:
        raise InvalidCandidate(f"keyframe {cand.kf_id} is in no map other "
                               f"than {cand.other_map}")
    surv_map, lost_map = sorted((m_a, m_b),
                                key=lambda m: (-len(m.keyframes), m.map_id))

    reps_lost = _landmark_reps(lost_map)
    reps_surv = _landmark_reps(surv_map)
    common = sorted(set(reps_lost) & set(reps_surv))
    if len(common) < MIN_MERGE_PAIRS:
        raise InsufficientOverlap(f"{len(common)} matched pairs < {MIN_MERGE_PAIRS}")

    pairs = []
    for lm in common:
        lp = lost_map.map_points[reps_lost[lm]]
        sp = surv_map.map_points[reps_surv[lm]]
        pairs.append(((lp.x, lp.y), (sp.x, sp.y)))
    transform = compute_alignment(pairs, with_scale=False)
    _, d_theta, _, _ = transform

    # Move the losing map's content into the survivor's frame, then
    # re-home it there.
    for moved in lost_map.keyframes.values():
        nx, ny = apply_alignment(transform, moved.pose.x, moved.pose.y)
        moved.pose = Pose2(nx, ny, wrap_angle(moved.pose.theta + d_theta))
    for mp in lost_map.map_points.values():
        mp.x, mp.y = apply_alignment(transform, mp.x, mp.y)
    absorbed_id = lost_map.map_id
    del maps[absorbed_id]
    absorb_map(surv_map, lost_map)

    fused: dict[int, int] = {}
    for lm in common:
        a_id, b_id = reps_lost[lm], reps_surv[lm]
        if a_id in surv_map.map_points and b_id in surv_map.map_points:
            dead, surv = _fuse_pair(surv_map, a_id, b_id)
            fused[dead] = surv

    covis.rebuild_covisibility(surv_map)
    dirty_kfs, dirty_mps = global_bundle_adjust(surv_map)
    return GlobalUpdateRecord(UpdateKind.MM, surv_map.map_id, sorted(dirty_kfs),
                              sorted(dirty_mps), fused, absorbed_map=absorbed_id)
