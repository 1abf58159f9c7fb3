"""Per-frame tracking and keyframe spawning.

Association is mid-term only: a frame observation matches a map point
when the point's origin landmark was observed by one of the most recent
keyframes. Revisits beyond that window intentionally fail to match, so
drift accumulates and long-term loop detection has something to find.
The window's landmark -> map point dict is kept with the map until its
structure version moves (a keyframe or point added or removed, or a
keyframe's observations replaced), not rebuilt for every frame.
"""

from __future__ import annotations

import numpy as np

from meshslam.core import covis
from meshslam.core.bundle import track_pose
from meshslam.core.types import (
    Frame,
    KeyFrame,
    Map,
    MapPoint,
    TrackResult,
    TrackStatus,
)
from meshslam.geometry import Pose2, back_project
from meshslam.ids import IdAllocator

MIN_TRACK_MATCHES = 10
TRACK_WINDOW = 10  # most recent keyframes whose points are matched


def window_landmarks(m: Map, window: int) -> tuple[dict[int, int], int]:
    """The tracking window of a map, computed afresh: each landmark seen
    by the ``window`` most recent keyframes, mapped to its smallest map
    point id among theirs, and the reference keyframe's point count (at
    least 1)."""
    recent = m.latest_keyframe_ids(window)
    keyframes, map_points = m.keyframes, m.map_points
    candidate_ids: set[int] = set()
    for kid in recent:
        candidate_ids.update(keyframes[kid].mp_ids.tolist())
    # The pairs come in ascending id order, and of repeated keys dict()
    # keeps the last.
    map_points_get = map_points.get
    visible = dict(reversed([
        (mp.origin_landmark, mp_id) for mp_id in sorted(candidate_ids)
        if (mp := map_points_get(mp_id)) is not None]))
    ref_id = recent[0] if recent else m.latest_keyframe_ids(1)[0]
    return visible, max(1, keyframes[ref_id].ref_point_count)


def cached_window(m: Map, window: int) -> tuple[dict[int, int], int]:
    """``window_landmarks``, kept in ``m.track_cache`` until the map's
    structure version or the window size changes."""
    key = (m.structure_version, window)
    cached_key, value = m.track_cache
    if cached_key != key:
        value = window_landmarks(m, window)
        m.track_cache = (key, value)
    return value


def track_frame(m: Map, last_pose: Pose2, frame: Frame,
                window: int = TRACK_WINDOW,
                min_matches: int = MIN_TRACK_MATCHES) -> TrackResult:
    """Estimate the frame pose against the recent-keyframe window.

    Returns LOST (a value, not an error) when matches fall under the
    minimum or the solver diverges.
    """
    visible, ref_count = cached_window(m, window)

    # Map point id -> the row of the frame that observes its landmark.
    matches: dict[int, int] = {}
    for row, landmark_id in enumerate(frame.landmark_ids.tolist()):
        mp_id = visible.get(landmark_id)
        if mp_id is not None:
            matches[mp_id] = row

    ratio = min(1.0, len(matches) / ref_count)

    if len(matches) < min_matches:
        return TrackResult(TrackStatus.LOST, last_pose, matches, ratio)

    guess = last_pose.compose(frame.odometry_delta)
    map_points = m.map_points
    mp_ids = sorted(matches)
    points = [map_points[mp_id] for mp_id in mp_ids]
    rows = [matches[mp_id] for mp_id in mp_ids]
    pose, diverged = track_pose(np.array([mp.x for mp in points]),
                                np.array([mp.y for mp in points]),
                                frame.ranges[rows], frame.bearings[rows],
                                guess)
    if diverged:
        return TrackResult(TrackStatus.LOST, pose, matches, ratio, diverged=True)
    return TrackResult(TrackStatus.OK, pose, matches, ratio)


def should_create_keyframe(tr: TrackResult, frames_since_last_kf: int,
                           min_gap: int = 2, ref_ratio: float = 0.80) -> bool:
    """Pure keyframe gate: enough frames elapsed and tracked ratio dropped.

    The ratio test is strictly less-than, so a frame tracking exactly
    the threshold fraction does not spawn a keyframe.
    """
    return frames_since_last_kf >= min_gap and tr.tracked_ratio < ref_ratio


def create_keyframe(frame: Frame, tr: TrackResult, alloc: IdAllocator,
                    m: Map) -> tuple[KeyFrame, list[MapPoint]]:
    """Insert a keyframe for a tracked frame; unmatched observations
    spawn new map points back-projected from the tracked pose."""
    kf_id = alloc.next_keyframe_id()
    landmark_ids = frame.landmark_ids.tolist()
    ranges, bearings = frame.ranges.tolist(), frame.bearings.tolist()
    rows = [(mp_id, landmark_ids[row], ranges[row], bearings[row])
            for mp_id, row in tr.matches.items()]
    matched_rows = set(tr.matches.values())

    new_points: list[MapPoint] = []
    for row, (landmark_id, rng, brg) in enumerate(
            zip(landmark_ids, ranges, bearings)):
        if row in matched_rows:
            continue
        mp_id = alloc.next_map_point_id()
        x, y = back_project(tr.pose, rng, brg)
        new_points.append(MapPoint(mp_id, x, y, landmark_id))
        rows.append((mp_id, landmark_id, rng, brg))

    kf = KeyFrame.from_rows(kf_id, tr.pose, m.map_id, rows,
                            ref_point_count=len(tr.matches) + len(new_points))
    # Points first: adding the keyframe registers it on all of them.
    for mp in new_points:
        m.add_point(mp)
    m.add_keyframe(kf)
    covis.link_new_keyframe(m, kf_id)
    return kf, new_points
