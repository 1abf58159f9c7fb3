"""Map bootstrap from two consecutive frames."""

from __future__ import annotations

from meshslam.core import covis
from meshslam.core.types import Frame, InsufficientParallax, KeyFrame, Map, MapPoint
from meshslam.geometry import Pose2, back_project
from meshslam.ids import IdAllocator

MIN_COMMON_LANDMARKS = 20
MIN_BASELINE_M = 0.01


def initialize_map(f1: Frame, f2: Frame, alloc: IdAllocator) -> Map:
    """Seed a map with two keyframes and the landmarks both frames saw.

    The first keyframe sits at the origin of the new map's frame; the
    second is placed by composing the odometry delta. Each shared
    landmark becomes a map point at the average of the two range-bearing
    back-projections.

    Raises InsufficientParallax when fewer than 20 landmarks are shared
    or the relative motion is under 1 cm.
    """
    # The checks read only the id columns: a lost tracker retries every
    # frame, and most attempts fail them.
    row1 = {lm: row for row, lm in enumerate(f1.landmark_ids.tolist())}
    row2 = {lm: row for row, lm in enumerate(f2.landmark_ids.tolist())}
    common = sorted(row1.keys() & row2.keys())
    if len(common) < MIN_COMMON_LANDMARKS:
        raise InsufficientParallax(
            f"{len(common)} common landmarks < {MIN_COMMON_LANDMARKS}"
        )
    if f2.odometry_delta.translation_norm() < MIN_BASELINE_M:
        raise InsufficientParallax("relative motion below 0.01 m")

    map_id = alloc.next_map_id()
    pose1 = Pose2()
    pose2 = pose1.compose(f2.odometry_delta)

    kf1_id, kf2_id = alloc.next_keyframe_id(), alloc.next_keyframe_id()
    ranges1, bearings1 = f1.ranges.tolist(), f1.bearings.tolist()
    ranges2, bearings2 = f2.ranges.tolist(), f2.bearings.tolist()
    rows1, rows2, points = [], [], []
    for lm in common:
        r1, b1 = ranges1[row1[lm]], bearings1[row1[lm]]
        r2, b2 = ranges2[row2[lm]], bearings2[row2[lm]]
        mp_id = alloc.next_map_point_id()
        x1, y1 = back_project(pose1, r1, b1)
        x2, y2 = back_project(pose2, r2, b2)
        points.append(MapPoint(mp_id, 0.5 * (x1 + x2), 0.5 * (y1 + y2), lm))
        rows1.append((mp_id, lm, r1, b1))
        rows2.append((mp_id, lm, r2, b2))

    m = Map(map_id, kf1_id)
    # Points first: adding each keyframe registers it on all of them.
    for mp in points:
        m.add_point(mp)
    m.add_keyframe(KeyFrame.from_rows(kf1_id, pose1, map_id, rows1,
                                      ref_point_count=len(common)))
    m.add_keyframe(KeyFrame.from_rows(kf2_id, pose2, map_id, rows2,
                                      ref_point_count=len(common)))
    covis.link_new_keyframe(m, kf2_id)
    return m
