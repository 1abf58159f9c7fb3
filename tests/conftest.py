"""Shared world-building helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from meshslam.core.types import Frame, Observation
from meshslam.geometry import Pose2, range_bearing, wrap_angle
from meshslam.ids import IdAllocator


def grid_landmarks(n: int, spacing: float = 1.0, origin=(1.0, 1.0)):
    """n landmarks on a deterministic grid, id -> (x, y)."""
    cols = max(1, int(math.ceil(math.sqrt(n))))
    return {
        i: (origin[0] + (i % cols) * spacing, origin[1] + (i // cols) * spacing)
        for i in range(n)
    }


def observe(pose: Pose2, landmarks: dict[int, tuple[float, float]],
            rng: np.random.Generator | None = None,
            sigma_r: float = 0.0, sigma_b: float = 0.0,
            only: set[int] | None = None) -> tuple[Observation, ...]:
    out = []
    for lm_id in sorted(landmarks):
        if only is not None and lm_id not in only:
            continue
        lx, ly = landmarks[lm_id]
        r, b = range_bearing(pose, lx, ly)
        if rng is not None:
            r += float(rng.normal(0.0, sigma_r)) if sigma_r else 0.0
            b += float(rng.normal(0.0, sigma_b)) if sigma_b else 0.0
        out.append(Observation(lm_id, max(r, 1e-9), wrap_angle(b)))
    return tuple(out)


def make_frame(frame_id: int, pose: Pose2, prev_pose: Pose2 | None,
               landmarks, **kw) -> Frame:
    delta = Pose2() if prev_pose is None else pose.relative_to(prev_pose)
    return Frame.from_observations(frame_id, frame_id / 20.0, delta,
                                   observe(pose, landmarks, **kw))


def observation_rows(observations) -> list[tuple[int, int, float, float]]:
    """``Map.set_observations`` rows of an ``{mp_id: Observation}`` mapping."""
    return [(mp_id, o.landmark_id, o.range, o.bearing)
            for mp_id, o in observations.items()]


@pytest.fixture
def alloc():
    return IdAllocator(1)
