"""Planar rigid-body poses and range-bearing sensor math."""

from __future__ import annotations

import math
from dataclasses import dataclass


def wrap_angle(theta: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True, slots=True)
class Pose2:
    """SE(2) pose: position in meters, heading normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def compose(self, other: "Pose2") -> "Pose2":
        """Return self * other (other expressed in self's frame)."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            wrap_angle(self.theta + other.theta),
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            -(c * self.x + s * self.y),
            -(-s * self.x + c * self.y),
            wrap_angle(-self.theta),
        )

    def relative_to(self, other: "Pose2") -> "Pose2":
        """Return self expressed in other's frame: other^-1 * self."""
        return other.inverse().compose(self)

    def transform_point(self, px: float, py: float) -> tuple[float, float]:
        """Map a point from this pose's frame into the world frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return (self.x + c * px - s * py, self.y + s * px + c * py)

    def translation_norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Pose2":
        return Pose2(self.x, self.y, wrap_angle(self.theta))


def range_bearing(pose: Pose2, lx: float, ly: float) -> tuple[float, float]:
    """Observe a world point from a pose; returns (range, bearing)."""
    dx, dy = lx - pose.x, ly - pose.y
    return math.hypot(dx, dy), wrap_angle(math.atan2(dy, dx) - pose.theta)


def back_project(pose: Pose2, rng: float, bearing: float) -> tuple[float, float]:
    """Invert range_bearing: world point implied by an observation."""
    a = pose.theta + bearing
    return pose.x + rng * math.cos(a), pose.y + rng * math.sin(a)
