"""Domain entities of the keyframe SLAM core.

The world is 2D: landmarks are points observed with range-bearing
measurements, and data association uses ground-truth landmark ids in
place of the visual feature pipeline. Estimation code never reads a
map point's origin landmark for geometry, only for association.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from meshslam.geometry import Pose2
from meshslam.ids import KeyFrameId, MapId


class SlamError(Exception):
    """Base class for core-layer failures."""


class InsufficientParallax(SlamError):
    """Two frames cannot seed a map: too few shared landmarks or no motion."""


class SingularSystem(SlamError):
    """Normal equations are rank-deficient; state left unmodified."""


class InsufficientOverlap(SlamError):
    """Map merge attempted with fewer matched landmark pairs than required."""


class InvalidCandidate(SlamError):
    """A loop or merge candidate that does not fit the operation or maps."""


class DegenerateConfiguration(SlamError):
    """Alignment requested on coincident source points."""


@dataclass(frozen=True, slots=True)
class Observation:
    """One range-bearing measurement of a ground-truth landmark."""

    landmark_id: int
    range: float
    bearing: float


@dataclass(frozen=True, slots=True)
class Frame:
    """Sensor input at one timestep: noisy odometry plus observations."""

    frame_id: int
    timestamp: float
    odometry_delta: Pose2
    observations: tuple[Observation, ...]


@dataclass(slots=True)
class MapPoint:
    id: int
    x: float
    y: float
    origin_landmark: int
    observers: set[KeyFrameId] = field(default_factory=set)


@dataclass(slots=True)
class KeyFrame:
    id: KeyFrameId
    pose: Pose2
    observations: dict[int, Observation]
    map_id: MapId
    ref_point_count: int = 0
    covisible: dict[KeyFrameId, int] = field(default_factory=dict)


@dataclass
class Map:
    map_id: MapId
    origin_kf: KeyFrameId
    keyframes: dict[KeyFrameId, KeyFrame] = field(default_factory=dict)
    map_points: dict[int, MapPoint] = field(default_factory=dict)
    initialized_optimized: bool = False

    def latest_keyframe_ids(self, n: int) -> list[KeyFrameId]:
        """The n largest keyframe ids (creation recency order)."""
        if n == 1 and self.keyframes:
            return [max(self.keyframes)]
        # Ids mostly arrive in ascending order, which sorts in linear time.
        return sorted(self.keyframes, reverse=True)[:n]


class TrackStatus(enum.Enum):
    OK = "ok"
    LOST = "lost"


@dataclass
class TrackResult:
    status: TrackStatus
    pose: Pose2
    matches: dict[int, Observation]
    tracked_ratio: float
    diverged: bool = False


class CandidateKind(enum.Enum):
    LOOP = "loop"
    MERGE = "merge"


@dataclass(frozen=True)
class LoopCandidate:
    kind: CandidateKind
    kf_id: KeyFrameId
    other_id: KeyFrameId
    other_map: MapId
    similarity: float


class UpdateKind(enum.Enum):
    GBA = "gba"
    LC = "lc"
    MM = "mm"


@dataclass
class GlobalUpdateRecord:
    """Everything a global optimization touched, for atomic replication."""

    kind: UpdateKind
    map_id: MapId
    kf_ids: list[KeyFrameId]
    mp_ids: list[int]
    fused: dict[int, int] = field(default_factory=dict)  # dead id -> survivor id
    absorbed_map: MapId | None = None
