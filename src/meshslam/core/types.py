"""Domain entities of the keyframe SLAM core.

The world is 2D: landmarks are points observed with range-bearing
measurements, and data association uses ground-truth landmark ids in
place of the visual feature pipeline. Estimation code never reads a
map point's origin landmark for geometry, only for association.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

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


@dataclass(frozen=True, slots=True, eq=False)
class Frame:
    """Sensor input at one timestep: noisy odometry plus observations.

    The observations are three columns of one length, row i being one
    measurement: ``landmark_ids`` (int64, strictly ascending), ``ranges``
    and ``bearings`` (float64). A frame holds its columns read-only: the
    constructor clears their writeable flag. The columns are what the
    pipeline reads; ``observations`` builds the ``Observation`` tuple on
    demand, and ``from_observations`` builds a frame from one. Two frames
    are equal when their scalars are and their columns have the same
    dtypes and bytes.
    """

    frame_id: int
    timestamp: float
    odometry_delta: Pose2
    landmark_ids: np.ndarray
    ranges: np.ndarray
    bearings: np.ndarray

    def __post_init__(self) -> None:
        ids, ranges, bearings = self.landmark_ids, self.ranges, self.bearings
        if not (ids.dtype == np.int64 and ranges.dtype == np.float64
                and bearings.dtype == np.float64):
            raise ValueError("frame columns must be int64, float64, float64")
        if not (ids.ndim == ranges.ndim == bearings.ndim == 1
                and len(ids) == len(ranges) == len(bearings)):
            raise ValueError("frame columns must be 1-D and of one length")
        if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
            raise ValueError("frame landmark ids must be strictly ascending")
        for column in (ids, ranges, bearings):
            column.flags.writeable = False

    @classmethod
    def from_observations(cls, frame_id: int, timestamp: float,
                          odometry_delta: Pose2,
                          observations: tuple[Observation, ...]) -> Frame:
        return cls(frame_id, timestamp, odometry_delta,
                   np.array([o.landmark_id for o in observations],
                            dtype=np.int64),
                   np.array([o.range for o in observations], dtype=np.float64),
                   np.array([o.bearing for o in observations],
                            dtype=np.float64))

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(map(Observation, self.landmark_ids.tolist(),
                         self.ranges.tolist(), self.bearings.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return ((self.frame_id, self.timestamp, self.odometry_delta)
                == (other.frame_id, other.timestamp, other.odometry_delta)
                and all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                        for a, b in ((self.landmark_ids, other.landmark_ids),
                                     (self.ranges, other.ranges),
                                     (self.bearings, other.bearings))))


@dataclass(slots=True)
class MapPoint:
    """A landmark estimate of one map.

    ``observers`` holds the ids of the map's keyframes whose columns name
    this point, strictly ascending: the inverse of the keyframe columns.
    Only ``Map``'s structural writers change it; a point enters a map
    with its tuple, which is empty unless the point moves with its
    keyframes from another map.
    """

    id: int
    x: float
    y: float
    origin_landmark: int
    observers: tuple[KeyFrameId, ...] = ()


def _with_observer(observers: tuple[KeyFrameId, ...], kf_id: KeyFrameId
                   ) -> tuple[KeyFrameId, ...]:
    """An ascending observer tuple with kf_id in it."""
    if not observers or observers[-1] < kf_id:
        # New keyframes have the largest ids, so this is the usual case.
        return observers + (kf_id,)
    i = bisect_left(observers, kf_id)
    if observers[i] == kf_id:
        return observers
    return observers[:i] + (kf_id,) + observers[i:]


def _without_observer(observers: tuple[KeyFrameId, ...], kf_id: KeyFrameId
                      ) -> tuple[KeyFrameId, ...]:
    """An ascending observer tuple with kf_id taken out."""
    i = bisect_left(observers, kf_id)
    if i < len(observers) and observers[i] == kf_id:
        return observers[:i] + observers[i + 1:]
    return observers


def _freeze_columns(mp_ids: np.ndarray, landmark_ids: np.ndarray,
                    ranges: np.ndarray, bearings: np.ndarray) -> None:
    """Check a keyframe's observation columns and make them read-only."""
    if not (mp_ids.dtype == np.uint64 and landmark_ids.dtype == np.int64
            and ranges.dtype == np.float64 and bearings.dtype == np.float64):
        raise ValueError(
            "keyframe columns must be uint64, int64, float64, float64")
    columns = (mp_ids, landmark_ids, ranges, bearings)
    if not (all(c.ndim == 1 for c in columns)
            and len(mp_ids) == len(landmark_ids) == len(ranges)
            == len(bearings)):
        raise ValueError("keyframe columns must be 1-D and of one length")
    if len(mp_ids) > 1 and not (mp_ids[1:] > mp_ids[:-1]).all():
        raise ValueError("keyframe map point ids must be strictly ascending")
    for column in columns:
        column.flags.writeable = False


def _observation_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """The checked, read-only keyframe columns of ``(mp_id, landmark_id,
    range, bearing)`` rows, which may come in any order."""
    rows = sorted(rows)
    mp_ids, landmark_ids, ranges, bearings = (
        zip(*rows) if rows else ((), (), (), ()))
    columns = (np.array(mp_ids, dtype=np.uint64),
               np.array(landmark_ids, dtype=np.int64),
               np.array(ranges, dtype=np.float64),
               np.array(bearings, dtype=np.float64))
    _freeze_columns(*columns)
    return columns


@dataclass(slots=True, eq=False)
class KeyFrame:
    """A tracked frame kept in the map, with its map point observations.

    The observations are four columns of one length, row i being one
    measurement: ``mp_ids`` (uint64, strictly ascending), the observed
    ``landmark_ids`` (int64), ``ranges`` and ``bearings`` (float64). The
    constructor checks them and clears their writeable flag, and only
    ``Map.set_observations`` replaces them. ``observations`` builds a
    read-only ``{mp_id: Observation}`` mapping on demand, and
    ``from_rows``/``from_observations`` build a keyframe from rows or from
    such a mapping. Two keyframes are equal when their scalars and
    covisibility are and their columns have the same bytes.
    """

    id: KeyFrameId
    pose: Pose2
    map_id: MapId
    mp_ids: np.ndarray
    landmark_ids: np.ndarray
    ranges: np.ndarray
    bearings: np.ndarray
    ref_point_count: int = 0
    covisible: dict[KeyFrameId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _freeze_columns(self.mp_ids, self.landmark_ids, self.ranges,
                        self.bearings)

    @classmethod
    def from_rows(cls, kf_id: KeyFrameId, pose: Pose2, map_id: MapId, rows,
                  ref_point_count: int = 0) -> KeyFrame:
        """A keyframe of ``(mp_id, landmark_id, range, bearing)`` rows."""
        return cls(kf_id, pose, map_id, *_observation_columns(rows),
                   ref_point_count=ref_point_count)

    @classmethod
    def from_observations(cls, kf_id: KeyFrameId, pose: Pose2, map_id: MapId,
                          observations: Mapping[int, Observation],
                          ref_point_count: int = 0) -> KeyFrame:
        return cls.from_rows(
            kf_id, pose, map_id,
            [(mp_id, o.landmark_id, o.range, o.bearing)
             for mp_id, o in observations.items()], ref_point_count)

    @property
    def observations(self) -> Mapping[int, Observation]:
        return MappingProxyType(dict(zip(
            self.mp_ids.tolist(),
            map(Observation, self.landmark_ids.tolist(), self.ranges.tolist(),
                self.bearings.tolist()))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyFrame):
            return NotImplemented
        return ((self.id, self.pose, self.map_id, self.ref_point_count,
                 self.covisible)
                == (other.id, other.pose, other.map_id, other.ref_point_count,
                    other.covisible)
                and all(a.tobytes() == b.tobytes()
                        for a, b in ((self.mp_ids, other.mp_ids),
                                     (self.landmark_ids, other.landmark_ids),
                                     (self.ranges, other.ranges),
                                     (self.bearings, other.bearings))))


@dataclass
class Map:
    """Keyframes and map points of one map, with a structure version.

    Every structural write goes through one of four methods:
    ``add_keyframe``, ``add_point``, ``remove_point`` and
    ``set_observations``. Each bumps ``structure_version``, so anything
    derived from keyframe membership, keyframe observations or point
    existence can be kept until the version moves: ``track_cache`` holds
    the tracker's window as ``((structure_version, window), value)``.
    The same writers keep every point's ``observers`` equal to the
    inverse of the keyframe columns: ``add_keyframe`` and
    ``set_observations`` register and unregister the keyframe on the
    points the map holds, so a point is added before the keyframes that
    observe it. Observer writes do not move the version on their own.
    Poses, point positions and covisibility are written in place and do
    not move it either. ``structure_version`` and ``track_cache`` take no
    part in equality.
    """

    map_id: MapId
    origin_kf: KeyFrameId
    keyframes: dict[KeyFrameId, KeyFrame] = field(default_factory=dict)
    map_points: dict[int, MapPoint] = field(default_factory=dict)
    initialized_optimized: bool = False
    structure_version: int = field(default=0, compare=False)
    track_cache: tuple = field(default=(None, None), compare=False, repr=False)

    def add_keyframe(self, kf: KeyFrame) -> None:
        self.keyframes[kf.id] = kf
        points = self.map_points
        for mp_id in kf.mp_ids.tolist():
            mp = points.get(mp_id)
            if mp is not None:
                mp.observers = _with_observer(mp.observers, kf.id)
        self.structure_version += 1

    def add_point(self, mp: MapPoint) -> None:
        self.map_points[mp.id] = mp
        self.structure_version += 1

    def remove_point(self, mp_id: int) -> None:
        del self.map_points[mp_id]
        self.structure_version += 1

    def set_observations(self, kf_id: KeyFrameId, rows) -> None:
        """Replace a keyframe's columns by ``(mp_id, landmark_id, range,
        bearing)`` rows, in any order."""
        kf = self.keyframes[kf_id]
        old = set(kf.mp_ids.tolist())
        (kf.mp_ids, kf.landmark_ids, kf.ranges,
         kf.bearings) = _observation_columns(rows)
        new = set(kf.mp_ids.tolist())
        points = self.map_points
        for mp_id in old - new:
            mp = points.get(mp_id)
            if mp is not None:
                mp.observers = _without_observer(mp.observers, kf_id)
        for mp_id in new - old:
            mp = points.get(mp_id)
            if mp is not None:
                mp.observers = _with_observer(mp.observers, kf_id)
        self.structure_version += 1

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
    matches: dict[int, int]  # map point id -> row of the tracked frame
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
