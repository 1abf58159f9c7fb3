"""Typed message payloads and their canonical binary forms.

New keyframes carry the complete object definition including the map
points they introduce. Map batches bundle keyframe updates (pose only)
and map point updates (position only), either applied immediately
(local kind) or staged for atomic promotion (global kinds). Observer
sets never travel: every replica derives them from keyframe
observations.

A record class that is a ``NamedTuple`` is one struct row: its field
order is its wire layout.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import NamedTuple

from meshslam.codec import ID, Reader, TrailingInput, Writer, flag
from meshslam.geometry import Pose2
from meshslam.ids import KeyFrameId, MapId


class PayloadKind(enum.Enum):
    NEW_KEYFRAME = 1
    MAP_BATCH = 3
    GLOBAL_UPDATE_START = 4
    DISCOVERY = 5
    HEARTBEAT = 6


class Target(enum.Enum):
    NONE = 0
    LM = 1
    LC = 2


class BatchKind(enum.Enum):
    LOCAL = 0
    GBA = 1
    LC = 2
    MM = 3


class WireObservation(NamedTuple):
    """One ``_OBSERVATION`` row."""

    mp_id: int
    landmark_id: int
    range: float
    bearing: float


@dataclass(frozen=True, slots=True)
class WireKeyFrame:
    kf_id: KeyFrameId
    pose: Pose2
    ref_point_count: int
    observations: tuple[WireObservation, ...]


class WireMapPoint(NamedTuple):
    """One ``_MAP_POINT`` row."""

    mp_id: int
    x: float
    y: float
    landmark_id: int


@dataclass(frozen=True, slots=True)
class NewKeyFramePayload:
    map_id: MapId
    is_map_origin: bool
    map_init_optimized: bool
    keyframe: WireKeyFrame
    new_points: tuple[WireMapPoint, ...]


@dataclass(frozen=True, slots=True)
class KeyFrameUpdate:
    kf_id: KeyFrameId
    pose: Pose2


@dataclass(frozen=True, slots=True)
class MapBatch:
    kind: BatchKind
    map_id: MapId
    epoch: int
    seq: int
    final: bool
    kf_updates: tuple[KeyFrameUpdate, ...] = ()
    mp_updates: tuple[WireMapPoint, ...] = ()
    fused: tuple[tuple[int, int], ...] = ()  # (dead id, survivor id)
    absorbed_map: MapId | None = None
    set_init_optimized: bool = False


@dataclass(frozen=True, slots=True)
class GlobalUpdateStart:
    epoch: int
    map_id: MapId
    kind: BatchKind


@dataclass(frozen=True, slots=True)
class DiscoveryPayload:
    session: int


@dataclass(frozen=True, slots=True)
class HeartbeatPayload:
    pass


# Fixed runs of fields, each packed or unpacked with one call. A map or
# keyframe id is (origin u8, counter u64), a pose three doubles and a map
# point id a u64.
_FUSED = struct.Struct("<QQ")  # dead id, survivor id
_OBSERVATION = struct.Struct("<QQdd")  # WireObservation
_MAP_POINT = struct.Struct("<QddQ")  # WireMapPoint
# map id, is origin, map init optimized, kf id, pose, ref point count,
# observation count
_NEW_KF_HEAD = struct.Struct("<BQBBBQdddII")
# kf id, pose
_KF_UPDATE = struct.Struct("<BQddd")
# batch kind, map id, epoch, seq, final, set init optimized, kf update count
_BATCH_HEAD = struct.Struct("<BBQIIBBI")
# epoch, map id, batch kind
_GLOBAL_START = struct.Struct("<IBQB")


def encode_payload(payload) -> bytes:
    w = Writer()
    if isinstance(payload, NewKeyFramePayload):
        kf = payload.keyframe
        p = kf.pose
        w.pack(_NEW_KF_HEAD, payload.map_id.origin, payload.map_id.counter,
               1 if payload.is_map_origin else 0,
               1 if payload.map_init_optimized else 0,
               kf.kf_id.origin, kf.kf_id.seq, p.x, p.y, p.theta,
               kf.ref_point_count, len(kf.observations))
        w.pack_many(_OBSERVATION, kf.observations)
        w.u32(len(payload.new_points)).pack_many(_MAP_POINT, payload.new_points)
    elif isinstance(payload, MapBatch):
        w.pack(_BATCH_HEAD, payload.kind.value, payload.map_id.origin,
               payload.map_id.counter, payload.epoch, payload.seq,
               1 if payload.final else 0,
               1 if payload.set_init_optimized else 0,
               len(payload.kf_updates))
        for upd in payload.kf_updates:
            p = upd.pose
            w.pack(_KF_UPDATE, upd.kf_id.origin, upd.kf_id.seq, p.x, p.y,
                   p.theta)
        w.u32(len(payload.mp_updates)).pack_many(_MAP_POINT, payload.mp_updates)
        w.u32(len(payload.fused)).pack_many(_FUSED, payload.fused)
        if payload.absorbed_map is None:
            w.u8(0)
        else:
            w.u8(1).pack(ID, *payload.absorbed_map)
    elif isinstance(payload, GlobalUpdateStart):
        w.pack(_GLOBAL_START, payload.epoch, payload.map_id.origin,
               payload.map_id.counter, payload.kind.value)
    elif isinstance(payload, DiscoveryPayload):
        w.u64(payload.session)
    elif isinstance(payload, HeartbeatPayload):
        pass
    else:
        raise TypeError(f"cannot encode payload {type(payload)!r}")
    return w.getvalue()


def decode_payload(kind: PayloadKind, data: bytes):
    """The payload encoded in data; raises TruncatedInput if data ends
    early and TrailingInput if bytes follow the payload."""
    r = Reader(data)
    payload = _decode(kind, r)
    if not r.at_end():
        raise TrailingInput(f"{r.remaining()} bytes after a {kind.name} payload")
    return payload


def _decode(kind: PayloadKind, r: Reader):
    if kind is PayloadKind.NEW_KEYFRAME:
        (map_origin, map_counter, is_origin, init_opt, kf_origin, kf_seq,
         x, y, theta, ref_count, n_obs) = r.unpack(_NEW_KF_HEAD)
        observations = tuple(map(WireObservation._make,
                                 r.unpack_many(_OBSERVATION, n_obs)))
        new_points = tuple(map(WireMapPoint._make,
                               r.unpack_many(_MAP_POINT, r.u32())))
        kf = WireKeyFrame(KeyFrameId(kf_origin, kf_seq), Pose2(x, y, theta),
                          ref_count, observations)
        return NewKeyFramePayload(MapId(map_origin, map_counter),
                                  flag(is_origin), flag(init_opt), kf,
                                  new_points)
    if kind is PayloadKind.MAP_BATCH:
        (bkind, map_origin, map_counter, epoch, seq, final, set_init,
         n_kf_updates) = r.unpack(_BATCH_HEAD)
        bkind = BatchKind(bkind)
        kf_updates = tuple(
            KeyFrameUpdate(KeyFrameId(kf_origin, kf_seq), Pose2(x, y, theta))
            for kf_origin, kf_seq, x, y, theta
            in r.unpack_many(_KF_UPDATE, n_kf_updates))
        mp_updates = tuple(map(WireMapPoint._make,
                               r.unpack_many(_MAP_POINT, r.u32())))
        fused = tuple(r.unpack_many(_FUSED, r.u32()))
        absorbed = MapId(*r.unpack(ID)) if flag(r.u8()) else None
        return MapBatch(bkind, MapId(map_origin, map_counter), epoch, seq,
                        flag(final), kf_updates, mp_updates, fused, absorbed,
                        flag(set_init))
    if kind is PayloadKind.GLOBAL_UPDATE_START:
        epoch, map_origin, map_counter, bkind = r.unpack(_GLOBAL_START)
        return GlobalUpdateStart(epoch, MapId(map_origin, map_counter),
                                 BatchKind(bkind))
    if kind is PayloadKind.DISCOVERY:
        return DiscoveryPayload(r.u64())
    if kind is PayloadKind.HEARTBEAT:
        return HeartbeatPayload()
    raise TypeError(f"cannot decode payload kind {kind!r}")
