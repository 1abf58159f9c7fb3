"""Typed message payloads and their canonical binary forms.

New keyframes carry the complete object definition including the map
points they introduce. Map batches bundle keyframe updates (pose only)
and map point updates (position only), either applied immediately
(local kind) or staged for atomic promotion (global kinds). Observer
sets never travel: every replica derives them from keyframe
observations.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from meshslam.codec import ID, Reader, TrailingInput, Writer
from meshslam.geometry import Pose2
from meshslam.ids import (
    KeyFrameId,
    MapId,
    map_point_id_from_int,
    map_point_id_to_int,
)


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


@dataclass(frozen=True, slots=True)
class WireObservation:
    mp_id: str
    landmark_id: int
    range: float
    bearing: float


@dataclass(frozen=True, slots=True)
class WireKeyFrame:
    kf_id: KeyFrameId
    pose: Pose2
    ref_point_count: int
    observations: tuple[WireObservation, ...]


@dataclass(frozen=True, slots=True)
class WireMapPoint:
    mp_id: str
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
    fused: tuple[tuple[str, str], ...] = ()  # (dead id, survivor id)
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
# point reference its id as a u64.
_FUSED = struct.Struct("<QQ")
# mp ref, landmark, range, bearing
_OBSERVATION = struct.Struct("<QQdd")
# mp ref, x, y, landmark
_MAP_POINT = struct.Struct("<QddQ")
# map id, is origin, map init optimized, kf id, pose, ref point count,
# observation count
_NEW_KF_HEAD = struct.Struct("<BQBBBQdddII")
# kf id, pose
_KF_UPDATE = struct.Struct("<BQddd")
# batch kind, map id, epoch, seq, final, set init optimized, kf update count
_BATCH_HEAD = struct.Struct("<BBQIIBBI")
# epoch, map id, batch kind
_GLOBAL_START = struct.Struct("<IBQB")


def _put_wire_mps(w: Writer, points: tuple[WireMapPoint, ...]) -> None:
    w.u32(len(points))
    for mp in points:
        w.pack(_MAP_POINT, map_point_id_to_int(mp.mp_id), mp.x, mp.y,
               mp.landmark_id)


def _get_wire_mps(r: Reader) -> tuple[WireMapPoint, ...]:
    return tuple(WireMapPoint(map_point_id_from_int(mp_ref), x, y, lm)
                 for mp_ref, x, y, lm in r.unpack_many(_MAP_POINT, r.u32()))


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
        for o in kf.observations:
            w.pack(_OBSERVATION, map_point_id_to_int(o.mp_id), o.landmark_id,
                   o.range, o.bearing)
        _put_wire_mps(w, payload.new_points)
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
        _put_wire_mps(w, payload.mp_updates)
        w.u32(len(payload.fused))
        for dead, surv in payload.fused:
            w.pack(_FUSED, map_point_id_to_int(dead), map_point_id_to_int(surv))
        if payload.absorbed_map is not None:
            w.u8(1)
            w.pack(ID, payload.absorbed_map.origin, payload.absorbed_map.counter)
        else:
            w.u8(0)
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
        observations = tuple(
            WireObservation(map_point_id_from_int(ref), lm, rng, brg)
            for ref, lm, rng, brg in r.unpack_many(_OBSERVATION, n_obs))
        new_points = _get_wire_mps(r)
        kf = WireKeyFrame(KeyFrameId(kf_origin, kf_seq), Pose2(x, y, theta),
                          ref_count, observations)
        return NewKeyFramePayload(MapId(map_origin, map_counter),
                                  is_origin != 0, init_opt != 0, kf, new_points)
    if kind is PayloadKind.MAP_BATCH:
        (bkind, map_origin, map_counter, epoch, seq, final, set_init,
         n_kf_updates) = r.unpack(_BATCH_HEAD)
        bkind = BatchKind(bkind)
        kf_updates = tuple(
            KeyFrameUpdate(KeyFrameId(kf_origin, kf_seq), Pose2(x, y, theta))
            for kf_origin, kf_seq, x, y, theta
            in r.unpack_many(_KF_UPDATE, n_kf_updates))
        mp_updates = _get_wire_mps(r)
        fused = tuple(
            (map_point_id_from_int(dead), map_point_id_from_int(surv))
            for dead, surv in r.unpack_many(_FUSED, r.u32()))
        absorbed = MapId(*r.unpack(ID)) if r.u8() != 0 else None
        return MapBatch(bkind, MapId(map_origin, map_counter), epoch, seq,
                        final != 0, kf_updates, mp_updates, fused, absorbed,
                        set_init != 0)
    if kind is PayloadKind.GLOBAL_UPDATE_START:
        epoch, map_origin, map_counter, bkind = r.unpack(_GLOBAL_START)
        return GlobalUpdateStart(epoch, MapId(map_origin, map_counter),
                                 BatchKind(bkind))
    if kind is PayloadKind.DISCOVERY:
        return DiscoveryPayload(r.u64())
    if kind is PayloadKind.HEARTBEAT:
        return HeartbeatPayload()
    raise TypeError(f"cannot decode payload kind {kind!r}")
