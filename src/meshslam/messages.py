"""Typed message payloads and their canonical binary forms.

New keyframes carry the complete object definition including the map
points they introduce; keyframe updates carry only changed parts (pose,
visible point ids). Map batches bundle keyframe and map point updates,
either applied immediately (local kind) or staged for atomic promotion
(global kinds).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from meshslam.codec import ID, U64, Reader, Writer
from meshslam.geometry import Pose2
from meshslam.ids import (
    KeyFrameId,
    MapId,
    map_point_id_from_int,
    map_point_id_to_int,
)


class PayloadKind(enum.Enum):
    NEW_KEYFRAME = 1
    KEYFRAME_UPDATE = 2
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
    observers: tuple[KeyFrameId, ...] = ()


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
    visible: tuple[str, ...] = ()  # empty means observation set unchanged


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
# mp ref, x, y, landmark, observer count
_MP_HEAD = struct.Struct("<QddQI")
# map id, is origin, map init optimized, kf id, pose, ref point count,
# observation count
_NEW_KF_HEAD = struct.Struct("<BQBBBQdddII")
# kf id, pose, visible count
_KF_UPDATE_HEAD = struct.Struct("<BQdddI")
# batch kind, map id, epoch, seq, final, set init optimized, kf update count
_BATCH_HEAD = struct.Struct("<BBQIIBBI")
# epoch, map id, batch kind
_GLOBAL_START = struct.Struct("<IBQB")


def _put_wire_mp(w: Writer, mp: WireMapPoint) -> None:
    w.pack(_MP_HEAD, map_point_id_to_int(mp.mp_id), mp.x, mp.y,
           mp.landmark_id, len(mp.observers))
    for kid in mp.observers:
        w.pack(ID, kid.origin, kid.seq)


def _get_wire_mps(r: Reader, n: int) -> tuple[WireMapPoint, ...]:
    points = []
    for _ in range(n):
        mp_ref, x, y, lm, n_obs = r.unpack(_MP_HEAD)
        observers = tuple(KeyFrameId(origin, seq) for origin, seq
                          in r.unpack_many(ID, n_obs)) if n_obs else ()
        points.append(WireMapPoint(map_point_id_from_int(mp_ref), x, y, lm,
                                   observers))
    return tuple(points)


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
        w.u32(len(payload.new_points))
        for mp in payload.new_points:
            _put_wire_mp(w, mp)
    elif isinstance(payload, KeyFrameUpdate):
        _encode_kf_update(w, payload)
    elif isinstance(payload, MapBatch):
        w.pack(_BATCH_HEAD, payload.kind.value, payload.map_id.origin,
               payload.map_id.counter, payload.epoch, payload.seq,
               1 if payload.final else 0,
               1 if payload.set_init_optimized else 0,
               len(payload.kf_updates))
        for upd in payload.kf_updates:
            _encode_kf_update(w, upd)
        w.u32(len(payload.mp_updates))
        for mp in payload.mp_updates:
            _put_wire_mp(w, mp)
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


def _encode_kf_update(w: Writer, upd: KeyFrameUpdate) -> None:
    p = upd.pose
    w.pack(_KF_UPDATE_HEAD, upd.kf_id.origin, upd.kf_id.seq, p.x, p.y,
           p.theta, len(upd.visible))
    for mp_id in upd.visible:
        w.pack(U64, map_point_id_to_int(mp_id))


def _decode_kf_update(r: Reader) -> KeyFrameUpdate:
    origin, seq, x, y, theta, n_visible = r.unpack(_KF_UPDATE_HEAD)
    visible = tuple(map_point_id_from_int(ref)
                    for (ref,) in r.unpack_many(U64, n_visible))
    return KeyFrameUpdate(KeyFrameId(origin, seq), Pose2(x, y, theta), visible)


def decode_payload(kind: PayloadKind, data: bytes):
    r = Reader(data)
    if kind is PayloadKind.NEW_KEYFRAME:
        (map_origin, map_counter, is_origin, init_opt, kf_origin, kf_seq,
         x, y, theta, ref_count, n_obs) = r.unpack(_NEW_KF_HEAD)
        observations = tuple(
            WireObservation(map_point_id_from_int(ref), lm, rng, brg)
            for ref, lm, rng, brg in r.unpack_many(_OBSERVATION, n_obs))
        new_points = _get_wire_mps(r, r.u32())
        kf = WireKeyFrame(KeyFrameId(kf_origin, kf_seq), Pose2(x, y, theta),
                          ref_count, observations)
        return NewKeyFramePayload(MapId(map_origin, map_counter),
                                  is_origin != 0, init_opt != 0, kf, new_points)
    if kind is PayloadKind.KEYFRAME_UPDATE:
        return _decode_kf_update(r)
    if kind is PayloadKind.MAP_BATCH:
        (bkind, map_origin, map_counter, epoch, seq, final, set_init,
         n_kf_updates) = r.unpack(_BATCH_HEAD)
        bkind = BatchKind(bkind)
        kf_updates = tuple(_decode_kf_update(r) for _ in range(n_kf_updates))
        mp_updates = _get_wire_mps(r, r.u32())
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
