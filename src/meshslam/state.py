"""Two-tier replicated SLAM state.

The promoted tier (``slam``) only ever holds complete, internally
consistent maps; everything else a node has heard about sits in staging
buffers until its dependencies arrive. Staging plus promoted content
together form the node's full knowledge. Conflicting writes to a pose or
a point position resolve to the highest ``(epoch, phase, seq)`` update key,
whether the write came from a local batch, a global promotion or a staged
replay; stale-epoch batches are discarded, and global updates promote
atomically only once every batch of the epoch is held.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from dataclasses import dataclass, field

from meshslam.codec import ID, U32, U64
from meshslam.core import covis
from meshslam.core.loops import absorb_map, fuse_map_points
from meshslam.core.types import KeyFrame, Map, MapPoint, SlamError
from meshslam.ids import KeyFrameId, MapId
from meshslam.messages import (
    BatchKind,
    KeyFrameUpdate,
    MapBatch,
    NewKeyFramePayload,
    WireMapPoint,
)

DIGEST_SCHEMA = 1


class EpochMismatch(SlamError):
    """A global batch arrived for an epoch older than the current one."""


class DanglingReference(SlamError):
    """Promoting a keyframe would leave it observing a missing map point."""


class PromotionOutcome(enum.Enum):
    PROMOTED = "promoted"
    STAGED = "staged"
    DUPLICATE = "duplicate"


# Latest-writer ordering across update sources: a newer pause epoch always
# wins; within an epoch, local refinements (phase 1) outrank the global
# snapshot (phase 0) they follow; batch sequence breaks the remaining ties.
UpdateKey = tuple[int, int, int]

PHASE_GLOBAL = 0
PHASE_LOCAL = 1


def update_key(epoch: int, phase: int, seq: int) -> UpdateKey:
    return (epoch, phase, seq)


@dataclass
class SystemState:
    slam: dict[MapId, Map] = field(default_factory=dict)
    dirty_kfs: set[KeyFrameId] = field(default_factory=set)
    dirty_mps: set[int] = field(default_factory=set)
    paused: bool = False
    pause_epoch: int = 0
    promoted_epoch: int = 0  # newest global epoch promoted here; 0 is none

    # Staging buffers: the superset of knowledge beyond the promoted tier.
    staged_kfs: dict[MapId, dict[KeyFrameId, NewKeyFramePayload]] = field(
        default_factory=dict)
    staged_kf_updates: dict[KeyFrameId, list[tuple[UpdateKey, KeyFrameUpdate]]] = \
        field(default_factory=dict)
    staged_mp_updates: dict[int, list[tuple[UpdateKey, WireMapPoint]]] = field(
        default_factory=dict)
    staged_global: dict[int, dict[int, MapBatch]] = field(default_factory=dict)
    pending_local: dict[int, list[MapBatch]] = field(default_factory=dict)
    globally_optimized: set[MapId] = field(default_factory=set)
    # Tombstones from point fusion and map merging: a message built before
    # the event may still reference the dead id; arrivals re-key through
    # these maps.
    fused_forward: dict[int, int] = field(default_factory=dict)
    absorbed_forward: dict[MapId, MapId] = field(default_factory=dict)

    # Latest-writer bookkeeping.
    applied_kf_seq: dict[KeyFrameId, UpdateKey] = field(default_factory=dict)
    applied_mp_seq: dict[int, UpdateKey] = field(default_factory=dict)
    kf_map_index: dict[KeyFrameId, MapId] = field(default_factory=dict)

    def find_keyframe(self, kf_id: KeyFrameId) -> KeyFrame | None:
        map_id = self.kf_map_index.get(kf_id)
        if map_id is None:
            return None
        m = self.slam.get(map_id)
        if m is None:
            return None
        return m.keyframes.get(kf_id)

    def register_map(self, m: Map) -> None:
        """Adopt a locally constructed map into the promoted tier."""
        self.slam[m.map_id] = m
        for kf_id in m.keyframes:
            self.kf_map_index[kf_id] = m.map_id

    def mark_dirty(self, kf_ids, mp_ids) -> None:
        self.dirty_kfs |= set(kf_ids)
        self.dirty_mps |= set(mp_ids)


def observe_epoch(state: SystemState, epoch: int) -> None:
    """Learn that a global update epoch exists; newer epochs pause the node
    even when the start notification itself was delayed or lost."""
    if epoch > state.pause_epoch:
        state.pause_epoch = epoch
        state.paused = True


def resolve_mp_id(state: SystemState, mp_id: int) -> int:
    """Chase fusion tombstones to the surviving map point id."""
    seen = []
    while mp_id in state.fused_forward:
        seen.append(mp_id)
        mp_id = state.fused_forward[mp_id]
    for dead in seen[:-1]:
        state.fused_forward[dead] = mp_id  # path compression
    return mp_id


def note_fusions(state: SystemState, fused) -> None:
    for dead, surv in dict(fused).items():
        if dead != surv:
            state.fused_forward[dead] = surv


def resolve_map_id(state: SystemState, map_id: MapId) -> MapId:
    while map_id in state.absorbed_forward:
        map_id = state.absorbed_forward[map_id]
    return map_id


def note_merge(state: SystemState, absorbed: MapId | None,
               surviving: MapId) -> None:
    """Book a merge whose entities already moved: the survivor's keyframes
    are indexed under it and the absorbed id forwards to it."""
    if absorbed is not None and absorbed != surviving:
        state.absorbed_forward[absorbed] = surviving
        m = state.slam.get(surviving)
        if m is not None:
            for kf_id in m.keyframes:
                state.kf_map_index[kf_id] = surviving
        # Anything buffered under the dead map retries under the survivor.
        buffered = state.staged_kfs.pop(absorbed, None)
        if buffered:
            state.staged_kfs.setdefault(surviving, {}).update(buffered)


def _payload_resolves(state: SystemState, m: Map, payload: NewKeyFramePayload) -> bool:
    # Only the new points _insert_keyframe adds count: one fused away
    # resolves to its survivor, which must already be in the map.
    own = {mp.mp_id for mp in payload.new_points
           if resolve_mp_id(state, mp.mp_id) == mp.mp_id}
    for obs in payload.keyframe.observations:
        mp_id = resolve_mp_id(state, obs.mp_id)
        if mp_id not in own and mp_id not in m.map_points:
            return False
    return True


def _insert_keyframe(state: SystemState, m: Map, payload: NewKeyFramePayload) -> None:
    kf_wire = payload.keyframe
    for mp in payload.new_points:
        mp_id = resolve_mp_id(state, mp.mp_id)
        if mp_id == mp.mp_id and mp_id not in m.map_points:
            m.add_point(MapPoint(mp_id, mp.x, mp.y, mp.landmark_id))
    # Mirror fusion semantics: identity-keyed observations first, then
    # re-keyed ones only where the survivor is not already observed.
    rows: dict[int, tuple[int, int, float, float]] = {}
    rekeyed: list[tuple[int, int, float, float]] = []
    for o in kf_wire.observations:
        mp_id = resolve_mp_id(state, o.mp_id)
        if mp_id == o.mp_id:
            rows[mp_id] = o
        else:
            rekeyed.append((mp_id, o.landmark_id, o.range, o.bearing))
    for row in rekeyed:
        rows.setdefault(row[0], row)
    # Staging soundness: promotion must never leave dangling references.
    missing = [mp_id for mp_id in rows if mp_id not in m.map_points]
    if missing:
        raise DanglingReference(
            f"keyframe {kf_wire.kf_id} observes {len(missing)} missing map "
            "points")
    kf = KeyFrame.from_rows(kf_wire.kf_id, kf_wire.pose, m.map_id,
                            rows.values(),
                            ref_point_count=kf_wire.ref_point_count)
    m.add_keyframe(kf)
    state.kf_map_index[kf.id] = m.map_id
    covis.link_new_keyframe(m, kf.id)
    if payload.map_init_optimized:
        m.initialized_optimized = True

    # Replay any updates that were waiting on this keyframe or its points.
    waiting = state.staged_kf_updates.pop(kf.id, None)
    if waiting:
        key, upd = max(waiting, key=lambda item: item[0])
        _update_pose(state, kf, upd, key)
    for mp in payload.new_points:
        waiting_mp = state.staged_mp_updates.pop(mp.mp_id, None)
        if waiting_mp and mp.mp_id in m.map_points:
            key, wmp = max(waiting_mp, key=lambda item: item[0])
            _update_point(state, m.map_points[mp.mp_id], wmp, key)


def apply_new_keyframe(state: SystemState, payload: NewKeyFramePayload
                       ) -> PromotionOutcome:
    """Insert a complete keyframe (with its new points) or stage it.

    Re-delivery of an already promoted keyframe is a no-op. A keyframe
    whose map is unknown, or whose referenced points have not arrived
    yet, is buffered and retried as dependencies promote.
    """
    kf_id = payload.keyframe.kf_id
    if state.find_keyframe(kf_id) is not None:
        return PromotionOutcome.DUPLICATE

    map_id = resolve_map_id(state, payload.map_id)
    m = state.slam.get(map_id)
    if m is not None and payload.is_map_origin and payload.map_id == map_id:
        # The map was started by a merge before its origin arrived.
        m.origin_kf = kf_id
    if m is None:
        if payload.is_map_origin:
            optimized = (payload.map_init_optimized
                         or map_id in state.globally_optimized)
            m = Map(map_id, kf_id, initialized_optimized=optimized)
            state.slam[map_id] = m
        else:
            state.staged_kfs.setdefault(map_id, {})[kf_id] = payload
            return PromotionOutcome.STAGED

    if not _payload_resolves(state, m, payload):
        state.staged_kfs.setdefault(map_id, {})[kf_id] = payload
        return PromotionOutcome.STAGED

    _insert_keyframe(state, m, payload)
    _drain_staged_keyframes(state, map_id)
    return PromotionOutcome.PROMOTED


def _drain_staged_keyframes(state: SystemState, map_id: MapId) -> None:
    """Promote staged keyframes whose dependencies have now arrived."""
    progress = True
    while progress:
        progress = False
        buffered = state.staged_kfs.get(map_id)
        if not buffered:
            return
        m = state.slam.get(map_id)
        if m is None:
            return
        for kf_id in sorted(buffered):
            payload = buffered[kf_id]
            if kf_id in m.keyframes:
                del buffered[kf_id]
                progress = True
                continue
            if _payload_resolves(state, m, payload):
                del buffered[kf_id]
                _insert_keyframe(state, m, payload)
                progress = True
        if not buffered:
            del state.staged_kfs[map_id]


_NEVER: UpdateKey = (-1, -1, -1)


def _update_pose(state: SystemState, kf: KeyFrame | None,
                 upd: KeyFrameUpdate, key: UpdateKey) -> None:
    """Write a keyframe pose if key is the newest seen for it; with no
    keyframe yet, stage the update for replay at insertion."""
    if kf is None:
        state.staged_kf_updates.setdefault(upd.kf_id, []).append((key, upd))
    elif key > state.applied_kf_seq.get(kf.id, _NEVER):
        state.applied_kf_seq[kf.id] = key
        kf.pose = upd.pose


def _update_point(state: SystemState, mp: MapPoint | None,
                  wmp: WireMapPoint, key: UpdateKey) -> None:
    """Write a point position if key is the newest seen for it; with no
    point yet, stage the update for replay at insertion."""
    if mp is None:
        state.staged_mp_updates.setdefault(wmp.mp_id, []).append((key, wmp))
    elif key > state.applied_mp_seq.get(wmp.mp_id, _NEVER):
        state.applied_mp_seq[wmp.mp_id] = key
        mp.x, mp.y = wmp.x, wmp.y


def apply_map_batch(state: SystemState, batch: MapBatch) -> PromotionOutcome:
    """Apply a local batch immediately; stage global batches per epoch and
    promote the whole epoch atomically once sequence 0..final is held.
    A global batch of the epoch that already promoted is a duplicate.

    Raises EpochMismatch for batches of an epoch older than the current
    one (superseded data).
    """
    if batch.kind is BatchKind.LOCAL:
        if batch.epoch < state.pause_epoch:
            raise EpochMismatch(
                f"local batch epoch {batch.epoch} < {state.pause_epoch}")
        if batch.epoch > state.pause_epoch:
            observe_epoch(state, batch.epoch)
            state.pending_local.setdefault(batch.epoch, []).append(batch)
            return PromotionOutcome.STAGED
        _apply_local_batch(state, batch)
        return PromotionOutcome.PROMOTED

    if batch.epoch < state.pause_epoch:
        raise EpochMismatch(
            f"global batch epoch {batch.epoch} < {state.pause_epoch}")
    if batch.epoch == state.promoted_epoch:
        return PromotionOutcome.DUPLICATE
    observe_epoch(state, batch.epoch)
    per_epoch = state.staged_global.setdefault(batch.epoch, {})
    per_epoch[batch.seq] = batch
    final = next((b.seq for b in per_epoch.values() if b.final), None)
    if final is not None and all(s in per_epoch for s in range(final + 1)):
        _promote_global(state, batch.epoch)
        return PromotionOutcome.PROMOTED
    return PromotionOutcome.STAGED


def _apply_local_batch(state: SystemState, batch: MapBatch) -> None:
    key = update_key(batch.epoch, PHASE_LOCAL, batch.seq)
    for upd in batch.kf_updates:
        _update_pose(state, state.find_keyframe(upd.kf_id), upd, key)
    m = state.slam.get(resolve_map_id(state, batch.map_id))
    points = m.map_points if m is not None else {}
    for wmp in batch.mp_updates:
        _update_point(state, points.get(wmp.mp_id), wmp, key)
    if batch.set_init_optimized and m is not None:
        m.initialized_optimized = True


def _promote_global(state: SystemState, epoch: int) -> None:
    batches = [state.staged_global[epoch][s]
               for s in sorted(state.staged_global[epoch])]
    del state.staged_global[epoch]
    state.promoted_epoch = epoch
    head = batches[0]
    surviving = state.slam.get(head.map_id)

    # Re-home an absorbed map's entities under the surviving map id.
    absorbed = next((b.absorbed_map for b in batches if b.absorbed_map), None)
    if absorbed is not None and absorbed in state.slam:
        lost = state.slam.pop(absorbed)
        if surviving is None:
            # The survivor's keyframes are still in flight: its map starts
            # here, and its origin keyframe names itself when it arrives.
            surviving = Map(head.map_id, lost.origin_kf)
            state.slam[head.map_id] = surviving
        absorb_map(surviving, lost)
    note_merge(state, absorbed, head.map_id)

    for b in batches:
        note_fusions(state, dict(b.fused))
    if surviving is not None:
        for b in batches:
            for dead, surv in b.fused:
                fuse_map_points(surviving, dead, surv)
    keyframes = surviving.keyframes if surviving is not None else {}
    for b in batches:
        key = update_key(epoch, PHASE_GLOBAL, b.seq)
        # A keyframe (or whole map) still in flight stages its pose.
        for upd in b.kf_updates:
            _update_pose(state, keyframes.get(upd.kf_id), upd, key)
        for wmp in b.mp_updates:
            mp = surviving.map_points.get(wmp.mp_id) if surviving else None
            if mp is None and surviving is not None:
                # The snapshot names a point the surviving map lacks.
                mp = MapPoint(wmp.mp_id, wmp.x, wmp.y, wmp.landmark_id)
                surviving.add_point(mp)
            _update_point(state, mp, wmp, key)
    state.globally_optimized.add(head.map_id)
    if surviving is not None:
        surviving.initialized_optimized = True
        covis.rebuild_covisibility(surviving)

    state.paused = False

    # Local batches that raced ahead of this promotion apply now, and
    # keyframes buffered against re-homed or fused entities get retried.
    for pending in state.pending_local.pop(epoch, []):
        _apply_local_batch(state, pending)
    _drain_staged_keyframes(state, head.map_id)


def collect_dirty(state: SystemState, center: KeyFrameId, n_covisible: int,
                  schedule: list[int], seq_start: int, map_id: MapId,
                  set_init_optimized: bool = False) -> list[MapBatch]:
    """Build local batches from the dirty entities around a center keyframe.

    Covers center plus its strongest covisible neighbors, intersected
    with the dirty sets; collected ids leave the dirty sets, anything
    outside the window stays dirty. Batch sizes follow the caller's
    growth schedule (last entry repeats).
    """
    m = state.slam.get(map_id)
    if m is None or center not in m.keyframes:
        return []
    window = {center, *covis.strongest_covisible(m, center, n_covisible)}
    kf_ids = sorted(kid for kid in window if kid in state.dirty_kfs)
    mp_pool: set[int] = set()
    for kid in window:
        mp_pool.update(m.keyframes[kid].mp_ids.tolist())
    mp_ids = sorted(mid for mid in mp_pool
                    if mid in state.dirty_mps and mid in m.map_points)
    if not kf_ids and not mp_ids and not set_init_optimized:
        return []

    state.dirty_kfs.difference_update(kf_ids)
    state.dirty_mps.difference_update(mp_ids)
    return split_batches(m, BatchKind.LOCAL, state.pause_epoch, seq_start,
                         kf_ids, mp_ids, schedule,
                         set_init_optimized=set_init_optimized)


def split_batches(m: Map, kind: BatchKind, epoch: int, seq_start: int,
                  kf_ids: list[KeyFrameId], mp_ids: list[int],
                  schedule: list[int], *, final: bool = False,
                  fused: tuple[tuple[int, int], ...] = (),
                  absorbed_map: MapId | None = None,
                  set_init_optimized: bool = False) -> list[MapBatch]:
    """Split the current values of m's keyframes and points into batches.

    Keyframe ids fill batches of the schedule's sizes in turn (the last
    size repeats) and point ids spread evenly over those batches; there
    is always at least one batch. fused, absorbed_map and
    set_init_optimized ride on the first batch; with final set, the last
    batch closes the epoch.
    """
    chunks: list[list[KeyFrameId]] = []
    i = 0
    while i < len(kf_ids):
        size = schedule[min(len(chunks), len(schedule) - 1)]
        chunks.append(kf_ids[i:i + size])
        i += size
    if not chunks:
        chunks = [[]]

    n_batches = len(chunks)
    per = (len(mp_ids) + n_batches - 1) // n_batches if mp_ids else 0
    batches = []
    for bi, chunk in enumerate(chunks):
        kf_updates = tuple(
            KeyFrameUpdate(kid, m.keyframes[kid].pose) for kid in chunk
        )
        mp_slice = mp_ids[bi * per:(bi + 1) * per] if per else []
        mp_updates = tuple(
            WireMapPoint(mid, m.map_points[mid].x, m.map_points[mid].y,
                         m.map_points[mid].origin_landmark)
            for mid in mp_slice
        )
        first = bi == 0
        batches.append(MapBatch(
            kind, m.map_id, epoch, seq_start + bi,
            final=final and bi == n_batches - 1,
            kf_updates=kf_updates, mp_updates=mp_updates,
            fused=fused if first else (),
            absorbed_map=absorbed_map if first else None,
            set_init_optimized=set_init_optimized and first,
        ))
    return batches


# Fixed runs of the canonical form, each packed with one call.
_MAP_HEAD = struct.Struct("<BQBQBI")  # map id, origin kf, init flag, n kfs
_COUNTS = struct.Struct("<II")  # ref point count, observation count
_OBS_HEAD = struct.Struct("<QQ")  # mp id, landmark
_COVIS = struct.Struct("<BQI")  # other kf id, shared count
_MP_TAIL = struct.Struct("<QI")  # landmark, observer count
# Floats print as fixed 21-character decimals at 9 places, after
# round(v, 9) + 0.0: that is round(v, 9) bit for bit, except that -0.0
# becomes +0.0 and so prints as +0.
_DEC2 = b"%+021.9f" * 2
_DEC3 = b"%+021.9f" * 3


def canonical_bytes(state: SystemState) -> bytes:
    """Canonical serialization of the promoted tier for digesting."""
    return bytes(_canonical_buffer(state))


def _canonical_buffer(state: SystemState) -> bytearray:
    buf = bytearray()
    buf += struct.pack("<BI", DIGEST_SCHEMA, len(state.slam))
    for map_id in sorted(state.slam):
        m = state.slam[map_id]
        buf += _MAP_HEAD.pack(map_id.origin, map_id.counter, m.origin_kf.origin,
                              m.origin_kf.seq, 1 if m.initialized_optimized else 0,
                              len(m.keyframes))
        for kf_id in sorted(m.keyframes):
            kf = m.keyframes[kf_id]
            pose = kf.pose
            buf += ID.pack(kf_id.origin, kf_id.seq)
            buf += _DEC3 % (round(pose.x, 9) + 0.0, round(pose.y, 9) + 0.0,
                            round(pose.theta, 9) + 0.0)
            buf += _COUNTS.pack(kf.ref_point_count, len(kf.mp_ids))
            for mp_id, landmark_id, rng, brg in zip(
                    kf.mp_ids.tolist(), kf.landmark_ids.tolist(),
                    kf.ranges.tolist(), kf.bearings.tolist()):
                buf += _OBS_HEAD.pack(mp_id, landmark_id)
                buf += _DEC2 % (round(rng, 9) + 0.0, round(brg, 9) + 0.0)
            covisible = kf.covisible
            buf += U32.pack(len(covisible))
            for other in sorted(covisible):
                buf += _COVIS.pack(other.origin, other.seq, covisible[other])
        buf += U32.pack(len(m.map_points))
        for mp_id in sorted(m.map_points):
            mp = m.map_points[mp_id]
            buf += U64.pack(mp_id)
            buf += _DEC2 % (round(mp.x, 9) + 0.0, round(mp.y, 9) + 0.0)
            buf += _MP_TAIL.pack(mp.origin_landmark, len(mp.observers))
            for kid in mp.observers:
                buf += ID.pack(kid.origin, kid.seq)
    return buf


def canonical_digest(state: SystemState) -> str:
    """128-bit blake2b digest of the canonical promoted-state bytes, as
    32 lowercase hex characters."""
    return hashlib.blake2b(_canonical_buffer(state), digest_size=16).hexdigest()
