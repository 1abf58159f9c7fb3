"""One SLAM node: observer state, pipelines, publishers, failure detector.

The node is transport-agnostic: the same code runs under the virtual
clock in simulation and under wall time in socket mode. Three logical
streams share it — tracking/compute, the inbound pipelines, and the
timed outbound publisher — and ordered queues are the only channel
between them.

Pipelines follow the connectivity scheme: new keyframes flow from the
tracking node to the mapping node, which optimizes, publishes local map
batches to both other nodes, and forwards keyframes to the loop node;
global updates flow back through the mapping node acting as gateway.
While a global update is pending the node halts keyframe construction
and defers keyframe processing until the full global map has promoted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from meshslam import state as state_mod
from meshslam.codec import TruncatedInput
from meshslam.config import NodeConfig
from meshslam.core import bundle, loops, tracker
from meshslam.core.initializer import initialize_map
from meshslam.core.types import (
    CandidateKind,
    Frame,
    GlobalUpdateRecord,
    InsufficientOverlap,
    InsufficientParallax,
    KeyFrame,
    Map,
    SingularSystem,
    TrackStatus,
)
from meshslam.geometry import Pose2
from meshslam.ids import IdAllocator, KeyFrameId, MapId
from meshslam.messages import (
    BatchKind,
    DiscoveryPayload,
    GlobalUpdateStart,
    HeartbeatPayload,
    NewKeyFramePayload,
    PayloadKind,
    Target,
    WireKeyFrame,
    WireMapPoint,
    WireObservation,
    decode_payload,
    encode_payload,
)
from meshslam.policy import DistributionDecision, Role, Route, decide
from meshslam.state import PromotionOutcome, SystemState
from meshslam.transport import Clock, Transport
from meshslam.wire import Envelope, Topic, check_topic_permission

Recorder = Callable[[float, Role, str, dict], None]

LOCAL_MAP_PERIOD_MS = 250.0  # publish tick for dirt a mapping step left
HEARTBEAT_MISSES = 3  # silent heartbeat periods before a peer departs
# Local map batch sizes, doubling from 3 to a cap of 15 (the last repeats).
LOCAL_BATCH_SIZES = [3, 6, 12, 15]
GLOBAL_BATCH_SIZE = 10  # keyframes per global-update batch


@dataclass
class PeerInfo:
    session: int
    last_heard_ms: float


@dataclass
class TrajectorySample:
    timestamp: float
    ref_kf: KeyFrameId
    rel_pose: Pose2


@dataclass
class NodeMetrics:
    failures: int = 0
    decode_errors: int = 0
    epoch_mismatches: int = 0
    seq_gaps: int = 0
    keyframes_created: int = 0
    global_updates: int = 0


class SlamNode:
    def __init__(self, role: Role, config: NodeConfig, transport: Transport,
                 clock: Clock, session: int = 0,
                 recorder: Recorder | None = None):
        self.role = role
        self.config = config
        self.transport = transport
        self.clock = clock
        self.session = session
        self.recorder = recorder
        self.alloc = IdAllocator(role.code)
        self.state = SystemState()
        self.metrics = NodeMetrics()

        self.peers: dict[Role, PeerInfo] = {}
        self.decision: DistributionDecision = decide(role, frozenset())

        self.kf_queue: deque[Envelope] = deque()
        self.map_queue: deque[Envelope] = deque()
        self._expected_seq: dict[tuple[Role, Topic], int] = {}
        self._topic_seq: dict[Topic, int] = {}
        self._emit_cursor: dict[Topic, float] = {}
        self._local_batch_seq = 0

        # Tracking-side state.
        self.active_map_id: MapId | None = None
        self.last_pose = Pose2()
        self.prev_frame: Frame | None = None
        self.frames_since_kf = 0
        self.tracking_lost = False
        self.trajectory: list[TrajectorySample] = []
        self._last_mapped_kf: KeyFrameId | None = None
        self.unconfirmed_mapped: list[KeyFrameId] = []
        self.unconfirmed_forwarded: deque[KeyFrameId] = deque(maxlen=20)
        self.recent_created: deque[KeyFrameId] = deque(maxlen=10)
        self.last_mutation_ms = 0.0

    # ------------------------------------------------------------------
    # bookkeeping helpers

    def record(self, name: str, **details) -> None:
        if self.recorder is not None:
            self.recorder(self.clock.now_ms(), self.role, name, details)

    def _touch(self) -> None:
        self.last_mutation_ms = self.clock.now_ms()

    def peer_roles(self) -> frozenset[Role]:
        return frozenset(self.peers)

    def duties(self) -> set[str]:
        """Which duties this node currently performs, per its decision."""
        duties = set()
        if self.role is Role.TRACKING:
            duties.add("tracking")
        if self._holds_mapping_duty():
            duties.add("mapping")
        if self.role is Role.MAPPING:
            duties.add("relay")
        if self._holds_loop_duty():
            duties.add("loop")
        return duties

    def _holds_mapping_duty(self) -> bool:
        if self.role is Role.MAPPING:
            return True
        return self.role is Role.TRACKING and self.decision.lm_route is Route.LOCAL

    def _holds_loop_duty(self) -> bool:
        if self.role is Role.LOOP:
            return True
        if self.role is Role.MAPPING:
            return self.decision.lc_route is Route.LOCAL
        return (self.decision.lm_route is Route.LOCAL
                and self.decision.lc_route is Route.LOCAL)

    def has_pending_work(self) -> bool:
        """Work this node can progress on its own (drain-phase liveness)."""
        if self.state.paused:
            return False
        if self.kf_queue or self.map_queue:
            return True
        return (self._holds_mapping_duty()
                and bool(self._local_map_targets())
                and bool(self.state.dirty_kfs or self.state.dirty_mps))

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        self._broadcast(PayloadKind.DISCOVERY, DiscoveryPayload(self.session))
        self.clock.schedule(self.config.heartbeat_ms, self._heartbeat_tick,
                            productive=False)
        self.clock.schedule(LOCAL_MAP_PERIOD_MS, self._lmfreq_tick,
                            productive=False)
        self.record("node_started", session=self.session)

    def _heartbeat_tick(self) -> None:
        self._broadcast(PayloadKind.HEARTBEAT, HeartbeatPayload())
        self._sweep_departed()
        if not (self.clock.draining and not self.has_pending_work()):
            self.clock.schedule(self.config.heartbeat_ms, self._heartbeat_tick,
                                productive=False)

    def _lmfreq_tick(self) -> None:
        if (self._holds_mapping_duty() and not self.state.paused
                and self._last_mapped_kf is not None
                and (self.state.dirty_kfs or self.state.dirty_mps)):
            self._publish_local_maps(self._last_mapped_kf)
        if not (self.clock.draining and not self.has_pending_work()):
            self.clock.schedule(LOCAL_MAP_PERIOD_MS, self._lmfreq_tick,
                                productive=False)

    # ------------------------------------------------------------------
    # discovery and membership

    def _sweep_departed(self) -> None:
        now = self.clock.now_ms()
        horizon = HEARTBEAT_MISSES * self.config.heartbeat_ms
        departed = [(r, now - info.last_heard_ms) for r, info in self.peers.items()
                    if now - info.last_heard_ms > horizon]
        for peer, silent_ms in sorted(departed, key=lambda item: item[0].value):
            del self.peers[peer]
            self.transport.on_peer_departed(peer)
            self.record("member_left", peer=peer.value, silent_ms=silent_ms)
            self._membership_changed(left=peer)

    def _on_discovery(self, sender: Role, session: int | None) -> None:
        now = self.clock.now_ms()
        info = self.peers.get(sender)
        if info is not None:
            if session is not None and session != info.session:
                # Restarted peer: accept reset sequence counters.
                for topic in Topic:
                    self._expected_seq.pop((sender, topic), None)
                info.session = session
                self.record("member_rejoined", peer=sender.value)
            info.last_heard_ms = now
            return
        self.peers[sender] = PeerInfo(session or 0, now)
        self.record("member_joined", peer=sender.value)
        self._membership_changed(joined=sender)

    def _membership_changed(self, joined: Role | None = None,
                            left: Role | None = None) -> None:
        old = self.decision
        self.decision = decide(self.role, self.peer_roles())
        self.record("decision", lm=self.decision.lm_route.value,
                    lc=self.decision.lc_route.value)
        if left is not None and self.state.paused:
            self._abort_pending_epochs(left)
        if self.decision == old:
            return
        if (old.lm_route is Route.LOCAL
                and self.decision.lm_route is Route.REMOTE_LM):
            self._sync_replay(Role.MAPPING, Topic.KF_NEW)
        if (old.lc_route is not Route.REMOTE_LC
                and self.decision.lc_route is Route.REMOTE_LC
                and self._holds_mapping_duty()):
            self._sync_replay(Role.LOOP, Topic.KF_FORWARD)
        if (old.lm_route is Route.REMOTE_LM
                and self.decision.lm_route is Route.LOCAL):
            pending = [k for k in self.unconfirmed_mapped
                       if self.state.find_keyframe(k) is not None]
            self.unconfirmed_mapped.clear()
            if pending:
                self.record("mapping_takeover", keyframes=len(pending))
                self.clock.schedule(0.0, lambda: self._reexecute_mapping(pending))
        if (old.lc_route in (Route.REMOTE_LC, Route.REMOTE_LM)
                and self.decision.lc_route is Route.LOCAL
                and self._holds_loop_duty()):
            pending = list(self.unconfirmed_forwarded) or list(self.recent_created)
            self.unconfirmed_forwarded.clear()
            if pending:
                self.record("loop_takeover", keyframes=len(pending))
                self.clock.schedule(0.0, lambda: self._reexecute_loop(pending))

    def _abort_pending_epochs(self, departed: Role) -> None:
        """Unstick a pause whose global update can no longer complete."""
        stuck = sorted(set(self.state.staged_global)
                       | set(self.state.pending_local))
        for epoch in stuck:
            self.state.staged_global.pop(epoch, None)
            self.state.pending_local.pop(epoch, None)
            self.record("global_update_aborted", epoch=epoch,
                        departed=departed.value)
        self.state.paused = False
        self._drain_queues()

    def _reexecute_mapping(self, kf_ids: list[KeyFrameId]) -> None:
        # The decision may have flipped back since the takeover was
        # scheduled; the keyframes then stay with the mapper.
        if not self._holds_mapping_duty():
            self.record("takeover_cancelled", duty="mapping",
                        keyframes=len(kf_ids))
            self.unconfirmed_mapped[:0] = kf_ids
            return
        for kf_id in kf_ids:
            kf = self.state.find_keyframe(kf_id)
            if kf is not None:
                self._mapping_step(kf_id, kf.map_id)

    def _reexecute_loop(self, kf_ids: list[KeyFrameId]) -> None:
        if not self._holds_loop_duty():
            self.record("takeover_cancelled", duty="loop",
                        keyframes=len(kf_ids))
            self.unconfirmed_forwarded.extendleft(reversed(kf_ids))
            return
        for kf_id in kf_ids:
            if self.state.find_keyframe(kf_id) is not None:
                self._loop_step(kf_id)

    def _sync_replay(self, target: Role, topic: Topic) -> None:
        """Bring a newly reachable duty holder up to date by replaying the
        promoted maps as complete keyframe definitions (insert-only)."""
        if target not in self.peers:
            return
        count = 0
        for map_id in sorted(self.state.slam):
            m = self.state.slam[map_id]
            for kf_id in sorted(m.keyframes):
                payload = self._new_kf_payload(m, m.keyframes[kf_id])
                self._publish(topic, PayloadKind.NEW_KEYFRAME, payload,
                              [target], Target.NONE)
                count += 1
        if count:
            self.record("sync_replay", target=target.value, keyframes=count)

    # ------------------------------------------------------------------
    # outbound machinery

    def _next_seq(self, topic: Topic) -> int:
        seq = self._topic_seq.get(topic, 0)
        self._topic_seq[topic] = seq + 1
        return seq

    def _broadcast(self, kind: PayloadKind, payload) -> None:
        known = sorted(set(Role) - {self.role}, key=lambda r: r.value)
        env = Envelope(Topic.DISCOVERY, self.role, self._next_seq(Topic.DISCOVERY),
                       self.state.pause_epoch, kind, encode_payload(payload))
        self.transport.publish(env, known)

    def _publish(self, topic: Topic, kind: PayloadKind, payload,
                 targets: list[Role], target_field: Target = Target.NONE) -> None:
        targets = [t for t in targets if t in self.peers]
        if not targets:
            return
        check_topic_permission(topic, self.duties())
        env = Envelope(topic, self.role, self._next_seq(topic),
                       self.state.pause_epoch, kind, encode_payload(payload),
                       target_field)
        self.transport.publish(env, targets)

    def _publish_spaced(self, topic: Topic, kind: PayloadKind, payloads: list,
                        targets: list[Role], spacing_ms: float) -> None:
        """Emit a batch sequence with fixed spacing on one topic."""
        targets = [t for t in targets if t in self.peers]
        if not targets or not payloads:
            return
        check_topic_permission(topic, self.duties())
        cursor = max(self.clock.now_ms(), self._emit_cursor.get(topic, 0.0))
        for payload in payloads:
            env = Envelope(topic, self.role, self._next_seq(topic),
                           self.state.pause_epoch, kind, encode_payload(payload))
            delay = cursor - self.clock.now_ms()
            if delay <= 0.0:
                self.transport.publish(env, targets)
            else:
                self.clock.schedule(
                    delay,
                    lambda e=env, t=tuple(targets): self.transport.publish(
                        e, list(t)),
                )
            cursor += spacing_ms
        self._emit_cursor[topic] = cursor

    @staticmethod
    def _new_kf_payload(m: Map, kf: KeyFrame) -> NewKeyFramePayload:
        # The columns' ascending ids are the order of the wire rows.
        mp_ids = kf.mp_ids.tolist()
        wire_obs = tuple(map(WireObservation, mp_ids,
                             kf.landmark_ids.tolist(), kf.ranges.tolist(),
                             kf.bearings.tolist()))
        # A point travels with its earliest observer's message, exactly once.
        new_ids = [
            mp_id for mp_id in mp_ids
            if mp_id in m.map_points
            and m.map_points[mp_id].observers
            and m.map_points[mp_id].observers[0] == kf.id
        ]
        new_points = tuple(
            WireMapPoint(mp_id, m.map_points[mp_id].x, m.map_points[mp_id].y,
                         m.map_points[mp_id].origin_landmark)
            for mp_id in new_ids
        )
        return NewKeyFramePayload(
            m.map_id,
            is_map_origin=(kf.id == m.origin_kf),
            map_init_optimized=m.initialized_optimized,
            keyframe=WireKeyFrame(kf.id, kf.pose, kf.ref_point_count, wire_obs),
            new_points=new_points,
        )

    # ------------------------------------------------------------------
    # tracking stream

    def on_frame(self, frame: Frame) -> None:
        """Process one sensor frame: track, gate, create/route keyframes."""
        if self.active_map_id is None:
            self._attempt_initialize(frame)
            self.prev_frame = frame
            return

        m = self.state.slam.get(self.active_map_id)
        if m is None or len(m.keyframes) < 2:
            self.prev_frame = frame
            return

        tr = tracker.track_frame(m, self.last_pose, frame)
        if tr.status is TrackStatus.OK:
            self.last_pose = tr.pose
            self.frames_since_kf += 1
            if self.tracking_lost:
                self.tracking_lost = False
                self.record("track_recovered", frame=frame.frame_id)
            ref = m.latest_keyframe_ids(1)[0]
            rel = tr.pose.relative_to(m.keyframes[ref].pose)
            self.trajectory.append(TrajectorySample(frame.timestamp, ref, rel))
            if not self.state.paused and tracker.should_create_keyframe(
                    tr, self.frames_since_kf):
                self._spawn_keyframe(frame, tr, m)
        else:
            if not self.tracking_lost:
                self.tracking_lost = True
                self.metrics.failures += 1
                self.record("track_lost", frame=frame.frame_id,
                            matches=len(tr.matches))
            if m.initialized_optimized and not self.state.paused:
                self._attempt_initialize(frame)
            else:
                self.record("lost_waiting", frame=frame.frame_id)
        self.prev_frame = frame

    def _attempt_initialize(self, frame: Frame) -> None:
        if self.prev_frame is None or self.state.paused:
            return
        try:
            m = initialize_map(self.prev_frame, frame, self.alloc)
        except InsufficientParallax:
            return
        self.state.register_map(m)
        self.active_map_id = m.map_id
        kf_ids = sorted(m.keyframes)
        self.last_pose = m.keyframes[kf_ids[1]].pose
        self.frames_since_kf = 0
        self.tracking_lost = False
        self._touch()
        self.record("map_initialized", map=str(m.map_id),
                     points=len(m.map_points))
        self.trajectory.append(TrajectorySample(
            self.prev_frame.timestamp, kf_ids[0], Pose2()))
        self.trajectory.append(TrajectorySample(
            frame.timestamp, kf_ids[1], Pose2()))
        for kf_id in kf_ids:
            self.recent_created.append(kf_id)
            self._route_new_keyframe(m, m.keyframes[kf_id])

    def _spawn_keyframe(self, frame: Frame, tr, m: Map) -> None:
        kf, new_points = tracker.create_keyframe(frame, tr, self.alloc, m)
        self.state.kf_map_index[kf.id] = m.map_id
        self.frames_since_kf = 0
        self.metrics.keyframes_created += 1
        self.recent_created.append(kf.id)
        self._touch()
        self.record("keyframe_created", kf=str(kf.id),
                    new_points=len(new_points))
        # Re-reference the newest trajectory sample to the new keyframe.
        if self.trajectory and self.trajectory[-1].timestamp == frame.timestamp:
            self.trajectory[-1] = TrajectorySample(frame.timestamp, kf.id, Pose2())
        self._route_new_keyframe(m, kf)

    def _route_new_keyframe(self, m: Map, kf: KeyFrame) -> None:
        if self.decision.lm_route is Route.REMOTE_LM:
            payload = self._new_kf_payload(m, kf)
            self._publish(Topic.KF_NEW, PayloadKind.NEW_KEYFRAME, payload,
                          [Role.MAPPING], Target.LM)
            self.unconfirmed_mapped.append(kf.id)
        else:
            self._mapping_step(kf.id, m.map_id)

    # ------------------------------------------------------------------
    # mapping duty

    def _mapping_step(self, kf_id: KeyFrameId, map_id: MapId) -> None:
        m = self.state.slam.get(map_id)
        if m is None or kf_id not in m.keyframes:
            return
        self._last_mapped_kf = kf_id
        init_pass = not m.initialized_optimized
        if init_pass and (kf_id == m.origin_kf or len(m.keyframes) < 2):
            self._forward_to_loop(m, kf_id)
            return
        # A singular adjustment leaves the map as it was: nothing is
        # dirtied, and the keyframe still goes on to loop detection.
        try:
            if init_pass:
                dirty_kfs, dirty_mps = bundle.global_bundle_adjust(m)
            else:
                dirty_kfs, dirty_mps = bundle.local_bundle_adjust(m, kf_id)
        except SingularSystem as exc:
            self.record("bundle_adjust_singular", center=str(kf_id),
                        initial=init_pass, reason=str(exc))
            self._forward_to_loop(m, kf_id)
            return
        if init_pass:
            self.record("initial_optimization", map=str(map_id))
        else:
            self.record("local_bundle_adjust", center=str(kf_id),
                        window=len(dirty_kfs))
        self.state.mark_dirty(dirty_kfs, dirty_mps)
        self._touch()
        self._publish_local_maps(kf_id, set_init=init_pass)
        self._forward_to_loop(m, kf_id)

    def _local_map_targets(self) -> list[Role]:
        targets = []
        if self.role is not Role.TRACKING and Role.TRACKING in self.peers:
            targets.append(Role.TRACKING)
        if self.decision.lc_route is Route.REMOTE_LC and Role.LOOP in self.peers:
            targets.append(Role.LOOP)
        return targets

    def _publish_local_maps(self, center: KeyFrameId,
                            set_init: bool = False) -> None:
        targets = self._local_map_targets()
        if not targets:
            return
        map_id = self.state.kf_map_index.get(center)
        if map_id is None:
            return
        m = self.state.slam.get(map_id)
        if m is None:
            return
        # Publishing covers the center's whole covisible neighborhood so a
        # backlog of dirty keyframes drains; dirt outside it stays put.
        batches = state_mod.collect_dirty(
            self.state, center, len(m.keyframes),
            LOCAL_BATCH_SIZES, self._local_batch_seq, map_id,
            set_init_optimized=set_init)
        if not batches:
            return
        self._local_batch_seq += len(batches)
        self._publish_spaced(Topic.MAP_LOCAL, PayloadKind.MAP_BATCH,
                             batches, targets, self.config.local_batch_spacing_ms)
        self.record("local_map_published", batches=len(batches),
                    sizes=[len(b.kf_updates) for b in batches])

    def _forward_to_loop(self, m: Map, kf_id: KeyFrameId) -> None:
        if self.decision.lc_route is Route.REMOTE_LC:
            kf = m.keyframes.get(kf_id)
            if kf is None:
                return
            payload = self._new_kf_payload(m, kf)
            self._publish(Topic.KF_FORWARD, PayloadKind.NEW_KEYFRAME, payload,
                          [Role.LOOP], Target.LC)
            self.unconfirmed_forwarded.append(kf_id)
        elif self._holds_loop_duty():
            self._loop_step(kf_id)
        # lc_route REMOTE_LM at the tracking node: the mapper forwards.

    # ------------------------------------------------------------------
    # loop duty

    def _loop_step(self, kf_id: KeyFrameId) -> None:
        if not self.config.loop_enabled:
            return
        kf = self.state.find_keyframe(kf_id)
        if kf is None:
            return
        cand = loops.detect_loop_or_merge(self.state.slam, kf)
        if cand is None:
            return
        self.record("loop_candidate", kind=cand.kind.value,
                    kf=str(cand.kf_id), other=str(cand.other_id),
                    similarity=round(cand.similarity, 4))
        if cand.kind is CandidateKind.LOOP:
            m = self.state.slam[kf.map_id]
            record = loops.close_loop(m, cand)
        else:
            try:
                record = loops.merge_maps(self.state.slam, cand)
            except InsufficientOverlap as exc:
                self.record("merge_rejected", reason=str(exc))
                return
            state_mod.note_merge(self.state, record.absorbed_map, record.map_id)
            if self.active_map_id == record.absorbed_map:
                self.active_map_id = record.map_id
        state_mod.note_fusions(self.state, record.fused)
        self._touch()
        self.metrics.global_updates += 1
        self.record("global_update", kind=record.kind.value,
                    keyframes=len(record.kf_ids), fused=len(record.fused))
        self._emit_global_update(record)
        self._after_global_state_change()

    def _emit_global_update(self, record: GlobalUpdateRecord) -> None:
        epoch = self.state.pause_epoch + 1
        self.state.pause_epoch = epoch
        # The initiator's own promotion is the in-place update it just made.
        self.state.paused = False
        for mid in record.mp_ids:
            self.state.dirty_mps.discard(mid)
        for kid in record.kf_ids:
            self.state.dirty_kfs.discard(kid)

        targets = ([Role.MAPPING] if Role.MAPPING in self.peers
                   else ([Role.TRACKING] if Role.TRACKING in self.peers else []))
        if not targets:
            return
        m = self.state.slam.get(record.map_id)
        if m is None:
            return
        batch_kind = BatchKind[record.kind.name]
        start = GlobalUpdateStart(epoch, record.map_id, batch_kind)
        self._publish(Topic.MAP_GLOBAL, PayloadKind.GLOBAL_UPDATE_START, start,
                      targets)

        kf_ids = [k for k in record.kf_ids if k in m.keyframes]
        mp_ids = [p for p in record.mp_ids if p in m.map_points]
        batches = state_mod.split_batches(
            m, batch_kind, epoch, 0, kf_ids, mp_ids,
            [GLOBAL_BATCH_SIZE], final=True,
            fused=tuple(sorted(record.fused.items())),
            absorbed_map=record.absorbed_map, set_init_optimized=True)
        self._publish_spaced(Topic.MAP_GLOBAL, PayloadKind.MAP_BATCH, batches,
                             targets, self.config.global_batch_spacing_ms)

    def _after_global_state_change(self) -> None:
        """Re-base tracking state after poses moved under a global update."""
        if self.role is not Role.TRACKING:
            return
        if self.active_map_id is not None and self.active_map_id not in self.state.slam:
            # Our map was absorbed: adopt its surviving host.
            for sample in reversed(self.trajectory):
                kf = self.state.find_keyframe(sample.ref_kf)
                if kf is not None:
                    self.active_map_id = kf.map_id
                    break
        if self.trajectory:
            last = self.trajectory[-1]
            kf = self.state.find_keyframe(last.ref_kf)
            if kf is not None:
                self.last_pose = kf.pose.compose(last.rel_pose)

    # ------------------------------------------------------------------
    # inbound pipelines

    def on_envelope(self, env: Envelope) -> None:
        """Transport callback: minimal dispatch into the ordered queues."""
        self._sweep_departed()
        if env.topic is Topic.DISCOVERY:
            self._handle_control(env)
            return
        key = (env.sender, env.topic)
        expected = self._expected_seq.get(key)
        if expected is not None and env.seq != expected:
            self.metrics.seq_gaps += 1
        self._expected_seq[key] = env.seq + 1
        if env.kind is PayloadKind.NEW_KEYFRAME:
            self.kf_queue.append(env)
        else:
            self.map_queue.append(env)
        self._drain_queues()

    def _decode(self, env: Envelope):
        """The payload, or None for one that does not decode (counted)."""
        try:
            return decode_payload(env.kind, env.payload)
        except (TruncatedInput, ValueError, TypeError):
            self.metrics.decode_errors += 1
            self.record("decode_error", topic=env.topic.label)
            return None

    def _handle_control(self, env: Envelope) -> None:
        payload = self._decode(env)
        if payload is None:
            return
        if env.kind is PayloadKind.DISCOVERY:
            self._on_discovery(env.sender, payload.session)
        elif env.kind is PayloadKind.HEARTBEAT:
            if env.sender in self.peers:
                self.peers[env.sender].last_heard_ms = self.clock.now_ms()
            else:
                self._on_discovery(env.sender, None)

    def _drain_queues(self) -> None:
        progress = True
        while progress:
            progress = False
            while self.map_queue:
                self._process_map_envelope(self.map_queue.popleft())
                progress = True
            while self.kf_queue and not self.state.paused:
                self._process_kf_envelope(self.kf_queue.popleft())
                progress = True

    def _process_kf_envelope(self, env: Envelope) -> None:
        payload = self._decode(env)
        if payload is None:
            return
        outcome = state_mod.apply_new_keyframe(self.state, payload)
        if outcome is not PromotionOutcome.DUPLICATE:
            self._touch()
        if outcome is not PromotionOutcome.PROMOTED:
            return
        kf_id = payload.keyframe.kf_id
        self._confirm_mapped([kf_id])
        if env.target is Target.LM and self._holds_mapping_duty():
            self._mapping_step(kf_id, payload.map_id)
        elif env.target is Target.LC and self._holds_loop_duty():
            self._loop_step(kf_id)

    def _process_map_envelope(self, env: Envelope) -> None:
        payload = self._decode(env)
        if payload is None:
            return

        # Gateway duty: relay global traffic toward the tracking node.
        if (env.topic is Topic.MAP_GLOBAL and self.role is Role.MAPPING
                and Role.TRACKING in self.peers):
            relay = Envelope(Topic.MAP_GLOBAL, self.role,
                             self._next_seq(Topic.MAP_GLOBAL), env.pause_epoch,
                             env.kind, env.payload)
            self.transport.publish(relay, [Role.TRACKING])

        if env.kind is PayloadKind.GLOBAL_UPDATE_START:
            was_paused = self.state.paused
            state_mod.observe_epoch(self.state, payload.epoch)
            if self.state.paused and not was_paused:
                self.record("paused", epoch=payload.epoch)
            return

        was_paused = self.state.paused
        try:
            outcome = state_mod.apply_map_batch(self.state, payload)
        except state_mod.EpochMismatch:
            self.metrics.epoch_mismatches += 1
            self.record("stale_batch_discarded", epoch=payload.epoch)
            return
        self._touch()
        if (payload.kind is not BatchKind.LOCAL
                and not was_paused and self.state.paused):
            self.record("paused", epoch=payload.epoch)
        self._confirm_mapped([u.kf_id for u in payload.kf_updates])
        if was_paused and not self.state.paused:
            self.record("unpaused", epoch=payload.epoch)
            self._after_global_state_change()
        elif (outcome is PromotionOutcome.PROMOTED
              and payload.kind is not BatchKind.LOCAL):
            self._after_global_state_change()

    def _confirm_mapped(self, kf_ids) -> None:
        if not self.unconfirmed_mapped:
            return
        confirmed = set(kf_ids)
        if confirmed:
            self.unconfirmed_mapped = [k for k in self.unconfirmed_mapped
                                       if k not in confirmed]

    # ------------------------------------------------------------------
    # reporting

    def final_trajectory(self) -> list[tuple[float, float, float, float]]:
        """Per-frame poses re-expressed against final keyframe estimates."""
        out = []
        for sample in self.trajectory:
            kf = self.state.find_keyframe(sample.ref_kf)
            if kf is None:
                continue
            pose = kf.pose.compose(sample.rel_pose)
            out.append((sample.timestamp, pose.x, pose.y, pose.theta))
        return out
