import pytest

from meshslam.config import NodeConfig
from meshslam.core import bundle
from meshslam.core.types import SingularSystem
from meshslam.geometry import Pose2
from meshslam.ids import KeyFrameId, MapId, mint_map_point_id
from meshslam.messages import (
    BatchKind,
    DiscoveryPayload,
    GlobalUpdateStart,
    HeartbeatPayload,
    KeyFrameUpdate,
    MapBatch,
    NewKeyFramePayload,
    PayloadKind,
    Target,
    WireKeyFrame,
    WireMapPoint,
    WireObservation,
    decode_payload,
    encode_payload,
)
from meshslam.node import SlamNode
from meshslam.policy import Role
from meshslam.simnet import Simulator
from meshslam.state import apply_new_keyframe
from meshslam.transport import SimClock, SimTransport
from meshslam.wire import Envelope, Topic

from conftest import grid_landmarks, make_frame

TR, LM, LC = Role.TRACKING, Role.MAPPING, Role.LOOP
MAP = MapId(1, 0)


class Rig:
    """One node under test wired to a capture-everything fake network."""

    def __init__(self, role, config=None, seed=0):
        self.sim = Simulator(seed=seed)
        self.transport = SimTransport(self.sim, role)
        self.captured = []
        for other in Role:
            if other is role:
                continue
            self.transport.receivers[other] = (
                lambda env, o=other: self.captured.append((self.sim.now, o, env)))
        self.events = []
        self.node = SlamNode(role, config or NodeConfig(), self.transport,
                             SimClock(self.sim, role), session=1,
                             recorder=lambda t, r, n, d: self.events.append(
                                 (t, n, d)))

    def join_peer(self, role, session=5):
        env = Envelope(Topic.DISCOVERY, role, 0, 0, PayloadKind.DISCOVERY,
                       encode_payload(DiscoveryPayload(session)))
        self.node.on_envelope(env)

    def run(self):
        self.sim.run_until()

    def sent(self, topic=None, kind=None):
        out = []
        for t, target, env in self.captured:
            if topic is not None and env.topic is not topic:
                continue
            if kind is not None and env.kind is not kind:
                continue
            out.append((t, target, env))
        return out


def kf_payload(seq, mp_nums, new=None, origin=False, pose=None, node=1):
    kid = KeyFrameId(node, seq)
    ids = [mint_map_point_id(node, n) for n in mp_nums]
    obs = tuple(WireObservation(m, n, 1.0 + n, 0.1)
                for n, m in zip(mp_nums, ids))
    new_points = tuple(WireMapPoint(mint_map_point_id(node, n), float(n), 0.0,
                                    1000 + n) for n in (new or []))
    return NewKeyFramePayload(
        MAP, origin, False,
        WireKeyFrame(kid, pose or Pose2(seq * 0.5, 0, 0), len(ids), obs),
        new_points,
    )


def seed_map(node, n_kfs):
    apply_new_keyframe(node.state, kf_payload(0, [0], new=[0], origin=True))
    for i in range(1, n_kfs):
        apply_new_keyframe(node.state, kf_payload(i, [0]))
    m = node.state.slam[MAP]
    m.initialized_optimized = True
    return m


def envelope(topic, sender, seq, kind, payload, target=Target.NONE, epoch=0):
    return Envelope(topic, sender, seq, epoch, kind, encode_payload(payload),
                    target)


# ---------------------------------------------------------------- batching


def test_local_batch_growth_schedule_pins_sizes_and_spacing():
    rig = Rig(LM)
    rig.join_peer(TR)
    rig.join_peer(LC)
    m = seed_map(rig.node, 40)
    kids = sorted(m.keyframes)
    center = kids[-1]
    for k in kids[:-1]:
        m.keyframes[center].covisible[k] = 10
        m.keyframes[k].covisible[center] = 10
    rig.node.state.dirty_kfs = set(kids)
    rig.node._publish_local_maps(center)
    rig.run()

    to_tr = rig.sent(topic=Topic.MAP_LOCAL)
    per_target = [e for e in to_tr if e[1] is TR]
    sizes = [len(decode_payload(env.kind, env.payload).kf_updates)
             for _, _, env in per_target]
    times = [t for t, _, _ in per_target]
    assert sizes == [3, 6, 12, 15, 4]
    assert [round(t - times[0], 6) for t in times] == [0.0, 50.0, 100.0, 150.0,
                                                        200.0]
    # Both subscribers get the same batches.
    assert len(to_tr) == 2 * len(per_target)


def test_batch_schedule_resets_after_each_publish():
    rig = Rig(LM)
    rig.join_peer(TR)
    m = seed_map(rig.node, 10)
    kids = sorted(m.keyframes)
    center = kids[-1]
    for k in kids[:-1]:
        m.keyframes[center].covisible[k] = 10
        m.keyframes[k].covisible[center] = 10
    rig.node.state.dirty_kfs = set(kids[:3])
    rig.node._publish_local_maps(center)
    rig.node.state.dirty_kfs = set(kids[:3])
    rig.node._publish_local_maps(center)
    rig.run()
    sizes = [len(decode_payload(e.kind, e.payload).kf_updates)
             for _, _, e in rig.sent(topic=Topic.MAP_LOCAL)]
    assert sizes == [3, 3]  # growth restarts at the minimum each publish


def test_global_update_batches_ten_per_hundred_ms():
    rig = Rig(LC)
    rig.join_peer(LM)
    m = seed_map(rig.node, 23)
    from meshslam.core.types import GlobalUpdateRecord, UpdateKind
    record = GlobalUpdateRecord(UpdateKind.LC, MAP, sorted(m.keyframes),
                                sorted(m.map_points))
    rig.node._emit_global_update(record)
    rig.run()

    starts = rig.sent(kind=PayloadKind.GLOBAL_UPDATE_START)
    assert len(starts) == 1
    t0 = starts[0][0]
    batches = [(t, decode_payload(e.kind, e.payload))
               for t, _, e in rig.sent(kind=PayloadKind.MAP_BATCH)]
    assert [len(b.kf_updates) for _, b in batches] == [10, 10, 3]
    assert [b.final for _, b in batches] == [False, False, True]
    assert [round(t - t0, 6) for t, _ in batches] == [0.0, 100.0, 200.0]
    assert all(b.epoch == 1 for _, b in batches)


def test_empty_global_update_is_start_plus_final():
    rig = Rig(LC)
    rig.join_peer(LM)
    seed_map(rig.node, 2)
    from meshslam.core.types import GlobalUpdateRecord, UpdateKind
    record = GlobalUpdateRecord(UpdateKind.GBA, MAP, [], [])
    rig.node._emit_global_update(record)
    rig.run()
    batches = [decode_payload(e.kind, e.payload)
               for _, _, e in rig.sent(kind=PayloadKind.MAP_BATCH)]
    assert len(batches) == 1 and batches[0].final
    assert batches[0].kf_updates == ()


# ------------------------------------------------------------ tracking side


class TrackerRig(Rig):
    def __init__(self, **kw):
        super().__init__(TR, **kw)
        self.landmarks = grid_landmarks(30, spacing=1.0)
        self.poses = [Pose2(0.25 * i, 0.01 * i, 0.0) for i in range(40)]
        self.prev = None

    def feed(self, k, world=None, drop_obs=False):
        pose = self.poses[k]
        frame = make_frame(k, pose, self.prev, world or self.landmarks)
        if drop_obs:
            frame = frame.__class__(frame.frame_id, frame.timestamp,
                                    frame.odometry_delta, ())
        self.node.on_frame(frame)
        self.prev = pose


def test_tracking_offloads_new_keyframes_to_mapper():
    rig = TrackerRig()
    rig.join_peer(LM)
    rig.join_peer(LC)
    rig.feed(0)
    rig.feed(1)
    rig.run()
    kf_new = rig.sent(topic=Topic.KF_NEW)
    assert len(kf_new) == 2  # both initial keyframes, complete definitions
    payload = decode_payload(kf_new[0][2].kind, kf_new[0][2].payload)
    assert payload.is_map_origin
    assert payload.new_points
    assert kf_new[0][2].target is Target.LM

    # Shrinking visibility forces the tracked ratio below the threshold.
    world = {k: v for k, v in rig.landmarks.items() if k < 18}
    rig.feed(2, world=world)
    rig.feed(3, world=world)
    rig.feed(4, world=world)
    rig.run()
    created = [e for _, e, _ in rig.events if e == "keyframe_created"]
    assert created, "ratio drop after two frames must spawn a keyframe"
    kf_new = rig.sent(topic=Topic.KF_NEW)
    assert len(kf_new) == 2 + len(created)


def test_tracking_node_publishes_on_exactly_one_data_topic():
    rig = TrackerRig()
    rig.join_peer(LM)
    rig.join_peer(LC)
    for k in range(10):
        world = ({k: v for k, v in rig.landmarks.items() if k < 20}
                 if k % 3 else rig.landmarks)
        rig.feed(k, world=world)
    rig.run()
    topics = {env.topic for _, _, env in rig.captured
              if env.topic is not Topic.DISCOVERY}
    assert topics == {Topic.KF_NEW}


def test_lost_waits_for_initial_optimization():
    rig = TrackerRig()
    rig.feed(0)
    rig.feed(1)
    m = rig.node.state.slam[rig.node.active_map_id]
    # In the all-local run the initial optimization happened synchronously.
    assert m.initialized_optimized
    m.initialized_optimized = False
    # Fresh landmark identities with healthy local geometry: association is
    # id-based, so tracking must lose the old map.
    fresh = {500 + i: (0.5 + (i % 6) * 0.9, 0.3 + (i // 6) * 0.9)
             for i in range(30)}
    rig.feed(2, world=fresh)
    rig.feed(3, world=fresh)
    assert rig.node.metrics.failures == 1
    assert len(rig.node.state.slam) == 1  # no new map while unoptimized
    assert any(n == "lost_waiting" for _, n, _ in rig.events)

    m.initialized_optimized = True
    rig.feed(4, world=fresh)
    rig.feed(5, world=fresh)
    assert len(rig.node.state.slam) == 2  # second map begins once allowed
    assert rig.node.metrics.failures == 1  # one lost episode, counted once


def test_paused_node_creates_no_keyframes():
    rig = TrackerRig()
    rig.feed(0)
    rig.feed(1)
    rig.node.state.paused = True
    world = {k: v for k, v in rig.landmarks.items() if k < 18}
    before = rig.node.metrics.keyframes_created
    for k in range(2, 8):
        rig.feed(k, world=world)
    assert rig.node.metrics.keyframes_created == before
    assert len(rig.node.trajectory) >= 6  # frames still tracked for pose


# ------------------------------------------------------------- pause protocol


def global_batch_envs(sender, epoch, n_kfs, size=10, seq0_sender_seq=10):
    kids = [KeyFrameId(1, i) for i in range(n_kfs)]
    chunks = [kids[i:i + size] for i in range(0, len(kids), size)] or [[]]
    envs = []
    for i, chunk in enumerate(chunks):
        updates = tuple(KeyFrameUpdate(k, Pose2(50.0 + k.seq, 5, 0))
                        for k in chunk)
        batch = MapBatch(BatchKind.GBA, MAP, epoch, i, i == len(chunks) - 1,
                         updates, set_init_optimized=(i == 0))
        envs.append(envelope(Topic.MAP_GLOBAL, sender, seq0_sender_seq + i,
                             PayloadKind.MAP_BATCH, batch, epoch=epoch))
    return envs


def test_dropped_start_still_promotes_atomically():
    rig = Rig(LM)
    rig.join_peer(LC)
    m = seed_map(rig.node, 15)
    before = {k: m.keyframes[k].pose.x for k in m.keyframes}
    envs = global_batch_envs(LC, epoch=1, n_kfs=15)
    rig.node.on_envelope(envs[0])
    assert rig.node.state.paused  # batch alone pauses: epoch staging
    assert all(m.keyframes[k].pose.x == before[k] for k in m.keyframes)
    rig.node.on_envelope(envs[1])
    assert not rig.node.state.paused
    assert all(m.keyframes[KeyFrameId(1, i)].pose.x == 50.0 + i
               for i in range(15))


def test_keyframe_processing_defers_while_paused():
    rig = Rig(LM)
    rig.join_peer(TR)
    rig.join_peer(LC)
    seed_map(rig.node, 3)
    start = GlobalUpdateStart(1, MAP, BatchKind.GBA)
    rig.node.on_envelope(envelope(Topic.MAP_GLOBAL, LC, 0,
                                  PayloadKind.GLOBAL_UPDATE_START, start,
                                  epoch=1))
    assert rig.node.state.paused

    fresh = kf_payload(7, [0], pose=Pose2(9, 9, 0))
    rig.node.on_envelope(envelope(Topic.KF_NEW, TR, 3,
                                  PayloadKind.NEW_KEYFRAME, fresh,
                                  target=Target.LM))
    assert KeyFrameId(1, 7) not in rig.node.state.slam[MAP].keyframes
    assert len(rig.node.kf_queue) == 1

    for env in global_batch_envs(LC, epoch=1, n_kfs=3, seq0_sender_seq=1):
        rig.node.on_envelope(env)
    assert not rig.node.state.paused
    assert KeyFrameId(1, 7) in rig.node.state.slam[MAP].keyframes
    assert any(n == "local_bundle_adjust" for _, n, _ in rig.events)


@pytest.mark.parametrize("initial", [False, True], ids=["lba", "initial_gba"])
def test_singular_adjustment_is_recorded_and_the_keyframe_moves_on(
        monkeypatch, initial):
    rig = Rig(LM)
    rig.join_peer(TR)
    rig.join_peer(LC)
    m = seed_map(rig.node, 3)
    m.initialized_optimized = not initial

    def singular(*args, **kwargs):
        raise SingularSystem("rank-deficient normal equations")

    name = "global_bundle_adjust" if initial else "local_bundle_adjust"
    monkeypatch.setattr(bundle, name, singular)
    fresh = kf_payload(7, [0], pose=Pose2(9, 9, 0))
    rig.node.on_envelope(envelope(Topic.KF_NEW, TR, 3,
                                  PayloadKind.NEW_KEYFRAME, fresh,
                                  target=Target.LM))
    assert KeyFrameId(1, 7) in m.keyframes
    singular_events = [d for _, n, d in rig.events
                       if n == "bundle_adjust_singular"]
    assert singular_events == [{"center": str(KeyFrameId(1, 7)),
                                "initial": initial,
                                "reason": "rank-deficient normal equations"}]
    assert not any(n in ("local_bundle_adjust", "initial_optimization")
                   for _, n, _ in rig.events)
    assert not rig.node.state.dirty_kfs and not rig.node.state.dirty_mps
    assert m.initialized_optimized is not initial
    rig.run()
    assert not rig.sent(topic=Topic.MAP_LOCAL)
    forwarded = rig.sent(topic=Topic.KF_FORWARD)
    assert [(target, decode_payload(env.kind, env.payload).keyframe.kf_id)
            for _, target, env in forwarded] == [(LC, KeyFrameId(1, 7))]


def test_stale_local_batch_discarded_after_promotion():
    rig = Rig(LM)
    seed_map(rig.node, 3)
    for env in global_batch_envs(LC, epoch=1, n_kfs=3):
        rig.node.on_envelope(env)
    assert rig.node.state.pause_epoch == 1
    stale = MapBatch(BatchKind.LOCAL, MAP, 0, 99, False,
                     (KeyFrameUpdate(KeyFrameId(1, 0), Pose2(-1, -1, 0)),))
    rig.node.on_envelope(envelope(Topic.MAP_LOCAL, TR, 9,
                                  PayloadKind.MAP_BATCH, stale))
    assert rig.node.metrics.epoch_mismatches == 1
    assert rig.node.state.slam[MAP].keyframes[KeyFrameId(1, 0)].pose.x == 50.0


# ------------------------------------------------------------ gateway & sync


def test_mapping_node_relays_global_traffic_to_tracking():
    rig = Rig(LM)
    rig.join_peer(TR)
    rig.join_peer(LC)
    seed_map(rig.node, 3)
    envs = global_batch_envs(LC, epoch=1, n_kfs=3)
    start = GlobalUpdateStart(1, MAP, BatchKind.GBA)
    rig.node.on_envelope(envelope(Topic.MAP_GLOBAL, LC, 0,
                                  PayloadKind.GLOBAL_UPDATE_START, start,
                                  epoch=1))
    for env in envs:
        rig.node.on_envelope(env)
    rig.run()
    relayed = [e for t, target, e in rig.sent(topic=Topic.MAP_GLOBAL)
               if target is TR]
    assert len(relayed) == 1 + len(envs)
    assert relayed[0].kind is PayloadKind.GLOBAL_UPDATE_START
    assert all(e.sender is LM for e in relayed)


def test_join_triggers_full_replay_to_new_mapper():
    rig = TrackerRig()
    rig.feed(0)
    rig.feed(1)
    world = {k: v for k, v in rig.landmarks.items() if k < 18}
    for k in range(2, 6):
        rig.feed(k, world=world)
    n_kfs = sum(len(m.keyframes) for m in rig.node.state.slam.values())
    assert not rig.sent(topic=Topic.KF_NEW)

    rig.join_peer(LM)
    rig.run()
    replayed = rig.sent(topic=Topic.KF_NEW)
    assert len(replayed) == n_kfs
    assert all(e.target is Target.NONE for _, _, e in replayed)
    payloads = [decode_payload(e.kind, e.payload) for _, _, e in replayed]
    total_points = sum(len(p.new_points) for p in payloads)
    assert total_points == sum(len(m.map_points)
                               for m in rig.node.state.slam.values())


def test_heartbeat_from_unknown_peer_counts_as_join():
    rig = Rig(LM)
    env = Envelope(Topic.DISCOVERY, LC, 0, 0, PayloadKind.HEARTBEAT,
                   encode_payload(HeartbeatPayload()))
    rig.node.on_envelope(env)
    assert LC in rig.node.peers


def test_rejoin_with_new_session_resets_sequences():
    rig = Rig(LM)
    rig.join_peer(TR, session=1)
    seed_map(rig.node, 1)
    env1 = envelope(Topic.KF_NEW, TR, 0, PayloadKind.NEW_KEYFRAME,
                    kf_payload(5, [0]), target=Target.NONE)
    env2 = envelope(Topic.KF_NEW, TR, 1, PayloadKind.NEW_KEYFRAME,
                    kf_payload(6, [0]), target=Target.NONE)
    rig.node.on_envelope(env1)
    rig.node.on_envelope(env2)
    assert rig.node.metrics.seq_gaps == 0

    rig.join_peer(TR, session=2)  # restarted peer announces a new session
    env3 = envelope(Topic.KF_NEW, TR, 0, PayloadKind.NEW_KEYFRAME,
                    kf_payload(8, [0]), target=Target.NONE)
    rig.node.on_envelope(env3)
    assert rig.node.metrics.seq_gaps == 0
    assert any(n == "member_rejoined" for _, n, _ in rig.events)


@pytest.mark.parametrize("topic,kind", [
    (Topic.KF_NEW, PayloadKind.NEW_KEYFRAME),
    (Topic.MAP_LOCAL, PayloadKind.MAP_BATCH),
    (Topic.DISCOVERY, PayloadKind.DISCOVERY),
], ids=["KF_NEW", "MAP_LOCAL", "DISCOVERY"])
def test_malformed_payload_dropped_and_counted(topic, kind):
    rig = Rig(LM)
    seed_map(rig.node, 1)
    rig.node.on_envelope(Envelope(topic, TR, 0, 0, kind, b"\x01"))
    assert rig.node.metrics.decode_errors == 1
    errors = [d for _, n, d in rig.events if n == "decode_error"]
    assert errors == [{"topic": topic.label}]


def test_duplicate_join_announcement_is_idempotent():
    rig = Rig(LM)
    rig.join_peer(TR, session=4)
    decision = rig.node.decision
    rig.join_peer(TR, session=4)
    assert rig.node.decision == decision
    joins = [n for _, n, _ in rig.events if n == "member_joined"]
    assert joins == ["member_joined"]
