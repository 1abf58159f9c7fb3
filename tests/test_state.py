import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from meshslam.geometry import Pose2
from meshslam.ids import KeyFrameId, MapId, mint_map_point_id
from meshslam.messages import (
    BatchKind,
    KeyFrameUpdate,
    MapBatch,
    NewKeyFramePayload,
    WireKeyFrame,
    WireMapPoint,
    WireObservation,
)
from meshslam.state import (
    DanglingReference,
    EpochMismatch,
    PromotionOutcome,
    SystemState,
    apply_map_batch,
    apply_new_keyframe,
    canonical_bytes,
    canonical_digest,
    collect_dirty,
    note_fusions,
    observe_epoch,
)
from meshslam.state import _insert_keyframe

MAP = MapId(1, 0)


def kf_payload(seq, mp_ids, new=None, origin=False, pose=None, map_id=MAP):
    kid = KeyFrameId(1, seq)
    obs = tuple(WireObservation(m, i, 1.0 + i, 0.1) for i, m in enumerate(mp_ids))
    new_points = tuple(WireMapPoint(m, float(i), 0.0, 1000 + i)
                       for i, m in enumerate(new or []))
    return NewKeyFramePayload(
        map_id, origin, False,
        WireKeyFrame(kid, pose or Pose2(seq * 0.5, 0, 0), len(mp_ids), obs),
        new_points,
    )


def mp(n):
    return mint_map_point_id(1, n)


def test_self_contained_keyframe_promotes():
    st = SystemState()
    out = apply_new_keyframe(st, kf_payload(0, [mp(0), mp(1)],
                                            new=[mp(0), mp(1)], origin=True))
    assert out is PromotionOutcome.PROMOTED
    assert len(st.slam[MAP].keyframes) == 1
    assert len(st.slam[MAP].map_points) == 2


def test_dependency_order_does_not_matter():
    first = kf_payload(0, [mp(0)], new=[mp(0)], origin=True)
    second = kf_payload(1, [mp(0), mp(1)], new=[mp(1)])

    a = SystemState()
    assert apply_new_keyframe(a, first) is PromotionOutcome.PROMOTED
    assert apply_new_keyframe(a, second) is PromotionOutcome.PROMOTED

    b = SystemState()
    assert apply_new_keyframe(b, second) is PromotionOutcome.STAGED
    assert apply_new_keyframe(b, first) is PromotionOutcome.PROMOTED
    assert len(b.slam[MAP].keyframes) == 2

    assert canonical_digest(a) == canonical_digest(b)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_duplicate_delivery_is_noop():
    st = SystemState()
    payload = kf_payload(0, [mp(0)], new=[mp(0)], origin=True)
    apply_new_keyframe(st, payload)
    digest = canonical_digest(st)
    assert apply_new_keyframe(st, payload) is PromotionOutcome.DUPLICATE
    assert canonical_digest(st) == digest


def test_unknown_map_buffers_whole_payload():
    st = SystemState()
    out = apply_new_keyframe(st, kf_payload(3, [mp(9)], new=[mp(9)]))
    assert out is PromotionOutcome.STAGED
    assert MAP in st.staged_kfs
    assert not st.slam


def test_insertion_refuses_a_dangling_observation():
    # apply_new_keyframe stages such a payload; inserting it anyway must
    # fail loudly, also under python -O.
    st = SystemState()
    apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    m = st.slam[MAP]
    with pytest.raises(DanglingReference):
        _insert_keyframe(st, m, kf_payload(1, [mp(0), mp(5)]))
    assert KeyFrameId(1, 1) not in m.keyframes
    assert m.map_points[mp(0)].observers == (KeyFrameId(1, 0),)


def test_new_point_fused_away_waits_for_its_survivor():
    # mp(1) was fused into mp(9) before the keyframe carrying mp(1) as a new
    # point arrived: the keyframe is inserted with mp(9) in its place, so it
    # waits for mp(9) rather than failing on it.
    st = SystemState()
    apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    note_fusions(st, {mp(1): mp(9)})
    out = apply_new_keyframe(st, kf_payload(1, [mp(0), mp(1)], new=[mp(1)]))
    assert out is PromotionOutcome.STAGED
    m = st.slam[MAP]
    assert KeyFrameId(1, 1) not in m.keyframes and mp(1) not in m.map_points

    out = apply_new_keyframe(st, kf_payload(2, [mp(9)], new=[mp(9)]))
    assert out is PromotionOutcome.PROMOTED
    assert not st.staged_kfs.get(MAP)
    assert m.keyframes[KeyFrameId(1, 1)].mp_ids.tolist() == sorted([mp(0), mp(9)])
    assert m.map_points[mp(9)].observers == (KeyFrameId(1, 1), KeyFrameId(1, 2))
    assert m.map_points[mp(0)].observers == (KeyFrameId(1, 0), KeyFrameId(1, 1))


def test_keyframe_update_applies_or_stages():
    st = SystemState()
    apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    apply_map_batch(st, local_batch(1, [(KeyFrameId(1, 0), Pose2(9.0, 9.0, 0.5))]))
    assert st.slam[MAP].keyframes[KeyFrameId(1, 0)].pose.x == 9.0

    apply_map_batch(st, local_batch(2, [(KeyFrameId(1, 7), Pose2(1, 1, 0))]))
    assert KeyFrameId(1, 7) in st.staged_kf_updates
    assert apply_new_keyframe(
        st, kf_payload(7, [mp(0)])) is PromotionOutcome.PROMOTED
    assert st.slam[MAP].keyframes[KeyFrameId(1, 7)].pose.x == 1.0
    assert not st.staged_kf_updates


def test_conflicting_updates_resolve_by_sequence():
    st = SystemState()
    apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    kid = KeyFrameId(1, 0)
    apply_map_batch(st, local_batch(4, [(kid, Pose2(4, 0, 0))]))
    apply_map_batch(st, local_batch(3, [(kid, Pose2(3, 0, 0))]))
    assert st.slam[MAP].keyframes[kid].pose.x == 4.0


def local_batch(seq, kf_poses, epoch=0):
    updates = tuple(KeyFrameUpdate(k, p) for k, p in kf_poses)
    return MapBatch(BatchKind.LOCAL, MAP, epoch, seq, False, updates)


def global_batches(epoch, n_kfs, size, kind=BatchKind.GBA, start_pose=5.0):
    kids = [KeyFrameId(1, i) for i in range(n_kfs)]
    chunks = [kids[i:i + size] for i in range(0, len(kids), size)] or [[]]
    out = []
    for i, chunk in enumerate(chunks):
        updates = tuple(KeyFrameUpdate(k, Pose2(start_pose + k.seq, 1, 0))
                        for k in chunk)
        out.append(MapBatch(kind, MAP, epoch, i, i == len(chunks) - 1, updates))
    return out


def seeded_state(n_kfs):
    st = SystemState()
    apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    for i in range(1, n_kfs):
        apply_new_keyframe(st, kf_payload(i, [mp(0)]))
    return st


def test_local_batch_applies_immediately():
    st = seeded_state(3)
    batch = local_batch(0, [(KeyFrameId(1, i), Pose2(10 + i, 0, 0))
                            for i in range(3)])
    assert apply_map_batch(st, batch) is PromotionOutcome.PROMOTED
    assert st.slam[MAP].keyframes[KeyFrameId(1, 2)].pose.x == 12.0


def test_global_update_promotes_atomically():
    st = seeded_state(23)
    digest_before = canonical_digest(st)
    batches = global_batches(epoch=1, n_kfs=23, size=10)
    assert [len(b.kf_updates) for b in batches] == [10, 10, 3]
    assert [b.final for b in batches] == [False, False, True]

    assert apply_map_batch(st, batches[0]) is PromotionOutcome.STAGED
    assert st.paused
    assert canonical_digest(st) == digest_before  # nothing visible yet
    assert apply_map_batch(st, batches[1]) is PromotionOutcome.STAGED
    assert canonical_digest(st) == digest_before
    assert apply_map_batch(st, batches[2]) is PromotionOutcome.PROMOTED
    assert not st.paused
    for i in range(23):
        assert st.slam[MAP].keyframes[KeyFrameId(1, i)].pose.x == 5.0 + i
    assert st.slam[MAP].initialized_optimized


def test_redelivered_global_batches_after_promotion_are_duplicates():
    st = seeded_state(23)
    batches = global_batches(epoch=1, n_kfs=23, size=10)
    for b in batches:
        apply_map_batch(st, b)
    digest = canonical_digest(st)
    assert apply_map_batch(st, batches[1]) is PromotionOutcome.DUPLICATE
    assert [apply_map_batch(st, b) for b in batches] == \
        [PromotionOutcome.DUPLICATE] * 3
    assert st.staged_global == {}
    assert not st.paused
    assert canonical_digest(st) == digest


def test_global_update_with_lost_batch_never_promotes():
    st = seeded_state(23)
    digest_before = canonical_digest(st)
    batches = global_batches(epoch=1, n_kfs=23, size=10)
    apply_map_batch(st, batches[0])
    apply_map_batch(st, batches[2])  # seq 1 lost forever
    assert st.paused
    assert canonical_digest(st) == digest_before


def test_out_of_order_epoch_without_start_still_promotes():
    st = seeded_state(5)
    batches = global_batches(epoch=1, n_kfs=5, size=10)
    assert len(batches) == 1 and batches[0].final
    # No start notification ever arrives; the batch alone must pause
    # and then promote atomically.
    assert apply_map_batch(st, batches[0]) is PromotionOutcome.PROMOTED
    assert not st.paused
    assert st.pause_epoch == 1


def test_stale_epoch_batch_is_discarded():
    st = seeded_state(3)
    observe_epoch(st, 2)
    st.paused = False
    with pytest.raises(EpochMismatch):
        apply_map_batch(st, global_batches(epoch=1, n_kfs=3, size=10)[0])
    with pytest.raises(EpochMismatch):
        apply_map_batch(st, local_batch(9, [(KeyFrameId(1, 0), Pose2())], epoch=1))


def test_collect_dirty_respects_schedule_and_window():
    st = seeded_state(8)
    m = st.slam[MAP]
    kids = sorted(m.keyframes)
    center = kids[-1]
    # Make everything covisible with the center, then dirty 7 keyframes.
    for k in kids[:-1]:
        m.keyframes[center].covisible[k] = 10
        m.keyframes[k].covisible[center] = 10
    st.dirty_kfs = set(kids[:7])
    batches = collect_dirty(st, center, n_covisible=10, schedule=[3, 15],
                            seq_start=0, map_id=MAP)
    assert [len(b.kf_updates) for b in batches] == [3, 4]
    assert not st.dirty_kfs

    assert collect_dirty(st, center, 10, [3, 15], 2, MAP) == []


def test_collect_dirty_leaves_outside_window_dirty():
    st = seeded_state(6)
    m = st.slam[MAP]
    kids = sorted(m.keyframes)
    center = kids[-1]
    m.keyframes[center].covisible = {kids[-2]: 9}
    m.keyframes[kids[-2]].covisible = {center: 9}
    st.dirty_kfs = {kids[0], kids[-2], center}
    batches = collect_dirty(st, center, n_covisible=5, schedule=[3],
                            seq_start=0, map_id=MAP)
    collected = {u.kf_id for b in batches for u in b.kf_updates}
    assert collected == {kids[-2], center}
    assert st.dirty_kfs == {kids[0]}  # excluded, stays dirty

    # Oracle: recompute the covisible window intersection exhaustively.
    window = {center} | set(m.keyframes[center].covisible)
    assert collected == window & {kids[0], kids[-2], center}


def test_digest_empty_state_constant():
    assert canonical_digest(SystemState()) == canonical_digest(SystemState())
    assert len(canonical_digest(SystemState())) == 32


def test_digest_insensitive_to_insertion_order():
    a = seeded_state(4)
    b = SystemState()
    apply_new_keyframe(b, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
    for i in (3, 1, 2):
        apply_new_keyframe(b, kf_payload(i, [mp(0)]))
    assert canonical_digest(a) == canonical_digest(b)


def test_digest_detects_small_pose_change():
    a = seeded_state(2)
    b = seeded_state(2)
    kf = b.slam[MAP].keyframes[KeyFrameId(1, 1)]
    kf.pose = Pose2(kf.pose.x + 1e-3, kf.pose.y, kf.pose.theta)
    assert canonical_bytes(a) != canonical_bytes(b)
    assert canonical_digest(a) != canonical_digest(b)


def _reference_canonical_bytes(state):
    """The canonical form written one field at a time."""
    out = bytearray()

    def u(fmt, v):
        out.extend(struct.pack(fmt, v))

    def dec(value):
        v = round(value, 9)
        if v == 0.0:
            v = 0.0
        out.extend(f"{v:+021.9f}".encode("ascii"))

    def kid(k):
        u("<B", k.origin)
        u("<Q", k[1])

    u("<B", 1)
    u("<I", len(state.slam))
    for map_id in sorted(state.slam):
        m = state.slam[map_id]
        kid(map_id)
        kid(m.origin_kf)
        u("<B", 1 if m.initialized_optimized else 0)
        u("<I", len(m.keyframes))
        for k in sorted(m.keyframes):
            kf = m.keyframes[k]
            kid(k)
            for v in (kf.pose.x, kf.pose.y, kf.pose.theta):
                dec(v)
            u("<I", kf.ref_point_count)
            u("<I", len(kf.observations))
            for mp_id in sorted(kf.observations):
                o = kf.observations[mp_id]
                u("<Q", mp_id)
                u("<Q", o.landmark_id)
                dec(o.range)
                dec(o.bearing)
            u("<I", len(kf.covisible))
            for other in sorted(kf.covisible):
                kid(other)
                u("<I", kf.covisible[other])
        u("<I", len(m.map_points))
        for mp_id in sorted(m.map_points):
            p = m.map_points[mp_id]
            u("<Q", mp_id)
            dec(p.x)
            dec(p.y)
            u("<Q", p.origin_landmark)
            u("<I", len(p.observers))
            for k in sorted(p.observers):
                kid(k)
    return bytes(out)


@settings(max_examples=50)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
       st.sampled_from([0.0, -0.0, -4e-10, 4e-10, -5e-10, 1e15, -123.4567890125]))
def test_canonical_bytes_match_the_field_by_field_form(pose, edge):
    state = seeded_state(5)
    m = state.slam[MAP]
    m.keyframes[KeyFrameId(1, 2)].pose = Pose2(*pose)
    m.keyframes[KeyFrameId(1, 3)].pose = Pose2(edge, -edge, edge)
    m.map_points[mp(0)].x = edge
    for a, b in ((1, 2), (2, 4)):
        ka, kb = KeyFrameId(1, a), KeyFrameId(1, b)
        m.keyframes[ka].covisible[kb] = 7
        m.keyframes[kb].covisible[ka] = 7
    assert canonical_bytes(state) == _reference_canonical_bytes(state)
    assert canonical_digest(state) == hashlib.blake2b(
        _reference_canonical_bytes(state), digest_size=16).hexdigest()


def test_local_batch_naming_an_absorbed_map_applies_in_every_order():
    other = MapId(1, 1)
    kf_a, kf_b, point = KeyFrameId(1, 0), KeyFrameId(1, 10), mp(10)
    merge = MapBatch(
        BatchKind.MM, MAP, 1, 0, True,
        (KeyFrameUpdate(kf_a, Pose2(0, 1, 0)), KeyFrameUpdate(kf_b, Pose2(3, 1, 0))),
        (WireMapPoint(point, 5.0, 0.0, 1000),), absorbed_map=other)
    local = MapBatch(BatchKind.LOCAL, other, 1, 0, False,
                     (KeyFrameUpdate(kf_b, Pose2(7, 0, 0)),),
                     (WireMapPoint(point, 9.0, 0.0, 1000),))
    orders = {
        "merge, local": [merge, local],
        "local, merge": [local, merge],
        "epoch seen, local, merge": [1, local, merge],
    }
    digests = set()
    for name, order in orders.items():
        st = SystemState()
        apply_new_keyframe(st, kf_payload(0, [mp(0)], new=[mp(0)], origin=True))
        apply_new_keyframe(st, kf_payload(10, [point], new=[point], origin=True,
                                          map_id=other))
        for msg in order:
            if isinstance(msg, int):
                observe_epoch(st, msg)
            else:
                apply_map_batch(st, msg)
        m = st.slam[MAP]
        assert list(st.slam) == [MAP], name
        assert m.keyframes[kf_b].pose.x == 7.0, name
        assert m.map_points[point].x == 9.0, name
        assert not st.staged_kf_updates and not st.staged_mp_updates, name
        digests.add(canonical_digest(st))
    assert len(digests) == 1


def _delivery_messages():
    """A message multiset with real cross-dependencies, per sender link."""
    link_a = [kf_payload(0, [mp(0)], new=[mp(0)], origin=True),
              kf_payload(1, [mp(0), mp(1)], new=[mp(1)]),
              kf_payload(2, [mp(1), mp(2)], new=[mp(2)])]
    link_b = [local_batch(0, [(KeyFrameId(1, 0), Pose2(0, 2, 0))]),
              local_batch(1, [(KeyFrameId(1, 1), Pose2(1, 2, 0)),
                              (KeyFrameId(1, 2), Pose2(2, 2, 0))]),
              local_batch(2, [(KeyFrameId(1, 1), Pose2(7, 2, 0))], epoch=1)]
    link_c = global_batches(epoch=1, n_kfs=3, size=2)
    return link_a, link_b, link_c


def apply_message(st, msg):
    if isinstance(msg, NewKeyFramePayload):
        apply_new_keyframe(st, msg)
    else:
        try:
            apply_map_batch(st, msg)
        except EpochMismatch:
            pass


def test_order_insensitivity_over_link_preserving_interleavings():
    links = _delivery_messages()
    rng = random.Random(42)
    reference = None
    for _ in range(60):
        cursors = [0, 0, 0]
        st = SystemState()
        while any(c < len(links[i]) for i, c in enumerate(cursors)):
            choices = [i for i in range(3) if cursors[i] < len(links[i])]
            pick = rng.choice(choices)
            apply_message(st, links[pick][cursors[pick]])
            cursors[pick] += 1
        digest = canonical_digest(st)
        if reference is None:
            reference = digest
        assert digest == reference


def test_redelivered_batches_leave_digest_unchanged():
    st = seeded_state(23)
    local = local_batch(0, [(KeyFrameId(1, 0), Pose2(3, 3, 0))])
    apply_map_batch(st, local)
    batches = global_batches(epoch=1, n_kfs=23, size=10)
    for b in batches:
        apply_map_batch(st, b)
    digest = canonical_digest(st)
    with pytest.raises(EpochMismatch):
        apply_map_batch(st, local)    # stale epoch: discarded
    apply_map_batch(st, batches[1])   # promoted epoch: re-staged, inert
    assert canonical_digest(st) == digest


@st.composite
def message_history(draw):
    """A random but causally plausible message multiset on three links."""
    n_kfs = draw(st.integers(3, 7))
    kf_msgs = []
    known_points = []
    for i in range(n_kfs):
        fresh = [mp(100 * i + j) for j in range(draw(st.integers(1, 3)))]
        refs = []
        if known_points:
            refs = draw(st.lists(st.sampled_from(known_points), max_size=3,
                                 unique=True))
        known_points.extend(fresh)
        kf_msgs.append(kf_payload(i, refs + fresh, new=fresh, origin=(i == 0)))

    local_msgs = []
    for seq in range(draw(st.integers(0, 3))):
        targets = draw(st.lists(st.integers(0, n_kfs - 1), min_size=1,
                                max_size=3, unique=True))
        local_msgs.append(local_batch(
            seq, [(KeyFrameId(1, t), Pose2(20.0 + seq, t, 0)) for t in targets],
            epoch=draw(st.integers(0, 1))))

    global_msgs = []
    if draw(st.booleans()):
        global_msgs = global_batches(epoch=1, n_kfs=n_kfs, size=3)
    return [kf_msgs, local_msgs, global_msgs]


@settings(max_examples=40, deadline=None)
@given(message_history(), st.randoms(use_true_random=False))
def test_random_histories_are_order_insensitive(links, rng):
    def play(order):
        st_ = SystemState()
        for msg in order:
            apply_message(st_, msg)
        return canonical_digest(st_)

    reference = play([m for link in links for m in link])
    cursors = [0] * len(links)
    order = []
    while any(c < len(links[i]) for i, c in enumerate(cursors)):
        choices = [i for i in range(len(links)) if cursors[i] < len(links[i])]
        pick = rng.choice(choices)
        order.append(links[pick][cursors[pick]])
        cursors[pick] += 1
    assert play(order) == reference
