import random

import pytest
from hypothesis import given, settings, strategies as st

from meshslam.codec import TrailingInput, TruncatedInput
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
from meshslam.policy import Role
from meshslam.wire import (
    ChecksumMismatch,
    DecodeError,
    Envelope,
    Topic,
    TopicViolation,
    Truncated,
    UnknownTopic,
    UnknownVersion,
    check_topic_permission,
    decode,
    encode,
)

# Golden frame: heartbeat seq 7 from the tracking node. Pinned bytes —
# any layout change must be deliberate and versioned.
GOLDEN_HEARTBEAT = bytes.fromhex(
    "0105010607000000000000000000000000000000edd4a7e1")


def heartbeat_env(seq=7):
    return Envelope(Topic.DISCOVERY, Role.TRACKING, seq, 0,
                    PayloadKind.HEARTBEAT, encode_payload(HeartbeatPayload()))


def test_heartbeat_is_24_byte_golden_frame():
    data = encode(heartbeat_env())
    assert len(data) == 24
    assert data == GOLDEN_HEARTBEAT
    assert decode(data) == heartbeat_env()


def sample_envelopes():
    kf_id = KeyFrameId(1, 3)
    map_id = MapId(1, 0)
    mp = mint_map_point_id(1, 5)
    payloads = [
        (Topic.KF_NEW, PayloadKind.NEW_KEYFRAME, NewKeyFramePayload(
            map_id, True, False,
            WireKeyFrame(kf_id, Pose2(1.5, -2.25, 0.5), 12,
                         (WireObservation(mp, 9, 3.5, -0.25),)),
            (WireMapPoint(mp, 4.0, 5.0, 9),)), Target.LM),
        (Topic.MAP_LOCAL, PayloadKind.MAP_BATCH, MapBatch(
            BatchKind.LOCAL, map_id, 0, 4, False,
            (KeyFrameUpdate(kf_id, Pose2(0, 1, 2)),),
            (WireMapPoint(mp, 1, 2, 9),)), Target.NONE),
        (Topic.MAP_GLOBAL, PayloadKind.MAP_BATCH, MapBatch(
            BatchKind.MM, map_id, 2, 1, True,
            (KeyFrameUpdate(kf_id, Pose2(0, 1, 2)),), (),
            ((mp, mint_map_point_id(1, 6)),), MapId(1, 1), True), Target.NONE),
        (Topic.MAP_GLOBAL, PayloadKind.GLOBAL_UPDATE_START,
         GlobalUpdateStart(3, map_id, BatchKind.LC), Target.NONE),
        (Topic.DISCOVERY, PayloadKind.DISCOVERY,
         DiscoveryPayload(0xDEADBEEF), Target.NONE),
        (Topic.DISCOVERY, PayloadKind.HEARTBEAT, HeartbeatPayload(),
         Target.NONE),
    ]
    for i, (topic, kind, payload, target) in enumerate(payloads):
        yield Envelope(topic, Role.MAPPING, i, 2, kind,
                       encode_payload(payload), target), payload


def test_roundtrip_every_payload_kind():
    for env, payload in sample_envelopes():
        data = encode(env)
        back = decode(data)
        assert back == env
        assert decode_payload(back.kind, back.payload) == payload
        assert encode(back) == data  # encode(decode(b)) == b


def test_every_proper_prefix_of_a_payload_is_truncated():
    # Fixed runs of fields are read with one call each: a cut inside a
    # run must still surface as TruncatedInput, which the node drops, and
    # never as struct.error. A byte past the end is rejected too, so each
    # payload has exactly one encoding.
    for env, _ in sample_envelopes():
        data = env.payload
        for cut in range(len(data)):
            with pytest.raises(TruncatedInput):
                decode_payload(env.kind, data[:cut])
        with pytest.raises(TrailingInput):
            decode_payload(env.kind, data + b"\x00")


def test_decoding_is_canonical_under_any_one_byte_change():
    # Whatever a decoder accepts re-encodes to the very same bytes: a flag
    # byte of 2 is rejected rather than read as True and sent on as 1.
    for env, _ in sample_envelopes():
        data = env.payload
        for pos in range(len(data)):
            for value in range(256):
                if value == data[pos]:
                    continue
                changed = data[:pos] + bytes([value]) + data[pos + 1:]
                try:
                    payload = decode_payload(env.kind, changed)
                except (TruncatedInput, ValueError):
                    continue
                assert encode_payload(payload) == changed, (env.kind, pos)


def test_encoder_refuses_other_versions():
    env = Envelope(Topic.DISCOVERY, Role.TRACKING, 0, 0,
                   PayloadKind.HEARTBEAT, b"", version=0)
    with pytest.raises(UnknownVersion):
        encode(env)


def test_truncated_frames_rejected():
    data = encode(heartbeat_env())
    for cut in (0, 1, 10, 23):
        with pytest.raises(Truncated):
            decode(data[:cut])
    with pytest.raises(Truncated):
        decode(data + b"x")


def test_unknown_topic_and_version_rejected():
    data = bytearray(encode(heartbeat_env()))
    bad_topic = bytes([data[0], 99]) + bytes(data[2:])
    with pytest.raises(UnknownTopic):
        decode(bad_topic)
    bad_version = bytes([9]) + bytes(data[1:])
    with pytest.raises(UnknownVersion):
        decode(bad_version)


def test_corrupted_payload_fails_checksum():
    env, _ = next(iter(sample_envelopes()))
    data = bytearray(encode(env))
    data[25] ^= 0xFF
    with pytest.raises(ChecksumMismatch):
        decode(bytes(data))


def test_random_bytes_never_crash_decoder():
    rng = random.Random(1234)
    for _ in range(20000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 96)))
        try:
            decode(blob)
        except DecodeError:
            pass


@settings(max_examples=300)
@given(st.binary(max_size=128))
def test_decode_is_total_over_arbitrary_input(blob):
    try:
        decode(blob)
    except DecodeError:
        pass


@settings(max_examples=200)
@given(st.binary(min_size=1, max_size=40), st.integers(0, 23))
def test_mutated_golden_frames_stay_typed(noise, pos):
    data = bytearray(GOLDEN_HEARTBEAT)
    for i, b in enumerate(noise):
        data[(pos + i) % len(data)] ^= b
    try:
        decode(bytes(data))
    except DecodeError:
        pass


def test_topic_permissions():
    check_topic_permission(Topic.KF_NEW, {"tracking"})
    check_topic_permission(Topic.MAP_GLOBAL, {"loop"})
    check_topic_permission(Topic.MAP_GLOBAL, {"relay"})
    with pytest.raises(TopicViolation):
        check_topic_permission(Topic.MAP_GLOBAL, {"tracking"})
    with pytest.raises(TopicViolation):
        check_topic_permission(Topic.KF_NEW, {"mapping", "loop"})
