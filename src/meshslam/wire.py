"""Versioned, checksummed, length-prefixed wire frames.

Frame layout (little-endian):

    version u8 | topic u8 | sender u8 | kind/target u8 |
    seq u64 | pause_epoch u32 | payload_len u32 | payload | crc32 u32

A heartbeat (empty payload) is exactly 24 bytes. The payload kind and
target share one byte: kind in the low nibble, target in the high one.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass

from meshslam.messages import PayloadKind, Target
from meshslam.policy import Role

WIRE_VERSION = 1
HEADER_LEN = 20
FOOTER_LEN = 4
MAX_PAYLOAD = 1 << 26


class WireError(Exception):
    pass


class DecodeError(WireError):
    pass


class Truncated(DecodeError):
    pass


class UnknownTopic(DecodeError):
    pass


class UnknownVersion(DecodeError):
    pass


class ChecksumMismatch(DecodeError):
    pass


class UnknownKind(DecodeError):
    pass


class TopicViolation(WireError):
    """A role published on a topic its current duties do not permit."""


class Topic(enum.Enum):
    KF_NEW = 1        # tracking -> mapping: complete new keyframes
    MAP_LOCAL = 2     # mapping -> others: local map batches
    KF_FORWARD = 3    # mapping -> loop: forwarded keyframes
    MAP_GLOBAL = 4    # loop -> mapping, relayed mapping -> tracking
    DISCOVERY = 5     # all <-> all: discovery and heartbeats

    @property
    def label(self) -> str:
        return _TOPIC_LABELS[self]


_TOPIC_LABELS = {
    Topic.KF_NEW: "kf/new",
    Topic.MAP_LOCAL: "map/local",
    Topic.KF_FORWARD: "kf/forward",
    Topic.MAP_GLOBAL: "map/global",
    Topic.DISCOVERY: "discovery",
}

# Duties allowed to produce on each topic. "relay" marks the mapping
# node's gateway re-publication of global batches toward tracking.
TOPIC_PRODUCER_DUTIES: dict[Topic, frozenset[str]] = {
    Topic.KF_NEW: frozenset({"tracking"}),
    Topic.MAP_LOCAL: frozenset({"mapping"}),
    Topic.KF_FORWARD: frozenset({"mapping"}),
    Topic.MAP_GLOBAL: frozenset({"loop", "relay"}),
    Topic.DISCOVERY: frozenset({"tracking", "mapping", "loop", "relay"}),
}


@dataclass(frozen=True)
class Envelope:
    topic: Topic
    sender: Role
    seq: int
    pause_epoch: int
    kind: PayloadKind
    payload: bytes
    target: Target = Target.NONE
    version: int = WIRE_VERSION


def check_topic_permission(topic: Topic, duties: set[str]) -> None:
    if not (TOPIC_PRODUCER_DUTIES[topic] & duties):
        raise TopicViolation(f"duties {sorted(duties)} may not publish {topic.label}")


def encode(env: Envelope) -> bytes:
    if env.version != WIRE_VERSION:
        raise UnknownVersion(f"cannot encode version {env.version}")
    if len(env.payload) > MAX_PAYLOAD:
        raise WireError("payload too large")
    kind_target = (env.target.value << 4) | env.kind.value
    head = struct.pack(
        "<BBBBQII",
        env.version,
        env.topic.value,
        env.sender.code,
        kind_target,
        env.seq,
        env.pause_epoch,
        len(env.payload),
    )
    body = head + env.payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def decode(data: bytes) -> Envelope:
    if len(data) < HEADER_LEN + FOOTER_LEN:
        raise Truncated(f"frame of {len(data)} bytes is shorter than minimum")
    version, topic_code, sender_code, kind_target, seq, epoch, paylen = (
        struct.unpack("<BBBBQII", data[:HEADER_LEN])
    )
    if version != WIRE_VERSION:
        raise UnknownVersion(f"version {version}")
    try:
        topic = Topic(topic_code)
    except ValueError:
        raise UnknownTopic(f"topic code {topic_code}") from None
    try:
        sender = Role.from_code(sender_code)
    except ValueError:
        raise UnknownKind(f"sender code {sender_code}") from None
    try:
        kind = PayloadKind(kind_target & 0x0F)
        target = Target(kind_target >> 4)
    except ValueError:
        raise UnknownKind(f"kind/target byte {kind_target:#x}") from None
    if paylen > MAX_PAYLOAD:
        raise Truncated(f"declared payload {paylen} beyond limit")
    expected = HEADER_LEN + paylen + FOOTER_LEN
    if len(data) != expected:
        raise Truncated(f"frame is {len(data)} bytes, expected {expected}")
    body = data[:HEADER_LEN + paylen]
    (crc,) = struct.unpack("<I", data[HEADER_LEN + paylen:expected])
    if crc != (zlib.crc32(body) & 0xFFFFFFFF):
        raise ChecksumMismatch("crc32 mismatch")
    return Envelope(topic, sender, seq, epoch, kind,
                    data[HEADER_LEN:HEADER_LEN + paylen], target, version)
