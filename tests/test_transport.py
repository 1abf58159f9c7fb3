"""Socket framing: length-prefixed frames on a connected socket pair."""

import socket
import threading
import time

import pytest

from meshslam.messages import DiscoveryPayload, PayloadKind, encode_payload
from meshslam.policy import Role
from meshslam.transport import (
    FRAME_HEADER,
    MAX_FRAME_LEN,
    FrameTooLarge,
    SocketTransport,
    read_frame,
    write_frame,
)
from meshslam.wire import (
    FOOTER_LEN,
    HEADER_LEN,
    MAX_PAYLOAD,
    Envelope,
    Topic,
    encode,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


def _send_in_chunks(sock, data: bytes, chunk: int) -> threading.Thread:
    def run() -> None:
        for i in range(0, len(data), chunk):
            sock.sendall(data[i:i + chunk])

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


def test_cap_is_the_largest_envelope():
    assert MAX_FRAME_LEN == HEADER_LEN + MAX_PAYLOAD + FOOTER_LEN


def test_frames_roundtrip_in_order(pair):
    a, b = pair
    frames = [b"", b"x", bytes(range(256)) * 3]
    for data in frames:
        write_frame(a, data)
    assert [read_frame(b) for _ in frames] == frames


def test_frame_arriving_in_small_pieces_is_reassembled(pair):
    a, b = pair
    data = bytes(i % 251 for i in range(300_000))
    wire = FRAME_HEADER.pack(len(data)) + data
    sender = _send_in_chunks(a, wire, 997)
    got = read_frame(b)
    sender.join(timeout=5.0)
    assert not sender.is_alive()
    assert type(got) is bytes and got == data


def test_declared_length_above_cap_is_rejected_before_the_body(pair):
    a, b = pair
    # Only the length goes out: reading any body would block until the
    # socket timeout instead of raising at once.
    a.sendall(FRAME_HEADER.pack(MAX_FRAME_LEN + 1))
    with pytest.raises(FrameTooLarge):
        read_frame(b)


def test_peer_closing_mid_frame_reads_as_closed(pair):
    a, b = pair
    a.sendall(FRAME_HEADER.pack(10) + b"abc")
    a.close()
    assert read_frame(b) is None


def test_peer_closing_between_frames_reads_as_closed(pair):
    a, b = pair
    write_frame(a, b"last")
    a.close()
    assert read_frame(b) == b"last"
    assert read_frame(b) is None


def _wait_for(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def test_frame_split_across_a_read_timeout_arrives_intact(pair):
    a, b = pair
    received = []
    transport = SocketTransport(Role.TRACKING, 0, {}, received.append)
    reader = threading.Thread(target=transport._read_loop, args=(b,),
                              daemon=True)
    try:
        reader.start()
        envs = [Envelope(Topic.DISCOVERY, Role.MAPPING, seq, 0,
                         PayloadKind.DISCOVERY,
                         encode_payload(DiscoveryPayload(seq)))
                for seq in range(2)]
        wire = b"".join(FRAME_HEADER.pack(len(encode(e))) + encode(e)
                        for e in envs)
        # The read loop wakes every 0.5 s; pause longer than that inside
        # the first frame, then send its rest together with a second one.
        a.sendall(wire[:10])
        time.sleep(0.8)
        a.sendall(wire[10:])
        assert _wait_for(lambda: len(received) == 2, 5.0)
        assert received == envs
        # A read blocked inside a frame still notices close().
        a.sendall(wire[:10])
        time.sleep(0.1)
    finally:
        transport.close()
        reader.join(timeout=5.0)
    assert not reader.is_alive()


def test_undecodable_frame_is_counted_and_the_next_one_delivered(pair):
    a, b = pair
    received = []
    transport = SocketTransport(Role.TRACKING, 0, {}, received.append)
    reader = threading.Thread(target=transport._read_loop, args=(b,),
                              daemon=True)
    try:
        reader.start()
        bad, good = (Envelope(Topic.DISCOVERY, Role.MAPPING, seq, 0,
                              PayloadKind.DISCOVERY,
                              encode_payload(DiscoveryPayload(seq)))
                     for seq in range(2))
        corrupt = bytearray(encode(bad))
        corrupt[-1] ^= 0xFF  # the last byte belongs to the crc32
        write_frame(a, bytes(corrupt))
        write_frame(a, encode(good))
        assert _wait_for(lambda: len(received) == 1, 5.0)
        assert received == [good]
        assert transport.decode_errors == 1
    finally:
        transport.close()
        reader.join(timeout=5.0)
    assert not reader.is_alive()
