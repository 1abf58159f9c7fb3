"""Socket framing: length-prefixed frames on a connected socket pair."""

import socket
import threading

import pytest

from meshslam.transport import (
    FRAME_HEADER,
    MAX_FRAME_LEN,
    FrameTooLarge,
    read_frame,
    write_frame,
)
from meshslam.wire import FOOTER_LEN, HEADER_LEN, MAX_PAYLOAD


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
