"""Transports binding a node to the simulated or socket network.

The communication layer does minimal work: encode, account, deliver.
Domain logic runs in the node; transport callbacks only enqueue.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Protocol

from meshslam.policy import Role
from meshslam.simnet import Simulator
from meshslam.wire import (
    FOOTER_LEN,
    HEADER_LEN,
    MAX_PAYLOAD,
    DecodeError,
    Envelope,
    Topic,
    WireError,
    decode,
    encode,
)


class Transport(Protocol):
    def publish(self, env: Envelope, targets: list[Role]) -> None: ...

    def on_peer_departed(self, peer: Role) -> None: ...


class Clock(Protocol):
    def now_ms(self) -> float: ...

    def schedule(self, delay_ms: float, fn: Callable[[], None],
                 productive: bool = True) -> None: ...

    @property
    def draining(self) -> bool: ...


class NullTransport:
    """No peers; publishing is a no-op (single-node configuration)."""

    def publish(self, env: Envelope, targets: list[Role]) -> None:
        pass

    def on_peer_departed(self, peer: Role) -> None:
        pass


class ManualClock:
    """Caller-advanced clock with no scheduler (direct in-process driving)."""

    def __init__(self) -> None:
        self.now = 0.0

    def now_ms(self) -> float:
        return self.now

    def schedule(self, delay_ms: float, fn: Callable[[], None],
                 productive: bool = True):
        return None

    @property
    def draining(self) -> bool:
        return False


class SimTransport:
    """Delivers encoded envelopes between nodes through the simulator."""

    def __init__(self, sim: Simulator, role: Role):
        self.sim = sim
        self.role = role
        self.receivers: dict[Role, Callable[[Envelope], None]] = {}

    def publish(self, env: Envelope, targets: list[Role]) -> None:
        data = encode(env)
        kind = env.kind.name.lower()
        productive = env.topic is not Topic.DISCOVERY
        for target in targets:
            deliver = self.receivers.get(target)
            if deliver is None:
                continue
            self.sim.send(self.role, target, data,
                          lambda b, cb=deliver: cb(decode(b)), kind,
                          productive=productive)

    def on_peer_departed(self, peer: Role) -> None:
        self.sim.drop_held(self.role, peer)


class SimClock:
    def __init__(self, sim: Simulator, role: Role):
        self.sim = sim
        self.role = role

    def now_ms(self) -> float:
        return self.sim.now

    def schedule(self, delay_ms: float, fn: Callable[[], None],
                 productive: bool = True) -> None:
        def guarded() -> None:
            if self.role in self.sim.crashed:
                return
            fn()

        self.sim.schedule(delay_ms, guarded, productive=productive)

    @property
    def draining(self) -> bool:
        return self.sim.draining


FRAME_HEADER = struct.Struct(">I")  # socket framing: 4-byte big-endian length
# The largest envelope wire.encode produces: header, payload, checksum.
MAX_FRAME_LEN = HEADER_LEN + MAX_PAYLOAD + FOOTER_LEN


class FrameTooLarge(WireError):
    """A socket frame declared a length no envelope can have."""


def write_frame(sock: socket.socket, data: bytes) -> None:
    sock.sendall(FRAME_HEADER.pack(len(data)) + data)


def read_frame(sock: socket.socket,
               stop: threading.Event | None = None) -> bytes | None:
    """One length-prefixed frame, or None when the peer closes first.

    A declared length above MAX_FRAME_LEN raises FrameTooLarge before
    any of the body is read; the stream cannot be resynchronized then.
    Without stop, a timeout on sock propagates. With stop, a timeout
    only re-checks it: the read resumes where it left off, so a frame
    split across timeouts arrives intact, and once stop is set the
    result is None.
    """
    head = _read_exact(sock, FRAME_HEADER.size, stop)
    if head is None:
        return None
    (length,) = FRAME_HEADER.unpack(head)
    if length > MAX_FRAME_LEN:
        raise FrameTooLarge(f"frame declares {length} bytes > {MAX_FRAME_LEN}")
    return _read_exact(sock, length, stop)


def _read_exact(sock: socket.socket, n: int,
                stop: threading.Event | None) -> bytes | None:
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            try:
                k = sock.recv_into(view[got:])
            except socket.timeout:
                if stop is None:
                    raise
                if stop.is_set():
                    return None
                continue
            if k == 0:
                return None
            got += k
    return bytes(buf)


class SocketTransport:
    """Wall-clock transport: one TCP connection per directed link.

    Exercised by smoke tests only; deterministic acceptance runs use the
    simulator.
    """

    def __init__(self, role: Role, listen_port: int,
                 peer_ports: dict[Role, int], deliver: Callable[[Envelope], None]):
        self.role = role
        self.deliver = deliver
        self.peer_ports = peer_ports
        self.decode_errors = 0  # frames dropped because they did not decode
        self._outgoing: dict[Role, socket.socket] = {}
        self._lock = threading.Lock()
        self._server = socket.create_server(("127.0.0.1", listen_port))
        self._server.settimeout(0.2)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._server.accept()
            except (socket.timeout, OSError):
                continue
            t = threading.Thread(target=self._read_loop, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _read_loop(self, conn: socket.socket) -> None:
        conn.settimeout(0.5)  # how often a blocked read checks for close()
        while not self._stop.is_set():
            try:
                data = read_frame(conn, self._stop)
            except (OSError, FrameTooLarge):
                return
            if data is None:
                return
            try:
                env = decode(data)
            except DecodeError:
                self.decode_errors += 1
                continue
            self.deliver(env)

    def _connect(self, target: Role) -> socket.socket | None:
        with self._lock:
            sock = self._outgoing.get(target)
            if sock is not None:
                return sock
            port = self.peer_ports.get(target)
            if port is None:
                return None
            try:
                sock = socket.create_connection(("127.0.0.1", port), timeout=2.0)
            except OSError:
                return None
            self._outgoing[target] = sock
            return sock

    def publish(self, env: Envelope, targets: list[Role]) -> None:
        data = encode(env)
        for target in targets:
            sock = self._connect(target)
            if sock is None:
                continue
            try:
                with self._lock:
                    write_frame(sock, data)
            except OSError:
                with self._lock:
                    self._outgoing.pop(target, None)

    def on_peer_departed(self, peer: Role) -> None:
        with self._lock:
            sock = self._outgoing.pop(peer, None)
        if sock is not None:
            sock.close()

    def close(self) -> None:
        self._stop.set()
        self._server.close()
        with self._lock:
            for sock in self._outgoing.values():
                sock.close()
            self._outgoing.clear()
