"""Socket-mode smoke: real TCP links, wall clock, two-node exchange.

Excluded from the deterministic acceptance path; this only checks that
the framing, connections, and node pipelines hold together off the
simulator.
"""

import socket
import threading
import time

from meshslam.config import NodeConfig
from meshslam.geometry import Pose2
from meshslam.node import SlamNode
from meshslam.policy import Role
from meshslam.state import canonical_digest
from meshslam.transport import SocketTransport, read_frame, write_frame

from conftest import grid_landmarks, make_frame

TR, LM = Role.TRACKING, Role.MAPPING


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class WallClock:
    def __init__(self, lock: threading.Lock):
        self.lock = lock
        self.stopped = False
        self._timers: list[threading.Timer] = []

    def now_ms(self) -> float:
        return time.monotonic() * 1000.0

    def schedule(self, delay_ms, fn, productive=True):
        if self.stopped:
            return None

        def guarded():
            if self.stopped:
                return
            with self.lock:
                if not self.stopped:
                    fn()

        timer = threading.Timer(max(delay_ms, 0.0) / 1000.0, guarded)
        timer.daemon = True
        timer.start()
        self._timers.append(timer)
        return timer

    @property
    def draining(self) -> bool:
        return False

    def stop(self):
        self.stopped = True
        for t in self._timers:
            t.cancel()


def test_frame_codec_over_real_socket():
    port = free_port()
    server = socket.create_server(("127.0.0.1", port))
    got = []

    def serve():
        conn, _ = server.accept()
        while True:
            data = read_frame(conn)
            if data is None:
                return
            got.append(data)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client = socket.create_connection(("127.0.0.1", port))
    blobs = [bytes([i]) * (i + 1) for i in range(10)]
    for b in blobs:
        write_frame(client, b)
    client.close()
    t.join(timeout=3.0)
    server.close()
    assert got == blobs


def test_two_node_slam_over_sockets():
    ports = {TR: free_port(), LM: free_port()}
    locks = {role: threading.Lock() for role in ports}
    clocks = {role: WallClock(locks[role]) for role in ports}
    nodes: dict[Role, SlamNode] = {}
    transports: dict[Role, SocketTransport] = {}

    def deliver(role):
        def cb(env):
            with locks[role]:
                nodes[role].on_envelope(env)
        return cb

    cfg = NodeConfig(heartbeat_ms=150.0, local_batch_spacing_ms=10.0)
    try:
        for role in (TR, LM):
            transports[role] = SocketTransport(
                role, ports[role],
                {peer: ports[peer] for peer in ports if peer != role},
                deliver(role))
            nodes[role] = SlamNode(role, cfg, transports[role], clocks[role],
                                   session=role.code)
        for role in (TR, LM):
            with locks[role]:
                nodes[role].start()
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline:
            with locks[TR]:
                discovered = LM in nodes[TR].peers
            if discovered:
                break
            time.sleep(0.02)
        assert discovered, "discovery over sockets failed"

        landmarks = grid_landmarks(30, spacing=1.0)
        prev = None
        for k in range(40):
            pose = Pose2(0.22 * k, 0.01 * k, 0.0)
            world = (landmarks if k % 4 else
                     {i: v for i, v in landmarks.items() if i < 20})
            frame = make_frame(k, pose, prev, world)
            with locks[TR]:
                nodes[TR].on_frame(frame)
            prev = pose
            time.sleep(0.004)

        deadline = time.monotonic() + 4.0
        while time.monotonic() < deadline:
            with locks[TR]:
                d_tr = canonical_digest(nodes[TR].state)
            with locks[LM]:
                d_lm = canonical_digest(nodes[LM].state)
            if d_tr == d_lm:
                break
            time.sleep(0.05)
        assert d_tr == d_lm, "socket-mode states failed to converge"
        with locks[LM]:
            lm_kfs = sum(len(m.keyframes) for m in nodes[LM].state.slam.values())
        assert lm_kfs >= 2
    finally:
        for role in clocks:
            clocks[role].stop()
        for transport in transports.values():
            transport.close()
