#!/usr/bin/env python3
"""Wall-clock smoke: a tracking and a mapping node over real TCP sockets.

Prints both canonical digests after a short run; they should match.
"""

import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from meshslam.config import NodeConfig
from meshslam.geometry import Pose2, range_bearing
from meshslam.core.types import Frame, Observation
from meshslam.node import SlamNode
from meshslam.policy import Role
from meshslam.state import canonical_digest
from meshslam.transport import SocketTransport

TR, LM = Role.TRACKING, Role.MAPPING


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class WallClock:
    def __init__(self, lock):
        self.lock = lock
        self.stopped = False

    def now_ms(self):
        return time.monotonic() * 1000.0

    def schedule(self, delay_ms, fn, productive=True):
        def guarded():
            if not self.stopped:
                with self.lock:
                    fn()
        timer = threading.Timer(max(delay_ms, 0.0) / 1000.0, guarded)
        timer.daemon = True
        timer.start()
        return timer

    @property
    def draining(self):
        return False


def observe_world(pose, landmarks):
    obs = []
    for lm_id, (lx, ly) in sorted(landmarks.items()):
        r, b = range_bearing(pose, lx, ly)
        obs.append(Observation(lm_id, r, b))
    return tuple(obs)


def main() -> int:
    landmarks = {i: (1.0 + (i % 6), 1.0 + (i // 6)) for i in range(30)}
    ports = {TR: free_port(), LM: free_port()}
    locks = {role: threading.Lock() for role in ports}
    nodes, transports = {}, {}

    def deliver(role):
        def cb(env):
            with locks[role]:
                nodes[role].on_envelope(env)
        return cb

    cfg = NodeConfig(heartbeat_ms=150.0, local_batch_spacing_ms=10.0)
    for role in ports:
        transports[role] = SocketTransport(
            role, ports[role],
            {peer: ports[peer] for peer in ports if peer != role},
            deliver(role))
        nodes[role] = SlamNode(role, cfg, transports[role],
                               WallClock(locks[role]), session=role.code)
    for role in ports:
        with locks[role]:
            nodes[role].start()
    time.sleep(0.3)

    prev = None
    for k in range(40):
        pose = Pose2(0.2 * k, 0.01 * k, 0.0)
        world = (landmarks if k % 4 else
                 {i: v for i, v in landmarks.items() if i < 20})
        delta = Pose2() if prev is None else pose.relative_to(prev)
        frame = Frame.from_observations(k, k / 20.0, delta,
                                        observe_world(pose, world))
        with locks[TR]:
            nodes[TR].on_frame(frame)
        prev = pose
        time.sleep(0.005)
    time.sleep(1.0)

    with locks[TR]:
        d_tr = canonical_digest(nodes[TR].state)
    with locks[LM]:
        d_lm = canonical_digest(nodes[LM].state)
    print(f"tracking digest: {d_tr}")
    print(f"mapping digest:  {d_lm}")
    print("converged" if d_tr == d_lm else "NOT converged")
    for t in transports.values():
        t.close()
    return 0 if d_tr == d_lm else 1


if __name__ == "__main__":
    raise SystemExit(main())
