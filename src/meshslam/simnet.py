"""Deterministic discrete-event network and virtual clock.

One heap owns every callback, so a (seed, scenario, fault schedule)
triple fully determines each delivery time, digest, and metric. Links
model one-way latency as transmission plus processing plus uniform
jitter; a drop draw reschedules the frame one extra one-way latency
later (reliable delivery), and per-link FIFO is enforced by clamping
delivery times to never overtake an earlier send.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from meshslam.policy import Role


class LivelockGuard(Exception):
    """Dispatched event count exceeded the configured cap."""


@dataclass(frozen=True)
class LinkSpec:
    t_p_ms: float = 0.0
    t_proc_ms: float = 0.0
    jitter_ms: float = 0.0
    drop_prob: float = 0.0

    def one_way_ms(self) -> float:
        return self.t_p_ms + self.t_proc_ms


@dataclass(frozen=True)
class FaultEvent:
    at_ms: float
    kind: str            # crash | recover | partition | heal
    roles: tuple[Role, ...] = ()
    links: tuple[tuple[Role, Role], ...] = ()


@dataclass
class TrafficAccount:
    """Per (node, direction, payload kind): byte and message counters."""

    bytes: dict[tuple[Role, str, str], int] = field(default_factory=dict)
    counts: dict[tuple[Role, str, str], int] = field(default_factory=dict)
    duration_s: float = 0.0

    def add(self, node: Role, direction: str, kind: str, nbytes: int) -> None:
        key = (node, direction, kind)
        self.bytes[key] = self.bytes.get(key, 0) + nbytes
        self.counts[key] = self.counts.get(key, 0) + 1

    def node_bytes(self, node: Role) -> int:
        return sum(v for (n, _, _), v in self.bytes.items() if n == node)

    def kind_count(self, node: Role, direction: str, kind: str) -> int:
        return self.counts.get((node, direction, kind), 0)

    def bandwidth_mbps(self, node: Role) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.node_bytes(node) * 8.0 / 1e6 / self.duration_s

    def rows(self) -> list[tuple[str, str, str, int, int, float]]:
        keys = sorted(set(self.bytes) | set(self.counts),
                      key=lambda k: (k[0].value, k[1], k[2]))
        return [(n.value, d, k, self.bytes.get((n, d, k), 0),
                 self.counts.get((n, d, k), 0), self.duration_s)
                for (n, d, k) in keys]


class _Event:
    __slots__ = ("time", "prio", "seq", "fn", "productive")

    def __init__(self, time: float, prio: int, seq: int, fn: Callable[[], None],
                 productive: bool):
        self.time = time
        self.prio = prio
        self.seq = seq
        self.fn = fn
        self.productive = productive

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.prio, self.seq) < (other.time, other.prio, other.seq)


PRIO_FAULT = 0
PRIO_NORMAL = 1
MAX_RETRIES = 12  # drop draws a frame survives before it is lost


@dataclass
class _HeldFrame:
    payload: bytes
    deliver: Callable[[bytes], None]
    kind: str


class Simulator:
    def __init__(self, seed: int = 0, livelock_cap: int = 5_000_000):
        self.now = 0.0
        self.rng = random.Random(seed)
        self._heap: list[_Event] = []
        self._seq = 0
        self._dispatched = 0
        self._livelock_cap = livelock_cap
        self._productive_pending = 0

        self.links: dict[tuple[Role, Role], LinkSpec] = {}
        self.partitioned: set[tuple[Role, Role]] = set()
        self.crashed: set[Role] = set()
        self.account = TrafficAccount()
        self._last_delivery: dict[tuple[Role, Role], float] = {}
        self._held: dict[tuple[Role, Role], list[_HeldFrame]] = {}

        self.sent_frames = 0
        self.delivered_frames = 0
        self.dropped_frames = 0
        self.input_done = False

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay_ms: float, fn: Callable[[], None],
                 prio: int = PRIO_NORMAL, productive: bool = True) -> None:
        ev = _Event(self.now + max(0.0, delay_ms), prio, self._seq, fn, productive)
        self._seq += 1
        if productive:
            self._productive_pending += 1
        heapq.heappush(self._heap, ev)

    @property
    def draining(self) -> bool:
        return self.input_done and self._productive_pending == 0

    # -- link layer ----------------------------------------------------

    def set_link(self, a: Role, b: Role, spec: LinkSpec) -> None:
        self.links[(a, b)] = spec

    def send(self, sender: Role, receiver: Role, payload: bytes,
             deliver: Callable[[bytes], None], kind: str,
             productive: bool = True) -> None:
        """Reliably deliver payload over the directed link, with latency."""
        if sender in self.crashed:
            return
        self.sent_frames += 1
        self.account.add(sender, "out", kind, len(payload))
        key = (sender, receiver)
        if key in self.partitioned:
            self._held.setdefault(key, []).append(_HeldFrame(payload, deliver, kind))
            return
        self._schedule_delivery(key, payload, deliver, kind, productive)

    def _schedule_delivery(self, key: tuple[Role, Role], payload: bytes,
                           deliver: Callable[[bytes], None], kind: str,
                           productive: bool = True) -> None:
        link = self.links.get(key, LinkSpec())
        delay = link.one_way_ms()
        if link.jitter_ms > 0.0:
            delay += self.rng.uniform(-link.jitter_ms, link.jitter_ms)
        if link.drop_prob > 0.0:
            retries = 0
            while self.rng.random() < link.drop_prob:
                retries += 1
                if retries > MAX_RETRIES:
                    self.dropped_frames += 1
                    return
                delay += link.one_way_ms()
        at = max(self.now + max(0.0, delay), self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = at
        receiver = key[1]

        def _deliver() -> None:
            if receiver in self.crashed:
                self.dropped_frames += 1
                return
            self.delivered_frames += 1
            self.account.add(receiver, "in", kind, len(payload))
            deliver(payload)

        self.schedule(at - self.now, _deliver, productive=productive)

    def drop_held(self, sender: Role, receiver: Role) -> int:
        """Discard frames held for a departed peer; returns the count."""
        held = self._held.pop((sender, receiver), [])
        self.dropped_frames += len(held)
        return len(held)

    # -- faults ----------------------------------------------------------

    def inject_fault(self, ev: FaultEvent,
                     on_fault: Callable[[FaultEvent], None] | None = None) -> None:
        def _apply() -> None:
            if ev.kind == "crash":
                self.crashed.update(ev.roles)
            elif ev.kind == "recover":
                for role in ev.roles:
                    self.crashed.discard(role)
            elif ev.kind == "partition":
                for a, b in ev.links:
                    self.partitioned.add((a, b))
                    self.partitioned.add((b, a))
            elif ev.kind == "heal":
                healed = set(self.partitioned) if not ev.links else {
                    pair for a, b in ev.links for pair in ((a, b), (b, a))
                }
                for key in sorted(healed, key=lambda k: (k[0].value, k[1].value)):
                    self.partitioned.discard(key)
                    for frame in self._held.pop(key, []):
                        self._schedule_delivery(key, frame.payload, frame.deliver,
                                                frame.kind)
            else:
                raise ValueError(f"unknown fault kind {ev.kind!r}")
            if on_fault is not None:
                on_fault(ev)

        self.schedule(ev.at_ms - self.now, _apply, prio=PRIO_FAULT)

    # -- main loop ---------------------------------------------------------

    def run_until(self, t_end: float | None = None) -> float:
        """Dispatch events in time order until quiescence or t_end."""
        while self._heap:
            ev = self._heap[0]
            if t_end is not None and ev.time > t_end:
                self.now = t_end
                break
            heapq.heappop(self._heap)
            if ev.productive:
                self._productive_pending -= 1
            self.now = ev.time
            self._dispatched += 1
            if self._dispatched > self._livelock_cap:
                raise LivelockGuard(f"{self._dispatched} events dispatched")
            ev.fn()
        return self.now
