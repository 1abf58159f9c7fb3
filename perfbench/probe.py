"""Hooks that time one meshslam run from outside the library.

Every hook replaces a module or class attribute; no library file changes.
A module-level function is replaced at every ``meshslam`` module that holds
it, because ``from x import f`` binds ``f`` again in the importer (for
example ``core.loops`` calls ``global_bundle_adjust`` through its own name,
so wrapping only ``core.bundle`` would miss the loop-closure and merge BA).

Always on, because end-to-end metrics need them and they cost one clock
read per event:
  * wall time of the tracking node's ``on_frame``, per frame;
  * busy time per role: every simulator callback that runs node code;
  * the virtual time of the first local-batch promotion at ``tr`` per
    keyframe, for the keyframe round trip.
With ``traced=True`` each call into a layer also records a span
``[name, wall_start, wall_end, parent_index, virtual_ms, info]``. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from meshslam import messages, runner, state, transport, wire
from meshslam.core import bundle, loops, tracker
from meshslam.messages import BatchKind
from meshslam.policy import Role
from meshslam.simnet import Simulator
from meshslam.state import PromotionOutcome


def _bundle_vars(args, kwargs, out):
    kfs, mps = out  # a window with its one fixed keyframe, and free points
    return 3 * (len(kfs) - 1) + 2 * len(mps)


def _is_hit(args, kwargs, out):
    return out is not None


def _encoded_bytes(args, kwargs, out):
    return len(out)


def _decoded_bytes(args, kwargs, out):
    return len(args[1])


def _outcome(args, kwargs, out):
    return out.value


# (owner, attribute, span name, info). Module functions are replaced at
# every import site; class attributes are replaced on the class.
LAYER_FUNCTIONS = (
    (tracker, "track_frame", "tracker.track_frame", None),
    (bundle, "local_bundle_adjust", "bundle.lba", _bundle_vars),
    (bundle, "global_bundle_adjust", "bundle.gba", _bundle_vars),
    (loops, "detect_loop_or_merge", "loops.detect", _is_hit),
    (loops, "close_loop", "loops.close_loop", None),
    (loops, "merge_maps", "loops.merge_maps", None),
    (messages, "encode_payload", "messages.encode", _encoded_bytes),
    (messages, "decode_payload", "messages.decode", _decoded_bytes),
    (wire, "encode", "wire.encode", None),
    (wire, "decode", "wire.decode", None),
    (state, "apply_new_keyframe", "state.apply_new_keyframe", _outcome),
    (state, "apply_map_batch", "state.apply_map_batch", _outcome),
    (state, "collect_dirty", "state.collect_dirty", None),
    (state, "canonical_digest", "state.canonical_digest", None),
)
LAYER_METHODS = (
    (transport.SimTransport, "publish", "transport.publish", None),
    (Simulator, "run_until", "simnet.run_until", None),
)


class Probe:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.vclock = lambda: 0.0
        self.nodes: dict[Role, object] = {}
        self.node_setup_s = 0.0
        self.busy_s: dict[str, float] = defaultdict(float)
        self.frame_ms: list[float] = []
        self.kf_promoted_ms: dict[str, float] = {}
        self.queue_max = {"kf": 0, "map": 0}
        self.sites: dict[str, list[str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, orig, new) -> list[str]:
        """Rebind ``orig`` to ``new`` in every loaded meshslam module."""
        sites = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not mod_name.startswith("meshslam"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)
                    sites.append(f"{mod_name}.{attr}")
        return sites

    def install(self) -> None:
        self._set(runner, "SlamNode", self._node_factory(runner.SlamNode))
        self._set(Simulator, "send", self._hook_send(Simulator.send))
        self._set(transport.SimClock, "schedule",
                  self._hook_schedule(transport.SimClock.schedule))
        stamped = self._stamp_promotions(state.apply_map_batch)
        self.sites["stamp"] = self.replace_everywhere(state.apply_map_batch,
                                                      stamped)
        if not self.traced:
            return
        for owner, attr, name, info in LAYER_FUNCTIONS:
            orig = getattr(owner, attr)
            self.sites[name] = self.replace_everywhere(
                orig, self.span(name, orig, info))
        for cls, attr, name, info in LAYER_METHODS:
            self._set(cls, attr, self.span(name, getattr(cls, attr), info))
            self.sites[name] = [f"{cls.__module__}.{cls.__name__}.{attr}"]

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, info=None):
        spans, stack, probe = self.spans, self._stack, self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   probe.vclock(), None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def _node_call(self, role: Role, fn, *args) -> None:
        """Run one node callback, charging its wall time to the role."""
        if self.traced:
            fn = self.span(f"node.{role.value}", fn)
        t0 = perf_counter()
        try:
            fn(*args)
        finally:
            self.busy_s[role.value] += perf_counter() - t0
            node = self.nodes.get(role)
            if node is not None:
                self.queue_max["kf"] = max(self.queue_max["kf"],
                                           len(node.kf_queue))
                self.queue_max["map"] = max(self.queue_max["map"],
                                            len(node.map_queue))

    # -- hooks ------------------------------------------------------------

    def _node_factory(self, cls):
        probe = self

        def make(role, *args, **kwargs):
            t0 = perf_counter()
            node = cls(role, *args, **kwargs)
            probe.node_setup_s += perf_counter() - t0
            if not probe.nodes:
                probe.vclock = node.clock.now_ms
            probe.nodes[role] = node
            if role is Role.TRACKING:
                node.on_frame = probe._timed_frame(node.on_frame)
            return node

        return make

    def _timed_frame(self, on_frame):
        frame_ms = self.frame_ms

        def timed(frame) -> None:
            t0 = perf_counter()
            self._node_call(Role.TRACKING, on_frame, frame)
            frame_ms.append((perf_counter() - t0) * 1e3)

        return timed

    def _hook_send(self, send):
        probe = self

        def hooked(sim, sender, receiver, payload, deliver, kind,
                   productive=True):
            send(sim, sender, receiver, payload,
                 lambda data: probe._node_call(receiver, deliver, data),
                 kind, productive)

        return hooked

    def _hook_schedule(self, schedule):
        probe = self

        def hooked(clock, delay_ms, fn, productive=True):
            return schedule(clock, delay_ms,
                            lambda: probe._node_call(clock.role, fn),
                            productive)

        return hooked

    def _stamp_promotions(self, apply_map_batch):
        probe = self

        def stamped(st, batch):
            out = apply_map_batch(st, batch)
            tr = probe.nodes.get(Role.TRACKING)
            if (tr is not None and st is tr.state
                    and batch.kind is BatchKind.LOCAL
                    and out is PromotionOutcome.PROMOTED):
                now = probe.vclock()
                for upd in batch.kf_updates:
                    probe.kf_promoted_ms.setdefault(str(upd.kf_id), now)
            return out

        return stamped
