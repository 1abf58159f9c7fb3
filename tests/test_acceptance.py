"""Acceptance suite: one test per criterion, printed pass/fail lines.

Runs the full protocol at desk scale: policy table, degradation parity,
distributed parity, eventual consistency, failure resilience, the pause
protocol, batching schedules, loop-closure efficacy, map merging,
traffic shape, delivery-order insensitivity, and wire robustness.
"""

from __future__ import annotations

import random
import statistics
from contextlib import contextmanager
from dataclasses import replace

from meshslam.config import LinkProfile, NodeConfig, TopologySpec
from meshslam.messages import PayloadKind, decode_payload
from meshslam.node import HEARTBEAT_MISSES
from meshslam.policy import DistributionDecision, Role, Route, decide
from meshslam.runner import run_centralized, run_distributed
from meshslam.scenarios import TrajectoryKind, default_scenario
from meshslam.state import (
    EpochMismatch,
    SystemState,
    apply_map_batch,
    apply_new_keyframe,
    canonical_digest,
    observe_epoch,
)
from meshslam.wire import DecodeError, Topic, decode, encode

TR, LM, LC = Role.TRACKING, Role.MAPPING, Role.LOOP

CATALOG = (TrajectoryKind.LOOP, TrajectoryKind.LAWNMOWER,
           TrajectoryKind.FIGURE_EIGHT, TrajectoryKind.TWO_SEGMENT)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def three_node_topology(profile: LinkProfile | None = None,
                        config: NodeConfig = NodeConfig()) -> TopologySpec:
    topo = TopologySpec(roles=[TR, LM, LC], config=config)
    profile = profile or LinkProfile()
    for a in topo.roles:
        for b in topo.roles:
            if a != b:
                topo.links[(a, b)] = profile
    return topo


def zero_latency_topology() -> TopologySpec:
    # "Zero latency" is the whole-network-instantaneous configuration:
    # links and pacing timers both cost nothing.
    return three_node_topology(
        LinkProfile(0.0, 0.0, 0.0, 0.0),
        NodeConfig(local_batch_spacing_ms=0.0, global_batch_spacing_ms=0.0),
    )


def crash_topology(at_ms: float, role: str, tmp_path) -> TopologySpec:
    topo = three_node_topology()
    fault = tmp_path / f"crash_{role}.txt"
    fault.write_text(f"{at_ms} crash {role}\n")
    topo.fault_schedule = str(fault)
    return topo


def test_a1_policy_table():
    with criterion("A1 policy table: four routing cases, exhaustively"):
        assert decide(TR, {LM, LC}) == DistributionDecision(
            Route.REMOTE_LM, Route.REMOTE_LC)
        assert decide(TR, {LM}) == DistributionDecision(
            Route.REMOTE_LM, Route.REMOTE_LM)
        assert decide(TR, {LC}) == DistributionDecision(
            Route.LOCAL, Route.REMOTE_LC)
        assert decide(TR, set()) == DistributionDecision(
            Route.LOCAL, Route.LOCAL)
        for role in Role:
            for has_lm in (False, True):
                for has_lc in (False, True):
                    peers = set()
                    if has_lm:
                        peers.add(LM)
                    if has_lc:
                        peers.add(LC)
                    first = decide(role, peers)
                    assert decide(role, peers) == first
                    assert first.lm_route in Route and first.lc_route in Route


def test_a2_degradation_parity():
    with criterion("A2 degradation parity: 1-node run == centralized oracle"):
        topo = TopologySpec(roles=[TR])
        for kind in CATALOG:
            spec = default_scenario(kind, seed=1)
            oracle = run_centralized(spec)
            solo = run_distributed(spec, topo)
            assert solo.metrics.digests["tr"] == oracle.metrics.digests["tr"], kind
            assert solo.metrics.failures == oracle.metrics.failures, kind


def test_a3_distributed_parity():
    with criterion("A3 distributed parity: ATE within 0.02, zero-latency bit-equal"):
        for kind in (TrajectoryKind.LOOP, TrajectoryKind.LAWNMOWER):
            for seed in range(1, 21):
                spec = default_scenario(kind, seed=seed)
                oracle = run_centralized(spec)
                dist = run_distributed(spec, three_node_topology())
                assert not dist.metrics.diverged, (kind, seed)
                assert dist.metrics.rms_ate is not None
                assert abs(dist.metrics.rms_ate - oracle.metrics.rms_ate) \
                    <= 0.02, (kind, seed)
        for kind in (TrajectoryKind.LOOP, TrajectoryKind.LAWNMOWER):
            for seed in (1, 2, 3):
                spec = default_scenario(kind, seed=seed)
                oracle = run_centralized(spec)
                exact = run_distributed(spec, zero_latency_topology())
                expected = oracle.metrics.digests["tr"]
                assert all(d == expected for d in exact.metrics.digests.values()), \
                    (kind, seed)


def test_a4_eventual_consistency():
    with criterion("A4 eventual consistency: converged within 2 s, 20 seeds"):
        slow = LinkProfile(t_p_ms=40.0, t_proc_ms=10.0, jitter_ms=5.0,
                           drop_prob=0.0)
        diverged = 0
        for seed in range(1, 21):
            spec = default_scenario(TrajectoryKind.LOOP, seed=seed)
            result = run_distributed(spec, three_node_topology(slow))
            diverged += result.metrics.diverged
            assert result.metrics.consistency_s is not None, seed
            assert result.metrics.consistency_s < 2.0, seed
        assert diverged == 0


def test_a5_failure_resilience(tmp_path):
    with criterion("A5 failure resilience: LM and LC crashes survive"):
        hb = NodeConfig().heartbeat_ms
        misses = HEARTBEAT_MISSES
        for victim in ("lm", "lc"):
            spec = default_scenario(TrajectoryKind.LOOP, seed=1)
            oracle = run_centralized(spec)
            crash_ms = 1000.0 + 50.0 * (spec.n_frames // 2)
            topo = crash_topology(crash_ms, victim, tmp_path)
            result = run_distributed(spec, topo)

            # Tracking completed through the whole input.
            assert result.estimate[-1][0] >= (spec.n_frames - 2) / 20.0
            assert result.metrics.rms_ate is not None
            assert result.metrics.rms_ate <= 2.0 * oracle.metrics.rms_ate

            # No protocol deadlock: every surviving node drained and unpaused.
            for role, node in result.nodes.items():
                if role.value in result.metrics.digests:
                    assert not node.state.paused, (victim, role)
                    assert not node.kf_queue and not node.map_queue, (victim, role)

            # Detector contract: the peer was declared after 3 silent
            # heartbeat intervals, observed within one sweep period.
            departures = [
                (t, d) for t, r, n, d in result.events
                if n == "member_left" and r is TR and d["peer"] == victim
            ]
            assert departures, victim
            t_left, details = departures[0]
            assert details["silent_ms"] >= misses * hb
            assert t_left <= crash_ms + misses * hb + hb, victim
            decisions = [t for t, r, n, _ in result.events
                         if n == "decision" and r is TR and t >= t_left]
            assert decisions and decisions[0] <= t_left + 1.0, victim


def test_a6_pause_protocol(tmp_path):
    with criterion("A6 pause protocol: no keyframes inside pause windows"):
        checked_windows = 0
        for kind, seed in ((TrajectoryKind.LOOP, 1), (TrajectoryKind.LOOP, 2),
                           (TrajectoryKind.LOOP, 3),
                           (TrajectoryKind.TWO_SEGMENT, 1),
                           (TrajectoryKind.TWO_SEGMENT, 2)):
            spec = default_scenario(kind, seed=seed)
            result = run_distributed(spec, three_node_topology())
            paused_at = None
            windows = []
            for t, role, name, details in result.events:
                if role is not TR:
                    continue
                if name == "paused":
                    paused_at = t
                elif name == "unpaused" and paused_at is not None:
                    windows.append((paused_at, t))
                    paused_at = None
            creations = [t for t, role, name, _ in result.events
                         if role is TR and name == "keyframe_created"]
            for lo, hi in windows:
                checked_windows += 1
                for t in creations:
                    assert not (lo < t < hi), (kind, seed, lo, hi, t)
        assert checked_windows >= 1

        # Engineered delayed/dropped start: staged batches still promote
        # atomically once the epoch's batch set completes.
        import test_node as tn
        rig = tn.Rig(LM)
        rig.join_peer(LC)
        m = tn.seed_map(rig.node, 15)
        before = canonical_digest(rig.node.state)
        envs = tn.global_batch_envs(LC, epoch=1, n_kfs=15)
        rig.node.on_envelope(envs[0])
        assert rig.node.state.paused
        assert canonical_digest(rig.node.state) == before
        rig.node.on_envelope(envs[1])
        assert not rig.node.state.paused
        assert canonical_digest(rig.node.state) != before


def test_a7_batching_schedule():
    with criterion("A7 batching: local 3..15 at 50 ms, global 10 per 100 ms"):
        import test_node as tn
        rig = tn.Rig(LM)
        rig.join_peer(TR)
        m = tn.seed_map(rig.node, 40)
        kids = sorted(m.keyframes)
        center = kids[-1]
        for k in kids[:-1]:
            m.keyframes[center].covisible[k] = 10
            m.keyframes[k].covisible[center] = 10
        rig.node.state.dirty_kfs = set(kids)
        rig.node._publish_local_maps(center)
        rig.run()
        batches = [(t, decode_payload(e.kind, e.payload))
                   for t, _, e in rig.sent(topic=Topic.MAP_LOCAL)]
        sizes = [len(b.kf_updates) for _, b in batches]
        times = [t - batches[0][0] for t, _ in batches]
        assert sizes == [3, 6, 12, 15, 4]
        assert times == [0.0, 50.0, 100.0, 150.0, 200.0]

        rig2 = tn.Rig(LC)
        rig2.join_peer(LM)
        m2 = tn.seed_map(rig2.node, 23)
        from meshslam.core.types import GlobalUpdateRecord, UpdateKind
        record = GlobalUpdateRecord(UpdateKind.LC, tn.MAP,
                                    sorted(m2.keyframes), sorted(m2.map_points))
        rig2.node._emit_global_update(record)
        rig2.run()
        globals_ = [(t, decode_payload(e.kind, e.payload))
                    for t, _, e in rig2.sent(kind=PayloadKind.MAP_BATCH)]
        sizes = [len(b.kf_updates) for _, b in globals_]
        times = [t - globals_[0][0] for t, _ in globals_]
        finals = [b.final for _, b in globals_]
        assert sizes == [10, 10, 3]
        assert times == [0.0, 100.0, 200.0]
        assert finals == [False, False, True]


def test_a8_loop_closure_efficacy():
    with criterion("A8 loop closure: median ATE reduction >= 30% over 20 seeds"):
        cfg_on = NodeConfig()
        cfg_off = replace(cfg_on, loop_enabled=False)
        on, off = [], []
        for seed in range(1, 21):
            spec = default_scenario(TrajectoryKind.LOOP, seed=seed)
            on.append(run_centralized(spec, cfg_on).metrics.rms_ate)
            off.append(run_centralized(spec, cfg_off).metrics.rms_ate)
        med_on = statistics.median(on)
        med_off = statistics.median(off)
        assert med_on <= 0.70 * med_off, (med_on, med_off)


def test_a9_map_merge():
    with criterion("A9 map merge: two segments end as one map everywhere"):
        for seed in (1, 2):
            spec = default_scenario(TrajectoryKind.TWO_SEGMENT, seed=seed)
            result = run_distributed(spec, three_node_topology())
            assert not result.metrics.diverged, seed
            for role, node in result.nodes.items():
                assert len(node.state.slam) == 1, (seed, role)
            merges = [d for _, _, n, d in result.events
                      if n == "global_update" and d.get("kind") == "mm"]
            assert merges, seed
            assert result.metrics.failures >= 1, seed


def test_a10_traffic_shape():
    with criterion("A10 traffic shape: mapper carries ~2x, maps beat keyframes"):
        for kind in (TrajectoryKind.LOOP, TrajectoryKind.LAWNMOWER):
            spec = default_scenario(kind, seed=1)
            result = run_distributed(spec, three_node_topology())
            bw = result.metrics.bandwidth_mbps
            assert bw["lm"] > bw["lc"], kind
            ratio_tr = bw["lm"] / bw["tr"]
            assert 1.5 <= ratio_tr <= 2.5, (kind, ratio_tr)
            assert result.metrics.map_hz > result.metrics.kf_hz, kind


def record_loop_traffic(seed: int):
    """A real 3-node run with every envelope delivered to LC recorded."""
    spec = default_scenario(TrajectoryKind.LOOP, seed=seed, n_frames=200)
    topo = zero_latency_topology()
    from meshslam.runner import run_distributed as _run

    captured: list = []
    import meshslam.runner as runner_mod

    orig_node = runner_mod.SlamNode

    class TappedNode(orig_node):
        def on_envelope(self, env):
            if self.role is LC and env.topic is not Topic.DISCOVERY:
                captured.append(env)
            super().on_envelope(env)

    runner_mod.SlamNode = TappedNode
    try:
        _run(spec, topo)
    finally:
        runner_mod.SlamNode = orig_node
    return captured


def replay(envs) -> str:
    st = SystemState()
    for env in envs:
        payload = decode_payload(env.kind, env.payload)
        if env.kind is PayloadKind.NEW_KEYFRAME:
            apply_new_keyframe(st, payload)
        elif env.kind is PayloadKind.MAP_BATCH:
            try:
                apply_map_batch(st, payload)
            except EpochMismatch:
                pass
        elif env.kind is PayloadKind.GLOBAL_UPDATE_START:
            observe_epoch(st, payload.epoch)
    return canonical_digest(st)


def test_a11_order_insensitivity():
    with criterion("A11 order-insensitivity: 200 permutations, one digest"):
        recorded = record_loop_traffic(seed=1)
        assert len(recorded) > 30
        links: dict = {}
        for env in recorded:
            links.setdefault((env.sender, env.topic), []).append(env)
        link_lists = list(links.values())
        reference = replay(recorded)
        rng = random.Random(2024)
        for case in range(200):
            cursors = [0] * len(link_lists)
            order = []
            remaining = sum(len(l) for l in link_lists)
            while remaining:
                choices = [i for i, l in enumerate(link_lists)
                           if cursors[i] < len(l)]
                pick = rng.choice(choices)
                order.append(link_lists[pick][cursors[pick]])
                cursors[pick] += 1
                remaining -= 1
            assert replay(order) == reference, f"case {case}"


def test_a12_wire_robustness():
    with criterion("A12 wire robustness: 1e5 fuzz inputs, typed errors only"):
        rng = random.Random(99)
        for _ in range(100_000):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 80)))
            try:
                decode(blob)
            except DecodeError:
                pass
        import test_wire as tw
        for env, payload in tw.sample_envelopes():
            data = encode(env)
            assert decode(data) == env
            assert encode(decode(data)) == data
        assert encode(tw.heartbeat_env()) == tw.GOLDEN_HEARTBEAT
