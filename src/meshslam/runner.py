"""Run orchestration: the centralized oracle, distributed runs, reports."""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from meshslam.config import NodeConfig, TopologySpec
from meshslam.evaluate import NoAssociation, TrajectoryRecord, evaluate_ate
from meshslam.node import SlamNode
from meshslam.policy import Role
from meshslam.scenarios import ScenarioSpec, generate_scenario
from meshslam.simnet import FaultEvent, LinkSpec, Simulator
from meshslam.state import canonical_digest
from meshslam.transport import ManualClock, NullTransport, SimClock, SimTransport

FRAME_INTERVAL_MS = 50.0
FIRST_FRAME_MS = 1000.0

Event = tuple[float, Role, str, dict]


@dataclass
class MetricsReport:
    scenario: str
    nodes: int
    rms_ate: float | None
    failures: int
    bandwidth_mbps: dict[str, float]
    kf_hz: float
    map_hz: float
    digests: dict[str, str]
    consistency_s: float | None
    diverged: bool


@dataclass
class RunResult:
    estimate: TrajectoryRecord
    ground_truth: TrajectoryRecord
    metrics: MetricsReport
    events: list[Event] = field(default_factory=list)
    nodes: dict[Role, SlamNode] = field(default_factory=dict)
    sim: Simulator | None = None
    input_end_ms: float = 0.0


def _safe_ate(est: TrajectoryRecord, gt: TrajectoryRecord) -> float | None:
    try:
        return evaluate_ate(est, gt, with_scale=True)
    except NoAssociation:
        return None


def run_centralized(spec: ScenarioSpec, config: NodeConfig = NodeConfig()
                    ) -> RunResult:
    """Drive the whole pipeline in-process with no peers discovered.

    This is the oracle every distributed configuration is compared to:
    no simulator, no envelopes, every module step runs synchronously.
    """
    frames, gt = generate_scenario(spec)
    events: list[Event] = []
    clock = ManualClock()

    def recorder(t: float, role: Role, name: str, details: dict) -> None:
        events.append((t, role, name, details))

    node = SlamNode(Role.TRACKING, config, NullTransport(), clock,
                    session=0, recorder=recorder)
    node.start()
    for k, frame in enumerate(frames):
        clock.now = FIRST_FRAME_MS + FRAME_INTERVAL_MS * k
        node.on_frame(frame)

    estimate = node.final_trajectory()
    digest = canonical_digest(node.state)
    metrics = MetricsReport(
        scenario=spec.trajectory.value, nodes=1,
        rms_ate=_safe_ate(estimate, gt),
        failures=node.metrics.failures,
        bandwidth_mbps={"tr": 0.0, "lm": 0.0, "lc": 0.0},
        kf_hz=0.0, map_hz=0.0,
        digests={"tr": digest},
        consistency_s=0.0, diverged=False,
    )
    return RunResult(estimate, gt, metrics, events, {Role.TRACKING: node},
                     None, FIRST_FRAME_MS + FRAME_INTERVAL_MS * (len(frames) - 1))


def run_distributed(spec: ScenarioSpec, topology: TopologySpec,
                    t_end_ms: float | None = None) -> RunResult:
    """Simulated multi-node run: discovery, streaming, drain to quiescence."""
    if Role.TRACKING not in topology.roles:
        raise ValueError("topology must include the tracking role")

    frames, gt = generate_scenario(spec)
    sim = Simulator(seed=spec.seed)
    events: list[Event] = []

    def recorder(t: float, role: Role, name: str, details: dict) -> None:
        events.append((t, role, name, details))

    session_rng = random.Random(spec.seed ^ 0x5E55107)
    roles = sorted(topology.roles, key=lambda r: r.value)
    transports: dict[Role, SimTransport] = {}
    nodes: dict[Role, SlamNode] = {}
    for role in roles:
        transports[role] = SimTransport(sim, role)
        nodes[role] = SlamNode(role, topology.config, transports[role],
                               SimClock(sim, role),
                               session=session_rng.getrandbits(63),
                               recorder=recorder)
    for role in roles:
        for other in roles:
            if other != role:
                transports[role].receivers[other] = nodes[other].on_envelope
                profile = topology.link(role, other)
                sim.set_link(role, other, LinkSpec(
                    profile.t_p_ms, profile.t_proc_ms, profile.jitter_ms,
                    profile.drop_prob))

    def on_fault(ev: FaultEvent) -> None:
        events.append((sim.now, Role.TRACKING, f"fault_{ev.kind}",
                       {"roles": [r.value for r in ev.roles]}))
        if ev.kind == "recover":
            # A recovered node re-announces itself and resumes its timers.
            for role in ev.roles:
                if role in nodes:
                    nodes[role].clock.schedule(0.0, nodes[role].start)

    if topology.fault_schedule:
        for fault in load_fault_schedule(topology.fault_schedule):
            sim.inject_fault(fault, on_fault=on_fault)

    for role in roles:
        # Started through the node's own clock so a crash-at-zero silences it.
        nodes[role].clock.schedule(0.0, nodes[role].start)

    tr_node = nodes[Role.TRACKING]
    input_end_ms = FIRST_FRAME_MS + FRAME_INTERVAL_MS * (len(frames) - 1)

    def make_frame_event(k: int):
        def fire() -> None:
            if k + 1 < len(frames):
                sim.schedule(FRAME_INTERVAL_MS, make_frame_event(k + 1))
            else:
                sim.input_done = True
            if Role.TRACKING not in sim.crashed:
                tr_node.on_frame(frames[k])
        return fire

    sim.schedule(FIRST_FRAME_MS, make_frame_event(0))
    sim.run_until(t_end_ms)
    sim.account.duration_s = max(sim.now, input_end_ms) / 1000.0

    alive = [r for r in roles if r not in sim.crashed]
    digests = {r.value: canonical_digest(nodes[r].state) for r in alive}
    consistent = len(set(digests.values())) == 1 and bool(digests)
    if consistent:
        last_mutation = max(nodes[r].last_mutation_ms for r in alive)
        consistency_s = max(0.0, (last_mutation - input_end_ms) / 1000.0)
    else:
        consistency_s = None

    estimate = tr_node.final_trajectory()
    duration = sim.account.duration_s
    kf_out = sim.account.kind_count(Role.TRACKING, "out", "new_keyframe")
    map_in = sim.account.kind_count(Role.TRACKING, "in", "map_batch")
    metrics = MetricsReport(
        scenario=spec.trajectory.value, nodes=len(roles),
        rms_ate=_safe_ate(estimate, gt),
        failures=tr_node.metrics.failures,
        bandwidth_mbps={
            r.value: sim.account.bandwidth_mbps(r) for r in
            (Role.TRACKING, Role.MAPPING, Role.LOOP)
        },
        kf_hz=kf_out / duration if duration > 0 else 0.0,
        map_hz=map_in / duration if duration > 0 else 0.0,
        digests=digests,
        consistency_s=consistency_s,
        diverged=not consistent,
    )
    return RunResult(estimate, gt, metrics, events, nodes, sim, input_end_ms)


def load_fault_schedule(path: str) -> list[FaultEvent]:
    """One event per line: ``<at_ms> <kind> <roles>``; '#' comments allowed.

    ``at_ms`` is a finite time >= 0. ``crash`` and ``recover`` name one or
    more roles, ``partition`` one or more role pairs, and ``heal`` role
    pairs or none (heal every link). A line that breaks these rules raises
    ValueError naming its line number.
    """
    out: list[FaultEvent] = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            out.append(_fault_event(line.split()))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}: {raw!r}") from None
    out.sort(key=lambda ev: ev.at_ms)
    return out


def _fault_event(tokens: list[str]) -> FaultEvent:
    if len(tokens) < 2:
        raise ValueError("missing fault kind")
    at = float(tokens[0])
    if not (math.isfinite(at) and at >= 0):
        raise ValueError(f"time must be finite and >= 0: {tokens[0]!r}")
    kind = tokens[1].lower()
    roles = tuple(Role.from_name(a) for a in tokens[2:])
    if kind in ("crash", "recover"):
        if not roles:
            raise ValueError(f"{kind} names no role")
        return FaultEvent(at, kind, roles=roles)
    if kind in ("partition", "heal"):
        if len(roles) % 2 or (kind == "partition" and not roles):
            raise ValueError(f"{kind} needs role pairs, got {len(roles)} roles")
        return FaultEvent(at, kind, links=tuple(zip(roles[::2], roles[1::2])))
    raise ValueError(f"unknown fault kind {kind!r}")


CSV_HEADER = ("scenario,nodes,ate_m,failures,bw_tr_mbps,bw_lm_mbps,"
              "bw_lc_mbps,kf_hz,map_hz,consistency_s,diverged")


def report(metrics: MetricsReport, fmt: str = "text") -> str:
    """Deterministic rendering of one run's metrics."""
    ate = "" if metrics.rms_ate is None else f"{metrics.rms_ate:.6f}"
    cons = "" if metrics.consistency_s is None else f"{metrics.consistency_s:.3f}"
    bw = {k: metrics.bandwidth_mbps.get(k, 0.0) for k in ("tr", "lm", "lc")}
    if fmt == "csv":
        row = (f"{metrics.scenario},{metrics.nodes},{ate},{metrics.failures},"
               f"{bw['tr']:.3f},{bw['lm']:.3f},{bw['lc']:.3f},"
               f"{metrics.kf_hz:.2f},{metrics.map_hz:.2f},{cons},"
               f"{str(metrics.diverged).lower()}")
        return CSV_HEADER + "\n" + row + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    buf = io.StringIO()
    buf.write(f"scenario:        {metrics.scenario} ({metrics.nodes} node(s))\n")
    buf.write(f"rms ate:         {ate or 'n/a'} m\n")
    buf.write(f"failures:        {metrics.failures}\n")
    buf.write(f"bandwidth mbps:  tr={bw['tr']:.3f} lm={bw['lm']:.3f} "
              f"lc={bw['lc']:.3f}\n")
    buf.write(f"kf freq:         {metrics.kf_hz:.2f} Hz\n")
    buf.write(f"map freq:        {metrics.map_hz:.2f} Hz\n")
    for node_name in sorted(metrics.digests):
        buf.write(f"digest {node_name}:       {metrics.digests[node_name]}\n")
    buf.write(f"consistency:     {cons or 'DIVERGED'} s\n")
    return buf.getvalue()
