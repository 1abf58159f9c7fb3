"""One run of one world in a fresh process, so each run owns its peak RSS.

    python3 perfbench/worker.py <workload> <world_seed> MODE

``plain`` and ``traced`` run the workload as defined. The reference modes
give the ATE the parity check compares with: ``oracle`` runs the same
world centralized, ``fault_free`` on the same mesh without drops or faults.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from meshslam import runner  # noqa: E402
from meshslam.policy import Role  # noqa: E402
from meshslam.scenarios import generate_scenario  # noqa: E402

from probe import Probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Import sites a wrapper must reach beyond the defining module; a missing
# one means a layer's time would silently land in its caller.
REQUIRED_SITES = {
    "bundle.gba": "meshslam.core.loops.global_bundle_adjust",
    "messages.encode": "meshslam.node.encode_payload",
    "messages.decode": "meshslam.node.decode_payload",
    "wire.encode": "meshslam.transport.encode",
    "wire.decode": "meshslam.transport.decode",
    "state.canonical_digest": "meshslam.runner.canonical_digest",
}


def warm_up() -> None:
    """Pay LAPACK's first-call cost (about 100 ms) before any timing."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((300, 300))
    ell = np.linalg.cholesky(a @ a.T + 300.0 * np.eye(300))
    np.linalg.solve(ell.T, np.linalg.solve(ell, np.ones(300)))


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def pause_windows(events, end_ms: float) -> list[float]:
    """Virtual length of each pause, from 'paused' to 'unpaused' (or an
    aborted epoch, or the end of the run) on the same node."""
    opened: dict[Role, float] = {}
    lengths = []
    for t, role, name, _ in events:
        if name == "paused" and role not in opened:
            opened[role] = t
        elif name in ("unpaused", "global_update_aborted") and role in opened:
            lengths.append(t - opened.pop(role))
    lengths += [end_ms - t for t in opened.values()]
    return lengths


def layer_metrics(probe: Probe, run_s: float, sim) -> dict:
    """Per-layer rows from the spans: calls, totals, self times, ratios."""
    spans = probe.spans
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    info: dict[str, list] = {}
    for i, (name, t0, t1, _, _, inf) in enumerate(spans):
        dur.setdefault(name, []).append(t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_s[i]
        info.setdefault(name, []).append(inf)

    def calls(name):
        return len(dur.get(name, []))

    def total(name):
        return sum(dur.get(name, []))

    def ratio(name, value):
        outs = info.get(name, [])
        return sum(1 for o in outs if o == value) / len(outs) if outs else 0.0

    lba, gba = dur.get("bundle.lba", []), dur.get("bundle.gba", [])
    m = {
        "tracker.track_frame.calls": calls("tracker.track_frame"),
        "tracker.track_frame.us_p50":
            percentile(dur.get("tracker.track_frame", []), 50) * 1e6,
        "tracker.track_frame.s": total("tracker.track_frame"),
        "bundle.lba.calls": len(lba),
        "bundle.lba.ms_p50": percentile(lba, 50) * 1e3,
        "bundle.lba.ms_max": max(lba, default=0.0) * 1e3,
        "bundle.lba.s": sum(lba),
        "bundle.lba.vars_p50": percentile(info.get("bundle.lba", []), 50),
        "bundle.gba.calls": len(gba),
        "bundle.gba.s": sum(gba),
        "bundle.gba.vars_max": max(info.get("bundle.gba", []), default=0),
        "loops.detect.calls": calls("loops.detect"),
        "loops.detect.us_p50": percentile(dur.get("loops.detect", []), 50) * 1e6,
        "loops.detect.s": total("loops.detect"),
        "loops.detect.hit_ratio": ratio("loops.detect", True),
        "loops.close_loop.self_s": self_s.get("loops.close_loop", 0.0),
        "loops.merge_maps.self_s": self_s.get("loops.merge_maps", 0.0),
    }
    for side in ("encode", "decode"):
        name = f"messages.{side}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.bytes"] = sum(info.get(name, []))
        m[f"{name}.s"] = total(name)
    for name in ("wire.encode", "wire.decode", "transport.publish"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    events = sim._dispatched if sim is not None else 0
    sim_self = self_s.get("simnet.run_until", 0.0)
    m.update({
        "simnet.events": events,
        "simnet.frames_sent": sim.sent_frames if sim is not None else 0,
        "simnet.frames_delivered": sim.delivered_frames if sim is not None else 0,
        "simnet.frames_dropped": sim.dropped_frames if sim is not None else 0,
        "simnet.self_s": sim_self,
        "simnet.us_per_event": sim_self / events * 1e6 if events else 0.0,
    })
    m.update({
        "state.apply_new_keyframe.calls": calls("state.apply_new_keyframe"),
        "state.apply_new_keyframe.s": total("state.apply_new_keyframe"),
        "state.apply_new_keyframe.staged_ratio":
            ratio("state.apply_new_keyframe", "staged"),
        "state.apply_new_keyframe.duplicate_ratio":
            ratio("state.apply_new_keyframe", "duplicate"),
        "state.apply_map_batch.calls": calls("state.apply_map_batch"),
        "state.apply_map_batch.s": total("state.apply_map_batch"),
        "state.apply_map_batch.staged_ratio":
            ratio("state.apply_map_batch", "staged"),
    })
    for name in ("state.collect_dirty", "state.canonical_digest"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    return {"metrics": m, "self_s": self_s,
            "largest_self": max(self_s, key=self_s.get),
            "gba_share": sum(gba) / run_s if run_s > 0 else 0.0}


def write_spans(probe: Probe, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for name, t0, t1, parent, vt, inf in probe.spans:
            fh.write(json.dumps({"name": name, "start_s": t0, "end_s": t1,
                                 "parent": parent, "t_ms": vt,
                                 "info": inf}) + "\n")


def run_world(workload_name: str, world_seed: int, mode: str) -> dict:
    workload = WORKLOADS[workload_name]
    spec = workload.spec(world_seed)
    warm_up()
    t0 = perf_counter()
    frames, gt = generate_scenario(spec)
    gen_s = perf_counter() - t0

    def prebuilt(asked):
        if asked != spec:
            raise ValueError("runner asked for a scenario the run did not build")
        return frames, gt

    probe = Probe(traced=(mode == "traced"))
    probe.install()
    if mode == "traced":
        for layer, site in REQUIRED_SITES.items():
            if site not in probe.sites.get(layer, []):
                raise RuntimeError(f"{layer} not wrapped at {site}")
    original_generate = runner.generate_scenario
    runner.generate_scenario = prebuilt
    try:
        t0 = perf_counter()
        if workload.distributed and mode != "oracle":
            result = runner.run_distributed(
                spec, workload.topology(faults=mode != "fault_free"))
        else:
            result = runner.run_centralized(spec)
        run_s = perf_counter() - t0 - probe.node_setup_s
    finally:
        runner.generate_scenario = original_generate
        probe.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sim = result.sim
    events = result.events
    created = {d["kf"]: t for t, role, name, d in events
               if name == "keyframe_created" and role is Role.TRACKING}
    roundtrip = sorted(probe.kf_promoted_ms[kf] - t for kf, t in created.items()
                       if kf in probe.kf_promoted_ms)
    out_bytes = (sum(v for (_, d, _), v in sim.account.bytes.items()
                     if d == "out") if sim is not None else 0)
    messages_out = (sum(v for (_, d, _), v in sim.account.counts.items()
                        if d == "out") if sim is not None else 0)
    end_ms = sim.now if sim is not None else result.input_end_ms
    pauses = pause_windows(events, end_ms)
    busy = dict(probe.busy_s)
    met = result.metrics
    out = {
        "world_seed": world_seed,
        "mode": mode,
        "frames": len(frames),
        "gen_s": gen_s,
        "setup_s": gen_s + probe.node_setup_s,
        "run_s": run_s,
        "frame_ms_p50": percentile(probe.frame_ms, 50),
        "frame_ms_p98": percentile(probe.frame_ms, 98),
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb,
        "ate_m": met.rms_ate,
        "diverged": met.diverged,
        "reaches_last_frame": bool(result.estimate) and abs(
            result.estimate[-1][0] - frames[-1].timestamp) < 1e-9,
        "updates": [d["kind"] for _, _, name, d in events
                    if name == "global_update"],
        # Deterministic outputs: bit-identical on every run of this world.
        "fingerprint": {
            "ate_m": met.rms_ate,
            "out_bytes": out_bytes,
            "messages_out": messages_out,
            "simnet_events": sim._dispatched if sim is not None else 0,
            "kf_roundtrip_ms": roundtrip,
            "consistency_s": met.consistency_s,
            "track_failures": met.failures,
            "digests": met.digests,
        },
        "node": {
            "kf_queue_max": probe.queue_max["kf"],
            "map_queue_max": probe.queue_max["map"],
            "pause_count": len(pauses),
            "pause_ms_total": sum(pauses),
            "global_updates": sum(n.metrics.global_updates
                                  for n in result.nodes.values()),
            "takeovers": sum(1 for _, _, name, _ in events
                             if name in ("mapping_takeover", "loop_takeover")),
            # Centralized runs replicate nothing, so no keyframe waits.
            "kf_roundtrip_missing": (len(created) - len(roundtrip)
                                     if sim is not None else 0),
        },
    }
    if mode == "traced":
        out["layers"] = layer_metrics(probe, run_s, sim)
        write_spans(probe, OUT_DIR / f"spans_{workload_name}_{world_seed}.jsonl")
    return out


def main(argv: list[str]) -> int:
    workload_name, world_seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("plain", "traced", "oracle", "fault_free"):
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        result = run_world(workload_name, world_seed, mode)
    except Exception:  # the parent counts the run as failed
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
