"""Fault-injection scenarios beyond the acceptance minimum."""

from pathlib import Path

import pytest

from meshslam.config import LinkProfile, NodeConfig, TopologySpec
from meshslam.policy import Role
from meshslam.runner import load_fault_schedule, run_centralized, run_distributed
from meshslam.scenarios import TrajectoryKind, default_scenario
from meshslam.simnet import FaultEvent

TR, LM, LC = Role.TRACKING, Role.MAPPING, Role.LOOP


def mesh(profile=None, config=NodeConfig(), fault_file=None):
    topo = TopologySpec(roles=[TR, LM, LC], config=config)
    if profile is not None:
        for a in topo.roles:
            for b in topo.roles:
                if a != b:
                    topo.links[(a, b)] = profile
    topo.fault_schedule = fault_file
    return topo


def test_partition_heals_and_staged_buffers_promote(tmp_path):
    """A two-second partition is a pure delay when the detector is slow:
    held frames deliver at heal time and the replicas reconverge."""
    spec = default_scenario(TrajectoryKind.LOOP, seed=1)
    mid = 1000.0 + 50.0 * (spec.n_frames // 2)
    faults = tmp_path / "faults.txt"
    faults.write_text(f"{mid} partition tr lm\n{mid + 2000} heal tr lm\n")
    topo = mesh(config=NodeConfig(heartbeat_ms=800.0), fault_file=str(faults))
    result = run_distributed(spec, topo)
    assert not result.metrics.diverged
    assert len(set(result.metrics.digests.values())) == 1
    assert result.metrics.failures == run_centralized(spec).metrics.failures


def test_partition_during_global_update_recovers(tmp_path):
    """Cut the gateway link right when a global update begins; the held
    batches promote after the heal and nobody stays paused."""
    spec = default_scenario(TrajectoryKind.LOOP, seed=1)
    probe = run_distributed(spec, mesh())
    pauses = [t for t, r, n, _ in probe.events if r is TR and n == "paused"]
    assert pauses
    faults = tmp_path / "faults.txt"
    faults.write_text(
        f"{pauses[0] - 20.0} partition tr lm\n"
        f"{pauses[0] + 1500.0} heal tr lm\n")
    topo = mesh(config=NodeConfig(heartbeat_ms=800.0), fault_file=str(faults))
    result = run_distributed(spec, topo)
    assert not result.metrics.diverged
    for node in result.nodes.values():
        assert not node.state.paused
        assert not node.kf_queue and not node.map_queue


def test_cascading_crash_leaves_tracking_standalone(tmp_path):
    spec = default_scenario(TrajectoryKind.LOOP, seed=2)
    oracle = run_centralized(spec)
    third = 1000.0 + 50.0 * (spec.n_frames // 3)
    faults = tmp_path / "faults.txt"
    faults.write_text(f"{third} crash lc\n{2 * third} crash lm\n")
    result = run_distributed(spec, mesh(fault_file=str(faults)))
    # Only the tracking node survives; it must finish the whole input.
    assert list(result.metrics.digests) == ["tr"]
    assert result.estimate[-1][0] >= (spec.n_frames - 2) / 20.0
    assert result.metrics.rms_ate <= 2.0 * oracle.metrics.rms_ate
    tr_decisions = [d for _, r, n, d in result.events
                    if r is TR and n == "decision"]
    assert tr_decisions[-1] == {"lm": "local", "lc": "local"}


def test_lossy_links_still_converge():
    spec = default_scenario(TrajectoryKind.LOOP, seed=3)
    lossy = LinkProfile(5.0, 1.0, 2.0, 0.10)
    result = run_distributed(spec, mesh(lossy))
    assert not result.metrics.diverged
    assert result.metrics.rms_ate < 0.05
    assert result.sim.dropped_frames == 0  # retransmission absorbs the loss


def test_flapping_crash_within_one_heartbeat_changes_nothing(tmp_path):
    spec = default_scenario(TrajectoryKind.LOOP, seed=1, n_frames=160)
    faults = tmp_path / "faults.txt"
    faults.write_text("4000 crash lm\n4150 recover lm\n")
    result = run_distributed(spec, mesh(fault_file=str(faults)))
    assert not any(n == "member_left" for _, _, n, _ in result.events)
    assert not result.metrics.diverged


@pytest.mark.parametrize("seed, duties", [(1, {"mapping"}),
                                          (4, {"mapping", "loop"})])
def test_short_lm_cut_cancels_a_stale_takeover(tmp_path, seed, duties):
    """Cut lm from both peers for 500 ms. tr (and on seed 4 also lm, for
    loop closing) decide the peer is gone and schedule a takeover, then
    hear it again before the takeover runs. The takeover stands down and
    leaves the keyframes with the duty holder; without that re-check it
    published with duties the node no longer held (TopicViolation)."""
    spec = default_scenario(TrajectoryKind.LOOP, seed=seed)
    faults = tmp_path / "faults.txt"
    faults.write_text("4000 partition tr lm\n4000 partition lm lc\n"
                      "4500 heal tr lm\n4500 heal lm lc\n")
    result = run_distributed(spec, mesh(fault_file=str(faults)))
    cancelled = {d["duty"] for _, _, n, d in result.events
                 if n == "takeover_cancelled"}
    assert cancelled == duties
    assert not result.metrics.diverged
    assert len(set(result.metrics.digests.values())) == 1


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", ["configs/crash_lm.faults",
                                  "perfbench/crash_lm_recover.faults"])
def test_committed_fault_files_load(path):
    events = load_fault_schedule(str(REPO / path))
    assert events and all(ev.kind in ("crash", "recover") for ev in events)
    assert all(ev.roles == (LM,) for ev in events)


def test_fault_schedule_reads_every_kind(tmp_path):
    faults = tmp_path / "faults.txt"
    faults.write_text("# comment\n"
                      "3000 heal\n"
                      "2000 partition tr lm lm lc  # two links\n"
                      "0 crash lc\n"
                      "2500 heal tr lm\n"
                      "1000 recover lc\n")
    assert load_fault_schedule(str(faults)) == [
        FaultEvent(0.0, "crash", roles=(LC,)),
        FaultEvent(1000.0, "recover", roles=(LC,)),
        FaultEvent(2000.0, "partition", links=((TR, LM), (LM, LC))),
        FaultEvent(2500.0, "heal", links=((TR, LM),)),
        FaultEvent(3000.0, "heal"),
    ]


@pytest.mark.parametrize("line, reason", [
    ("1000", "missing fault kind"),
    ("1000 partition tr", "role pairs"),
    ("nan crash lm", "finite"),
    ("inf heal tr lm", "finite"),
    ("-5 crash lm", ">= 0"),
    ("1000 crash", "names no role"),
    ("1000 recover", "names no role"),
    ("1000 partition", "role pairs"),
    ("1000 heal tr lm lc", "role pairs"),
    ("soon crash lm", "could not convert"),
    ("1000 crash xx", "unknown role"),
    ("1000 explode lm", "unknown fault kind"),
])
def test_malformed_fault_line_names_its_line(tmp_path, line, reason):
    faults = tmp_path / "faults.txt"
    faults.write_text(f"# header\n0 crash lm\n{line}\n")
    with pytest.raises(ValueError, match=f"line 3: .*{reason}"):
        load_fault_schedule(str(faults))
