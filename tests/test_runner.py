from collections import Counter

import pytest

from meshslam.cli import main as cli_main
from meshslam.config import TopologySpec
from meshslam.policy import Role
from meshslam.runner import CSV_HEADER, report, run_centralized, run_distributed
from meshslam.scenarios import TrajectoryKind, default_scenario

TR, LM, LC = Role.TRACKING, Role.MAPPING, Role.LOOP


def full_mesh():
    return TopologySpec(roles=[TR, LM, LC])


def test_centralized_loop_triggers_loop_closure():
    spec = default_scenario(TrajectoryKind.LOOP, seed=1)
    result = run_centralized(spec)
    kinds = Counter(d.get("kind") for _, _, n, d in result.events
                    if n == "global_update")
    assert kinds.get("lc", 0) >= 1


def test_noiseless_centralized_run_is_exact():
    spec = default_scenario(TrajectoryKind.LOOP, seed=3, sigma_range=0.0,
                            sigma_bearing=0.0, sigma_odometry=0.0)
    result = run_centralized(spec)
    assert result.metrics.rms_ate < 1e-6


def test_two_segment_oracle_merges_to_single_map():
    spec = default_scenario(TrajectoryKind.TWO_SEGMENT, seed=1)
    result = run_centralized(spec)
    kinds = Counter(d.get("kind") for _, _, n, d in result.events
                    if n == "global_update")
    assert kinds.get("mm", 0) >= 1
    assert len(result.nodes[TR].state.slam) == 1


def test_failure_counter_matches_event_log():
    spec = default_scenario(TrajectoryKind.TWO_SEGMENT, seed=1)
    result = run_centralized(spec)
    lost_events = sum(1 for _, _, n, _ in result.events if n == "track_lost")
    assert result.metrics.failures == lost_events >= 1


def test_one_node_report_has_zero_remote_traffic():
    spec = default_scenario(TrajectoryKind.LOOP, seed=2, n_frames=120)
    result = run_distributed(spec, TopologySpec(roles=[TR]))
    assert result.metrics.bandwidth_mbps["lm"] == 0.0
    assert result.metrics.bandwidth_mbps["lc"] == 0.0
    assert result.metrics.kf_hz == 0.0


def test_report_rendering_is_deterministic():
    spec = default_scenario(TrajectoryKind.LOOP, seed=2, n_frames=160)
    a = run_distributed(spec, full_mesh())
    b = run_distributed(spec, full_mesh())
    assert report(a.metrics, "csv") == report(b.metrics, "csv")
    assert report(a.metrics, "csv").splitlines()[0] == CSV_HEADER
    assert "diverged" in report(a.metrics, "text") or not a.metrics.diverged


def test_truncated_run_reports_divergence():
    spec = default_scenario(TrajectoryKind.LOOP, seed=1)
    full = run_distributed(spec, full_mesh())
    pauses = [t for t, r, n, _ in full.events if r is TR and n == "paused"]
    assert pauses, "scenario must include a global update"
    # Cut the run while the tracking node holds a half-received epoch.
    result = run_distributed(spec, full_mesh(), t_end_ms=pauses[0] + 10.0)
    assert result.metrics.diverged
    assert result.metrics.consistency_s is None
    row = report(result.metrics, "csv").splitlines()[1]
    assert row.endswith(",true")
    assert row.split(",")[-2] == ""  # consistency column empty when diverged


def test_late_joining_loop_node_catches_up(tmp_path):
    spec = default_scenario(TrajectoryKind.LOOP, seed=1)
    topo = full_mesh()
    faults = tmp_path / "faults.txt"
    faults.write_text("0 crash lc\n6000 recover lc\n")
    topo.fault_schedule = str(faults)
    result = run_distributed(spec, topo)
    assert not result.metrics.diverged
    assert set(result.metrics.digests) == {"tr", "lm", "lc"}
    # The mapper's routing flipped to the loop node after it appeared.
    lm_decisions = [d for _, r, n, d in result.events
                    if r is LM and n == "decision"]
    assert any(d["lc"] == "local" for d in lm_decisions)
    assert lm_decisions[-1]["lc"] == "remote-lc"
    assert any(n == "sync_replay" for _, _, n, _ in result.events)


def test_cli_oracle_run_eval_report(tmp_path, capsys):
    scenario = tmp_path / "loop.scenario"
    scenario.write_text(
        "trajectory = loop\nn_frames = 160\nlandmarks = 300\n"
        "bbox = -12 -12 12 12\nsensor_range = 6.0\nsigma_range = 0.02\n"
        "sigma_bearing = 0.01\nsigma_odom = 0.005\nseed = 1\n"
    )
    topology = tmp_path / "three.topology"
    topology.write_text(
        "nodes = tr lm lc\nlink tr lm = 5 1 2 0\nlink lm lc = 5 1 2 0\n"
        "link tr lc = 5 1 2 0\n"
    )
    out_oracle = tmp_path / "oracle_out"
    assert cli_main(["oracle", "--scenario", str(scenario),
                     "--seed", "1", "--out", str(out_oracle)]) == 0
    out_run = tmp_path / "run_out"
    assert cli_main(["run", "--scenario", str(scenario), "--topology",
                     str(topology), "--seed", "1", "--out", str(out_run)]) == 0
    for out in (out_oracle, out_run):
        assert (out / "est_tr.txt").exists()
        assert (out / "gt.txt").exists()
        assert (out / "metrics.csv").read_text().startswith(CSV_HEADER)
        assert (out / "events.log").exists()
    traffic = (out_run / "traffic.csv").read_text().splitlines()
    assert traffic[0] == "node,direction,kind,bytes,count,duration_s"
    assert len(traffic) > 3

    capsys.readouterr()
    assert cli_main(["eval", "--est", str(out_run / "est_tr.txt"),
                     "--gt", str(out_run / "gt.txt")]) == 0
    ate = float(capsys.readouterr().out.strip())
    assert 0.0 <= ate < 0.1

    assert cli_main(["report", "--in", str(out_run), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith(CSV_HEADER)
    assert cli_main(["report", "--in", str(out_run)]) == 0
    assert "scenario" in capsys.readouterr().out


def _row(n_fields):
    return ",".join(["x"] * n_fields)


N_FIELDS = len(CSV_HEADER.split(","))


@pytest.mark.parametrize("content, message", [
    ("", "is empty"),
    ("\n", "is empty"),
    (CSV_HEADER + "\n", "0 data rows"),
    (f"{CSV_HEADER}\n{_row(N_FIELDS)}\n{_row(N_FIELDS)}\n", "2 data rows"),
    (f"{CSV_HEADER}\n{_row(N_FIELDS - 1)}\n", f"{N_FIELDS - 1} fields"),
    (f"{CSV_HEADER}\n{_row(N_FIELDS + 1)}\n", f"{N_FIELDS + 1} fields"),
    ("a,b\n1,2\n", "unrecognized metrics header"),
])
def test_report_rejects_a_malformed_metrics_file(tmp_path, capsys, content,
                                                 message):
    (tmp_path / "metrics.csv").write_text(content)
    assert cli_main(["report", "--in", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_report_prints_every_field_of_a_well_formed_row(tmp_path, capsys):
    values = [f"v{i}" for i in range(N_FIELDS)]
    (tmp_path / "metrics.csv").write_text(
        f"{CSV_HEADER}\n{','.join(values)}\n")
    assert cli_main(["report", "--in", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ") for line in lines] == [
        [f"{key:>15}", value]
        for key, value in zip(CSV_HEADER.split(","), values)]


def test_discovery_converges_before_first_keyframe():
    spec = default_scenario(TrajectoryKind.LOOP, seed=4, n_frames=120)
    result = run_distributed(spec, full_mesh())
    first_kf = min(t for t, r, n, _ in result.events
                   if n == "keyframe_created")
    joins: dict = {}
    for t, r, n, d in result.events:
        if n == "member_joined":
            joins.setdefault(r, set()).add(d["peer"])
            joins.setdefault((r, "last"), set()).add(t)
    for role in (TR, LM, LC):
        expected = {x.value for x in (TR, LM, LC) if x is not role}
        assert joins.get(role) == expected, role
    last_join = max(t for t, _, n, _ in result.events if n == "member_joined")
    assert last_join < first_kf
    assert last_join < 1000.0  # within the first second, before streaming
