from dataclasses import fields
from pathlib import Path

import pytest

from meshslam.config import (
    LinkProfile,
    NodeConfig,
    load_topology,
    node_config_from_entries,
)
from meshslam.policy import Role
from meshslam.scenarios import scenario_from_file

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# For every NodeConfig field: a config-file spelling and the value of the
# declared type it must become. Integral spellings of float fields must
# still come out as floats.
SPELLED = {
    "local_batch_spacing_ms": ("25", 25.0),
    "global_batch_spacing_ms": ("80.25", 80.25),
    "heartbeat_ms": ("150", 150.0),
    "loop_enabled": ("off", False),
}


def test_every_field_coerces_from_its_string_form():
    assert set(SPELLED) == {f.name for f in fields(NodeConfig)}
    entries = {name: text for name, (text, _) in SPELLED.items()}
    cfg = node_config_from_entries(entries)
    for name, (_, expected) in SPELLED.items():
        value = getattr(cfg, name)
        assert type(value) is type(expected) and value == expected, name


def test_unknown_key_raises_naming_it():
    with pytest.raises(ValueError, match="loop_tau"):
        node_config_from_entries({"heartbeat_ms": "150", "loop_tau": "0.5"})


@pytest.mark.parametrize("text,expected", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("FALSE", False), ("no", False), ("Off", False),
])
def test_boolean_spellings(text, expected):
    base = NodeConfig(loop_enabled=not expected)
    cfg = node_config_from_entries({"loop_enabled": text}, base)
    assert cfg.loop_enabled is expected


def test_bad_boolean_raises():
    with pytest.raises(ValueError):
        node_config_from_entries({"loop_enabled": "maybe"})


@pytest.mark.parametrize("name,value", [
    ("heartbeat_ms", 0.0), ("heartbeat_ms", -1.0),
    ("heartbeat_ms", float("nan")), ("heartbeat_ms", float("inf")),
    ("local_batch_spacing_ms", -1.0), ("local_batch_spacing_ms", float("nan")),
    ("global_batch_spacing_ms", -0.5), ("global_batch_spacing_ms", float("inf")),
])
def test_out_of_range_value_raises_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        NodeConfig(**{name: value})


def test_topology_carries_its_node_config(tmp_path):
    path = tmp_path / "mesh.topology"
    path.write_text("nodes = tr lm\nheartbeat_ms = 150\nloop_enabled = off\n")
    spec = load_topology(path)
    assert spec.roles == [Role.TRACKING, Role.MAPPING]
    assert spec.config == NodeConfig(heartbeat_ms=150.0, loop_enabled=False)


@pytest.mark.parametrize("line,field", [
    ("heartbeat_ms = 0", "heartbeat_ms"),
    ("loop_tau = 0.5", "loop_tau"),
])
def test_topology_with_bad_node_config_fails_at_load(tmp_path, line, field):
    path = tmp_path / "mesh.topology"
    path.write_text(f"nodes = tr lm lc\n{line}\n")
    with pytest.raises(ValueError, match=field):
        load_topology(path)


@pytest.mark.parametrize("line,match", [
    ("nodes = tr lm lm", "twice"),
    ("link tr lm = 5 1 2 0 0.7", "4 numbers"),
    ("link lm lc = 5", "4 numbers"),
])
def test_topology_with_a_loose_node_or_link_line_fails_at_load(tmp_path, line,
                                                                match):
    path = tmp_path / "mesh.topology"
    path.write_text(f"nodes = tr lm lc\n{line}\n")
    with pytest.raises(ValueError, match=match):
        load_topology(path)


@pytest.mark.parametrize("name,value", [
    ("t_p_ms", -1.0), ("t_proc_ms", float("nan")), ("jitter_ms", float("inf")),
    ("drop_prob", -0.1), ("drop_prob", 1.01),
])
def test_link_profile_out_of_range_raises_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        LinkProfile(**{name: value})


def test_link_profile_accepts_its_bounds():
    assert LinkProfile(0.0, 0.0, 0.0, 1.0).drop_prob == 1.0


def test_scenario_file_rejects_a_key_it_does_not_read(tmp_path):
    path = tmp_path / "world.scenario"
    path.write_text("trajectory = loop\nsigma_odometry = 0.1\n")
    with pytest.raises(ValueError, match="sigma_odometry"):
        scenario_from_file(path)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.topology")),
                         ids=lambda p: p.name)
def test_committed_topology_loads(path):
    spec = load_topology(path)
    assert Role.TRACKING in spec.roles
    if spec.fault_schedule is not None:
        assert Path(spec.fault_schedule).is_file()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.scenario")),
                         ids=lambda p: p.name)
def test_committed_scenario_loads(path):
    spec = scenario_from_file(path)
    assert spec.trajectory.value == path.stem
