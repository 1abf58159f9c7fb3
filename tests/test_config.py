from dataclasses import fields

import pytest

from meshslam.config import NodeConfig, node_config_from_entries

# For every NodeConfig field: a config-file spelling and the value of the
# declared type it must become. Integral spellings of float fields must
# still come out as floats.
SPELLED = {
    "t_lmfreq_ms": ("312.5", 312.5),
    "local_batch_min": ("4", 4),
    "local_batch_max": ("16", 16),
    "local_batch_spacing_ms": ("25", 25.0),
    "global_batch_size": ("7", 7),
    "global_batch_spacing_ms": ("80.25", 80.25),
    "heartbeat_ms": ("150", 150.0),
    "heartbeat_misses": ("5", 5),
    "kf_min_gap_frames": ("3", 3),
    "kf_ref_ratio": ("0.75", 0.75),
    "loop_tau": ("0.5", 0.5),
    "track_window": ("12", 12),
    "lba_covisible": ("6", 6),
    "min_track_matches": ("8", 8),
    "loop_enabled": ("off", False),
}


def test_every_field_coerces_from_its_string_form():
    assert set(SPELLED) == {f.name for f in fields(NodeConfig)}
    entries = {name: text for name, (text, _) in SPELLED.items()}
    entries["nodes"] = "tr lm lc"  # not a NodeConfig field: ignored
    cfg = node_config_from_entries(entries)
    for name, (_, expected) in SPELLED.items():
        value = getattr(cfg, name)
        assert type(value) is type(expected) and value == expected, name


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
