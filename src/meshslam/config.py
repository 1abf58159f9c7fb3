"""Runtime configuration and plain-text key-value file parsing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from meshslam.policy import Role


@dataclass(frozen=True)
class NodeConfig:
    """The node values a deployment sets; the rest are module constants."""

    local_batch_spacing_ms: float = 50.0
    global_batch_spacing_ms: float = 100.0
    heartbeat_ms: float = 200.0
    loop_enabled: bool = True

    def __post_init__(self) -> None:
        hb = self.heartbeat_ms
        if not (math.isfinite(hb) and hb > 0):
            raise ValueError(f"heartbeat_ms must be finite and > 0: {hb!r}")
        for name in ("local_batch_spacing_ms", "global_batch_spacing_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0: {value!r}")


@dataclass(frozen=True)
class LinkProfile:
    t_p_ms: float = 5.0
    t_proc_ms: float = 1.0
    jitter_ms: float = 2.0
    drop_prob: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0: {value!r}")
        if self.drop_prob > 1:
            raise ValueError(f"drop_prob must be <= 1: {self.drop_prob!r}")


@dataclass
class TopologySpec:
    roles: list[Role] = field(default_factory=lambda: [Role.TRACKING])
    links: dict[tuple[Role, Role], LinkProfile] = field(default_factory=dict)
    fault_schedule: str | None = None
    config: NodeConfig = NodeConfig()

    def link(self, a: Role, b: Role) -> LinkProfile:
        return self.links.get((a, b), LinkProfile())


def parse_kv_file(path: str | Path) -> list[tuple[str, str]]:
    """Parse `key = value` lines; '#' starts a comment, blanks ignored."""
    entries = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line (no '='): {raw!r}")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return entries


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(value: str, kind: type):
    if kind is bool:
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return kind(value)


def node_config_from_entries(entries: dict[str, str],
                             base: NodeConfig | None = None) -> NodeConfig:
    """base with every NodeConfig field named in entries replaced by its
    value coerced to the field's declared type; a key that names no field
    raises ValueError."""
    field_types = get_type_hints(NodeConfig)
    unknown = sorted(set(entries) - set(field_types))
    if unknown:
        raise ValueError(f"unknown node-config key(s): {unknown}")
    updates = {key: _coerce(value, field_types[key])
               for key, value in entries.items()}
    return replace(base or NodeConfig(), **updates)


def load_topology(path: str | Path) -> TopologySpec:
    """Topology file: node roles, per-link latency profiles, node config.

    Recognized keys: ``nodes = tr lm lc``, ``link <a> <b> = tp tproc
    jitter drop`` (applied in both directions), ``fault_schedule =
    <path>``, and the NodeConfig fields; any other key raises ValueError.
    """
    spec = TopologySpec()
    overrides: dict[str, str] = {}
    base = Path(path).parent
    for key, value in parse_kv_file(path):
        parts = key.split()
        if key == "nodes":
            spec.roles = [Role.from_name(tok) for tok in value.split()]
            if len(set(spec.roles)) != len(spec.roles):
                raise ValueError(f"nodes names a role twice: {value!r}")
        elif parts[0] == "link" and len(parts) == 3:
            a, b = Role.from_name(parts[1]), Role.from_name(parts[2])
            nums = [float(tok) for tok in value.split()]
            if len(nums) != 4:
                raise ValueError(
                    f"{key} needs 4 numbers (tp tproc jitter drop): {value!r}")
            profile = LinkProfile(*nums)
            spec.links[(a, b)] = profile
            spec.links[(b, a)] = profile
        elif key == "fault_schedule":
            spec.fault_schedule = str((base / value).resolve())
        else:
            overrides[key] = value
    spec.config = node_config_from_entries(overrides)
    if Role.TRACKING not in spec.roles:
        raise ValueError("topology must contain the tracking role")
    return spec
