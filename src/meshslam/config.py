"""Runtime configuration and plain-text key-value file parsing."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import get_type_hints

from meshslam.policy import Role


@dataclass(frozen=True)
class NodeConfig:
    t_lmfreq_ms: float = 250.0
    local_batch_min: int = 3
    local_batch_max: int = 15
    local_batch_spacing_ms: float = 50.0
    global_batch_size: int = 10
    global_batch_spacing_ms: float = 100.0
    heartbeat_ms: float = 200.0
    heartbeat_misses: int = 3
    kf_min_gap_frames: int = 2
    kf_ref_ratio: float = 0.80
    loop_tau: float = 0.4
    track_window: int = 10
    lba_covisible: int = 5
    min_track_matches: int = 10
    loop_enabled: bool = True

    def growth_schedule(self) -> list[int]:
        """Local batch sizes: doubling from the minimum, capped at the max."""
        sizes = [self.local_batch_min]
        while sizes[-1] < self.local_batch_max:
            sizes.append(min(sizes[-1] * 2, self.local_batch_max))
        return sizes


@dataclass(frozen=True)
class LinkProfile:
    t_p_ms: float = 5.0
    t_proc_ms: float = 1.0
    jitter_ms: float = 2.0
    drop_prob: float = 0.0


@dataclass
class TopologySpec:
    roles: list[Role] = field(default_factory=lambda: [Role.TRACKING])
    links: dict[tuple[Role, Role], LinkProfile] = field(default_factory=dict)
    fault_schedule: str | None = None
    overrides: dict[str, str] = field(default_factory=dict)

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
    value coerced to the field's declared type; other keys are ignored."""
    field_types = get_type_hints(NodeConfig)
    updates = {key: _coerce(value, field_types[key])
               for key, value in entries.items() if key in field_types}
    return replace(base or NodeConfig(), **updates)


def load_topology(path: str | Path) -> TopologySpec:
    """Topology file: node roles, per-link latency profiles, config keys.

    Recognized keys: ``nodes = tr lm lc``, ``link <a> <b> = tp tproc
    jitter drop`` (applied in both directions), ``fault_schedule =
    <path>``; any node-config key becomes an override.
    """
    spec = TopologySpec()
    base = Path(path).parent
    for key, value in parse_kv_file(path):
        parts = key.split()
        if key == "nodes":
            spec.roles = [Role.from_name(tok) for tok in value.split()]
        elif parts[0] == "link" and len(parts) == 3:
            a, b = Role.from_name(parts[1]), Role.from_name(parts[2])
            nums = [float(tok) for tok in value.split()]
            while len(nums) < 4:
                nums.append(0.0)
            profile = LinkProfile(nums[0], nums[1], nums[2], nums[3])
            spec.links[(a, b)] = profile
            spec.links[(b, a)] = profile
        elif key == "fault_schedule":
            spec.fault_schedule = str((base / value).resolve())
        else:
            spec.overrides[key] = value
    if Role.TRACKING not in spec.roles:
        raise ValueError("topology must contain the tracking role")
    return spec
