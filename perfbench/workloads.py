"""The benchmark's workloads: scenario, topology and the mechanism each must fire.

A "xk world" is the catalog ``default_scenario`` with ``n_frames`` x k,
``landmark_count`` x k^2 and ``bbox`` x k, so landmark density and the
sensor footprint stay those of the catalog while the map grows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from meshslam.config import LinkProfile, TopologySpec
from meshslam.policy import Role
from meshslam.scenarios import ScenarioSpec, TrajectoryKind, default_scenario

FAULTS_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    kind: TrajectoryKind
    scale: int
    distributed: bool
    # Worlds per benchmark run: enough that one world's GBA iteration count
    # or map size does not set the run's figures, few enough to fit a run.
    worlds: int
    drop_prob: float = 0.0
    fault_schedule: str | None = None
    # Global-update kinds ("lc", "mm") that some world of a run must fire.
    expect_updates: tuple[str, ...] = ()
    # The mechanism this workload bypasses: no global update may fire.
    expect_no_updates: bool = False
    why: str = ""

    def spec(self, seed: int) -> ScenarioSpec:
        base = default_scenario(self.kind, seed=seed)
        k = self.scale
        return replace(base, n_frames=base.n_frames * k,
                       landmark_count=base.landmark_count * k * k,
                       bbox=tuple(v * k for v in base.bbox))

    @property
    def has_faults(self) -> bool:
        return self.drop_prob > 0.0 or self.fault_schedule is not None

    def topology(self, faults: bool = True) -> TopologySpec:
        """The workload's mesh; ``faults=False`` gives the same mesh with
        no drops and no fault schedule."""
        roles = [Role.TRACKING, Role.MAPPING, Role.LOOP]
        topo = TopologySpec(roles=roles)
        profile = LinkProfile(drop_prob=self.drop_prob if faults else 0.0)
        for a in roles:
            for b in roles:
                if a != b:
                    topo.links[(a, b)] = profile
        if faults and self.fault_schedule is not None:
            topo.fault_schedule = str(FAULTS_DIR / self.fault_schedule)
        return topo


WORKLOADS = {w.name: w for w in (
    Workload(
        "loop_x3_oracle", TrajectoryKind.LOOP, 3, distributed=False, worlds=8,
        expect_updates=("lc",),
        why="centralized x3 loop: one closure triggers a dense global BA "
            "over the whole map, which dominates; no network layers run"),
    Workload(
        "lawnmower_x4_3node", TrajectoryKind.LAWNMOWER, 4, distributed=True,
        worlds=6,
        expect_no_updates=True,
        why="x4 lawnmower on tr/lm/lc, default links: no loop fires, so the "
            "work is many small local BAs, tracking and streaming replication"),
    Workload(
        "two_segment_x2_faults", TrajectoryKind.TWO_SEGMENT, 2,
        distributed=True, worlds=8, drop_prob=0.05,
        fault_schedule="crash_lm_recover.faults",
        expect_updates=("mm", "lc"),
        why="x2 two_segment, 5% drops, lm crashes and recovers: merge, loop, "
            "pauses, takeovers and sync replay drive the replicated state"),
)}
