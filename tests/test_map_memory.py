"""scripts/map_memory.py: counts and bytes of every replica's map."""

import importlib.util
from dataclasses import replace
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "map_memory.py"
spec = importlib.util.spec_from_file_location("map_memory", SCRIPT)
map_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(map_memory)


def test_one_row_per_replica_and_their_total():
    # The catalog world of the workload, at scale 1.
    workload = replace(map_memory.WORKLOADS["two_segment_x2_faults"], scale=1)
    rows = dict(map_memory.replica_rows(map_memory.run_world(workload, 1)))
    assert list(rows) == ["lc", "lm", "tr", "all"]
    assert all(list(row) == list(map_memory.COLUMNS[1:])
               for row in rows.values())
    # The replicas converge, so they hold the same map, in objects of
    # their own.
    counts = [tuple(rows[r][c] for c in ("keyframes", "points", "observations"))
              for r in ("lc", "lm", "tr")]
    assert counts[0] == counts[1] == counts[2]
    keyframes, points, observations = counts[0]
    assert 0 < keyframes < points < observations
    assert rows["all"] == {c: rows["lc"][c] + rows["lm"][c] + rows["tr"][c]
                           for c in map_memory.COLUMNS[1:]}
    assert all(v > 0 for v in rows["all"].values())
