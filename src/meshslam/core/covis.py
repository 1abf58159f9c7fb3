"""Covisibility bookkeeping.

Covisibility is derived state: every node recomputes it locally from the
observation sets it holds, so replicas converge without shipping edges.
"""

from __future__ import annotations

from meshslam.core.types import Map
from meshslam.ids import KeyFrameId

COVIS_MIN_SHARED = 5  # shared map points needed for an edge, inclusive


def link_new_keyframe(m: Map, kf_id: KeyFrameId) -> None:
    """Add covisibility edges between a just-inserted keyframe and the rest."""
    kf = m.keyframes[kf_id]
    shared: dict[KeyFrameId, int] = {}
    for mp_id in kf.mp_ids.tolist():
        mp = m.map_points.get(mp_id)
        if mp is None:
            continue
        for other in mp.observers:
            if other != kf_id:
                shared[other] = shared.get(other, 0) + 1
    for other_id in sorted(shared):
        count = shared[other_id]
        if count >= COVIS_MIN_SHARED and other_id in m.keyframes:
            kf.covisible[other_id] = count
            m.keyframes[other_id].covisible[kf_id] = count


def rebuild_covisibility(m: Map) -> None:
    """Recompute every covisibility edge of a map from observation sets."""
    counts: dict[tuple[KeyFrameId, KeyFrameId], int] = {}
    for mp in m.map_points.values():
        observers = mp.observers
        for i, a in enumerate(observers):
            for b in observers[i + 1:]:
                key = (a, b)
                counts[key] = counts.get(key, 0) + 1
    for kf in m.keyframes.values():
        kf.covisible = {}
    for (a, b), count in counts.items():
        if count >= COVIS_MIN_SHARED and a in m.keyframes and b in m.keyframes:
            m.keyframes[a].covisible[b] = count
            m.keyframes[b].covisible[a] = count


def strongest_covisible(m: Map, center: KeyFrameId, n: int) -> list[KeyFrameId]:
    """The n covisible neighbors with highest shared counts, ties by id."""
    kf = m.keyframes[center]
    ranked = sorted(kf.covisible.items(), key=lambda item: (-item[1], item[0]))
    return [kid for kid, _ in ranked[:n] if kid in m.keyframes]


def covisible_within_hops(m: Map, center: KeyFrameId, hops: int) -> set[KeyFrameId]:
    """All keyframes reachable from center via <= hops covisibility edges."""
    seen = {center}
    frontier = {center}
    for _ in range(hops):
        nxt: set[KeyFrameId] = set()
        for kid in frontier:
            kf = m.keyframes.get(kid)
            if kf is None:
                continue
            for other in kf.covisible:
                if other not in seen:
                    nxt.add(other)
        seen |= nxt
        frontier = nxt
        if not frontier:
            break
    return seen
