"""Identifiers for keyframes, map points, and maps.

A map point id is an unsigned 64-bit integer, the same value in memory,
on the wire and in the state digest. It is the splitmix64 hash of
(origin role byte, per-node counter) rather than a plain counter, so
several nodes can mint ids concurrently without coordination; minting
is reproducible and collision-free because the mixer is a bijection on
64-bit inputs. Sorted ids order the bundle adjustment's variables and
the digest, so replacing the mixer would change every result.
"""

from __future__ import annotations

from typing import NamedTuple

_MASK64 = (1 << 64) - 1


def splitmix64(z: int) -> int:
    """64-bit mixing hash (splitmix64 finalizer); bijective on u64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class KeyFrameId(NamedTuple):
    """Totally ordered by (origin, seq); origin is the minting role's code.

    A plain tuple underneath, so hashing and ordering run in C. The hash
    is ``hash((origin, seq))``; the iteration order of every set and dict
    keyed by ids, and so the order of every sum over them, rests on it.
    Being a tuple, a KeyFrameId equals a MapId with the same fields:
    never mix the two as keys of one container.
    """

    origin: int
    seq: int

    def __str__(self) -> str:
        return f"kf:{self.origin}:{self.seq}"


class MapId(NamedTuple):
    """Totally ordered by (origin, counter); a tuple like KeyFrameId."""

    origin: int
    counter: int

    def __str__(self) -> str:
        return f"map:{self.origin}:{self.counter}"


def mint_map_point_id(origin: int, counter: int) -> int:
    """Deterministic u64 id for a (node, counter) pair."""
    if not 0 <= origin < 256:
        raise ValueError(f"origin byte out of range: {origin}")
    if not 0 <= counter < (1 << 56):
        raise ValueError(f"counter out of range: {counter}")
    return splitmix64((origin << 56) | counter)


class IdAllocator:
    """Per-node monotonic counters for keyframe, map point, and map ids."""

    def __init__(self, origin: int):
        self.origin = origin
        self._kf_seq = 0
        self._mp_counter = 0
        self._map_counter = 0

    def next_keyframe_id(self) -> KeyFrameId:
        kid = KeyFrameId(self.origin, self._kf_seq)
        self._kf_seq += 1
        return kid

    def next_map_point_id(self) -> int:
        mp = mint_map_point_id(self.origin, self._mp_counter)
        self._mp_counter += 1
        return mp

    def next_map_id(self) -> MapId:
        mid = MapId(self.origin, self._map_counter)
        self._map_counter += 1
        return mid
