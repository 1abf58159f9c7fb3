from collections import deque

import pytest
from hypothesis import given, strategies as st

from meshslam.config import TopologySpec
from meshslam.ids import (
    IdAllocator,
    KeyFrameId,
    MapId,
    mint_map_point_id,
    splitmix64,
)
from meshslam.policy import Role
from meshslam.runner import run_distributed
from meshslam.scenarios import TrajectoryKind, default_scenario


def test_mint_is_deterministic():
    assert mint_map_point_id(1, 0) == mint_map_point_id(1, 0)
    assert mint_map_point_id(1, 0) != mint_map_point_id(2, 0)
    assert mint_map_point_id(1, 0) != mint_map_point_id(1, 1)


def test_mint_format():
    mp = mint_map_point_id(3, 12345)
    assert type(mp) is int and 0 <= mp < 2**64
    assert mint_map_point_id(255, 2**56 - 1) < 2**64
    for origin, counter in ((256, 0), (-1, 0), (0, 2**56), (0, -1)):
        with pytest.raises(ValueError):
            mint_map_point_id(origin, counter)


def test_no_collisions_across_nodes():
    seen = set()
    for origin in (1, 2, 3):
        for counter in range(2000):
            seen.add(mint_map_point_id(origin, counter))
    assert len(seen) == 6000


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_splitmix_injective_on_samples(a, b):
    if a != b:
        assert splitmix64(a) != splitmix64(b)


@pytest.mark.parametrize("cls, tag", [(KeyFrameId, "kf"), (MapId, "map")])
def test_ids_order_by_origin_then_counter_and_print(cls, tag):
    ids = [cls(2, 0), cls(1, 5), cls(1, 12), cls(2, 1)]
    assert sorted(ids) == [cls(1, 5), cls(1, 12), cls(2, 0), cls(2, 1)]
    assert max(ids) == cls(2, 1) and cls(1, 12) > cls(1, 5)
    assert str(cls(3, 12)) == f"{tag}:3:12"


@given(st.integers(0, 255), st.integers(0, 2**64 - 1))
def test_id_hash_is_the_hash_of_its_field_tuple(origin, counter):
    # Set and dict iteration order, and so the order of every sum over
    # ids, depends on this hash.
    kid, mid = KeyFrameId(origin, counter), MapId(origin, counter)
    assert hash(kid) == hash((kid.origin, kid.seq))
    assert hash(mid) == hash((mid.origin, mid.counter))


def _id_kinds_per_container(root):
    """For every dict and set reachable from root through meshslam
    objects and builtin containers: the id types among its keys."""
    found = []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (KeyFrameId, MapId, str, bytes)):
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            keys = list(obj)
            stack += keys + list(obj.values())
        elif isinstance(obj, (set, frozenset)):
            keys = list(obj)
            stack += keys
        elif isinstance(obj, (list, tuple, deque)):
            stack += list(obj)
            continue
        elif type(obj).__module__.startswith("meshslam"):
            slots = [n for c in type(obj).__mro__
                     for n in getattr(c, "__slots__", ())]
            attrs = [getattr(obj, n) for n in slots if hasattr(obj, n)]
            stack += attrs + list(getattr(obj, "__dict__", {}).values())
            continue
        else:
            continue
        kinds = {type(k) for k in keys} & {KeyFrameId, MapId}
        if kinds:
            found.append(kinds)
    return found


def test_no_container_mixes_keyframe_and_map_ids():
    # Ids are tuples, so KeyFrameId(1, 0) == MapId(1, 0): a container
    # holding both kinds could conflate them. Walk every container of a
    # 3-node run that merges maps.
    spec = default_scenario(TrajectoryKind.TWO_SEGMENT, seed=1)
    result = run_distributed(
        spec, TopologySpec(roles=[Role.TRACKING, Role.MAPPING, Role.LOOP]))
    assert any(d["kind"] == "mm" for _, _, name, d in result.events
               if name == "global_update")
    kinds = _id_kinds_per_container(result.nodes)
    assert {KeyFrameId} in kinds and {MapId} in kinds
    assert all(len(k) == 1 for k in kinds)


def test_keyframe_id_total_order():
    ids = [KeyFrameId(2, 0), KeyFrameId(1, 5), KeyFrameId(1, 2), KeyFrameId(2, 1)]
    assert sorted(ids) == [KeyFrameId(1, 2), KeyFrameId(1, 5),
                           KeyFrameId(2, 0), KeyFrameId(2, 1)]


def test_allocator_monotonic():
    alloc = IdAllocator(1)
    a, b = alloc.next_keyframe_id(), alloc.next_keyframe_id()
    assert a < b and a.origin == b.origin == 1
    m1, m2 = alloc.next_map_id(), alloc.next_map_id()
    assert m1 < m2
    assert alloc.next_map_point_id() != alloc.next_map_point_id()
