"""Node roles and the heuristic distribution policy.

Each node runs exactly one of three roles: tracking (short-term),
mapping (mid-term bundle adjustment), loop closing (long-term). The
policy is a pure, total function from (own role, discovered peers) to
where the mapping and loop-closing work of this node's data should run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Role(enum.Enum):
    TRACKING = "tr"
    MAPPING = "lm"
    LOOP = "lc"

    @property
    def code(self) -> int:
        return _ROLE_CODES[self]

    @classmethod
    def from_code(cls, code: int) -> "Role":
        for role, c in _ROLE_CODES.items():
            if c == code:
                return role
        raise ValueError(f"unknown role code {code}")

    @classmethod
    def from_name(cls, name: str) -> "Role":
        for role in cls:
            if role.value == name.lower():
                return role
        raise ValueError(f"unknown role {name!r}")


_ROLE_CODES = {Role.TRACKING: 1, Role.MAPPING: 2, Role.LOOP: 3}


class Route(enum.Enum):
    LOCAL = "local"
    REMOTE_LM = "remote-lm"
    REMOTE_LC = "remote-lc"


@dataclass(frozen=True)
class DistributionDecision:
    lm_route: Route
    lc_route: Route


def decide(own: Role, peers: frozenset[Role] | set[Role]) -> DistributionDecision:
    """Route mapping and loop work for this node given discovered peers.

    For the tracking node: offload mapping whenever a mapper is present;
    loop closing goes to the loop node when reachable (via the mapper
    gateway when both are present), falls back to the mapper when only
    it is present, and runs locally when nobody is discovered.
    """
    peers = frozenset(peers) - {own}
    has_lm = Role.MAPPING in peers
    has_lc = Role.LOOP in peers

    if own is Role.TRACKING:
        if has_lm and has_lc:
            return DistributionDecision(Route.REMOTE_LM, Route.REMOTE_LC)
        if has_lm:
            return DistributionDecision(Route.REMOTE_LM, Route.REMOTE_LM)
        if has_lc:
            return DistributionDecision(Route.LOCAL, Route.REMOTE_LC)
        return DistributionDecision(Route.LOCAL, Route.LOCAL)
    if own is Role.MAPPING:
        return DistributionDecision(
            Route.LOCAL, Route.REMOTE_LC if has_lc else Route.LOCAL
        )
    return DistributionDecision(Route.LOCAL, Route.LOCAL)
