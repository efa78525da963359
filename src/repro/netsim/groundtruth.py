"""Ground truth: what the generator actually built.

Hobbit's verdicts are scored against this. The ground truth answers
three questions the paper could never answer for the real Internet:

* Is a given /24 *actually* homogeneous (all allocated space in one
  pod)?
* What is the *actual* set of last-hop routers serving a /24?
* What are the *actual* homogeneous aggregates (groups of /24s with
  identical last-hop router sets)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..net.prefix import Prefix
from .allocation import AllocationMap, Pod


@dataclass(frozen=True)
class TrueBlock:
    """A ground-truth homogeneous aggregate: all /24s served by the same
    last-hop router set."""

    lasthop_router_ids: FrozenSet[int]
    slash24s: Tuple[Prefix, ...]

    @property
    def size(self) -> int:
        return len(self.slash24s)


class GroundTruth:
    """Oracle over the generated scenario.

    Everything is resolved lazily against the allocation map: a
    paper-scale universe has millions of /24s, and scoring usually only
    touches the measured subset, so precomputing the pod list for every
    /24 up front (as an earlier version did) made scenario construction
    the dominant cost.

    The builder extends the universe by exactly the /24s each allocation
    covers, so the allocation map alone answers :meth:`pods_of`: a /24
    outside the universe has no pod.
    """

    def __init__(
        self, allocations: AllocationMap, universe_slash24s: Sequence[Prefix]
    ) -> None:
        self._allocations = allocations
        self._universe = universe_slash24s
        self._pods_by_slash24: Dict[Prefix, List[Pod]] = {}

    @property
    def universe_slash24s(self) -> Sequence[Prefix]:
        return self._universe

    def pods_of(self, slash24: Prefix) -> List[Pod]:
        pods = self._pods_by_slash24.get(slash24)
        if pods is None:
            pods = self._allocations.slash24_pods(slash24)
            self._pods_by_slash24[slash24] = pods
        return pods

    def is_homogeneous(self, slash24: Prefix) -> bool:
        """True iff every allocated address in the /24 is in one pod."""
        return len(self.pods_of(slash24)) == 1

    def is_split(self, slash24: Prefix) -> bool:
        return len(self.pods_of(slash24)) > 1

    def homogeneous_slash24s(self) -> List[Prefix]:
        return [p for p in self._universe if self.is_homogeneous(p)]

    def lasthop_set_of(self, slash24: Prefix) -> FrozenSet[int]:
        """Union of last-hop router ids over the /24's pods."""
        routers: set = set()
        for pod in self.pods_of(slash24):
            routers.update(pod.lasthop_router_ids)
        return frozenset(routers)

    def true_blocks(self) -> List[TrueBlock]:
        """Ground-truth aggregates: homogeneous /24s grouped by their
        exact last-hop router set (the paper's Section 5 ideal)."""
        groups: Dict[FrozenSet[int], List[Prefix]] = {}
        for slash24 in self.homogeneous_slash24s():
            key = self.lasthop_set_of(slash24)
            groups.setdefault(key, []).append(slash24)
        return [
            TrueBlock(lasthops, tuple(sorted(slash24s)))
            for lasthops, slash24s in groups.items()
        ]

    def summary(self) -> Dict[str, int]:
        homogeneous = self.homogeneous_slash24s()
        return {
            "universe_slash24s": len(self._universe),
            "homogeneous_slash24s": len(homogeneous),
            "split_slash24s": len(self._universe) - len(homogeneous),
            "true_blocks": len(self.true_blocks()),
        }
