"""Address allocations and pods — the simulator's ground-truth units.

A **pod** is a set of machines that are topologically co-located: one
route-entry target, one metro attachment, one set of last-hop routers
(several when the operator load-balances per destination across them).
Every address in a pod is homogeneous with every other by construction,
so pods are the ground truth that Hobbit's verdicts are scored against.

An **allocation** is one CIDR prefix assigned to a pod. Pods usually own
whole /24s (often many: a datacenter pod can own hundreds, possibly in
several discontiguous runs); *split* /24s are the exception — a /24
carved into sub-/24 allocations owned by different pods, which is what
the paper's WHOIS digging (Table 4) found Korean ISPs doing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..net.prefix import Prefix
from ..net.trie import leaf_intervals_from_items
from .orgs import Organization

#: Sub-block compositions of split /24s with the Table 2 distribution.
#: Each entry: (tuple of sub-prefix lengths, probability).
SPLIT_COMPOSITIONS: Sequence[Tuple[Tuple[int, ...], float]] = (
    ((25, 25), 0.5048),
    ((25, 26, 26), 0.2065),
    ((26, 26, 26, 26), 0.1579),
    ((25, 26, 27, 27), 0.0592),
    ((26, 26, 26, 27, 27), 0.0463),
    ((26, 26, 27, 27, 27, 27), 0.0113),
    ((25, 26, 27, 28, 28), 0.0082),
    ((25, 27, 27, 27, 27), 0.0058),
)


def composition_prefixes(
    slash24: Prefix, lengths: Sequence[int]
) -> List[Prefix]:
    """Carve a /24 into consecutive sub-prefixes of the given lengths.

    The lengths must tile the /24 exactly (all Table 2 compositions do).

    >>> [str(p) for p in composition_prefixes(Prefix.parse("10.0.0.0/24"),
    ...                                        (25, 26, 26))]
    ['10.0.0.0/25', '10.0.0.128/26', '10.0.0.192/26']
    """
    if slash24.length != 24:
        raise ValueError(f"{slash24} is not a /24")
    total = sum(1 << (32 - length) for length in lengths)
    if total != 256:
        raise ValueError(f"lengths {lengths} do not tile a /24")
    prefixes: List[Prefix] = []
    cursor = slash24.network
    for length in sorted(lengths):
        prefixes.append(Prefix(cursor, length))
        cursor += 1 << (32 - length)
    return prefixes


@dataclass
class Pod:
    """Ground-truth homogeneous unit. See module docstring."""

    pod_id: int
    org: Organization
    metro_id: int
    #: Router ids of the pod's last-hop routers (≥1; >1 means the metro
    #: router balances per destination across them).
    lasthop_router_ids: Tuple[int, ...]
    #: Salt for the per-destination hash at the metro router.
    lasthop_salt: int
    host_density: float
    host_stability: float
    #: How the metro balances across the last-hop routers (when there
    #: are several): "per-destination", "per-flow" or "hybrid".
    lasthop_mode: str = "per-destination"
    #: Whether the per-destination last-hop balancer also hashes the
    #: source address (Section 6.1: some routers do; extra vantage
    #: points then reveal extra last-hop routers).
    lasthop_source_hash: bool = False
    #: Per-epoch probability that one of this pod's /24s sleeps
    #: (diurnal churn; near zero for datacenters).
    sleep_probability: float = 0.22
    cellular: bool = False
    #: All last-hop routers silent to TTL-exceeded (Table 1's
    #: "Unresponsive last-hop" category).
    unresponsive_lasthop: bool = False
    rdns_scheme: str = ""
    rdns_pattern_id: int = 0
    #: Cellular radio promotion delay bounds in seconds (cellular pods).
    promotion_delay_range: Tuple[float, float] = (0.25, 2.5)
    #: Secondary rDNS pattern covering the upper part of each /24
    #: (some real blocks mix naming schemes — Section 7.3).
    rdns_second_pattern_id: Optional[int] = None
    allocations: List["Allocation"] = field(default_factory=list)

    @property
    def lasthop_count(self) -> int:
        return len(self.lasthop_router_ids)

    def slash24s(self) -> List[Prefix]:
        """The whole /24s owned by this pod (sub-/24 allocations
        excluded; coarser allocations expand into their /24s)."""
        result: List[Prefix] = []
        for allocation in self.allocations:
            if allocation.prefix.length <= 24:
                result.extend(allocation.prefix.slash24s())
        return sorted(result)


@dataclass
class Allocation:
    """One prefix assigned to a pod, with its registry (WHOIS) metadata."""

    prefix: Prefix
    pod: Pod
    customer_name: str
    customer_address: str
    zip_code: str
    registration_date: str  # YYYYMMDD
    network_type: str = "ALLOCATED"

    def __str__(self) -> str:
        return f"{self.prefix} -> pod {self.pod.pod_id} ({self.customer_name})"


class AllocationMap:
    """Fast address → allocation/pod resolution over the whole universe.

    Idle space is represented only as the gaps between stored prefixes:
    internally this is a flat prefix → allocation dict plus two lazily
    (re)built indexes — the sorted prefix list (range queries) and the
    leaf-interval breakpoints (longest-prefix match by bisect). At paper
    scale (~10⁶ allocations) the per-bit trie this replaced spent most
    of the build allocating nodes for address bits no query ever
    distinguishes.
    """

    def __init__(self) -> None:
        self._by_prefix: Dict[Prefix, Allocation] = {}
        self._allocations: List[Allocation] = []
        #: Bumped on every add so compiled lookup indexes can detect
        #: staleness (the simulator flattens the map once per build).
        self.revision = 0
        # (revision, sorted [(prefix, allocation)], [network ints]) and
        # (revision, breakpoints, starts) caches.
        self._sorted_cache: Optional[Tuple[int, List, List[int]]] = None
        self._interval_cache: Optional[Tuple[int, List, List[int]]] = None

    def add(self, allocation: Allocation) -> None:
        if allocation.prefix in self._by_prefix:
            raise ValueError(f"duplicate allocation for {allocation.prefix}")
        self._by_prefix[allocation.prefix] = allocation
        self._allocations.append(allocation)
        allocation.pod.allocations.append(allocation)
        self.revision += 1

    def _sorted_items(
        self,
    ) -> Tuple[List[Tuple[Prefix, Allocation]], List[int]]:
        cached = self._sorted_cache
        if cached is None or cached[0] != self.revision:
            items = sorted(self._by_prefix.items())
            nets = [stored.network for stored, _ in items]
            cached = (self.revision, items, nets)
            self._sorted_cache = cached
        return cached[1], cached[2]

    def _intervals(self) -> Tuple[List, List[int]]:
        cached = self._interval_cache
        if cached is None or cached[0] != self.revision:
            points = leaf_intervals_from_items(self._sorted_items()[0])
            starts = [start for start, _ in points]
            cached = (self.revision, points, starts)
            self._interval_cache = cached
        return cached[1], cached[2]

    def lookup(self, addr: int) -> Optional[Allocation]:
        """Most-specific allocation covering an address."""
        points, starts = self._intervals()
        return points[bisect_right(starts, addr) - 1][1]

    def leaf_intervals(self) -> List[Tuple[int, Optional[Allocation]]]:
        """The map flattened into sorted LPM breakpoints (see
        :func:`repro.net.trie.leaf_intervals_from_items`)."""
        return list(self._intervals()[0])

    def pod_of(self, addr: int) -> Optional[Pod]:
        allocation = self.lookup(addr)
        return allocation.pod if allocation else None

    def allocations_within(self, prefix: Prefix) -> List[Allocation]:
        """Allocations at or below a prefix (plus an enclosing one, if the
        prefix is inside a coarser allocation)."""
        items, nets = self._sorted_items()
        last = prefix.last
        found = [
            allocation
            for stored, allocation in items[
                bisect_left(nets, prefix.network):bisect_right(nets, last)
            ]
            if stored.last <= last
        ]
        if not found:
            enclosing = self.lookup(prefix.network)
            if enclosing is not None and enclosing.prefix.contains_prefix(
                prefix
            ):
                found = [enclosing]
        return found

    def __iter__(self) -> Iterator[Allocation]:
        return iter(self._allocations)

    def __len__(self) -> int:
        return len(self._allocations)

    def slash24_pods(self, slash24: Prefix) -> List[Pod]:
        """Distinct pods owning address space within a /24."""
        pods: List[Pod] = []
        seen: set = set()
        for allocation in self.allocations_within(slash24):
            if allocation.pod.pod_id not in seen:
                seen.add(allocation.pod.pod_id)
                pods.append(allocation.pod)
        return pods
