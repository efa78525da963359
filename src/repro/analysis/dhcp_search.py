"""Searching for renumbered hosts with Hobbit blocks (the paper's third
implication).

A host tracked by address disappears when DHCP re-leases it. If there is
"no way of new addresses being informed by the hosts, the new addresses
need to be searched for. Knowing the addresses that are in the same
homogeneous blocks as their (old) addresses can help this search."

The searcher probes candidate addresses and checks a fingerprint (here,
the simulator's subscriber identity — standing in for an application-
level identifier such as an SSH host key). The comparison is the probe
cost of finding the host when candidates come from its Hobbit block vs
from the whole population.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..aggregation.identical import AggregatedBlock
from ..net.addr import slash24_of
from ..net.prefix import Prefix
from ..netsim.dhcp import PodLeaseMap, lease_of_epoch, renumbered_address
from ..netsim.internet import SimulatedInternet


@dataclass
class SearchOutcome:
    """One search for one renumbered host."""

    old_address: int
    new_address: int
    strategy: str
    candidates_probed: int
    found: bool


class _LeaseMaps:
    """The lease maps one search (or one comparison of search
    strategies) builds, by pod and lease. They go with it, so no pod
    outlives its scenario through them."""

    def __init__(self) -> None:
        self._maps: Dict[Tuple[int, int], PodLeaseMap] = {}

    def fingerprint(
        self, internet: SimulatedInternet, addr: int, epoch: int
    ) -> Optional[int]:
        """See :func:`fingerprint`."""
        pod = internet.allocations.pod_of(addr)
        if pod is None:
            return None
        # Keyed by id: the scenario keeps every pod alive while the
        # search runs, so no two live pods share one.
        key = (id(pod), lease_of_epoch(epoch))
        lease_map = self._maps.get(key)
        if lease_map is None:
            if not pod.slash24s():
                return None
            lease_map = self._maps[key] = PodLeaseMap(pod, key[1])
        identity = lease_map.identity_of(addr)
        if identity is None:
            return None
        # Namespace identities by pod so they are globally comparable.
        return (pod.pod_id << 16) | identity


def fingerprint(
    internet: SimulatedInternet, addr: int, epoch: int
) -> Optional[int]:
    """The subscriber identity currently holding ``addr``.

    Stands in for an application-level fingerprint: comparable across
    addresses, None when the address is outside any pod's /24s.
    """
    return _LeaseMaps().fingerprint(internet, addr, epoch)


def search_for_host(
    internet: SimulatedInternet,
    old_address: int,
    old_epoch: int,
    new_epoch: int,
    candidates: Sequence[int],
    strategy: str,
    max_probes: Optional[int] = None,
) -> SearchOutcome:
    """Probe candidates until the renumbered host is found.

    ``candidates`` is an ordered list of addresses to try; each try
    costs one "probe". Success means the candidate's fingerprint equals
    the old address's fingerprint at ``old_epoch``.
    """
    return _search(
        _LeaseMaps(), internet, old_address, old_epoch, new_epoch,
        candidates, strategy, max_probes,
    )


def _search(
    lease_maps: _LeaseMaps,
    internet: SimulatedInternet,
    old_address: int,
    old_epoch: int,
    new_epoch: int,
    candidates: Sequence[int],
    strategy: str,
    max_probes: Optional[int],
) -> SearchOutcome:
    """:func:`search_for_host` over the lease maps ``lease_maps``."""
    target = lease_maps.fingerprint(internet, old_address, old_epoch)
    if target is None:
        raise ValueError("old address has no fingerprint")
    pod = internet.allocations.pod_of(old_address)
    assert pod is not None
    new_address = renumbered_address(pod, old_address, old_epoch, new_epoch)
    assert new_address is not None
    probed = 0
    for candidate in candidates:
        if max_probes is not None and probed >= max_probes:
            break
        probed += 1
        if lease_maps.fingerprint(internet, candidate, new_epoch) == target:
            return SearchOutcome(
                old_address=old_address,
                new_address=new_address,
                strategy=strategy,
                candidates_probed=probed,
                found=True,
            )
    return SearchOutcome(
        old_address=old_address,
        new_address=new_address,
        strategy=strategy,
        candidates_probed=probed,
        found=False,
    )


def block_candidates(
    block: AggregatedBlock, rng: random.Random
) -> List[int]:
    """All addresses of a Hobbit block, in random probe order."""
    candidates: List[int] = []
    for slash24 in block.slash24s:
        candidates.extend(range(slash24.first, slash24.last + 1))
    rng.shuffle(candidates)
    return candidates


def population_candidates(
    slash24s: Sequence[Prefix], rng: random.Random
) -> List[int]:
    """All addresses of a whole population, in random probe order."""
    candidates: List[int] = []
    for slash24 in slash24s:
        candidates.extend(range(slash24.first, slash24.last + 1))
    rng.shuffle(candidates)
    return candidates


def block_of_address(
    blocks: Sequence[AggregatedBlock], addr: int
) -> Optional[AggregatedBlock]:
    """The Hobbit block whose /24s contain ``addr``."""
    network = slash24_of(addr)
    for block in blocks:
        for slash24 in block.slash24s:
            if slash24.network == network:
                return block
    return None


@dataclass
class SearchComparison:
    """Aggregate costs of the two search strategies.

    Probe counts are censored at the budget, so the honest comparison
    is success-within-budget plus the *expected* cost ratio, which for
    uniform scanning is the ratio of search-space sizes.
    """

    searches: int
    block_found: int
    block_mean_probes: float
    population_found: int
    population_mean_probes: float
    mean_block_addresses: float = 0.0
    population_addresses: int = 0

    @property
    def expected_speedup(self) -> float:
        """Search-space ratio: the uncensored expected probe ratio."""
        if self.mean_block_addresses == 0:
            return float("inf")
        return self.population_addresses / self.mean_block_addresses


def compare_search_strategies(
    internet: SimulatedInternet,
    blocks: Sequence[AggregatedBlock],
    hosts: Sequence[int],
    old_epoch: int,
    new_epoch: int,
    population: Sequence[Prefix],
    seed: int = 0,
    max_probes: int = 20_000,
) -> SearchComparison:
    """Search for each renumbered host with both strategies; the lease
    maps the searches build last as long as this call."""
    lease_maps = _LeaseMaps()
    rng = random.Random(seed)
    block_probes: List[int] = []
    population_probes: List[int] = []
    block_found = population_found = 0
    searches = 0
    block_space = 0
    population_space = sum(p.size for p in population)
    for old_address in hosts:
        block = block_of_address(blocks, old_address)
        if block is None:
            continue
        searches += 1
        block_space += block.size * 256
        outcome = _search(
            lease_maps, internet, old_address, old_epoch, new_epoch,
            block_candidates(block, rng), "hobbit-block", max_probes,
        )
        if outcome.found:
            block_found += 1
            block_probes.append(outcome.candidates_probed)
        outcome = _search(
            lease_maps, internet, old_address, old_epoch, new_epoch,
            population_candidates(population, rng), "population",
            max_probes,
        )
        if outcome.found:
            population_found += 1
            population_probes.append(outcome.candidates_probed)
    return SearchComparison(
        searches=searches,
        block_found=block_found,
        block_mean_probes=(
            sum(block_probes) / len(block_probes) if block_probes else 0.0
        ),
        population_found=population_found,
        population_mean_probes=(
            sum(population_probes) / len(population_probes)
            if population_probes
            else 0.0
        ),
        mean_block_addresses=block_space / searches if searches else 0.0,
        population_addresses=population_space,
    )
