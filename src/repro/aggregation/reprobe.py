"""Cluster validation by reprobing (Section 6.5).

MCL proposes that some blocks with similar-but-not-identical measured
last-hop sets are really the same homogeneous block (the differences
being measurement artefacts — too few responsive addresses to surface
every per-destination branch). Reprobing re-measures member /24s with
the *modified strategy* — no early stop, probe up to the full
enumeration budget — and a cluster counts as homogeneous only if every
sampled /24 pair produced identical last-hop sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.pipeline import measure
from ..core.termination import ReprobePolicy
from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet
from ..probing.session import Prober
from ..probing.zmap import ActivitySnapshot
from .identical import AggregatedBlock

#: The paper samples up to 20k pairs per cluster; our scenarios are
#: smaller, so the default budget is too.
DEFAULT_MAX_PAIRS = 64


@dataclass
class ClusterValidation:
    """Reprobing outcome for one MCL cluster."""

    cluster_index: int
    block_ids: Tuple[int, ...]
    slash24_count: int
    pairs_checked: int = 0
    identical_pairs: int = 0
    probes_used: int = 0

    @property
    def identical_ratio(self) -> float:
        """Fraction of reprobed pairs with identical last-hop sets (the
        Figure 9 statistic)."""
        if not self.pairs_checked:
            return 0.0
        return self.identical_pairs / self.pairs_checked

    @property
    def homogeneous(self) -> bool:
        """All sampled pairs identical (the Section 6.5 verdict)."""
        return self.pairs_checked > 0 and (
            self.identical_pairs == self.pairs_checked
        )


class Reprober:
    """Re-measures /24s with the modified strategy, caching results so
    a /24 in many sampled pairs is probed once.

    ``preload`` replays previously recorded results: a /24 found there
    is never re-probed, but its recorded probe count is still charged to
    :attr:`probes_used`, so replayed and fresh runs report identical
    accounting (the measurement-store warm path depends on this)."""

    def __init__(
        self,
        internet: SimulatedInternet,
        snapshot: ActivitySnapshot,
        seed: int = 0,
        max_destinations: Optional[int] = None,
        preload: Optional[
            Mapping[Prefix, Tuple[FrozenSet[int], int]]
        ] = None,
    ) -> None:
        self.prober = Prober(internet)
        self.snapshot = snapshot
        self.policy = ReprobePolicy()
        self.rng = random.Random(seed)
        self.max_destinations = max_destinations
        self._cache: Dict[Prefix, FrozenSet[int]] = {}
        self._preload = dict(preload) if preload else {}
        self._probe_counts: Dict[Prefix, int] = {}
        self._replayed_probes = 0

    def lasthop_set(self, slash24: Prefix) -> FrozenSet[int]:
        cached = self._cache.get(slash24)
        if cached is not None:
            return cached
        replay = self._preload.get(slash24)
        if replay is not None:
            lasthops, probes = replay
            self._cache[slash24] = lasthops
            self._probe_counts[slash24] = probes
            self._replayed_probes += probes
            return lasthops
        probes_before = self.prober.probes_sent
        measurement = measure(
            self.prober,
            slash24,
            self.snapshot,
            self.policy,
            self.rng,
            max_destinations=self.max_destinations,
        )
        result = measurement.lasthop_set
        self._cache[slash24] = result
        self._probe_counts[slash24] = (
            self.prober.probes_sent - probes_before
        )
        return result

    def records(self) -> Dict[Prefix, Tuple[FrozenSet[int], int]]:
        """Every measured-or-replayed /24 → (last-hop set, probes)."""
        return {
            slash24: (lasthops, self._probe_counts[slash24])
            for slash24, lasthops in self._cache.items()
        }

    @property
    def probes_used(self) -> int:
        return self.prober.probes_sent + self._replayed_probes


def validate_cluster(
    reprober: Reprober,
    cluster_index: int,
    blocks: Sequence[AggregatedBlock],
    max_pairs: int = DEFAULT_MAX_PAIRS,
    rng: Optional[random.Random] = None,
) -> ClusterValidation:
    """Reprobe sampled /24 pairs from one cluster."""
    if rng is None:
        rng = random.Random(cluster_index)
    slash24s: List[Prefix] = []
    for block in blocks:
        slash24s.extend(block.slash24s)
    validation = ClusterValidation(
        cluster_index=cluster_index,
        block_ids=tuple(block.block_id for block in blocks),
        slash24_count=len(slash24s),
    )
    pairs = _sample_pairs(slash24s, max_pairs, rng)
    probes_before = reprober.probes_used
    for left, right in pairs:
        validation.pairs_checked += 1
        if reprober.lasthop_set(left) == reprober.lasthop_set(right):
            validation.identical_pairs += 1
    validation.probes_used = reprober.probes_used - probes_before
    return validation


def _sample_pairs(
    slash24s: Sequence[Prefix], max_pairs: int, rng: random.Random
) -> List[Tuple[Prefix, Prefix]]:
    n = len(slash24s)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        return [
            (slash24s[i], slash24s[j])
            for i in range(n)
            for j in range(i + 1, n)
        ]
    chosen: set = set()
    while len(chosen) < max_pairs:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        chosen.add((min(i, j), max(i, j)))
    return [(slash24s[i], slash24s[j]) for i, j in sorted(chosen)]
