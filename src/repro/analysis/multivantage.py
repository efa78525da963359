"""Probing from several vantage addresses (Section 6.1's alternative).

Some per-destination balancers hash the source address too, so a /24's
measured last-hop set depends on *where you probe from*. Section 6.1
notes that "probing /24s varying vantage points and times can alleviate"
the partial-set problem that motivates the MCL clustering — at the cost
of extra measurement load. This module implements the comparison: how
much more complete do last-hop sets get per added vantage, and what does
it cost?
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from ..core.pipeline import measure
from ..core.termination import ReprobePolicy
from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet
from ..probing.session import Prober
from ..probing.zmap import ActivitySnapshot


def vantage_addresses(internet: SimulatedInternet, count: int) -> List[int]:
    """``count`` distinct vantage addresses on the measurement host's
    network (the default vantage first)."""
    base = internet.vantage_address
    return [base + offset for offset in range(count)]


@dataclass
class VantageStudy:
    """Measured last-hop sets per /24, per vantage."""

    #: /24 → list of per-vantage measured sets, in vantage order.
    per_vantage_sets: Dict[Prefix, List[FrozenSet[int]]]
    probes_per_vantage: List[int]

    def union_sets(self, vantages: int) -> Dict[Prefix, FrozenSet[int]]:
        """/24 → union of the first ``vantages`` vantage sets."""
        result: Dict[Prefix, FrozenSet[int]] = {}
        for slash24, sets in self.per_vantage_sets.items():
            union: set = set()
            for lasthops in sets[:vantages]:
                union.update(lasthops)
            if union:
                result[slash24] = frozenset(union)
        return result

    def completeness(
        self, internet: SimulatedInternet, vantages: int
    ) -> float:
        """Mean fraction of each /24's ground-truth last-hop routers
        discovered by the first ``vantages`` vantage points."""
        truth = internet.ground_truth
        fractions: List[float] = []
        for slash24, lasthops in self.union_sets(vantages).items():
            true_routers = {
                internet.topology.by_id(rid).address
                for rid in truth.lasthop_set_of(slash24)
            }
            if not true_routers:
                continue
            fractions.append(len(lasthops & true_routers) / len(true_routers))
        return sum(fractions) / len(fractions) if fractions else 0.0

    def identical_pair_fraction(self, internet: SimulatedInternet,
                                vantages: int) -> float:
        """Fraction of same-ground-truth-block /24 pairs whose measured
        (union) sets are identical — what identical-set aggregation can
        merge (Section 5)."""
        truth = internet.ground_truth
        sets = self.union_sets(vantages)
        by_true_set: Dict[FrozenSet[int], List[FrozenSet[int]]] = {}
        for slash24, measured in sets.items():
            by_true_set.setdefault(
                truth.lasthop_set_of(slash24), []
            ).append(measured)
        identical = 0
        total = 0
        for measured_sets in by_true_set.values():
            for i, a in enumerate(measured_sets):
                for b in measured_sets[i + 1:]:
                    total += 1
                    identical += a == b
        return identical / total if total else 1.0


def study_vantages(
    internet: SimulatedInternet,
    snapshot: ActivitySnapshot,
    slash24s: Sequence[Prefix],
    vantage_count: int = 3,
    seed: int = 0,
    max_destinations: int = 48,
) -> VantageStudy:
    """Measure each /24's last-hop set from several vantage addresses,
    with the modified (enumerate-everything) strategy."""
    vantages = vantage_addresses(internet, vantage_count)
    per_vantage_sets: Dict[Prefix, List[FrozenSet[int]]] = {
        slash24: [] for slash24 in slash24s
    }
    probes_per_vantage: List[int] = []
    for index, source in enumerate(vantages):
        prober = Prober(internet, source=source)
        rng = random.Random(seed ^ (index * 0x9E37))
        for slash24 in slash24s:
            measurement = measure(
                prober,
                slash24,
                snapshot.active_in(slash24),
                ReprobePolicy(),
                rng,
                max_destinations=max_destinations,
            )
            per_vantage_sets[slash24].append(measurement.lasthop_set)
        probes_per_vantage.append(prober.probes_sent)
    return VantageStudy(
        per_vantage_sets=per_vantage_sets,
        probes_per_vantage=probes_per_vantage,
    )
