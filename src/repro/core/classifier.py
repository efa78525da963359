"""Per-/24 measurement records and classification (Table 1's categories).

The compiled engine (:mod:`repro.core.fastengine`) measures a /24 —
destinations in the Section 3.3 round-robin order, each one's last-hop
router(s) by the Section 3.4 procedure, the termination policy checked
after every destination — into a :class:`Slash24Measurement`, and
assigns one of the five Table 1 categories with the decision procedure
defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Optional

from ..net.prefix import Prefix
from .grouping import (
    Observations,
    group_by_lasthop,
    identical_lasthop_sets,
    union_lasthops,
)
from .hierarchy import groups_hierarchical
from .termination import StopReason


class Category(Enum):
    """Table 1 rows."""

    TOO_FEW_ACTIVE = "too-few-active"
    UNRESPONSIVE_LASTHOP = "unresponsive-last-hop"
    SAME_LASTHOP = "same-last-hop"
    NON_HIERARCHICAL = "non-hierarchical"
    HIERARCHICAL = "different-but-hierarchical"

    @property
    def analyzable(self) -> bool:
        return self not in (
            Category.TOO_FEW_ACTIVE, Category.UNRESPONSIVE_LASTHOP
        )

    @property
    def homogeneous(self) -> bool:
        """Whether Hobbit counts the /24 as homogeneous (the paper
        treats "different but hierarchical" as heterogeneous)."""
        return self in (Category.SAME_LASTHOP, Category.NON_HIERARCHICAL)


@dataclass
class Slash24Measurement:
    """Everything Hobbit learned about one /24."""

    slash24: Prefix
    category: Category
    #: Destination → responsive last-hop router addresses.
    observations: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    destinations_probed: int = 0
    hosts_responsive: int = 0
    probes_used: int = 0
    stop_reason: Optional[StopReason] = None

    @property
    def lasthop_set(self) -> FrozenSet[int]:
        """The /24's set of last-hop routers (Section 5's aggregation
        key)."""
        return union_lasthops(self.observations)

    @property
    def cardinality(self) -> int:
        return len(self.lasthop_set)

    @property
    def is_homogeneous(self) -> bool:
        return self.category.homogeneous


def _closing_category(observations: Observations) -> Category:
    lasthops = union_lasthops(observations)
    if len(lasthops) <= 1:
        return Category.SAME_LASTHOP
    if identical_lasthop_sets(observations):
        # Every address reaches the same *set* of routers: different
        # last-hop routers purely due to (per-flow) load balancing.
        return Category.NON_HIERARCHICAL
    if not groups_hierarchical(group_by_lasthop(observations)):
        return Category.NON_HIERARCHICAL
    return Category.HIERARCHICAL


def classify_observations(observations: Observations) -> Category:
    """Classify a complete observation set without probing (used when
    replaying recorded datasets, e.g. for the confidence table and the
    Section 3.1 metric comparison)."""
    if len(observations) < 4:
        return Category.TOO_FEW_ACTIVE
    return _closing_category(observations)


def closing_category_from_state(state) -> Category:
    """:func:`_closing_category` evaluated on an incremental
    :class:`repro.core.termination.TerminationState` instead of the full
    observation map (same decision procedure, same order)."""
    if state.cardinality <= 1:
        return Category.SAME_LASTHOP
    if state.identical_lasthop_sets():
        return Category.NON_HIERARCHICAL
    if not state.ranges_hierarchical():
        return Category.NON_HIERARCHICAL
    return Category.HIERARCHICAL


# -- columnar category codes ------------------------------------------------
#
# The columnar campaign result stores categories and stop reasons as
# small integer codes so whole-campaign summaries (Table 1 counts,
# homogeneous masks) reduce to numpy bincounts over flat arrays instead
# of per-measurement attribute walks. Codes are positional in enum
# declaration order, which is stable (the enums are part of the store
# codec's on-disk contract and never reorder).

CATEGORY_ORDER = tuple(Category)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORY_ORDER)}

STOP_REASON_ORDER = tuple(StopReason)
STOP_REASON_CODES = {
    reason: code for code, reason in enumerate(STOP_REASON_ORDER)
}
#: Stop-reason code for "the policy never fired" (ran out of
#: destinations); categories have no such gap, every /24 gets one.
NO_STOP_CODE = -1

#: The same codes keyed by each enum's string value, the form the
#: measurement store keeps (a replayed /24 goes from its stored strings
#: straight to codes).
CATEGORY_CODES_BY_VALUE = {
    category.value: code for category, code in CATEGORY_CODES.items()
}
STOP_REASON_CODES_BY_VALUE = {
    reason.value: code for reason, code in STOP_REASON_CODES.items()
}

#: True where the coded category counts toward the analyzable rows of
#: Table 1, indexed by category code.
ANALYZABLE_BY_CODE = tuple(c.analyzable for c in CATEGORY_ORDER)
#: True where the coded category is homogeneous, indexed by code.
HOMOGENEOUS_BY_CODE = tuple(c.homogeneous for c in CATEGORY_ORDER)
