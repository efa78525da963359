"""Hobbit: homogeneous block identification (the paper's core
contribution). Grouping, the hierarchy test, destination selection,
termination policies, per-/24 classification and the campaign driver."""

from .classifier import (
    Category,
    Slash24Measurement,
    classify_observations,
)
from .confidence import ConfidenceCell, ConfidenceTable
from .grouping import (
    Observations,
    cardinality,
    group_by_lasthop,
    group_by_value,
    group_ranges,
    union_lasthops,
)
from .heterogeneity import (
    SubBlockAnalysis,
    analyze_sub_blocks,
    composition_distribution,
    format_composition,
)
from .hierarchy import (
    find_non_hierarchical_pair,
    groups_hierarchical,
    ranges_hierarchical,
    ranges_non_hierarchical_batch,
)
from .pipeline import (
    CampaignResult,
    ParallelFallbackWarning,
    run_campaign,
    slash24_seed,
)
from .selection import (
    MIN_ACTIVE_ADDRESSES,
    meets_selection_criteria,
    one_per_slash26,
    round_robin_order,
    slash26_groups,
    slash31_pair,
)
from .termination import (
    ExhaustivePolicy,
    ReprobePolicy,
    StopReason,
    TerminationPolicy,
)

__all__ = [
    "CampaignResult",
    "Category",
    "ConfidenceCell",
    "ConfidenceTable",
    "ExhaustivePolicy",
    "MIN_ACTIVE_ADDRESSES",
    "Observations",
    "ParallelFallbackWarning",
    "ReprobePolicy",
    "Slash24Measurement",
    "StopReason",
    "SubBlockAnalysis",
    "TerminationPolicy",
    "analyze_sub_blocks",
    "cardinality",
    "classify_observations",
    "composition_distribution",
    "find_non_hierarchical_pair",
    "format_composition",
    "group_by_lasthop",
    "group_by_value",
    "group_ranges",
    "groups_hierarchical",
    "meets_selection_criteria",
    "one_per_slash26",
    "ranges_hierarchical",
    "ranges_non_hierarchical_batch",
    "round_robin_order",
    "run_campaign",
    "slash24_seed",
    "slash26_groups",
    "slash31_pair",
    "union_lasthops",
]
