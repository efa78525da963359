"""Analysis and applications: distribution utilities, path-metric
cardinalities, adjacency, cellular detection, rDNS pattern mining,
topology-discovery efficiency, sampling, and the characterisation
reports."""

from .adjacency import (
    adjacency_summary,
    adjacent_pair_lengths,
    block_visualization,
    contiguous_segment_sizes,
    extremes_lengths,
    length_distribution,
)
from .cdf import (
    cdf_at,
    empirical_cdf,
    fraction_above,
    histogram_fractions,
    percentile,
)
from .cellular import BlockRttStudy, study_block
from .dhcp_search import (
    SearchComparison,
    SearchOutcome,
    block_of_address,
    compare_search_strategies,
    fingerprint,
    search_for_host,
)
from .figures import FIGURE_BUILDERS, export_figures
from .longitudinal import LongitudinalComparison, compare_campaigns
from .scoring import ValidationReport, score_pipeline
from .multivantage import VantageStudy, study_vantages, vantage_addresses
from .pathmetrics import (
    RouteSets,
    lasthop_cardinality,
    links_of_route,
    per_destination_lasthops,
    per_destination_route_values,
    subpath_cardinality,
    traceroute_cardinality,
)
from .rdns_patterns import (
    NegativeControl,
    PatternMiningResult,
    check_negative_controls,
    distinct_pattern_count,
    mine_block_patterns,
    signature_of,
    signature_regex,
)
from .reports import (
    AsnReportRow,
    TopBlockRow,
    heterogeneous_by_asn,
    hosting_block_count,
    top_block_report,
    whois_examples,
)
from .sampling import (
    SamplingComparison,
    block_active_addresses,
    compare_sampling,
    simple_random_sample,
    stratified_sample,
)
from .topo_discovery import (
    DiscoveryCurve,
    discovery_curve,
    groups_from_blocks,
    groups_from_slash24s,
    total_links,
)

__all__ = [
    "AsnReportRow",
    "BlockRttStudy",
    "DiscoveryCurve",
    "NegativeControl",
    "PatternMiningResult",
    "RouteSets",
    "SamplingComparison",
    "SearchComparison",
    "SearchOutcome",
    "TopBlockRow",
    "VantageStudy",
    "adjacency_summary",
    "adjacent_pair_lengths",
    "FIGURE_BUILDERS",
    "LongitudinalComparison",
    "ValidationReport",
    "block_active_addresses",
    "block_of_address",
    "block_visualization",
    "compare_campaigns",
    "compare_search_strategies",
    "cdf_at",
    "check_negative_controls",
    "compare_sampling",
    "contiguous_segment_sizes",
    "discovery_curve",
    "distinct_pattern_count",
    "empirical_cdf",
    "export_figures",
    "extremes_lengths",
    "fingerprint",
    "fraction_above",
    "groups_from_blocks",
    "groups_from_slash24s",
    "heterogeneous_by_asn",
    "histogram_fractions",
    "hosting_block_count",
    "lasthop_cardinality",
    "length_distribution",
    "links_of_route",
    "mine_block_patterns",
    "per_destination_lasthops",
    "per_destination_route_values",
    "percentile",
    "score_pipeline",
    "search_for_host",
    "signature_of",
    "signature_regex",
    "study_vantages",
    "vantage_addresses",
    "simple_random_sample",
    "stratified_sample",
    "study_block",
    "subpath_cardinality",
    "top_block_report",
    "total_links",
    "traceroute_cardinality",
    "whois_examples",
]
