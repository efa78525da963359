"""Aggregating homogeneous /24s into larger blocks: identical-set
merging (Section 5) and MCL-based similarity clustering with reprobe
validation (Section 6)."""

from .graph import WeightedGraph
from .identical import (
    AggregatedBlock,
    aggregate_identical,
    size_histogram,
    size_log2_histogram,
    top_blocks,
)
from .mcl import MclResult, mcl, mcl_runs, prepare_stochastic
from .pipeline import AggregationOutcome, run_aggregation
from .reprobe import ClusterValidation, Reprober, validate_cluster
from .rules import SimilarityRule
from .similarity import (
    build_similarity_graph,
    pairwise_similarities,
    similarity,
)
from .sweep import (
    SweepOutcome,
    run_mcl_on_components,
    sweep_and_cluster,
)

__all__ = [
    "AggregatedBlock",
    "AggregationOutcome",
    "ClusterValidation",
    "MclResult",
    "Reprober",
    "SimilarityRule",
    "SweepOutcome",
    "WeightedGraph",
    "aggregate_identical",
    "build_similarity_graph",
    "mcl",
    "mcl_runs",
    "pairwise_similarities",
    "prepare_stochastic",
    "run_aggregation",
    "run_mcl_on_components",
    "similarity",
    "size_histogram",
    "size_log2_histogram",
    "sweep_and_cluster",
    "top_blocks",
    "validate_cluster",
]
