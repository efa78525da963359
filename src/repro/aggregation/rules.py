"""The experimental homogeneous-cluster rule (Section 6.6).

The paper reports a manually-built rule over the distribution of
pairwise similarity scores inside a cluster that separates clusters
reprobing confirms homogeneous from the rest, and shows its quality in
Figure 9. The rule's exact form is not published ("we manually built
the rule"); ours is the natural instantiation of the same idea: a
cluster matches when its intra-cluster similarity distribution is
*uniformly strong* — high median and no very weak pair.

Like the paper's, this rule is experimental: matching clusters still
need reprobing before they enter the final results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .identical import AggregatedBlock
from .similarity import pairwise_similarities

DEFAULT_MIN_MEDIAN = 0.70
DEFAULT_MIN_WORST = 0.45


@dataclass(frozen=True)
class SimilarityRule:
    """Matches clusters whose pairwise similarity distribution has a
    median of at least ``min_median`` and a minimum of at least
    ``min_worst``."""

    min_median: float = DEFAULT_MIN_MEDIAN
    min_worst: float = DEFAULT_MIN_WORST

    def matches(self, blocks: Sequence[AggregatedBlock]) -> bool:
        if len(blocks) < 2:
            return False
        scores = pairwise_similarities(list(blocks))
        return (
            float(np.median(scores)) >= self.min_median
            and min(scores) >= self.min_worst
        )
