"""Scoring the pipeline against ground truth.

The one thing a simulator-based reproduction can do that the paper
could not: grade Hobbit's verdicts and the aggregation's blocks against
the generator's ground truth. ``hobbit-repro validate`` prints this
report; the integration tests assert its floors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..aggregation.identical import AggregatedBlock
from ..core.columnar import CampaignResult
from ..net.prefix import Prefix
from ..netsim.internet import SimulatedInternet


@dataclass
class ValidationReport:
    """Accuracy of classification and purity of aggregation."""

    analyzable: int = 0
    true_positive: int = 0   # homogeneous called homogeneous
    false_positive: int = 0  # split called homogeneous
    true_negative: int = 0   # split called heterogeneous
    false_negative: int = 0  # homogeneous called heterogeneous
    multi_blocks: int = 0
    pure_multi_blocks: int = 0

    @property
    def accuracy(self) -> float:
        if not self.analyzable:
            return 0.0
        return (self.true_positive + self.true_negative) / self.analyzable

    @property
    def homogeneous_recall(self) -> float:
        denominator = self.true_positive + self.false_negative
        return self.true_positive / denominator if denominator else 0.0

    @property
    def homogeneous_precision(self) -> float:
        denominator = self.true_positive + self.false_positive
        return self.true_positive / denominator if denominator else 0.0

    @property
    def block_purity(self) -> float:
        """Fraction of multi-/24 blocks whose members share one
        ground-truth last-hop set."""
        if not self.multi_blocks:
            return 1.0
        return self.pure_multi_blocks / self.multi_blocks

    def rows(self) -> List[List[object]]:
        return [
            ["analyzable /24s", self.analyzable],
            ["classification accuracy", f"{self.accuracy * 100:.1f}%"],
            [
                "homogeneous precision",
                f"{self.homogeneous_precision * 100:.1f}%",
            ],
            ["homogeneous recall", f"{self.homogeneous_recall * 100:.1f}%"],
            ["multi-/24 blocks", self.multi_blocks],
            ["block purity", f"{self.block_purity * 100:.1f}%"],
        ]


def score_pipeline(
    internet: SimulatedInternet,
    campaign: CampaignResult,
    blocks: List[AggregatedBlock],
) -> ValidationReport:
    """Grade a campaign's verdicts and an aggregation's blocks.

    The verdicts come straight off the campaign's columns (its
    category masks and /24 networks); no measurement is materialised.
    """
    truth = internet.ground_truth
    report = ValidationReport()
    analyzable = campaign.analyzable_mask()
    networks = campaign.columns()["nets"][analyzable].tolist()
    claims = campaign.homogeneous_mask()[analyzable].tolist()
    report.analyzable = len(networks)
    for network, claimed in zip(networks, claims):
        actual = truth.is_homogeneous(Prefix(network, 24))
        if claimed and actual:
            report.true_positive += 1
        elif claimed and not actual:
            report.false_positive += 1
        elif not claimed and not actual:
            report.true_negative += 1
        else:
            report.false_negative += 1
    for block in blocks:
        if block.size < 2:
            continue
        report.multi_blocks += 1
        true_sets = {
            truth.lasthop_set_of(slash24) for slash24 in block.slash24s
        }
        if len(true_sets) == 1:
            report.pure_multi_blocks += 1
    return report
