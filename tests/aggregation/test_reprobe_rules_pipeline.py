"""Tests for reprobe validation, the Section 6.6 rule and the full
aggregation pipeline."""

import random

import pytest

from repro.aggregation import (
    AggregatedBlock,
    Reprober,
    SimilarityRule,
    run_aggregation,
    validate_cluster,
)
from repro.aggregation.reprobe import _sample_pairs
from repro.core import TerminationPolicy, run_campaign
from repro.net import Prefix
from repro.probing import scan


def s24(n: int) -> Prefix:
    return Prefix(0x0A000000 + n * 256, 24)


def fs(*values):
    return frozenset(values)


def block(block_id, lasthops, slash24_indices):
    return AggregatedBlock(
        block_id=block_id,
        lasthop_set=fs(*lasthops),
        slash24s=tuple(s24(i) for i in slash24_indices),
    )


class TestPairSampling:
    def test_all_pairs_when_small(self):
        pairs = _sample_pairs([s24(0), s24(1), s24(2)], 10, random.Random(1))
        assert len(pairs) == 3

    def test_caps_large_sets(self):
        slash24s = [s24(i) for i in range(30)]
        pairs = _sample_pairs(slash24s, 12, random.Random(1))
        assert len(pairs) == 12
        assert len(set(pairs)) == 12

    def test_no_self_pairs(self):
        pairs = _sample_pairs([s24(i) for i in range(20)], 30, random.Random(1))
        assert all(a != b for a, b in pairs)


class TestSimilarityRule:
    def test_matches_uniform_strong_cluster(self):
        blocks = [block(i, [1, 2], [i]) for i in range(3)]
        assert SimilarityRule().matches(blocks)

    def test_rejects_weak_cluster(self):
        blocks = [
            block(0, [1, 2, 3, 4], [0]),
            block(1, [4, 5, 6, 7], [1]),
            block(2, [7, 8, 9, 10], [2]),
        ]
        assert not SimilarityRule().matches(blocks)

    def test_rejects_single_block(self):
        assert not SimilarityRule().matches([block(0, [1], [0])])


class TestFullAggregation:
    @pytest.fixture(scope="class")
    def aggregated(self):
        from repro.netsim import SimulatedInternet, tiny_scenario

        internet = SimulatedInternet.from_config(tiny_scenario(seed=7))
        snapshot = scan(internet)
        campaign = run_campaign(
            internet,
            TerminationPolicy(),
            slash24s=snapshot.eligible_slash24s()[:120],
            snapshot=snapshot,
            seed=2,
            max_destinations_per_slash24=48,
        )
        outcome = run_aggregation(
            campaign.lasthop_sets(),
            internet=internet,
            snapshot=snapshot,
            max_pairs_per_cluster=16,
            seed=4,
        )
        return internet, campaign, outcome

    def test_final_blocks_cover_all_inputs(self, aggregated):
        _internet, campaign, outcome = aggregated
        input_slash24s = set(campaign.lasthop_sets())
        covered = {
            slash24
            for b in outcome.final_blocks
            for slash24 in b.slash24s
        }
        assert covered == input_slash24s

    def test_final_blocks_disjoint(self, aggregated):
        _internet, _campaign, outcome = aggregated
        seen = set()
        for b in outcome.final_blocks:
            for slash24 in b.slash24s:
                assert slash24 not in seen
                seen.add(slash24)

    def test_identical_aggregation_reduces_count(self, aggregated):
        _internet, campaign, outcome = aggregated
        assert len(outcome.identical_blocks) <= len(campaign.lasthop_sets())

    def test_clusters_partition_blocks(self, aggregated):
        _internet, _campaign, outcome = aggregated
        members = sorted(i for c in outcome.clusters for i in c)
        assert members == list(range(len(outcome.identical_blocks)))

    def test_merging_never_increases_blocks(self, aggregated):
        _internet, _campaign, outcome = aggregated
        assert len(outcome.final_blocks) <= len(outcome.identical_blocks)

    def test_confirmed_clusters_have_ratio_one(self, aggregated):
        _internet, _campaign, outcome = aggregated
        for validation in outcome.validations:
            if validation.homogeneous:
                assert validation.identical_ratio == 1.0

    def test_validation_requires_internet(self):
        with pytest.raises(ValueError):
            run_aggregation(
                {s24(0): fs(1), s24(1): fs(1, 2)},
                validate=True,
            )

    def test_aggregation_without_validation(self):
        outcome = run_aggregation(
            {s24(0): fs(1), s24(1): fs(1), s24(2): fs(2)},
            validate=False,
            inflation=2.0,
        )
        assert len(outcome.identical_blocks) == 2
        assert outcome.validations == []
        assert len(outcome.final_blocks) == 2

    def test_merged_block_true_homogeneity(self, aggregated):
        """Blocks merged by confirmed clusters must be ground-truth
        homogeneous aggregates (same pod last-hop sets)."""
        internet, _campaign, outcome = aggregated
        truth = internet.ground_truth
        confirmed = {
            v.cluster_index for v in outcome.validations if v.homogeneous
        }
        for index in confirmed:
            cluster = outcome.clusters[index]
            lasthop_sets = set()
            for block_index in cluster:
                b = outcome.identical_blocks[block_index]
                for slash24 in b.slash24s:
                    lasthop_sets.add(truth.lasthop_set_of(slash24))
            # Reprobe-confirmed clusters should correspond to a single
            # ground-truth last-hop set in the vast majority of cases.
            assert len(lasthop_sets) <= 2
