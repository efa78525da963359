"""Tests for adjacency analysis and the characterisation reports."""

import pytest

from repro.aggregation import AggregatedBlock
from repro.analysis import (
    adjacency_summary,
    adjacent_pair_lengths,
    block_visualization,
    contiguous_segment_sizes,
    extremes_lengths,
    heterogeneous_by_asn,
    hosting_block_count,
    length_distribution,
    top_block_report,
    whois_examples,
)
from repro.net import Prefix


def s24(text: str) -> Prefix:
    return Prefix.parse(text + "/24")


def block(block_id, slash24s):
    return AggregatedBlock(
        block_id=block_id,
        lasthop_set=frozenset({block_id}),
        slash24s=tuple(sorted(slash24s)),
    )


class TestAdjacency:
    def test_adjacent_pair_lengths_pooled(self):
        blocks = [
            block(0, [s24("10.0.0.0"), s24("10.0.1.0")]),
            block(1, [s24("20.0.0.0")]),  # size 1: skipped
        ]
        assert adjacent_pair_lengths(blocks) == [23]

    def test_extremes_lengths(self):
        blocks = [block(0, [s24("10.0.0.0"), s24("200.0.0.0")])]
        assert extremes_lengths(blocks) == [0]

    def test_length_distribution(self):
        rows = length_distribution([23, 23, 0])
        assert rows[0] == (0, 1, pytest.approx(1 / 3))
        assert rows[-1] == (23, 2, pytest.approx(2 / 3))

    def test_visualization(self):
        b = block(0, [s24("10.0.0.0"), s24("10.0.1.0"), s24("10.0.4.0")])
        coords = block_visualization(b)
        assert coords[0] == 1.0
        assert coords == sorted(coords)

    def test_segments(self):
        b = block(0, [s24("10.0.0.0"), s24("10.0.1.0"), s24("10.0.4.0")])
        assert contiguous_segment_sizes(b) == [2, 1]

    def test_summary_keys(self):
        blocks = [block(0, [s24("10.0.0.0"), s24("10.0.1.0")])]
        summary = adjacency_summary(blocks)
        assert summary["fraction_length_23"] == 1.0
        assert summary["fraction_length_ge_20"] == 1.0


class TestReports:
    def test_heterogeneous_by_asn(self, shared_internet):
        truth = shared_internet.ground_truth
        splits = [
            p for p in shared_internet.universe_slash24s if truth.is_split(p)
        ]
        rows = heterogeneous_by_asn(splits, shared_internet.geodb, top=5)
        assert rows
        assert rows[0].rank == 1
        counts = [row.heterogeneous_slash24s for row in rows]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(splits)

    def test_whois_examples(self, shared_internet):
        truth = shared_internet.ground_truth
        splits = [
            p for p in shared_internet.universe_slash24s if truth.is_split(p)
        ]
        examples = whois_examples(shared_internet.whois, splits, limit=2)
        assert examples
        for slash24, records in examples:
            assert len(records) > 1

    def test_top_block_report(self, shared_internet):
        truth = shared_internet.ground_truth
        blocks = []
        for index, true_block in enumerate(truth.true_blocks()):
            blocks.append(
                AggregatedBlock(
                    block_id=index,
                    lasthop_set=true_block.lasthop_router_ids,
                    slash24s=true_block.slash24s,
                )
            )
        rows = top_block_report(blocks, shared_internet.geodb, count=5)
        assert len(rows) == 5
        sizes = [row.cluster_size for row in rows]
        assert sizes == sorted(sizes, reverse=True)
        assert all(row.organization != "?" for row in rows)

    def test_hosting_block_count(self, shared_internet):
        truth = shared_internet.ground_truth
        blocks = [
            AggregatedBlock(
                block_id=i,
                lasthop_set=tb.lasthop_router_ids,
                slash24s=tb.slash24s,
            )
            for i, tb in enumerate(truth.true_blocks())
        ]
        rows = top_block_report(blocks, shared_internet.geodb, count=10)
        assert 0 <= hosting_block_count(rows) <= 10
