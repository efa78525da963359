"""Tests for identical-set aggregation, similarity scores and the graph."""

import pytest

from repro.aggregation import (
    AggregatedBlock,
    aggregate_identical,
    build_similarity_graph,
    pairwise_similarities,
    similarity,
    size_histogram,
    size_log2_histogram,
    top_blocks,
)
from repro.net import Prefix
from tests import oracle


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


class TestSimilarity:
    def test_paper_example(self):
        # A={1.1.1.1, 2.2.2.2, 3.3.3.3}, B={3.3.3.3, 4.4.4.4} → 1/3.
        a = fs(1, 2, 3)
        b = fs(3, 4)
        assert similarity(a, b) == pytest.approx(1 / 3)

    def test_identical_sets(self):
        assert similarity(fs(1, 2), fs(1, 2)) == 1.0

    def test_disjoint_sets(self):
        assert similarity(fs(1), fs(2)) == 0.0

    def test_empty_sets(self):
        assert similarity(fs(), fs(1)) == 0.0

    def test_symmetry(self):
        assert similarity(fs(1, 2, 3), fs(2)) == similarity(fs(2), fs(1, 2, 3))


class TestAggregateIdentical:
    def test_merges_identical_sets(self):
        sets = {s24(0): fs(1, 2), s24(5): fs(1, 2), s24(9): fs(3)}
        blocks = aggregate_identical(sets)
        assert len(blocks) == 2
        sizes = sorted(b.size for b in blocks)
        assert sizes == [1, 2]

    def test_skips_empty_sets(self):
        sets = {s24(0): fs(), s24(1): fs(1)}
        blocks = aggregate_identical(sets)
        assert len(blocks) == 1

    def test_slash24s_sorted_within_block(self):
        sets = {s24(9): fs(1), s24(0): fs(1)}
        blocks = aggregate_identical(sets)
        assert blocks[0].slash24s == (s24(0), s24(9))

    def test_block_ids_sequential(self):
        sets = {s24(i): fs(i) for i in range(5)}
        blocks = aggregate_identical(sets)
        assert [b.block_id for b in blocks] == list(range(5))

    def test_histograms(self):
        blocks = [
            block(0, [1], [0]),
            block(1, [2], [1]),
            block(2, [3], [2, 3]),
            block(3, [4], list(range(10, 27))),  # size 17
        ]
        assert size_histogram(blocks) == {1: 2, 2: 1, 17: 1}
        log2 = size_log2_histogram(blocks)
        assert log2 == {0: 2, 1: 1, 4: 1}

    def test_top_blocks(self):
        blocks = [
            block(0, [1], [0]),
            block(1, [2], [1, 2, 3]),
            block(2, [3], [5, 6]),
        ]
        ranked = top_blocks(blocks, 2)
        assert [b.block_id for b in ranked] == [1, 2]


class TestGraph:
    def test_add_and_query(self):
        graph = oracle.graph_from_edges(3, [(0, 1, 0.5)])
        matrix = graph.to_sparse()
        assert matrix[0, 1] == 0.5
        assert matrix[1, 0] == 0.5
        assert matrix[0, 2] == 0.0
        assert graph.edge_count == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            oracle.graph_from_edges(2, [(1, 1, 0.5)])

    def test_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            oracle.graph_from_edges(2, [(0, 1, 0.0)])

    def test_connected_components(self):
        graph = oracle.graph_from_edges(5, [(0, 1, 1.0), (3, 4, 1.0)])
        components = graph.connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2,), (3, 4)]

    def test_subgraph(self):
        graph = oracle.graph_from_edges(4, [(0, 2, 0.5), (2, 3, 0.7)])
        sub, ids = oracle.subgraph(graph, [0, 2, 3])
        assert ids == [0, 2, 3]
        assert sub.to_sparse()[0, 1] == 0.5  # 0-2 remapped
        assert sub.to_sparse()[1, 2] == 0.7  # 2-3 remapped

    def test_to_sparse_symmetric(self):
        graph = oracle.graph_from_edges(3, [(0, 1, 0.25)])
        matrix = graph.to_sparse()
        assert matrix.shape == (3, 3)
        assert matrix[0, 1] == matrix[1, 0] == 0.25

    def test_edges_listed_once(self):
        graph = oracle.graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
        assert len(graph.edge_arrays()[0]) == 2


class TestSimilarityGraph:
    def test_built_from_overlaps(self):
        blocks = [
            block(0, [1, 2], [0]),
            block(1, [2, 3], [1]),
            block(2, [9], [2]),
        ]
        graph = build_similarity_graph(blocks)
        assert graph.to_sparse()[0, 1] == pytest.approx(0.5)
        assert graph.to_sparse()[0, 2] == 0.0
        assert graph.edge_count == 1

    def test_weights_match_similarity(self):
        blocks = [
            block(0, [1, 2, 3], [0]),
            block(1, [3, 4], [1]),
        ]
        graph = build_similarity_graph(blocks)
        assert graph.to_sparse()[0, 1] == pytest.approx(
            similarity(blocks[0].lasthop_set, blocks[1].lasthop_set)
        )

    def test_pairwise_similarities(self):
        blocks = [
            block(0, [1], [0]), block(1, [1], [1]), block(2, [2], [2]),
        ]
        scores = pairwise_similarities(blocks)
        assert sorted(scores) == [0.0, 0.0, 1.0]
