"""Tests for the MCL implementation."""

import numpy as np
import pytest
from scipy import sparse

from repro.aggregation import WeightedGraph, mcl
from repro.aggregation.sweep import run_mcl_on_components, sweep_and_cluster
from repro.obs import metrics_scope
from tests.oracle import weak_intra_cluster_fraction


def two_cliques_graph(bridge_weight=0.05):
    """Two 4-cliques connected by one weak edge."""
    graph = WeightedGraph(8)
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                graph.add_edge(base + i, base + j, 1.0)
    graph.add_edge(3, 4, bridge_weight)
    return graph


class TestMcl:
    def test_two_cliques_separate(self):
        result = mcl(two_cliques_graph().to_sparse(), inflation=2.0)
        clusters = sorted(map(tuple, result.clusters))
        assert clusters == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert result.converged

    def test_singleton_graph(self):
        matrix = sparse.csr_matrix((1, 1))
        result = mcl(matrix)
        assert result.clusters == [[0]]

    def test_empty_graph(self):
        matrix = sparse.csr_matrix((0, 0))
        assert mcl(matrix).clusters == []

    def test_disconnected_vertices_are_singletons(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 1.0)
        result = mcl(graph.to_sparse())
        clusters = sorted(map(tuple, result.clusters))
        assert (2,) in clusters
        assert (3,) in clusters

    def test_nnz_peak_gauge_recorded(self):
        """The densest expansion intermediate — MCL's memory high-water
        mark — lands in the metrics registry."""
        adjacency = two_cliques_graph().to_sparse()
        with metrics_scope() as registry:
            mcl(adjacency, inflation=2.0)
        peak = registry.gauge_value("mcl.nnz_peak")
        # At least as dense as the normalised input (adjacency plus
        # self loops); expansion only adds fill-in.
        assert peak >= adjacency.nnz + adjacency.shape[0]
        assert registry.counter_value("mcl.runs") == 1

    def test_clusters_partition_vertices(self):
        result = mcl(two_cliques_graph().to_sparse())
        vertices = sorted(v for c in result.clusters for v in c)
        assert vertices == list(range(8))

    def test_higher_inflation_finer_clusters(self):
        # A weakly-connected chain: high inflation should produce at
        # least as many clusters as low inflation.
        graph = WeightedGraph(9)
        for i in range(8):
            graph.add_edge(i, i + 1, 1.0 if i % 3 else 0.2)
        low = mcl(graph.to_sparse(), inflation=1.4)
        high = mcl(graph.to_sparse(), inflation=6.0)
        assert len(high.clusters) >= len(low.clusters)

    def test_rejects_bad_inflation(self):
        with pytest.raises(ValueError):
            mcl(two_cliques_graph().to_sparse(), inflation=1.0)

    def test_rejects_negative_weights(self):
        matrix = sparse.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            mcl(matrix)

    def test_deterministic(self):
        a = mcl(two_cliques_graph().to_sparse())
        b = mcl(two_cliques_graph().to_sparse())
        assert a.clusters == b.clusters


class TestComponentRunner:
    def test_component_split_matches_whole(self):
        graph = two_cliques_graph(bridge_weight=0.0001)
        by_component = run_mcl_on_components(graph, 2.0)
        whole = mcl(graph.to_sparse(), inflation=2.0).clusters
        assert sorted(map(tuple, by_component)) == sorted(map(tuple, whole))

    def test_isolated_components(self):
        graph = WeightedGraph(5)
        graph.add_edge(0, 1, 1.0)
        clusters = run_mcl_on_components(graph, 2.0)
        assert sorted(map(tuple, clusters)) == [
            (0, 1), (2,), (3,), (4,),
        ]


class TestSweep:
    def test_weak_fraction_zero_for_tight_clusters(self):
        graph = two_cliques_graph(bridge_weight=0.05)
        clusters = [[0, 1, 2, 3], [4, 5, 6, 7]]
        fraction = weak_intra_cluster_fraction(graph, clusters, 0.5)
        assert fraction == 0.0

    def test_weak_fraction_counts_bridge(self):
        graph = two_cliques_graph(bridge_weight=0.05)
        clusters = [list(range(8))]
        fraction = weak_intra_cluster_fraction(graph, clusters, 0.5)
        assert fraction == pytest.approx(1 / 13)

    def test_sweep_prefers_clean_split(self):
        graph = two_cliques_graph(bridge_weight=0.05)
        inflation, outcomes, _ = sweep_and_cluster(
            graph, candidates=(1.4, 2.0)
        )
        assert outcomes
        best = min(
            outcomes, key=lambda o: (o.weak_edge_fraction, o.inflation)
        )
        assert inflation == best.inflation

    def test_sweep_empty_graph(self):
        graph = WeightedGraph(3)
        inflation, outcomes, clusters = sweep_and_cluster(
            graph, candidates=(2.0,)
        )
        assert inflation == 2.0
        assert outcomes == []
        assert clusters == [[0], [1], [2]]
