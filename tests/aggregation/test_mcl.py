"""Tests for the MCL implementation."""

import importlib
import json
import pathlib
from fractions import Fraction
from math import inf, nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.aggregation import (
    WeightedGraph,
    mcl,
    mcl_runs,
    prepare_stochastic,
    run_aggregation,
)
from repro.aggregation.sweep import (
    DEFAULT_CANDIDATES,
    run_mcl_on_components,
    sweep_and_cluster,
)
from repro.obs import configure_tracing, metrics_scope
from tests import oracle
from tests.oracle import weak_intra_cluster_fraction

# The package re-exports the function ``mcl`` under the module's name.
mcl_module = importlib.import_module("repro.aggregation.mcl")


def two_cliques_graph(bridge_weight=0.05):
    """Two 4-cliques connected by one weak edge."""
    edges = [
        (base + i, base + j, 1.0)
        for base in (0, 4)
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    return oracle.graph_from_edges(8, edges + [(3, 4, bridge_weight)])


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
        graph = oracle.graph_from_edges(4, [(0, 1, 1.0)])
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
        graph = oracle.graph_from_edges(
            9, [(i, i + 1, 1.0 if i % 3 else 0.2) for i in range(8)]
        )
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
        graph = oracle.graph_from_edges(5, [(0, 1, 1.0)])
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
        graph = oracle.graph_from_edges(3, [])
        inflation, outcomes, clusters = sweep_and_cluster(
            graph, candidates=(2.0,)
        )
        assert inflation == 2.0
        assert outcomes == []
        assert clusters == [[0], [1], [2]]


def _kernel_untouched(monkeypatch):
    """Fail the test if the batch kernel starts iterating."""

    def expansion(*args):
        raise AssertionError("MCL iterated before refusing its input")

    monkeypatch.setattr(mcl_module, "_square", expansion)


def _edgeless():
    return oracle.graph_from_edges(3, [])


#: (entry point, call, parameter named in the error, the value's repr).
OUT_OF_DOMAIN = [
    ("mcl", lambda: mcl(ADJACENCY, inflation=nan), "inflation", "nan"),
    ("mcl", lambda: mcl(ADJACENCY, inflation=inf), "inflation", "inf"),
    ("mcl", lambda: mcl(ADJACENCY, inflation=1.0), "inflation", "1.0"),
    ("mcl", lambda: mcl(ADJACENCY, inflation=0.5), "inflation", "0.5"),
    ("mcl", lambda: mcl(ADJACENCY, max_iterations=0), "max_iterations", "0"),
    ("mcl", lambda: mcl(ADJACENCY, max_iterations=2.5), "max_iterations",
     "2.5"),
    ("mcl", lambda: mcl(ADJACENCY, convergence_tol=-1.0), "convergence_tol",
     "-1.0"),
    ("mcl", lambda: mcl(ADJACENCY, convergence_tol=0.0), "convergence_tol",
     "0.0"),
    ("mcl", lambda: mcl(ADJACENCY, convergence_tol=nan), "convergence_tol",
     "nan"),
    ("mcl", lambda: mcl(ADJACENCY, prune_threshold=2.0), "prune_threshold",
     "2.0"),
    ("mcl", lambda: mcl(ADJACENCY, prune_threshold=1.0), "prune_threshold",
     "1.0"),
    ("mcl", lambda: mcl(ADJACENCY, prune_threshold=-0.1), "prune_threshold",
     "-0.1"),
    ("mcl", lambda: mcl(ADJACENCY, self_loop_weight=-1.0), "self_loop_weight",
     "-1.0"),
    ("mcl", lambda: mcl(ADJACENCY, self_loop_weight=inf), "self_loop_weight",
     "inf"),
    ("mcl_runs", lambda: mcl_runs([(STOCHASTIC, nan)]), "inflation", "nan"),
    ("mcl_runs", lambda: mcl_runs([(STOCHASTIC, 2.0)], max_iterations=0),
     "max_iterations", "0"),
    ("components", lambda: run_mcl_on_components(two_cliques_graph(), inf),
     "inflation", "inf"),
    ("sweep", lambda: sweep_and_cluster(two_cliques_graph(), (2.0, nan)),
     "candidates[1]", "nan"),
    ("sweep", lambda: sweep_and_cluster(two_cliques_graph(), (inf,)),
     "candidates[0]", "inf"),
    ("sweep-edgeless", lambda: sweep_and_cluster(_edgeless(), (0.5,)),
     "candidates[0]", "0.5"),
    ("sweep", lambda: sweep_and_cluster(two_cliques_graph(), ()),
     "candidates", "()"),
    ("sweep-edgeless", lambda: sweep_and_cluster(_edgeless(), ()),
     "candidates", "()"),
    ("aggregation",
     lambda: run_aggregation({}, inflation=nan, validate=False),
     "inflation", "nan"),
]

ADJACENCY = two_cliques_graph().to_sparse()
STOCHASTIC = prepare_stochastic(ADJACENCY)


class TestParameterDomain:
    @pytest.mark.parametrize(
        "call, parameter, value",
        [case[1:] for case in OUT_OF_DOMAIN],
        ids=[
            f"{entry}-{parameter}={value}"
            for entry, _, parameter, value in OUT_OF_DOMAIN
        ],
    )
    def test_refuses_out_of_domain(self, monkeypatch, call, parameter, value):
        _kernel_untouched(monkeypatch)
        with metrics_scope() as registry:
            with pytest.raises(ValueError) as raised:
                call()
        message = str(raised.value)
        assert message.startswith(parameter + " ")
        assert message.endswith(f"got {value}")
        assert registry.counter_value("mcl.runs") == 0

    def test_domain_edges_are_accepted(self):
        mcl(
            ADJACENCY, inflation=1.0001, prune_threshold=0.0,
            max_iterations=1, convergence_tol=1e-300, self_loop_weight=0.0,
        )


# -- the batch kernel against the one-run-at-a-time oracle ----------------

WEIGHTS = st.one_of(
    st.sampled_from(
        [Fraction(k, d) for d in range(1, 7) for k in range(1, d + 1)]
    ),
    st.floats(min_value=0.01, max_value=1.0),
)


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                WEIGHTS,
            ),
            max_size=40,
        )
    )
    # A pair drawn again keeps its last weight.
    edges = {
        (min(u, v), max(u, v)): float(weight)
        for u, v, weight in pairs
        if u != v
    }
    return oracle.graph_from_edges(
        n, [(u, v, weight) for (u, v), weight in edges.items()]
    )


def component_matrices(graph):
    """The stochastic matrix of each multi-vertex component, then of
    the whole graph (one block holding several components)."""
    matrices = []
    for component in graph.connected_components():
        if len(component) > 1:
            sub, _ = oracle.subgraph(graph, component)
            matrices.append(prepare_stochastic(sub.to_sparse()))
    matrices.append(prepare_stochastic(graph.to_sparse()))
    return matrices


def assert_matches_oracle(runs, **options):
    """The batch gives every run the oracle's clusters, iteration count
    and converged flag, and counts the same ``mcl.*`` totals; no input
    matrix is written."""
    before = [matrix.toarray() for matrix, _ in runs]
    with metrics_scope() as batch_metrics:
        results = mcl_runs(runs, **options)
    with metrics_scope() as oracle_metrics:
        expected = [
            oracle.mcl_from_stochastic(matrix, inflation, **options)
            for matrix, inflation in runs
        ]
    for result, reference in zip(results, expected):
        assert result.clusters == reference.clusters
        assert result.iterations == reference.iterations
        assert result.converged == reference.converged
    for name in ("mcl.runs", "mcl.iterations", "mcl.unconverged"):
        assert batch_metrics.counter_value(name) == (
            oracle_metrics.counter_value(name)
        )
    for (matrix, _), dense in zip(runs, before):
        assert (matrix.toarray() == dense).all()
    return results


class TestBatchMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(weighted_graphs())
    def test_every_candidate(self, graph):
        matrices = component_matrices(graph)
        assert_matches_oracle(
            [(m, c) for c in DEFAULT_CANDIDATES for m in matrices]
        )
        # A batch of one reports the run's own densest expansion.
        with metrics_scope() as single:
            mcl_runs([(matrices[-1], 2.0)])
        with metrics_scope() as reference:
            oracle.mcl_from_stochastic(matrices[-1], 2.0)
        assert single.gauge_value("mcl.nnz_peak") == (
            reference.gauge_value("mcl.nnz_peak")
        )

    @settings(max_examples=30, deadline=None)
    @given(weighted_graphs())
    def test_capped(self, graph):
        matrices = component_matrices(graph)
        assert_matches_oracle(
            [(m, c) for c in DEFAULT_CANDIDATES for m in matrices],
            max_iterations=2,
        )

    @settings(max_examples=30, deadline=None)
    @given(weighted_graphs())
    def test_components_runner(self, graph):
        expected = []
        for component in graph.connected_components():
            sub, ids = oracle.subgraph(graph, component)
            run = oracle.mcl_from_stochastic(
                prepare_stochastic(sub.to_sparse()), 2.4
            )
            expected.extend([ids[i] for i in c] for c in run.clusters)
        assert run_mcl_on_components(graph, 2.4) == expected


def journal_of(path, call):
    """The warning records and span names ``call`` journals."""
    configure_tracing(str(path))
    try:
        call()
    finally:
        configure_tracing(None)
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    warnings = [
        (r["name"], r["message"], r["vertices"], r["inflation"])
        for r in records if r["kind"] == "warning"
    ]
    spans = [r["name"] for r in records if r["kind"] == "begin"]
    return warnings, spans


class TestCapWarnings:
    def test_one_warning_per_capped_run_in_run_order(self, tmp_path):
        matrices = [
            prepare_stochastic(graph.to_sparse())
            for graph in (repair_component(), two_cliques_graph())
        ]
        runs = [(m, c) for c in (1.4, 4.0) for m in matrices]
        batch, batch_spans = journal_of(
            tmp_path / "batch.jsonl",
            lambda: mcl_runs(runs, max_iterations=1),
        )
        one_by_one, _ = journal_of(
            tmp_path / "oracle.jsonl",
            lambda: [
                oracle.mcl_from_stochastic(m, c, max_iterations=1)
                for m, c in runs
            ],
        )
        assert batch == one_by_one
        assert [(w[2], w[3]) for w in batch] == [
            (23, 1.4), (8, 1.4), (23, 4.0), (8, 4.0),
        ]
        assert batch_spans == ["mcl.batch"]


class TestWideIndices:
    @pytest.mark.parametrize("start", ["int32", "int64"])
    def test_int64_indices_give_the_same_runs(self, monkeypatch, start):
        """A batch whose arrays outgrow int32 switches to int64 indices,
        from the start or at the expansion that outgrows it: shrink the
        limit so this one does, and compare with the oracle."""
        matrices = [
            prepare_stochastic(graph.to_sparse())
            for graph in (two_cliques_graph(), repair_component())
        ]
        runs = [(m, c) for c in DEFAULT_CANDIDATES for m in matrices]
        entries = sum(matrix.nnz for matrix, _ in runs)
        limit = entries if start == "int32" else entries // 2
        monkeypatch.setattr(mcl_module, "_INT32_MAX", limit)
        squares = []
        square = mcl_module._square

        def spy(n, indptr, indices, data, bounds):
            squares.append(indptr.dtype)
            return square(n, indptr, indices, data, bounds)

        monkeypatch.setattr(mcl_module, "_square", spy)
        results = assert_matches_oracle(runs)
        assert squares[0] == np.dtype(start)
        assert squares[1] == np.int64
        assert results[-1].clusters == [[vertex] for vertex in range(23)]


def repair_component():
    """The 23-vertex, 222-edge component of the paper-smoke similarity
    graph (seed 2016) whose inflation-4.0 run prunes a column to zero:
    the one known input that reaches the zero-column repair."""
    path = pathlib.Path(__file__).with_name("repair_component.json")
    fixture = json.loads(path.read_text(encoding="utf-8"))
    u, v, weights = zip(*fixture["edges"])
    return WeightedGraph.from_edge_arrays(
        fixture["vertices"],
        np.array(u),
        np.array(v),
        np.array([float(Fraction(weight)) for weight in weights]),
    )


def expanded_blocks():
    """Three stochastic blocks after one expansion each: their entries
    sit in ``csr_matmat``'s output order, not sorted."""
    graphs = [two_cliques_graph(), repair_component(), two_cliques_graph(0.3)]
    blocks = []
    for graph in graphs:
        stochastic = prepare_stochastic(graph.to_sparse())
        blocks.append(sparse.csc_matrix(stochastic @ stochastic))
    assert not all(block.has_sorted_indices for block in blocks)
    return blocks


def batch_of(blocks):
    indptr, indices, data = mcl_module._block_diagonal(blocks)
    bounds = np.cumsum([0] + [block.shape[0] for block in blocks])
    return indptr, indices, data, bounds


def block_arrays(indptr, indices, data, lo, hi):
    start, end = indptr[lo], indptr[hi]
    return (
        (indptr[lo:hi + 1] - start).tolist(),
        (indices[start:end] - lo).tolist(),
        data[start:end].tobytes(),
    )


def own_arrays(matrix):
    return (
        matrix.indptr.tolist(), matrix.indices.tolist(), matrix.data.tobytes()
    )


class TestBlockOperators:
    """Each block of the batch gets exactly the arrays — entry order
    included, since later expansions sum in that order — that its own
    matrix gets from scipy's operators."""

    def test_expansion_is_each_blocks_square(self):
        blocks = expanded_blocks()
        indptr, indices, data, bounds = batch_of(blocks)
        squared = mcl_module._square(
            int(bounds[-1]), indptr, indices, data, bounds
        )
        for block, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
            assert block_arrays(*squared, lo, hi) == own_arrays(block @ block)

    def test_repair_rebuilds_only_its_block(self):
        blocks = expanded_blocks()
        indptr, indices, data, bounds = batch_of(blocks)
        middle = blocks[1]
        # Empty column 4 of the middle block, as pruning would.
        start, end = middle.indptr[4], middle.indptr[5]
        pruned = sparse.csc_matrix(
            (
                np.delete(middle.data, np.arange(start, end)),
                np.delete(middle.indices, np.arange(start, end)),
                np.concatenate((
                    middle.indptr[:5],
                    middle.indptr[5:] - (end - start),
                )),
            ),
            shape=middle.shape,
        )
        blocks[1] = pruned
        indptr, indices, data, bounds = batch_of(blocks)
        repaired = mcl_module._repair_zero_columns(
            indptr, indices, data, bounds, np.array([bounds[1] + 4])
        )
        repair = sparse.csc_matrix(
            (np.ones(1), (np.array([4]), np.array([4]))), shape=pruned.shape
        )
        expected = [
            own_arrays(blocks[0]),
            own_arrays(sparse.csc_matrix(pruned + repair)),
            own_arrays(blocks[2]),
        ]
        assert expected[1] != own_arrays(pruned)
        assert [
            block_arrays(*repaired, lo, hi)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ] == expected


class TestZeroColumnRepair:
    def test_repair_is_per_block(self, monkeypatch):
        repairs = []
        original = mcl_module._repair_zero_columns

        def spy(indptr, indices, data, bounds, zero_columns):
            owners = np.searchsorted(bounds, zero_columns, side="right") - 1
            repairs.append(np.diff(bounds)[np.unique(owners)].tolist())
            return original(indptr, indices, data, bounds, zero_columns)

        monkeypatch.setattr(mcl_module, "_repair_zero_columns", spy)
        graph = repair_component()
        assert graph.edge_count == 222
        repaired = prepare_stochastic(graph.to_sparse())
        neighbour = prepare_stochastic(two_cliques_graph().to_sparse())
        runs = [
            (matrix, inflation)
            for inflation in DEFAULT_CANDIDATES
            for matrix in (neighbour, repaired, neighbour)
        ]
        results = assert_matches_oracle(runs)
        # One repair, of the component's own 23-vertex block only (its
        # run at inflation 4.0, the sixth candidate's middle run).
        assert repairs == [[23]]
        at_four = results[3 * 5 + 1]
        assert at_four.iterations == 2 and at_four.converged
        assert at_four.clusters == [[vertex] for vertex in range(23)]

    def test_sweep_reaches_the_repair(self):
        graph = repair_component()
        inflation, outcomes, clusters = sweep_and_cluster(graph)
        stochastic = prepare_stochastic(graph.to_sparse())
        reference = {
            candidate: oracle.mcl_from_stochastic(stochastic, candidate)
            for candidate in DEFAULT_CANDIDATES
        }
        assert clusters == reference[inflation].clusters
        assert [o.cluster_count for o in outcomes] == [
            len(reference[c].clusters) for c in DEFAULT_CANDIDATES
        ]
