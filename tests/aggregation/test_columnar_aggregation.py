"""Golden parity suite: the production aggregation front end against
``tests/oracle.py``.

Production groups identical last-hop sets with a dict and builds the
similarity graph as a sparse incidence Gram product. Its contract is
bit-identical outputs against the oracle's dict inverted-index builder
— same blocks, same similarity graph, same sweep choices, same
clusters, same reprobe inputs and validations. These tests enforce
that on synthetic inputs, on a real tiny-profile campaign, and on the
edge cases (empty input, all-empty sets, singletons, all-identical
sets, disjoint groups)."""

import random

import numpy as np
import pytest

from repro.aggregation import (
    AggregatedBlock,
    WeightedGraph,
    aggregate_identical,
    build_similarity_graph,
    mcl,
    mcl_runs,
    pairwise_similarities,
    prepare_stochastic,
    run_aggregation,
    run_mcl_on_components,
    similarity,
    sweep_and_cluster,
)
from repro.aggregation import sweep as sweep_mod
from repro.aggregation.sweep import DEFAULT_CANDIDATES
from repro.net import Prefix
from repro.obs import metrics_scope
from tests import oracle


def s24(n: int) -> Prefix:
    return Prefix(0x0A000000 + n * 256, 24)


def synthetic_sets(seed: int, count: int = 400, routers: int = 50, groups: int = 1):
    """Random last-hop sets with plenty of identical-set and
    partial-overlap structure (some empty sets included).

    With ``groups`` > 1 the router space is partitioned, so the
    similarity graph splits into at least that many connected
    components."""
    rng = random.Random(seed)
    sets = {}
    for n in range(count):
        k = rng.randint(0, 5)
        base = (n % groups) * routers
        sets[s24(n)] = (
            frozenset(rng.sample(range(base + 1, base + routers), k))
            if k
            else frozenset()
        )
    return sets


EDGE_CASES = {
    "empty_mapping": {},
    "all_empty_sets": {s24(n): frozenset() for n in range(5)},
    "singleton": {s24(0): frozenset({7})},
    "all_identical": {s24(n): frozenset({1, 2, 3}) for n in range(6)},
    "disjoint_groups": {
        s24(n): frozenset({n % 3 * 10, n % 3 * 10 + 1}) for n in range(9)
    },
}


def grouped_by_definition(sets):
    """Section 5 read literally: two /24s share a block exactly when
    their non-empty sets are equal; blocks are numbered by smallest
    member, members ascending. Pairwise equality, no hashing."""
    groups = []
    for slash24 in sorted(p for p, lasthops in sets.items() if lasthops):
        for group in groups:
            if sets[group[0]] == sets[slash24]:
                group.append(slash24)
                break
        else:
            groups.append([slash24])
    return [
        AggregatedBlock(
            block_id=index, lasthop_set=sets[group[0]], slash24s=tuple(group)
        )
        for index, group in enumerate(groups)
    ]


def assert_same_graph(production, reference):
    """Equal vertex counts and bit-for-bit equal edge arrays."""
    assert production.vertex_count == reference.vertex_count
    for got, want in zip(production.edge_arrays(), reference.edge_arrays()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def split_mcl_batches(monkeypatch, batches: int) -> None:
    """Make the sweep iterate its MCL runs as ``batches`` separate
    block-diagonal batches, runs dealt round-robin (so each batch mixes
    candidates and components), results stitched back in input order.
    Blocks never exchange entries, so no split may change a result."""
    whole = sweep_mod.mcl_runs

    def dealt(runs, **kwargs):
        results = [None] * len(runs)
        for first in range(batches):
            positions = range(first, len(runs), batches)
            batch = whole([runs[p] for p in positions], **kwargs)
            for position, result in zip(positions, batch):
                results[position] = result
        return results

    monkeypatch.setattr(sweep_mod, "mcl_runs", dealt)


def outputs(outcome):
    return (
        outcome.identical_blocks,
        outcome.inflation,
        outcome.sweep_outcomes,
        outcome.clusters,
        outcome.rule_matches,
        outcome.final_blocks,
    )


class TestIdenticalGrouping:
    def test_synthetic_equivalence(self):
        sets = synthetic_sets(3)
        assert aggregate_identical(sets) == grouped_by_definition(sets)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        sets = EDGE_CASES[name]
        assert aggregate_identical(sets) == grouped_by_definition(sets)


class TestSimilarityGraph:
    def test_graph_equivalence(self):
        blocks = aggregate_identical(synthetic_sets(6))
        graph = build_similarity_graph(blocks)
        assert graph.edge_count > 0
        assert_same_graph(graph, oracle.build_similarity_graph(blocks))

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        blocks = aggregate_identical(EDGE_CASES[name])
        assert_same_graph(
            build_similarity_graph(blocks),
            oracle.build_similarity_graph(blocks),
        )

    def test_pairwise_similarities_matches_scalar(self):
        sets = synthetic_sets(7, count=40)
        blocks = aggregate_identical(sets)
        expected = [
            similarity(a.lasthop_set, b.lasthop_set)
            for i, a in enumerate(blocks)
            for b in blocks[i + 1:]
        ]
        assert pairwise_similarities(blocks) == expected

    def test_pairwise_similarities_empty_sets(self):
        blocks = aggregate_identical({s24(0): frozenset({1})})
        block = blocks[0]
        empty = type(block)(
            block_id=1, lasthop_set=frozenset(), slash24s=(s24(1),)
        )
        assert pairwise_similarities([block, empty]) == [0.0]
        assert pairwise_similarities([empty, empty]) == [0.0]
        assert pairwise_similarities([block]) == []


class TestGraphBackend:
    def test_to_sparse_is_shared_and_symmetric(self):
        graph = oracle.graph_from_edges(3, [(0, 1, 0.5), (1, 2, 0.75)])
        matrix = graph.to_sparse()
        assert matrix is graph.to_sparse()  # no per-call copy
        dense = matrix.toarray()
        assert (dense == dense.T).all()
        assert dense[0, 1] == 0.5 and dense[1, 2] == 0.75

    def test_connected_components_ordering(self):
        # Historical DFS contract: components ordered by smallest
        # member, members ascending, singletons included.
        graph = oracle.graph_from_edges(
            7, [(5, 2, 1.0), (6, 0, 1.0), (4, 1, 1.0)]
        )
        assert graph.connected_components() == [
            [0, 6], [1, 4], [2, 5], [3],
        ]

    def test_from_edge_arrays_validation(self):
        u = np.array([0]); v = np.array([0]); w = np.array([1.0])
        with pytest.raises(ValueError):
            WeightedGraph.from_edge_arrays(2, u, v, w)
        with pytest.raises(ValueError):
            WeightedGraph.from_edge_arrays(
                2, np.array([0]), np.array([1]), np.array([0.0])
            )
        with pytest.raises(ValueError):
            WeightedGraph.from_edge_arrays(
                2, np.array([0]), np.array([5]), np.array([1.0])
            )
        with pytest.raises(ValueError):
            WeightedGraph.from_edge_arrays(
                -1, np.array([]), np.array([]), np.array([])
            )

    def test_from_edge_arrays_refuses_a_pair_twice(self):
        """An immutable graph has no "last add wins": a pair given
        twice, in either order, is refused instead of summed."""
        for u, v in (([0, 0], [1, 1]), ([0, 1], [1, 0])):
            with pytest.raises(ValueError, match="more than once"):
                WeightedGraph.from_edge_arrays(
                    3, np.array(u), np.array(v), np.array([0.5, 0.25])
                )
        with pytest.raises(ValueError, match="more than once"):
            oracle.graph_from_edges(3, [(0, 1, 0.5), (1, 0, 0.25)])

    def test_subgraph_matches_weights(self):
        sets = synthetic_sets(8, count=120)
        graph = build_similarity_graph(aggregate_identical(sets))
        component = graph.connected_components()[0]
        subgraph, original = oracle.subgraph(graph, component)
        assert original == component
        inner, outer = subgraph.to_sparse(), graph.to_sparse()
        for i, u in enumerate(original):
            for j, v in enumerate(original):
                if i < j:
                    assert inner[i, j] == outer[u, v]


class TestWeakFraction:
    def test_matches_loop_reference(self):
        sets = synthetic_sets(9)
        graph = build_similarity_graph(aggregate_identical(sets))
        clusters = run_mcl_on_components(graph, 2.0)
        weights = graph.edge_arrays()[2]
        median = float(np.median(weights))
        # The pre-vectorisation dict-based computation, verbatim.
        cluster_of = {}
        for index, cluster in enumerate(clusters):
            for vertex in cluster:
                cluster_of[vertex] = index
        weak = total = 0
        for u, v, weight in zip(*(a.tolist() for a in graph.edge_arrays())):
            if cluster_of.get(u) == cluster_of.get(v):
                total += 1
                if weight < median:
                    weak += 1
        expected = weak / total if total else 0.0
        assert (
            oracle.weak_intra_cluster_fraction(graph, clusters, median)
            == expected
        )

    def test_unclustered_vertices_count_as_intra(self):
        graph = oracle.graph_from_edges(4, [(0, 1, 0.2), (2, 3, 0.9)])
        # Only vertices 2, 3 are clustered; 0-1 joins as unclustered.
        fraction = oracle.weak_intra_cluster_fraction(graph, [[2, 3]], 0.5)
        assert fraction == 0.5


#: Weighted edge lists of four component shapes, in local vertex ids;
#: the second and third share their edges and differ in weights only.
SHAPES = (
    ((0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.5), (2, 3, 0.2), (3, 4, 0.8),
     (4, 5, 0.8), (3, 5, 0.7)),
    ((0, 1, 0.4), (1, 2, 0.6), (2, 3, 0.3), (0, 3, 0.1)),
    ((0, 1, 0.1), (1, 2, 0.6), (2, 3, 0.3), (0, 3, 0.4)),
    ((0, 1, 1.0), (0, 2, 0.25), (1, 2, 0.5), (2, 3, 0.75), (3, 4, 0.25)),
)


def repeated_component_graph(copies=(3, 2, 2, 1), isolated=2):
    """A graph whose components are copies of :data:`SHAPES`.

    The copies of one shape interleave their vertex ids (copy ``c``
    puts local vertex ``j`` at ``start + j * count + c``), which keeps
    each copy's local order, so their induced CSRs are byte-equal while
    every copy maps back to different original ids."""
    size = sum(
        (1 + max(max(u, v) for u, v, _ in shape)) * count
        for shape, count in zip(SHAPES, copies)
    )
    edges = []
    start = isolated
    for shape, count in zip(SHAPES, copies):
        width = 1 + max(max(u, v) for u, v, _ in shape)
        for copy in range(count):
            for u, v, weight in shape:
                edges.append((
                    start + u * count + copy, start + v * count + copy,
                    weight,
                ))
        start += width * count
    return oracle.graph_from_edges(size + isolated, edges)


class TestSweepAndCluster:
    def test_memo_matches_memo_free(self, monkeypatch):
        graph = repeated_component_graph()
        candidates = len(DEFAULT_CANDIDATES)
        with metrics_scope() as registry:
            memoised = sweep_and_cluster(graph)
        # One real MCL run per distinct component matrix and candidate.
        assert registry.counter_value("mcl.runs") == len(SHAPES) * candidates
        with monkeypatch.context() as patch:
            patch.setattr(
                sweep_mod, "_block_key", lambda adjacency, lo, hi: object()
            )
            with metrics_scope() as registry:
                memo_free = sweep_and_cluster(graph)
        # Every multi-vertex component (3 + 2 + 2 + 1 copies) runs its own.
        assert registry.counter_value("mcl.runs") == 8 * candidates
        assert memoised == memo_free
        _, outcomes, clusters = memoised
        assert any(o.weak_edge_fraction > 0 for o in outcomes)
        assert sorted(v for cluster in clusters for v in cluster) == list(
            range(graph.vertex_count)
        )

    def test_matches_serial_primitives(self):
        sets = synthetic_sets(10)
        graph = build_similarity_graph(aggregate_identical(sets))
        inflation, outcomes, clusters = sweep_and_cluster(graph)
        for outcome in outcomes:
            assert outcome.cluster_count == len(
                run_mcl_on_components(graph, outcome.inflation)
            )
        assert clusters == run_mcl_on_components(graph, inflation)

    @pytest.mark.parametrize("batches", [1, 2])
    def test_weak_fold_matches_oracle(self, batches, monkeypatch):
        # The sweep sums weak/total intra-cluster edge counts per
        # component; the fraction must equal the whole-graph definition.
        sets = synthetic_sets(16, groups=4)
        graph = build_similarity_graph(aggregate_identical(sets))
        assert len(graph.connected_components()) > 1
        median = float(np.median(graph.edge_arrays()[2]))
        with monkeypatch.context() as patch:
            split_mcl_batches(patch, batches)
            _, outcomes, _ = sweep_and_cluster(graph)
        assert [o.inflation for o in outcomes] == list(DEFAULT_CANDIDATES)
        assert any(o.weak_edge_fraction > 0 for o in outcomes)
        for outcome in outcomes:
            clusters = run_mcl_on_components(graph, outcome.inflation)
            assert outcome.weak_edge_fraction == (
                oracle.weak_intra_cluster_fraction(graph, clusters, median)
            )

    def test_shared_stochastic_matches_independent_mcl(self):
        sets = synthetic_sets(13, count=80)
        graph = build_similarity_graph(aggregate_identical(sets))
        component = max(graph.connected_components(), key=len)
        subgraph, _ = oracle.subgraph(graph, component)
        adjacency = subgraph.to_sparse()
        stochastic = prepare_stochastic(adjacency)
        before = stochastic.toarray().copy()
        inflations = (1.4, 2.0, 4.0)
        shared = mcl_runs([(stochastic, c) for c in inflations])
        for inflation, run in zip(inflations, shared):
            independent = mcl(adjacency, inflation=inflation)
            assert run.clusters == independent.clusters
            assert run.iterations == independent.iterations
        # The shared matrix is never mutated by a run.
        assert (stochastic.toarray() == before).all()


def oracle_aggregation(sets, **kwargs):
    """``run_aggregation`` with the oracle's similarity builder."""
    with pytest.MonkeyPatch.context() as patch:
        oracle.install(patch, oracle.SIMILARITY)
        return run_aggregation(sets, **kwargs)


class TestEngineGate:
    """``run_aggregation`` with and without the oracle's similarity
    builder patched in: identical outputs and bit-identical graphs."""

    @pytest.mark.parametrize("batches", [1, 2])
    def test_engines_identical_synthetic(self, batches):
        sets = synthetic_sets(14, groups=3)
        with pytest.MonkeyPatch.context() as patch:
            split_mcl_batches(patch, batches)
            production = run_aggregation(sets, validate=False)
        reference = oracle_aggregation(sets, validate=False)
        assert outputs(production) == outputs(reference)
        assert_same_graph(production.graph, reference.graph)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_engines_identical_edge_cases(self, name):
        sets = EDGE_CASES[name]
        production = run_aggregation(sets, validate=False)
        reference = oracle_aggregation(sets, validate=False)
        assert outputs(production) == outputs(reference)
        assert_same_graph(production.graph, reference.graph)

    def test_wide_keys_and_routers_take_one_path(self):
        # /16 keys and router ids past uint32 aggregate like any other.
        wide = 1 << 33
        sets = {
            Prefix(0, 16): frozenset({wide, wide + 1}),
            Prefix(1 << 16, 16): frozenset({wide, wide + 1}),
            Prefix(2 << 16, 16): frozenset({wide, 5}),
        }
        production = run_aggregation(sets, validate=False)
        assert [block.slash24s for block in production.identical_blocks] == [
            (Prefix(0, 16), Prefix(1 << 16, 16)),
            (Prefix(2 << 16, 16),),
        ]
        assert production.graph.to_sparse()[0, 1] == 0.5
        reference = oracle_aggregation(sets, validate=False)
        assert outputs(production) == outputs(reference)
        assert_same_graph(production.graph, reference.graph)


class TestFullPipelineGolden:
    """Production vs the oracle's similarity builder on a real
    tiny-profile campaign, with validation reprobing: identical
    everything, including the reprobe inputs and probe accounting."""

    @pytest.fixture(scope="class")
    def campaign_inputs(self):
        from repro.core import TerminationPolicy, run_campaign
        from repro.probing import scan

        def build():
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
            return internet, snapshot, campaign.lasthop_sets()

        return build

    @pytest.mark.parametrize("batches", [1, 2])
    def test_validated_runs_identical(self, campaign_inputs, batches):
        def aggregate(engine):
            # Fresh deterministic internet per run: validation reprobes
            # mutate simulator state, so each run gets an identical
            # untouched copy.
            internet, snapshot, lasthop_sets = campaign_inputs()
            return engine(
                lasthop_sets,
                internet=internet,
                snapshot=snapshot,
                max_pairs_per_cluster=16,
                seed=4,
            )

        with pytest.MonkeyPatch.context() as patch:
            split_mcl_batches(patch, batches)
            production = aggregate(run_aggregation)
        reference = aggregate(oracle_aggregation)
        assert production.validations
        assert outputs(production) == outputs(reference)
        assert production.validations == reference.validations
        assert production.reprobe_records == reference.reprobe_records
        assert (
            production.reprobe_probes_used == reference.reprobe_probes_used
        )

    def test_preload_replay_identical(self, campaign_inputs):
        internet, snapshot, lasthop_sets = campaign_inputs()
        live = run_aggregation(
            lasthop_sets,
            internet=internet,
            snapshot=snapshot,
            max_pairs_per_cluster=16,
            seed=4,
        )
        internet2, snapshot2, _ = campaign_inputs()
        replayed = run_aggregation(
            lasthop_sets,
            internet=internet2,
            snapshot=snapshot2,
            max_pairs_per_cluster=16,
            seed=4,
            reprobe_preload=live.reprobe_records,
        )
        assert outputs(live) == outputs(replayed)
        assert live.reprobe_probes_used == replayed.reprobe_probes_used
