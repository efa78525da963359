"""MCL inflation parameter sweep (Section 6.4).

The paper chooses the granularity parameter that minimises the fraction
of intra-cluster edges whose weight falls below the median of all edge
weights — clusters glued together by weak edges indicate the inflation
is too coarse.

Connected components are independent clustering problems (Section 6.3).
Many are small and share their shape, so the sweep clusters each
distinct component matrix once — byte-equal CSR arrays give byte-equal
MCL runs — and fans the distinct matrices out over worker processes:
each is column-normalised **once**
(:func:`repro.aggregation.mcl.prepare_stochastic`) and that matrix is
shared across all candidate inflations. The parent maps every
component's clusters back to its own vertex ids and folds the weak/total
intra-cluster edge counts in component order — so serial and parallel
runs produce identical clusters, sweep outcomes and metrics totals.
When a worker pool cannot start, the sweep degrades to serial with an
:class:`AggregationParallelFallbackWarning` (results identical).
"""

from __future__ import annotations

import multiprocessing
import pickle
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry, current_metrics, metrics_scope
from ..obs.trace import configure_tracing, trace_warning
from .graph import WeightedGraph
from .mcl import mcl_from_stochastic, prepare_stochastic

DEFAULT_CANDIDATES: Tuple[float, ...] = (1.4, 1.8, 2.0, 2.4, 3.0, 4.0)


class AggregationParallelFallbackWarning(RuntimeWarning):
    """Parallel per-component MCL degraded to a serial run."""


@dataclass
class SweepOutcome:
    inflation: float
    weak_edge_fraction: float
    cluster_count: int


# -- per-component clustering ------------------------------------------

#: One component's work order: (original vertex ids, adjacency CSR or
#: None for singletons, local edge u/v/weight arrays).
_ComponentTask = Tuple[
    List[int],
    Optional[object],
    Optional[np.ndarray],
    Optional[np.ndarray],
    Optional[np.ndarray],
]

#: One component's result: per candidate, (clusters in original vertex
#: ids, weak intra-cluster edge count, total intra-cluster edge count).
_ComponentResult = List[Tuple[List[List[int]], int, int]]


def _component_tasks(graph: WeightedGraph) -> List[_ComponentTask]:
    tasks: List[_ComponentTask] = []
    for component in graph.connected_components():
        if len(component) == 1:
            tasks.append((component, None, None, None, None))
            continue
        subgraph, original_ids = graph.subgraph(component)
        local_u, local_v, local_w = subgraph.edge_arrays()
        tasks.append(
            (original_ids, subgraph.to_sparse(), local_u, local_v, local_w)
        )
    return tasks


def _csr_key(adjacency) -> tuple:
    """Everything MCL reads of a component matrix, as one hashable key."""
    return (
        adjacency.format,
        adjacency.shape,
        adjacency.dtype.str,
        adjacency.indptr.dtype.str,
        adjacency.indptr.tobytes(),
        adjacency.indices.tobytes(),
        adjacency.data.tobytes(),
    )


def _local_clusters(
    adjacency, candidates: Tuple[float, ...]
) -> List[List[List[int]]]:
    """One component matrix's clusters, in local vertex ids, at every
    candidate inflation.

    Normalises the matrix once and reuses it across candidates
    (:func:`mcl_from_stochastic` never mutates it).
    """
    stochastic = prepare_stochastic(adjacency)
    return [
        mcl_from_stochastic(stochastic, inflation=inflation).clusters
        for inflation in candidates
    ]


def _fold_component(
    task: _ComponentTask,
    per_candidate: List[List[List[int]]],
    median_weight: Optional[float],
) -> _ComponentResult:
    """Map one component's local clusters back to original vertex ids
    and count its weak and total intra-cluster edges per candidate."""
    original_ids, _, local_u, local_v, local_w = task
    ids = np.asarray(original_ids, dtype=np.int64)
    result: _ComponentResult = []
    for clusters in per_candidate:
        remapped = [
            sorted(int(ids[i]) for i in cluster) for cluster in clusters
        ]
        if median_weight is None:
            result.append((remapped, 0, 0))
            continue
        labels = np.full(len(ids), -1, dtype=np.int64)
        for index, cluster in enumerate(clusters):
            labels[cluster] = index
        intra = labels[local_u] == labels[local_v]
        total = int(np.count_nonzero(intra))
        weak = int(np.count_nonzero(local_w[intra] < median_weight))
        result.append((remapped, weak, total))
    return result


def _pool_initializer() -> None:
    # Workers never write the parent's trace journal: concurrent appends
    # from several processes would interleave.
    configure_tracing(None)


def _component_worker(
    args: Tuple[object, Tuple[float, ...]],
) -> Tuple[List[List[List[int]]], dict]:
    """Pool entry point: cluster one component matrix under a private
    metrics registry and ship the registry home with the result, so the
    parent's merged totals match a serial run exactly."""
    adjacency, candidates = args
    registry = MetricsRegistry()
    with metrics_scope(registry):
        result = _local_clusters(adjacency, candidates)
    return result, registry.to_dict()


def _note_parallel_fallback(error: BaseException, reason: str) -> None:
    registry = current_metrics()
    message = (
        f"parallel aggregation unavailable ({reason}): {error!r}; "
        "continuing serially — results are identical, but the requested "
        "parallel speedup was not applied"
    )
    warnings.warn(AggregationParallelFallbackWarning(message), stacklevel=4)
    registry.count("aggregation.parallel_fallback")
    registry.count(f"aggregation.parallel_fallback.{reason}")
    trace_warning(
        "aggregation.parallel_fallback",
        message,
        reason=reason,
        error=repr(error),
    )


def _cluster_matrices(
    matrices: List[object], candidates: Tuple[float, ...], workers: int
) -> List[List[List[List[int]]]]:
    """:func:`_local_clusters` of every matrix, in parallel when asked
    and possible; results come back in input order."""
    if workers > 1 and len(matrices) > 1:
        try:
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            with context.Pool(
                processes=min(workers, len(matrices)),
                initializer=_pool_initializer,
            ) as pool:
                packed = pool.map(
                    _component_worker,
                    [(matrix, candidates) for matrix in matrices],
                )
        except (OSError, pickle.PicklingError) as error:
            _note_parallel_fallback(error, "pool_failure")
        else:
            registry = current_metrics()
            registry.count("aggregation.parallel")
            results = []
            for result, worker_metrics in packed:
                registry.merge(MetricsRegistry.from_dict(worker_metrics))
                results.append(result)
            return results
    return [_local_clusters(matrix, candidates) for matrix in matrices]


def _run_component_tasks(
    tasks: List[_ComponentTask],
    candidates: Tuple[float, ...],
    median_weight: Optional[float],
    workers: int,
) -> List[_ComponentResult]:
    """Cluster every component at every candidate.

    Components whose matrices are byte-equal get the same MCL runs, so
    each distinct matrix is clustered once (the memo is this call's
    own); the clusters are then mapped back to original ids, and weak
    and total intra-cluster edges counted, per component. Results come
    back in task (= component) order, so downstream concatenation is
    deterministic regardless of worker count.
    """
    slots: Dict[tuple, int] = {}
    matrices: List[object] = []
    slot_of: List[Optional[int]] = []
    for _, adjacency, _, _, _ in tasks:
        if adjacency is None:
            slot_of.append(None)
            continue
        slot = slots.setdefault(_csr_key(adjacency), len(matrices))
        if slot == len(matrices):
            matrices.append(adjacency)
        slot_of.append(slot)
    clustered = _cluster_matrices(matrices, candidates, workers)
    results: List[_ComponentResult] = []
    for task, slot in zip(tasks, slot_of):
        if slot is None:
            results.append([([list(task[0])], 0, 0) for _ in candidates])
        else:
            results.append(
                _fold_component(task, clustered[slot], median_weight)
            )
    return results


# -- public entry points ------------------------------------------------


def run_mcl_on_components(
    graph: WeightedGraph, inflation: float, workers: int = 1
) -> List[List[int]]:
    """Split into connected components and run MCL on each (Section
    6.3's preprocessing), returning clusters in original vertex ids."""
    results = _run_component_tasks(
        _component_tasks(graph), (float(inflation),), None, workers
    )
    clusters: List[List[int]] = []
    for result in results:
        clusters.extend(result[0][0])
    return clusters


def sweep_and_cluster(
    graph: WeightedGraph,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
    workers: int = 1,
) -> Tuple[float, List[SweepOutcome], List[List[int]]]:
    """Sweep candidates and return (best inflation, outcomes, the best
    candidate's clusters).

    Each component is clustered once per candidate; the chosen
    inflation's clusters are returned directly instead of being
    recomputed by a final :func:`run_mcl_on_components` pass (MCL is
    deterministic, so they are the same clusters the re-run would
    produce). Ties prefer the smaller (coarser) inflation, which
    aggregates more.
    """
    weights = graph.edge_arrays()[2]
    if len(weights) == 0:
        return (
            float(candidates[0]),
            [],
            run_mcl_on_components(graph, candidates[0], workers=workers),
        )
    median_weight = float(np.median(weights))
    results = _run_component_tasks(
        _component_tasks(graph),
        tuple(float(c) for c in candidates),
        median_weight,
        workers,
    )
    outcomes: List[SweepOutcome] = []
    clusters_per_candidate: List[List[List[int]]] = []
    for position, inflation in enumerate(candidates):
        clusters: List[List[int]] = []
        weak = 0
        total = 0
        for result in results:
            component_clusters, component_weak, component_total = result[
                position
            ]
            clusters.extend(component_clusters)
            weak += component_weak
            total += component_total
        outcomes.append(
            SweepOutcome(
                inflation=float(inflation),
                weak_edge_fraction=weak / total if total else 0.0,
                cluster_count=len(clusters),
            )
        )
        clusters_per_candidate.append(clusters)
    best = min(
        range(len(outcomes)),
        key=lambda i: (
            outcomes[i].weak_edge_fraction,
            outcomes[i].inflation,
        ),
    )
    return (
        outcomes[best].inflation,
        outcomes,
        clusters_per_candidate[best],
    )

