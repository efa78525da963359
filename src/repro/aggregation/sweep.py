"""MCL inflation parameter sweep (Section 6.4).

The paper chooses the granularity parameter that minimises the fraction
of intra-cluster edges whose weight falls below the median of all edge
weights — clusters glued together by weak edges indicate the inflation
is too coarse.

Connected components are independent clustering problems (Section 6.3).
The sweep permutes the graph's CSR matrix once into component order,
which makes it block-diagonal with one block per component, and
column-normalises it once
(:func:`repro.aggregation.mcl.prepare_stochastic`), so every candidate
inflation starts from the same blocks. Many components are small and
share their shape: byte-equal adjacency blocks give byte-equal MCL
runs, so each distinct block is clustered once per candidate. All those
runs iterate together in one :func:`repro.aggregation.mcl.mcl_runs`
call. Each component's clusters are then mapped back to original
vertex ids, and the weak and total intra-cluster edges are counted over
the whole graph per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from .graph import WeightedGraph
from .mcl import check_inflation, group_by_label, mcl_runs, prepare_stochastic

DEFAULT_CANDIDATES: Tuple[float, ...] = (1.4, 1.8, 2.0, 2.4, 3.0, 4.0)


@dataclass
class SweepOutcome:
    inflation: float
    weak_edge_fraction: float
    cluster_count: int


def _permuted(
    matrix: sparse.csr_matrix, order: np.ndarray
) -> sparse.csr_matrix:
    """``matrix`` with rows and columns reordered to ``order``.

    In component order a component keeps its members' relative order
    and has no edge outside itself, so its rows of the result are
    exactly the CSR matrix of its induced subgraph, column indices
    shifted by its first position and still sorted.
    """
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(len(order))
    indptr = matrix.indptr.astype(np.int64)
    degree = np.diff(indptr)[order]
    new_indptr = np.concatenate(([0], np.cumsum(degree)))
    gather = np.repeat(indptr[order] - new_indptr[:-1], degree) + np.arange(
        new_indptr[-1]
    )
    return sparse.csr_matrix(
        (matrix.data[gather], position[matrix.indices[gather]], new_indptr),
        shape=matrix.shape,
    )


def _cluster_labels(
    graph: WeightedGraph, candidates: Tuple[float, ...]
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster every component at every candidate.

    Returns ``(labels, counts)``: ``labels[c, v]`` is vertex ``v``'s
    cluster at candidate ``c``, clusters numbered component by
    component (in component order) and, inside a component, by smallest
    member; ``counts[c]`` is that candidate's cluster count.
    """
    n = graph.vertex_count
    if n == 0:
        empty = np.zeros((len(candidates), 0), dtype=np.int64)
        return empty, np.zeros(len(candidates), dtype=np.int64)
    order, sizes = graph.component_order()
    permuted = _permuted(graph.to_sparse(), order)
    starts = np.concatenate(([0], np.cumsum(sizes))).tolist()
    stochastic = prepare_stochastic(permuted)
    adjacency = (permuted.indptr, permuted.indices, permuted.data)
    # Each multi-vertex component's distinct-block slot; byte-equal
    # adjacency blocks share one (the memo is this call's own).
    slots: Dict[tuple, int] = {}
    blocks: List[sparse.csc_matrix] = []
    slot_of: List[int] = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        if hi - lo == 1:
            slot_of.append(-1)
            continue
        key = _block_key(adjacency, lo, hi)
        slot = slots.setdefault(key, len(blocks))
        if slot == len(blocks):
            blocks.append(_block(stochastic, lo, hi))
        slot_of.append(slot)
    results = mcl_runs(
        [(block, inflation) for inflation in candidates for block in blocks]
    )
    # Slot -1 (a singleton component) picks the entry appended last.
    slot_array = np.array(slot_of)
    singleton = np.zeros(1, dtype=np.int64)
    labels = np.empty((len(candidates), n), dtype=np.int64)
    counts = np.empty(len(candidates), dtype=np.int64)
    for position in range(len(candidates)):
        runs = results[position * len(blocks):(position + 1) * len(blocks)]
        labels_by_slot = [run.labels for run in runs] + [singleton]
        per_component = np.array(
            [run.cluster_count for run in runs] + [1], dtype=np.int64
        )[slot_array]
        offsets = np.cumsum(per_component) - per_component
        local = np.concatenate([labels_by_slot[slot] for slot in slot_of])
        labels[position, order] = local + np.repeat(offsets, sizes)
        counts[position] = per_component.sum()
    return labels, counts


def _block_key(adjacency, lo: int, hi: int) -> tuple:
    """The arrays of one component's adjacency block: components with
    equal keys have byte-equal MCL runs."""
    indptr, indices, data = adjacency
    start, end = int(indptr[lo]), int(indptr[hi])
    return (
        hi - lo,
        (indptr[lo:hi + 1] - start).tobytes(),
        (indices[start:end] - lo).tobytes(),
        data[start:end].tobytes(),
    )


def _block(matrix: sparse.csc_matrix, lo: int, hi: int) -> sparse.csc_matrix:
    """Diagonal block ``[lo, hi)`` of a block-diagonal CSC matrix,
    built without the constructor's ``check_format`` (a sweep cuts
    hundreds of blocks)."""
    start, end = int(matrix.indptr[lo]), int(matrix.indptr[hi])
    block = sparse.csc_matrix.__new__(sparse.csc_matrix)
    block._shape = (hi - lo, hi - lo)
    block.indptr = matrix.indptr[lo:hi + 1] - start
    block.indices = matrix.indices[start:end] - lo
    block.data = matrix.data[start:end]
    return block


# -- public entry points ------------------------------------------------


def run_mcl_on_components(
    graph: WeightedGraph, inflation: float
) -> List[List[int]]:
    """Split into connected components and run MCL on each (Section
    6.3's preprocessing), returning clusters in original vertex ids."""
    check_inflation(inflation)
    labels, _ = _cluster_labels(graph, (float(inflation),))
    return group_by_label(labels[0])


def sweep_and_cluster(
    graph: WeightedGraph,
    candidates: Sequence[float] = DEFAULT_CANDIDATES,
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
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError(
            f"candidates must name at least one inflation, got {candidates!r}"
        )
    for position, candidate in enumerate(candidates):
        check_inflation(candidate, name=f"candidates[{position}]")
    candidates = tuple(float(c) for c in candidates)
    u, v, weights = graph.edge_arrays()
    if len(weights) == 0:
        # Edgeless: every vertex is its own cluster at any inflation.
        singletons = [[vertex] for vertex in range(graph.vertex_count)]
        return candidates[0], [], singletons
    labels, counts = _cluster_labels(graph, candidates)
    weak_edge = weights < float(np.median(weights))
    outcomes: List[SweepOutcome] = []
    for position, inflation in enumerate(candidates):
        intra = labels[position, u] == labels[position, v]
        total = int(np.count_nonzero(intra))
        weak = int(np.count_nonzero(weak_edge & intra))
        outcomes.append(
            SweepOutcome(
                inflation=inflation,
                weak_edge_fraction=weak / total if total else 0.0,
                cluster_count=int(counts[position]),
            )
        )
    best = min(
        range(len(outcomes)),
        key=lambda i: (
            outcomes[i].weak_edge_fraction,
            outcomes[i].inflation,
        ),
    )
    return outcomes[best].inflation, outcomes, group_by_label(labels[best])
