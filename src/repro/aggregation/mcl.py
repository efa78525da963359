"""The Markov Cluster algorithm (van Dongen 2000), from scratch.

MCL simulates flow on a graph: random walks stay inside natural
clusters. It alternates two operators on a column-stochastic matrix:

* **Expansion** — squaring the matrix (flow spreads along walks).
* **Inflation** — raising entries to a power and renormalising columns
  (strong flows strengthen, weak flows decay). The inflation parameter
  controls granularity: higher values give finer clusters.

With pruning of near-zero entries the iteration converges to a sparse
idempotent matrix whose *attractor* rows define the clustering.

:func:`mcl_runs` iterates many independent runs at once, as the
diagonal blocks of one sparse matrix: the inflation sweep's hundreds of
tiny per-component runs would otherwise spend their time in per-call
overhead, not arithmetic. Every operator acts on each block exactly as
it would on that run's own matrix, so each run's clusters and iteration
count are those of a run on its own; :func:`mcl` is a batch of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import List, NoReturn, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse import csgraph

from ..obs.metrics import current_metrics
from ..obs.trace import span, trace_warning

_INT32_MAX = np.iinfo(np.int32).max

DEFAULT_INFLATION = 2.0
DEFAULT_PRUNE_THRESHOLD = 1e-4
DEFAULT_MAX_ITERATIONS = 128
DEFAULT_CONVERGENCE_TOL = 1e-6


@dataclass(eq=False)
class MclResult:
    """One run's clustering: ``labels[v]`` is vertex ``v``'s cluster,
    clusters numbered by their smallest member (singletons included)."""

    labels: np.ndarray
    iterations: int
    converged: bool

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @cached_property
    def clusters(self) -> List[List[int]]:
        """Clusters as sorted lists of vertex indices, ordered by their
        smallest member."""
        return group_by_label(self.labels)


def group_by_label(labels: np.ndarray) -> List[List[int]]:
    """Vertices grouped by label, in label order, members ascending."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [order[start:end] for start, end in zip([0] + ends[:-1], ends)]


# -- parameter domain ----------------------------------------------------


def _refuse(name: str, value: object, domain: str) -> NoReturn:
    raise ValueError(f"{name} must be {domain}, got {value!r}")


def check_inflation(inflation: float, name: str = "inflation") -> None:
    """Refuse an inflation MCL cannot use: it must be finite and > 1."""
    if not (isinstance(inflation, numbers.Real) and math.isfinite(inflation)
            and inflation > 1.0):
        _refuse(name, inflation, "a finite number greater than 1")


def _check_iteration(
    prune_threshold: float, max_iterations: int, convergence_tol: float
) -> None:
    if (
        isinstance(max_iterations, bool)
        or not isinstance(max_iterations, numbers.Integral)
        or max_iterations < 1
    ):
        _refuse("max_iterations", max_iterations, "an integer >= 1")
    if not (isinstance(convergence_tol, numbers.Real)
            and math.isfinite(convergence_tol) and convergence_tol > 0.0):
        _refuse("convergence_tol", convergence_tol, "a finite number > 0")
    if not (isinstance(prune_threshold, numbers.Real)
            and 0.0 <= prune_threshold < 1.0):
        _refuse("prune_threshold", prune_threshold, "in [0, 1)")


# -- entry points ---------------------------------------------------------


def mcl(
    adjacency: sparse.spmatrix,
    inflation: float = DEFAULT_INFLATION,
    self_loop_weight: float = 1.0,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> MclResult:
    """Run MCL on a (symmetric, non-negative) adjacency matrix."""
    stochastic = prepare_stochastic(adjacency, self_loop_weight)
    return mcl_runs(
        [(stochastic, inflation)],
        prune_threshold=prune_threshold,
        max_iterations=max_iterations,
        convergence_tol=convergence_tol,
    )[0]


def prepare_stochastic(
    adjacency: sparse.spmatrix, self_loop_weight: float = 1.0
) -> sparse.csc_matrix:
    """Turn an adjacency matrix into MCL's column-stochastic start state.

    Split out of :func:`mcl` so the inflation sweep can normalise its
    components once and share the result across all candidate
    inflations (:func:`mcl_runs` never mutates its inputs)."""
    if not (isinstance(self_loop_weight, numbers.Real)
            and math.isfinite(self_loop_weight) and self_loop_weight >= 0.0):
        _refuse("self_loop_weight", self_loop_weight, "a finite number >= 0")
    n = adjacency.shape[0]
    matrix = sparse.csc_matrix(adjacency, dtype=np.float64)
    if (matrix.data < 0).any():
        raise ValueError("adjacency weights must be non-negative")
    # Self loops damp oscillations and give singletons somewhere to sit.
    matrix = matrix + self_loop_weight * sparse.identity(n, format="csc")
    indptr, indices, data = _normalize_columns(
        matrix.indptr, matrix.indices, matrix.data, np.array([0, n])
    )
    return sparse.csc_matrix((data, indices, indptr), shape=(n, n))


def mcl_runs(
    runs: Sequence[Tuple[sparse.csc_matrix, float]],
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> List[MclResult]:
    """Iterate every ``(column-stochastic CSC matrix, inflation)`` run
    at once, as the diagonal blocks of one CSC matrix; one result per
    run, in input order. :func:`prepare_stochastic` makes the matrices.

    Each iteration is one expansion of the whole block-diagonal matrix,
    one ``np.power`` per stretch of consecutive runs sharing an
    inflation (order runs inflation-major to make that one call per
    candidate), one prune and one column normalisation. A run whose
    block converged or hit ``max_iterations`` is frozen: its attractor
    entries are kept for the final read-out and its block is compacted
    out of the matrix. Blocks never exchange entries, so every run's
    arithmetic — including the order its expansions sum in — is that
    of the run on its own. The input matrices are read, never written.
    """
    for matrix, inflation in runs:
        if matrix.format != "csc":
            raise ValueError(
                f"MCL runs take CSC matrices, got {matrix.format!r}"
            )
        check_inflation(inflation)
    _check_iteration(prune_threshold, max_iterations, convergence_tol)
    results: List[Optional[MclResult]] = [None] * len(runs)
    live: List[int] = []
    for index, (matrix, _) in enumerate(runs):
        if matrix.shape[0]:
            live.append(index)
        else:
            results[index] = MclResult(np.empty(0, dtype=np.int64), 0, True)
    if not live:
        return results
    sizes = np.array([runs[r][0].shape[0] for r in live], dtype=np.int64)
    inflations = np.array([float(runs[r][1]) for r in live])
    # Each live run's first vertex in the batch numbering. ``bounds``
    # holds the same for the blocks still iterating, in the numbering of
    # the compacted matrix.
    base = np.concatenate(([0], np.cumsum(sizes)))
    bounds = base.copy()
    indptr, indices, data = _block_diagonal([runs[r][0] for r in live])
    n = int(bounds[-1])
    active = np.arange(len(live))
    iterations = np.zeros(len(live), dtype=np.int64)
    converged = np.zeros(len(live), dtype=bool)
    stretches = _stretches(bounds, inflations)
    frozen: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    nnz_peak = data.size
    with span("mcl.batch", runs=len(live), vertices=n):
        for iteration in range(1, max_iterations + 1):
            previous = (indptr, indices, data)
            indptr, indices, data = _square(n, indptr, indices, data, bounds)
            nnz_peak = max(nnz_peak, data.size)
            for lo, hi, inflation in stretches:
                block = data[indptr[lo]:indptr[hi]]
                np.power(block, inflation, out=block)
            data[data < prune_threshold] = 0.0
            _sparsetools.csr_eliminate_zeros(n, n, indptr, indices, data)
            nnz = int(indptr[-1])
            indices, data = indices[:nnz], data[:nnz]
            indptr, indices, data = _normalize_columns(
                indptr, indices, data, bounds
            )
            settled = _settled(
                n, (indptr, indices, data), previous, bounds, convergence_tol
            )
            finished = settled | (iteration == max_iterations)
            if not finished.any():
                continue
            iterations[active[finished]] = iteration
            converged[active[finished]] = settled[finished]
            indptr, indices, data, bounds, entries = _freeze(
                indptr, indices, data, bounds, finished, base[active]
            )
            frozen.append(entries)
            active = active[~finished]
            if not active.size:
                break
            n = int(bounds[-1])
            stretches = _stretches(bounds, inflations[active])
    labels = _attractor_labels(
        int(base[-1]), *(np.concatenate(part) for part in zip(*frozen))
    )
    registry = current_metrics()
    registry.count("mcl.runs", len(live))
    registry.count("mcl.iterations", int(iterations.sum()))
    # Densest intermediate of the batch: the expansion step's fill-in
    # is MCL's memory high-water mark, invisible from the pruned result.
    registry.gauge("mcl.nnz_peak", nnz_peak)
    for position, index in enumerate(live):
        lo, hi = int(base[position]), int(base[position + 1])
        results[index] = MclResult(
            labels[lo:hi] - labels[lo],
            iterations=int(iterations[position]),
            converged=bool(converged[position]),
        )
        if not converged[position]:
            # Hitting the iteration cap degrades clustering quality
            # without failing anything downstream — exactly the kind of
            # silence the journal exists to break.
            registry.count("mcl.unconverged")
            trace_warning(
                "mcl.unconverged",
                f"MCL hit the {max_iterations}-iteration cap on a "
                f"{hi - lo}-vertex graph without converging",
                vertices=hi - lo,
                inflation=float(runs[index][1]),
            )
    return results


# -- the batch's operators -------------------------------------------------


def _block_diagonal(matrices: Sequence[sparse.csc_matrix]):
    """The CSC arrays of the block-diagonal matrix of ``matrices``, in
    order, each block's entries in its own stored order."""
    sizes = [matrix.shape[0] for matrix in matrices]
    counts = [matrix.nnz for matrix in matrices]
    column_offsets = np.repeat(np.cumsum([0] + sizes[:-1]), counts)
    entry_offsets = np.repeat(np.cumsum([0] + counts[:-1]), sizes)
    indptr = np.concatenate(
        [[0]] + [matrix.indptr[1:] for matrix in matrices]
    )
    indptr[1:] += entry_offsets
    indices = np.concatenate([matrix.indices for matrix in matrices])
    data = np.concatenate([matrix.data for matrix in matrices])
    dtype = np.int32 if max(len(indptr), indptr[-1]) <= _INT32_MAX else (
        np.int64
    )
    return (
        indptr.astype(dtype),
        (indices + column_offsets).astype(dtype),
        data.astype(np.float64, copy=False),
    )


def _square(n: int, indptr, indices, data, bounds):
    """``M @ M`` of block-diagonal CSC arrays, straight on scipy's
    ``csr_matmat``.

    Read as CSR, CSC arrays hold the transpose, and ``(M^T)^2`` in CSR
    is ``M^2`` in CSC: this is the kernel the ``@`` operator lands on
    for a CSC self-product, with identical result arrays, without the
    operator's per-call dispatch. A row of a block-diagonal matrix only
    meets its own block, so each block's product — entries, their
    order and every sum's order — is its own matrix's square.

    The output is sized by a bound instead of scipy's symbolic pass
    (``csr_matmat_maxnnz``, which costs about as much as the product):
    a row gets at most one entry per multiply-add landing in it, and at
    most one per column of its block.
    """
    counts = np.diff(indptr)
    reach = np.concatenate(([0], np.cumsum(counts[indices])))
    sizes = np.diff(bounds)
    bound = int(np.minimum(
        reach[indptr[1:]] - reach[indptr[:-1]], np.repeat(sizes, sizes)
    ).sum())
    if bound > _INT32_MAX and indptr.dtype == np.int32:
        indptr = indptr.astype(np.int64)
        indices = indices.astype(np.int64)
    out_indptr = np.empty(n + 1, dtype=indptr.dtype)
    out_indices = np.empty(bound, dtype=indptr.dtype)
    out_data = np.empty(bound, dtype=np.float64)
    _sparsetools.csr_matmat(
        n, n,
        indptr, indices, data,
        indptr, indices, data,
        out_indptr, out_indices, out_data,
    )
    nnz = int(out_indptr[-1])
    return out_indptr, out_indices[:nnz], out_data[:nnz]


def _stretches(bounds: np.ndarray, inflations: np.ndarray):
    """(first column, end column, inflation) of each maximal stretch of
    consecutive blocks sharing an inflation."""
    starts = np.flatnonzero(np.diff(inflations, prepend=np.nan))
    ends = np.append(starts[1:], len(inflations))
    return list(zip(
        bounds[starts].tolist(), bounds[ends].tolist(),
        inflations[starts].tolist(),
    ))


def _column_sums(indptr, data) -> np.ndarray:
    """Per-column sums of the stored entries: the ``np.add.reduceat``
    over the non-empty columns that ``matrix.sum(axis=0)`` runs, so the
    sums are bitwise identical, without the sparse wrapper."""
    sums = np.zeros(len(indptr) - 1, dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        sums[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return sums


def _normalize_columns(indptr, indices, data, bounds):
    """Column-normalise, scaling ``data`` in place.

    Each stored entry is multiplied by its column's reciprocal sum.
    A column that pruned to zero gets a self loop first; see
    :func:`_repair_zero_columns`."""
    sums = _column_sums(indptr, data)
    zero_columns = np.flatnonzero(sums == 0.0)
    if zero_columns.size:
        indptr, indices, data = _repair_zero_columns(
            indptr, indices, data, bounds, zero_columns
        )
        sums = _column_sums(indptr, data)
    # CSC data is laid out column by column; np.diff(indptr) is each
    # column's stored-entry count.
    data *= np.repeat(1.0 / sums, np.diff(indptr))
    return indptr, indices, data


def _repair_zero_columns(indptr, indices, data, bounds, zero_columns):
    """Give every zero column a self loop, one affected block at a time.

    A run on its own adds the loops as ``csc_matrix(matrix + repair)``;
    scipy's sum rewrites the entry order of *every* column of a
    non-canonical matrix, and later expansions sum in that order. So
    each affected block is cut out, repaired exactly that way as a
    matrix of its own, and spliced back; other blocks keep their order.
    """
    owners = np.searchsorted(bounds, zero_columns, side="right") - 1
    for block in np.unique(owners).tolist():
        lo, hi = int(bounds[block]), int(bounds[block + 1])
        start, end = int(indptr[lo]), int(indptr[hi])
        local = zero_columns[owners == block] - lo
        matrix = sparse.csc_matrix(
            (data[start:end], indices[start:end] - lo,
             indptr[lo:hi + 1] - start),
            shape=(hi - lo, hi - lo),
        )
        repair = sparse.csc_matrix(
            (np.ones(local.size), (local, local)), shape=matrix.shape
        )
        repaired = sparse.csc_matrix(matrix + repair)
        added = repaired.nnz - (end - start)
        indptr = np.concatenate((
            indptr[:lo],
            (repaired.indptr[:-1] + start).astype(indptr.dtype),
            indptr[hi:] + added,
        ))
        indices = np.concatenate((
            indices[:start],
            (repaired.indices + lo).astype(indices.dtype),
            indices[end:],
        ))
        data = np.concatenate((data[:start], repaired.data, data[end:]))
    return indptr, indices, data


def _settled(n: int, current, previous, bounds, tol: float) -> np.ndarray:
    """Per block: did no entry move by ``tol`` or more this iteration?

    One sparse difference of the two iterates, reduced to each block's
    largest absolute change over its column range. That is the maximum
    over the same per-cell float64 subtractions a run's own dense or
    sparse difference computes (absent entries are exact zeros)."""
    indptr, indices, data = current
    prev_indptr, prev_indices, prev_data = previous
    size = data.size + prev_data.size
    diff_indptr = np.empty(n + 1, dtype=indptr.dtype)
    diff_indices = np.empty(size, dtype=indptr.dtype)
    diff_data = np.empty(size, dtype=np.float64)
    _sparsetools.csr_minus_csr(
        n, n,
        indptr, indices, data,
        prev_indptr.astype(indptr.dtype, copy=False),
        prev_indices.astype(indptr.dtype, copy=False),
        prev_data,
        diff_indptr, diff_indices, diff_data,
    )
    change = diff_data[:int(diff_indptr[-1])]
    np.abs(change, out=change)
    starts = diff_indptr[bounds]
    moved = np.diff(starts) > 0
    largest = np.zeros(len(bounds) - 1)
    if moved.any():
        largest[moved] = np.maximum.reduceat(change, starts[:-1][moved])
    return ~moved | (largest < tol)


def _freeze(indptr, indices, data, bounds, finished, first_vertex):
    """Compact the ``finished`` blocks out of the matrix.

    Returns the compacted arrays and block bounds, plus the finished
    blocks' entries as ``(rows, columns, values)`` in the batch
    numbering, where block ``b`` starts at ``first_vertex[b]``."""
    sizes = np.diff(bounds)
    counts = np.diff(indptr)
    kept_columns = np.repeat(~finished, sizes)
    kept_entries = np.repeat(kept_columns, counts)
    gone_entries = ~kept_entries
    # Each column's offset from this matrix's numbering to the batch's.
    offset = np.repeat(first_vertex - bounds[:-1], sizes)
    gone = np.flatnonzero(~kept_columns)
    gone_shift = np.repeat(offset[gone], counts[gone])
    entries = (
        indices[gone_entries] + gone_shift,
        np.repeat(gone, counts[gone]) + gone_shift,
        data[gone_entries],
    )
    new_bounds = np.concatenate(([0], np.cumsum(sizes[~finished])))
    shift = np.repeat(
        bounds[:-1][~finished] - new_bounds[:-1], sizes[~finished]
    )
    kept_counts = counts[kept_columns]
    indptr = np.concatenate(([0], np.cumsum(kept_counts))).astype(
        indptr.dtype
    )
    indices = indices[kept_entries] - np.repeat(shift, kept_counts).astype(
        indices.dtype
    )
    return indptr, indices, data[kept_entries], new_bounds, entries


def _attractor_labels(n: int, rows, columns, values) -> np.ndarray:
    """Cluster of every vertex of the batch, from the final entries of
    all its runs: the connected components of the entries in attractor
    rows, numbered by smallest member.

    Attractors are vertices with positive diagonal mass; an attractor's
    cluster is the set of vertices whose column sends flow to it.
    Overlapping attractor systems merge, and a vertex attracted nowhere
    is a singleton. Each run occupies its own vertex range, so
    components never cross runs and a run's clusters number
    consecutively from the label of its first vertex."""
    on_diagonal = rows == columns
    diagonal = np.zeros(n, dtype=np.float64)
    diagonal[columns[on_diagonal]] = values[on_diagonal]
    keep = (diagonal > 0.0)[rows]
    graph = sparse.csr_matrix(
        (np.ones(int(keep.sum())), (rows[keep], columns[keep])), shape=(n, n)
    )
    count, component = csgraph.connected_components(graph, directed=False)
    grouped = np.argsort(component, kind="stable")
    sizes = np.bincount(component, minlength=count)
    smallest = grouped[np.cumsum(sizes) - sizes]
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(smallest)] = np.arange(count)
    return rank[component]
