"""The Markov Cluster algorithm (van Dongen 2000), from scratch.

MCL simulates flow on a graph: random walks stay inside natural
clusters. It alternates two operators on a column-stochastic matrix:

* **Expansion** — squaring the matrix (flow spreads along walks).
* **Inflation** — raising entries to a power and renormalising columns
  (strong flows strengthen, weak flows decay). The inflation parameter
  controls granularity: higher values give finer clusters.

With pruning of near-zero entries the iteration converges to a sparse
idempotent matrix whose *attractor* rows define the clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy import sparse

from ..obs.metrics import current_metrics
from ..obs.trace import span, trace_warning

try:  # pragma: no cover - depends on the scipy build
    from scipy.sparse import _sparsetools as _spkernels

    _CSR_MATMAT = _spkernels.csr_matmat
    _CSR_MATMAT_MAXNNZ = _spkernels.csr_matmat_maxnnz
except (ImportError, AttributeError):  # pragma: no cover
    _CSR_MATMAT = None
    _CSR_MATMAT_MAXNNZ = None

_INT32_MAX = np.iinfo(np.int32).max

DEFAULT_INFLATION = 2.0
DEFAULT_PRUNE_THRESHOLD = 1e-4
DEFAULT_MAX_ITERATIONS = 128
DEFAULT_CONVERGENCE_TOL = 1e-6


@dataclass
class MclResult:
    """Clusters as lists of vertex indices (singletons included)."""

    clusters: List[List[int]]
    iterations: int
    converged: bool

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


def mcl(
    adjacency: sparse.spmatrix,
    inflation: float = DEFAULT_INFLATION,
    self_loop_weight: float = 1.0,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> MclResult:
    """Run MCL on a (symmetric, non-negative) adjacency matrix."""
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1.0")
    if adjacency.shape[0] == 0:
        return MclResult(clusters=[], iterations=0, converged=True)
    return mcl_from_stochastic(
        prepare_stochastic(adjacency, self_loop_weight),
        inflation,
        prune_threshold=prune_threshold,
        max_iterations=max_iterations,
        convergence_tol=convergence_tol,
    )


def prepare_stochastic(
    adjacency: sparse.spmatrix, self_loop_weight: float = 1.0
) -> sparse.csc_matrix:
    """Turn an adjacency matrix into MCL's column-stochastic start state.

    Split out of :func:`mcl` so the inflation sweep can normalise a
    component once and share the result across all candidate inflations
    (:func:`mcl_from_stochastic` never mutates its input)."""
    n = adjacency.shape[0]
    matrix = sparse.csc_matrix(adjacency, dtype=np.float64)
    if (matrix.data < 0).any():
        raise ValueError("adjacency weights must be non-negative")
    # Self loops damp oscillations and give singletons somewhere to sit.
    matrix = matrix + self_loop_weight * sparse.identity(n, format="csc")
    return _normalize_columns(matrix)


def mcl_from_stochastic(
    stochastic: sparse.csc_matrix,
    inflation: float = DEFAULT_INFLATION,
    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> MclResult:
    """Iterate MCL from a prepared column-stochastic matrix.

    The input matrix is read, never written — expansion allocates a new
    matrix each iteration and the in-place operators only touch that —
    so one prepared matrix serves any number of inflation candidates.
    """
    if inflation <= 1.0:
        raise ValueError("inflation must exceed 1.0")
    n = stochastic.shape[0]
    if n == 0:
        return MclResult(clusters=[], iterations=0, converged=True)
    matrix = stochastic

    converged = False
    iterations = 0
    nnz_peak = matrix.nnz
    with span("mcl.run", vertices=n, inflation=inflation):
        for iterations in range(1, max_iterations + 1):
            # Expansion allocates the iteration's one new matrix; the
            # previous iterate survives as-is for the convergence check
            # (no defensive copy needed), and inflation, pruning and
            # normalisation below all rewrite the new matrix's ``data``
            # in place. An earlier version copied the CSC arrays at
            # every step, which tripled the allocation traffic of the
            # whole clustering phase.
            previous = matrix
            matrix = _square(matrix)  # expansion
            if matrix.nnz > nnz_peak:
                nnz_peak = matrix.nnz
            _inflate_inplace(matrix, inflation)
            _prune_inplace(matrix, prune_threshold)
            matrix = _normalize_columns_inplace(matrix)
            if _has_converged(matrix, previous, convergence_tol):
                converged = True
                break
    registry = current_metrics()
    registry.count("mcl.runs")
    registry.count("mcl.iterations", iterations)
    # Densest intermediate of the run: the expansion step's fill-in is
    # MCL's memory high-water mark, invisible from the (pruned) result.
    registry.gauge("mcl.nnz_peak", nnz_peak)
    if not converged:
        # Hitting the iteration cap degrades clustering quality without
        # failing anything downstream — exactly the kind of silence the
        # journal exists to break.
        registry.count("mcl.unconverged")
        trace_warning(
            "mcl.unconverged",
            f"MCL hit the {max_iterations}-iteration cap on a "
            f"{n}-vertex graph without converging",
            vertices=n,
            inflation=inflation,
        )
    clusters = _interpret(matrix, n)
    return MclResult(clusters=clusters, iterations=iterations, converged=converged)


def _square(matrix: sparse.csc_matrix) -> sparse.csc_matrix:
    """``matrix @ matrix`` without the operator's dispatch overhead.

    The sweep multiplies thousands of tiny per-component matrices, where
    scipy's Python-level dispatch (index-dtype rescans, ``check_format``
    on the result) costs far more than the arithmetic. This calls the
    same ``csr_matmat`` kernel the operator lands on — for a CSC
    self-product the operand swap is the identity — so the result
    arrays are bitwise identical; sorted/canonical flags are computed
    lazily exactly as on an operator-built result. Falls back to the
    operator for non-int32 indices or kernel-less scipy builds.
    """
    if _CSR_MATMAT is None:
        return matrix @ matrix
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    if indptr.dtype != np.int32 or indices.dtype != np.int32:
        return matrix @ matrix
    n = matrix.shape[0]
    nnz = _CSR_MATMAT_MAXNNZ(n, n, indptr, indices, indptr, indices)
    if nnz == 0 or nnz > _INT32_MAX:
        return matrix @ matrix
    out_indptr = np.empty(n + 1, dtype=np.int32)
    out_indices = np.empty(nnz, dtype=np.int32)
    out_data = np.empty(nnz, dtype=np.float64)
    _CSR_MATMAT(
        n, n,
        indptr, indices, data,
        indptr, indices, data,
        out_indptr, out_indices, out_data,
    )
    out = sparse.csc_matrix.__new__(sparse.csc_matrix)
    out._shape = (n, n)
    out.indptr = out_indptr
    out.indices = out_indices
    out.data = out_data
    return out


def _normalize_columns(matrix: sparse.csc_matrix) -> sparse.csc_matrix:
    """Column-normalise a fresh matrix (setup path; copies freely)."""
    return _normalize_columns_inplace(sparse.csc_matrix(matrix))


def _normalize_columns_inplace(matrix: sparse.csc_matrix) -> sparse.csc_matrix:
    """Column-normalise, rewriting ``matrix.data`` in place.

    Equivalent to ``matrix @ diags(1.0 / sums)`` — each stored entry is
    scaled by its own column's reciprocal sum, so the results are
    bitwise identical — without materialising a second matrix.
    """
    sums = _column_sums(matrix)
    # Columns that pruned to zero get a self loop back.
    zero_columns = np.flatnonzero(sums == 0.0)
    if zero_columns.size:
        repair = sparse.csc_matrix(
            (
                np.ones(zero_columns.size),
                (zero_columns, zero_columns),
            ),
            shape=matrix.shape,
        )
        matrix = sparse.csc_matrix(matrix + repair)
        sums = _column_sums(matrix)
    scale = 1.0 / sums
    # CSC data is laid out column by column; np.diff(indptr) is each
    # column's stored-entry count.
    matrix.data *= np.repeat(scale, np.diff(matrix.indptr))
    return matrix


def _column_sums(matrix: sparse.csc_matrix) -> np.ndarray:
    """Per-column sums of the stored entries, as a dense vector.

    Replicates ``matrix.sum(axis=0)`` — the same ``np.add.reduceat``
    over the CSC data at the non-empty columns' ``indptr`` offsets, so
    the sums are bitwise identical — without the sparse wrapper's
    container round-trip, which dominates on tiny per-component
    matrices.
    """
    sums = np.zeros(matrix.shape[1], dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(matrix.indptr))
    if nonempty.size:
        sums[nonempty] = np.add.reduceat(
            matrix.data, matrix.indptr[nonempty]
        )
    return sums


def _inflate_inplace(matrix: sparse.csc_matrix, inflation: float) -> None:
    np.power(matrix.data, inflation, out=matrix.data)


def _prune_inplace(matrix: sparse.csc_matrix, threshold: float) -> None:
    matrix.data[matrix.data < threshold] = 0.0
    matrix.eliminate_zeros()


def _has_converged(
    current: sparse.csc_matrix, previous: sparse.csc_matrix, tol: float
) -> bool:
    # Near convergence consecutive iterates share their sparsity
    # pattern, so the difference is just the stored-data vectors'
    # elementwise subtraction — the same float operations the sparse
    # ``-`` performs on the union pattern, and the max over the same
    # value multiset, without ``_binopt``'s container construction.
    if (
        current.indptr.shape == previous.indptr.shape
        and current.indices.shape == previous.indices.shape
        and np.array_equal(current.indptr, previous.indptr)
        and np.array_equal(current.indices, previous.indices)
    ):
        if current.data.size == 0:
            return True
        return float(np.abs(current.data - previous.data).max()) < tol
    # Patterns differ (expansion fill-in vs pruning). For the tiny
    # per-component matrices the sweep feeds this, a dense difference
    # computes the same per-cell float64 subtractions the sparse union
    # would (absent entries are exact zeros) and the same maximum,
    # without ``_binopt``'s result construction. Large matrices keep
    # the sparse path so memory stays bounded by the union pattern.
    n = current.shape[0]
    if n <= 1024:
        dense = current.toarray()
        dense -= previous.toarray()
        np.abs(dense, out=dense)
        return float(dense.max()) < tol
    difference = (current - previous)
    if difference.nnz == 0:
        return True
    return float(np.abs(difference.data).max()) < tol


def _interpret(matrix: sparse.csc_matrix, n: int) -> List[List[int]]:
    """Read clusters off the converged matrix.

    Attractors are vertices with positive diagonal mass; an attractor's
    cluster is the set of vertices whose column sends flow to it.
    Overlapping attractor systems are merged; vertices attracted nowhere
    become singletons.
    """
    # Work straight off the CSC arrays: each stored entry's column is
    # its position in the ``indptr`` layout, the diagonal is the entries
    # with row == column, and an attractor row's cluster members are the
    # columns of its stored entries. Same entries the historical
    # CSR-conversion walk visited, without the per-row ``getrow``
    # containers; union order cannot matter (the output is a sorted
    # partition).
    columns = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(matrix.indptr)
    )
    rows = matrix.indices
    on_diagonal = rows == columns
    diagonal = np.zeros(n, dtype=np.float64)
    diagonal[columns[on_diagonal]] = matrix.data[on_diagonal]
    attractors = np.flatnonzero(diagonal > 0.0)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    is_attractor = np.zeros(n, dtype=bool)
    is_attractor[attractors] = True
    in_attractor_row = is_attractor[rows]
    for row, column in zip(
        rows[in_attractor_row].tolist(),
        columns[in_attractor_row].tolist(),
    ):
        union(row, column)

    clusters_by_root: dict = {}
    for vertex in range(n):
        clusters_by_root.setdefault(find(vertex), []).append(vertex)
    return sorted(
        (sorted(members) for members in clusters_by_root.values()),
        key=lambda cluster: cluster[0],
    )
