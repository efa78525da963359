"""Sparse weighted undirected graphs for the clustering stage.

Vertices are aggregated blocks; edge weights are similarity scores.
Connected-component splitting (Section 6.3's second preprocessing step)
lets MCL run independently — and cheaply — per component.

The graph is **CSR-backed**: the canonical storage is one symmetric
:class:`scipy.sparse.csr_matrix`, built either directly from edge
arrays (:meth:`WeightedGraph.from_edge_arrays`, the similarity
builder's path) or by finalizing edges staged through
:meth:`WeightedGraph.add_edge` (tests and the test oracle). The
clustering stage reads it whole: :meth:`WeightedGraph.edge_arrays` for
the edges and :meth:`WeightedGraph.to_sparse` for the matrix.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class WeightedGraph:
    """Undirected graph with float weights, backed by a CSR matrix.

    Mutation (``add_edge``) stages edges in plain lists; any read
    finalizes the staged edges into the cached CSR form. Re-adding an
    existing edge overwrites its weight (last add wins), matching the
    historical adjacency-dict semantics.
    """

    def __init__(self, vertex_count: int) -> None:
        if vertex_count < 0:
            raise ValueError("vertex count cannot be negative")
        self._n = int(vertex_count)
        self._staged_u: List[int] = []
        self._staged_v: List[int] = []
        self._staged_w: List[float] = []
        self._matrix: Optional[sparse.csr_matrix] = None

    @classmethod
    def from_edge_arrays(
        cls,
        vertex_count: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
    ) -> "WeightedGraph":
        """Build directly from upper-triangular edge arrays.

        ``u < v`` element-wise, weights strictly positive, no duplicate
        pairs — the validation mirrors :meth:`add_edge`, vectorised.
        The CSR matrix is constructed in one shot; no Python edge lists
        are ever materialized.
        """
        graph = cls(vertex_count)
        u = np.ascontiguousarray(u, dtype=np.int64)
        v = np.ascontiguousarray(v, dtype=np.int64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(u):
            if (u == v).any():
                raise ValueError(
                    "self loops are added by MCL, not the graph"
                )
            if (w <= 0.0).any():
                raise ValueError("edges must have positive weight")
            if (
                u.min() < 0 or v.min() < 0
                or max(int(u.max()), int(v.max())) >= vertex_count
            ):
                raise ValueError("edge endpoint out of range")
        graph._matrix = _symmetric_csr(vertex_count, u, v, w)
        return graph

    # -- storage ----------------------------------------------------------

    def _csr(self) -> sparse.csr_matrix:
        """The canonical symmetric CSR matrix (staged edges folded in)."""
        if self._matrix is not None and not self._staged_u:
            return self._matrix
        u = np.array(self._staged_u, dtype=np.int64)
        v = np.array(self._staged_v, dtype=np.int64)
        w = np.array(self._staged_w, dtype=np.float64)
        if self._matrix is not None:
            prev_u, prev_v, prev_w = _upper_arrays(self._matrix)
            u = np.concatenate((prev_u, u))
            v = np.concatenate((prev_v, v))
            w = np.concatenate((prev_w, w))
        # Keep the *last* add of each (u, v) pair — overwrite semantics.
        if len(u):
            keys = u * self._n + v
            reversed_keys = keys[::-1]
            _, first_in_reversed = np.unique(
                reversed_keys, return_index=True
            )
            keep = (len(keys) - 1) - first_in_reversed
            u, v, w = u[keep], v[keep], w[keep]
        self._matrix = _symmetric_csr(self._n, u, v, w)
        self._staged_u.clear()
        self._staged_v.clear()
        self._staged_w.clear()
        return self._matrix

    # -- mutation ---------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if u == v:
            raise ValueError("self loops are added by MCL, not the graph")
        if weight <= 0.0:
            raise ValueError("edges must have positive weight")
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise IndexError(f"edge ({u}, {v}) out of range")
        if u > v:
            u, v = v, u
        self._staged_u.append(u)
        self._staged_v.append(v)
        self._staged_w.append(float(weight))

    # -- reads ------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self._csr().nnz) // 2

    def weight(self, u: int, v: int) -> float:
        """Edge weight, 0.0 if absent."""
        matrix = self._csr()
        lo, hi = int(matrix.indptr[u]), int(matrix.indptr[u + 1])
        position = lo + int(
            np.searchsorted(matrix.indices[lo:hi], v)
        )
        if position < hi and int(matrix.indices[position]) == v:
            return float(matrix.data[position])
        return 0.0

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Each undirected edge once, as (u, v, weight) with u < v,
        ordered by (u, v)."""
        u, v, w = self.edge_arrays()
        for i in range(len(u)):
            yield (int(u[i]), int(v[i]), float(w[i]))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The upper-triangular edge arrays ``(u, v, weight)`` with
        ``u < v``, sorted by (u, v). Shared views — do not mutate."""
        return _upper_arrays(self._csr())

    # -- components -------------------------------------------------------

    def connected_components(self) -> List[List[int]]:
        """Vertex lists of connected components (singletons included),
        each sorted, ordered by smallest member."""
        order, sizes = self.component_order()
        flat = order.tolist()
        ends = np.cumsum(sizes).tolist()
        return [
            flat[end - size:end] for end, size in zip(ends, sizes.tolist())
        ]

    def component_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every vertex grouped by connected component, and each
        component's size: components in order of their smallest member,
        members ascending (the historical DFS order, so cluster ids stay
        stable).

        Delegates to :func:`scipy.sparse.csgraph.connected_components`
        and reorders its labels.
        """
        if self._n == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        count, labels = csgraph.connected_components(
            self._csr(), directed=False
        )
        sizes = np.bincount(labels, minlength=count)
        # A stable argsort of the labels groups vertices with members
        # ascending, so each group's first element is its smallest.
        grouped = np.argsort(labels, kind="stable")
        smallest = grouped[np.cumsum(sizes) - sizes]
        order = np.argsort(smallest[labels], kind="stable")
        return order, sizes[np.argsort(smallest)]

    def to_sparse(self) -> sparse.csr_matrix:
        """Symmetric CSR adjacency matrix.

        Returns the graph's own canonical matrix (no copy — building a
        second full-graph matrix used to double aggregation's peak
        memory); callers must treat it as read-only.
        """
        return self._csr()


def _symmetric_csr(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> sparse.csr_matrix:
    """Canonical symmetric CSR from upper-triangular edge arrays."""
    matrix = sparse.csr_matrix(
        (
            np.concatenate((w, w)),
            (np.concatenate((u, v)), np.concatenate((v, u))),
        ),
        shape=(n, n),
    )
    matrix.sort_indices()
    return matrix


def _upper_arrays(
    matrix: sparse.csr_matrix,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangular (u, v, weight) arrays of a symmetric CSR matrix,
    in (u, v) order."""
    upper = sparse.triu(matrix, k=1, format="csr")
    upper.sort_indices()
    coo = upper.tocoo()
    return (
        coo.row.astype(np.int64),
        coo.col.astype(np.int64),
        coo.data,
    )
