"""Sparse weighted undirected graphs for the clustering stage.

Vertices are aggregated blocks; edge weights are similarity scores.
Connected-component splitting (Section 6.3's second preprocessing step)
lets MCL run independently — and cheaply — per component.

A graph is immutable: :meth:`WeightedGraph.from_edge_arrays` builds its
one symmetric :class:`scipy.sparse.csr_matrix` from edge arrays (the
similarity builder's path, and the only way to make one). The
clustering stage reads it whole: :meth:`WeightedGraph.edge_arrays` for
the edges and :meth:`WeightedGraph.to_sparse` for the matrix.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


class WeightedGraph:
    """Undirected graph with float weights, backed by a fixed CSR matrix."""

    def __init__(self, matrix: sparse.csr_matrix) -> None:
        """Wrap a canonical symmetric matrix; build graphs with
        :meth:`from_edge_arrays`, which checks its edges."""
        self._matrix = matrix

    @classmethod
    def from_edge_arrays(
        cls,
        vertex_count: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
    ) -> "WeightedGraph":
        """Build from edge arrays, one entry per undirected edge.

        Endpoints in range and distinct, weights strictly positive, and
        no pair given twice (in either order). The CSR matrix is
        constructed in one shot; no Python edge lists are materialized.
        """
        if vertex_count < 0:
            raise ValueError("vertex count cannot be negative")
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
        matrix = _symmetric_csr(vertex_count, u, v, w)
        # The CSR build sums repeated entries, so a pair given twice (in
        # either order) leaves fewer than two stored entries per edge.
        if matrix.nnz != 2 * len(u):
            raise ValueError("an edge is given more than once")
        return cls(matrix)

    # -- reads ------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._matrix.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self._matrix.nnz) // 2

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The upper-triangular edge arrays ``(u, v, weight)`` with
        ``u < v``, sorted by (u, v)."""
        return _upper_arrays(self._matrix)

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
        if self.vertex_count == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        count, labels = csgraph.connected_components(
            self._matrix, directed=False
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
        return self._matrix


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
