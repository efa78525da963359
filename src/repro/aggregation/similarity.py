"""Similarity scores between blocks and the clustering input graph
(Section 6.3).

For blocks A and B with last-hop sets S_A and S_B the similarity is
|S_A ∩ S_B| / max(|S_A|, |S_B|): 1.0 for identical sets, 0 for disjoint
ones. Blocks are vertices; positive scores become weighted edges. The
weight-1 pre-aggregation the paper describes is already done — the
vertices *are* the identical-set blocks from Section 5.

The graph is a Gram product: the block×router sparse incidence matrix
B gives every pair's intersection count as ``B @ B.T`` (one scipy CSR
multiply), scaled by ``1/max(|S_u|, |S_v|)`` vectorially. Integer
counts and set sizes are far below 2^53, so the float64 division is
bit-identical to Python's int/int division of the same counts.
"""

from __future__ import annotations

from itertools import chain
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np
from scipy import sparse

from .graph import WeightedGraph
from .identical import AggregatedBlock


def similarity(a: FrozenSet[int], b: FrozenSet[int]) -> float:
    """|A ∩ B| / max(|A|, |B|); 0.0 when either set is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / max(len(a), len(b))


def _incidence(
    blocks: Sequence[AggregatedBlock],
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """The block×router incidence matrix (one row per block, one column
    per distinct router, entries 1) and each block's last-hop set
    size. Router ids must fit in int64."""
    sizes = np.fromiter(
        (len(block.lasthop_set) for block in blocks),
        dtype=np.int64,
        count=len(blocks),
    )
    pool = np.fromiter(
        chain.from_iterable(block.lasthop_set for block in blocks),
        dtype=np.int64,
        count=int(sizes.sum()),
    )
    routers, columns = np.unique(pool, return_inverse=True)
    rows = np.repeat(np.arange(len(blocks), dtype=np.int64), sizes)
    incidence = sparse.csr_matrix(
        (np.ones(len(pool), dtype=np.int64), (rows, columns.ravel())),
        shape=(len(blocks), len(routers)),
    )
    return incidence, sizes


def build_similarity_graph(
    blocks: Sequence[AggregatedBlock],
) -> WeightedGraph:
    """Vertices are block indices; edges connect blocks sharing at least
    one last-hop router, weighted by similarity.

    The strict upper triangle of ``B @ B.T`` is exactly the edge set,
    so the cost is proportional to actual overlaps, not all block pairs.
    """
    incidence, sizes = _incidence(blocks)
    counts = sparse.triu(incidence @ incidence.T, k=1, format="coo")
    u = counts.row.astype(np.int64)
    v = counts.col.astype(np.int64)
    weights = counts.data / np.maximum(sizes[u], sizes[v])
    return WeightedGraph.from_edge_arrays(len(blocks), u, v, weights)


def pairwise_similarities(
    blocks: Sequence[AggregatedBlock],
) -> List[float]:
    """All pairwise similarity scores among the given blocks (used by
    the Section 6.6 rule, which inspects their distribution).

    Vectorised as a dense Gram computation over the blocks' incidence
    matrix; output order is row-major i < j, matching the historical
    nested loop, and every score is the same int/int division.
    """
    n = len(blocks)
    if n < 2:
        return []
    incidence, sizes = _incidence(blocks)
    counts = (incidence @ incidence.T).toarray()
    i, j = np.triu_indices(n, k=1)
    denominator = np.maximum(sizes[i], sizes[j])
    scores = np.where(
        denominator > 0,
        counts[i, j] / np.maximum(denominator, 1),
        0.0,
    )
    return scores.tolist()
