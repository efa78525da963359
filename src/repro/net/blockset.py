"""Helpers over lists of /24s: contiguous runs, and the adjacency
metrics that the Figure 7 and 8 analyses compute over the /24s of a
block (:mod:`repro.analysis.adjacency`).
"""

from __future__ import annotations

from typing import List, Sequence

from .addr import common_prefix_length
from .prefix import Prefix


def contiguous_runs(slash24s: Sequence[Prefix]) -> List[List[Prefix]]:
    """Split a set of /24s into maximal runs of numerically adjacent /24s.

    The paper observes (Section 5.3) that homogeneous blocks "often consist
    of multiple contiguous sub-blocks that are separated from each other";
    this helper extracts those sub-blocks.
    """
    ordered = sorted(slash24s)
    runs: List[List[Prefix]] = []
    for p in ordered:
        if p.length != 24:
            raise ValueError(f"{p} is not a /24")
        if runs and runs[-1][-1].network + 256 == p.network:
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


def adjacency_lcp_lengths(slash24s: Sequence[Prefix]) -> List[int]:
    """LCP lengths between numerically consecutive /24s (Figure 7a).

    Sorts the /24s and returns the longest-common-prefix length between
    each pair of neighbours; values range 0..23.
    """
    ordered = sorted(slash24s)
    lengths: List[int] = []
    for left, right in zip(ordered, ordered[1:]):
        lengths.append(min(common_prefix_length(left.network, right.network), 23))
    return lengths


def extremes_lcp_length(slash24s: Sequence[Prefix]) -> int:
    """LCP length between the smallest and largest /24 (Figure 7b)."""
    ordered = sorted(slash24s)
    if len(ordered) < 2:
        return 24
    return min(
        common_prefix_length(ordered[0].network, ordered[-1].network), 23
    )


def visualization_coordinates(slash24s: Sequence[Prefix]) -> List[float]:
    """Vertical-line x-coordinates for the Figure 8 adjacency plot.

    For a sorted list of /24s {p1..pn}: x1 = 1, and
    x_i = x_{i-1} + (24 - LCP_LEN(p_{i-1}, p_i)); gaps widen as adjacent
    /24s diverge.
    """
    ordered = sorted(slash24s)
    coords: List[float] = []
    for i, p in enumerate(ordered):
        if i == 0:
            coords.append(1.0)
        else:
            lcp = min(common_prefix_length(ordered[i - 1].network, p.network), 23)
            coords.append(coords[-1] + (24 - lcp))
    return coords
