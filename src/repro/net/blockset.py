"""Helpers over lists of prefixes: minimal CIDR normalisation, and the
adjacency metrics that the Figure 7 and 8 analyses compute over the /24s
of a block (:mod:`repro.analysis.adjacency`).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .addr import common_prefix_length
from .prefix import Prefix, to_prefixes


def normalize(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Minimal sorted CIDR list covering exactly the union of the input.

    Removes prefixes nested inside others and merges adjacent siblings,
    repeatedly, until a fixed point.

    >>> [str(p) for p in normalize([Prefix.parse("10.0.0.0/25"),
    ...                             Prefix.parse("10.0.0.128/25")])]
    ['10.0.0.0/24']
    """
    spans = merged_spans(prefixes)
    result: List[Prefix] = []
    for first, last in spans:
        result.extend(to_prefixes(first, last))
    return result


def merged_spans(prefixes: Iterable[Prefix]) -> List[Tuple[int, int]]:
    """Union of the input prefixes as sorted disjoint [first, last] spans."""
    spans = sorted((p.first, p.last) for p in prefixes)
    merged: List[Tuple[int, int]] = []
    for first, last in spans:
        if merged and first <= merged[-1][1] + 1:
            prev_first, prev_last = merged[-1]
            merged[-1] = (prev_first, max(prev_last, last))
        else:
            merged.append((first, last))
    return merged


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
