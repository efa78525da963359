"""The hierarchy test — Hobbit's central inference (Section 2.3).

Route entries are installed for destination *networks*, and networks
nest: any two route entries are either disjoint (siblings) or one
contains the other (parent/child). So if probed addresses are grouped by
last-hop router and the groups' numeric ranges are pairwise
hierarchical, the divergence *may* come from distinct route entries —
the /24 may be heterogeneous. If even one pair of ranges overlaps
without containment (non-hierarchical), no set of route entries could
produce it; the divergence must be load balancing, and the /24 is
homogeneous (Figure 2).
"""

from __future__ import annotations

from typing import Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from ..net.prefix import AddressRange
from .grouping import group_ranges


def ranges_hierarchical(ranges: Sequence[AddressRange]) -> bool:
    """True if every pair of ranges is disjoint or nested."""
    return find_non_hierarchical_pair(ranges) is None


def find_non_hierarchical_pair(
    ranges: Sequence[AddressRange],
) -> Tuple[AddressRange, AddressRange] | None:
    """The first pair of ranges that overlaps without containment, or
    None if the relationships are fully hierarchical.

    O(n log n): after sorting by (first, -size), a range can only
    non-hierarchically overlap a predecessor that ends inside it.
    """
    ordered = sorted(ranges, key=lambda r: (r.first, -r.last))
    # Stack of currently-open enclosing ranges.
    stack: List[AddressRange] = []
    for current in ordered:
        while stack and stack[-1].last < current.first:
            stack.pop()
        if stack:
            enclosing = stack[-1]
            if enclosing.last < current.last or enclosing == current:
                # Partial overlap, or equal ranges (which only shared
                # addresses — i.e. load balancing — can produce).
                return (enclosing, current)
        stack.append(current)
    return None


def ranges_non_hierarchical_batch(
    first: np.ndarray, last: np.ndarray, present: np.ndarray
) -> np.ndarray:
    """:func:`find_non_hierarchical_pair` over many range lists at once.

    Row ``d`` holds one range per column, ``first[d, j]`` to
    ``last[d, j]``, for the columns where ``present[d, j]``; the other
    columns are ignored. Entry ``d`` of the result is True when two of
    the row's ranges overlap without either containing the other, or are
    equal — exactly when the scalar test finds a pair.
    """
    upper, lower = np.triu_indices(first.shape[1], k=1)
    a_first, a_last = first[:, upper], last[:, upper]
    b_first, b_last = first[:, lower], last[:, lower]
    overlap = (a_first <= b_last) & (b_first <= a_last)
    a_holds_b = (a_first <= b_first) & (b_last <= a_last)
    b_holds_a = (b_first <= a_first) & (a_last <= b_last)
    # Neither holds the other (partial overlap), or each holds the
    # other (equal ranges).
    violating = overlap & (a_holds_b == b_holds_a)
    return (violating & present[:, upper] & present[:, lower]).any(axis=1)


def groups_hierarchical(groups: Mapping[Hashable, List[int]]) -> bool:
    """Hierarchy test straight from grouped addresses."""
    return ranges_hierarchical(group_ranges(groups))
