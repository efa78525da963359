"""Aggregating /24s with identical last-hop router sets (Section 5).

Each homogeneous /24 carries the set of last-hop routers observed for
its addresses. /24s whose sets are *identical* (same size, same
members) are merged into one homogeneous block — the paper reduces
1.77M /24s to 0.53M blocks this way. The grouping is a dict keyed by
the frozenset itself, so it is exact for any prefix and any router id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..net.prefix import Prefix


@dataclass(frozen=True)
class AggregatedBlock:
    """A homogeneous block: one or more /24s sharing a last-hop set."""

    block_id: int
    lasthop_set: FrozenSet[int]
    slash24s: Tuple[Prefix, ...]

    @property
    def size(self) -> int:
        """Block size in /24s (the Figure 5 metric)."""
        return len(self.slash24s)

    def __str__(self) -> str:
        return (
            f"block#{self.block_id} size={self.size} "
            f"lasthops={len(self.lasthop_set)}"
        )


def aggregate_identical(
    lasthop_sets: Mapping[Prefix, FrozenSet[int]],
) -> List[AggregatedBlock]:
    """Merge /24s with identical last-hop sets into blocks.

    /24s with empty sets are skipped (nothing to aggregate on). Block
    ids are assigned in order of each set's smallest /24.
    """
    by_set: Dict[FrozenSet[int], List[Prefix]] = {}
    for slash24, lasthops in lasthop_sets.items():
        if not lasthops:
            continue
        by_set.setdefault(lasthops, []).append(slash24)
    groups = sorted(
        by_set.items(), key=lambda item: min(item[1])
    )
    return [
        AggregatedBlock(
            block_id=index,
            lasthop_set=lasthops,
            slash24s=tuple(sorted(slash24s)),
        )
        for index, (lasthops, slash24s) in enumerate(groups)
    ]


# -- summaries ----------------------------------------------------------


def size_histogram(blocks: List[AggregatedBlock]) -> Dict[int, int]:
    """Block size → number of blocks (Figure 5 / Figure 10 data)."""
    return dict(Counter(block.size for block in blocks))


def size_log2_histogram(blocks: List[AggregatedBlock]) -> Dict[int, int]:
    """Block count per power-of-two size bucket: bucket b covers sizes
    [2^b, 2^(b+1))."""
    histogram: Counter = Counter()
    for block in blocks:
        histogram[block.size.bit_length() - 1] += 1
    return dict(histogram)


def top_blocks(blocks: List[AggregatedBlock], count: int = 15) -> List[AggregatedBlock]:
    """The largest blocks (Table 5's ranking)."""
    return sorted(blocks, key=lambda b: (-b.size, b.slash24s[0]))[:count]
